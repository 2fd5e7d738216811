//! # rtgcn-market
//!
//! The market-data substrate of the RT-GCN reproduction. Substitutes the
//! paper's external data sources with calibrated synthetic equivalents
//! (DESIGN.md §4):
//!
//! - [`universe`] — NASDAQ/NYSE/CSI universe specs calibrated to Tables
//!   II–III, with `small`/`medium`/`paper` scales;
//! - [`relations`] — industry-clique and sparse wiki-style typed relation
//!   generators hitting the paper's relation ratios;
//! - [`synth`] — factor-model price simulator with sector co-movement,
//!   momentum, COVID-like crash regime, and time-varying lead-lag spillover
//!   along wiki edges (what the time-sensitive strategy exploits);
//! - [`features`] — the 4-step feature pipeline (last-close normalisation,
//!   5/10/20-day MAs, return ratios, chronological split);
//! - [`dataset`] — assembled datasets with train/test window sampling;
//! - [`index`] — synthetic DJI / S&P 500 / CSI 300 comparison indices.

pub mod dataset;
pub mod features;
pub mod index;
pub mod relations;
pub mod stream;
pub mod synth;
pub mod universe;

pub use dataset::{DayEvent, RelationKind, Sample, StockDataset};
pub use features::{return_ratios, warmup_for, window_features, MAX_FEATURES, WARMUP_DAYS};
pub use index::index_cumulative_returns;
pub use relations::{IndustryRelations, WikiEdge, WikiRelations};
pub use stream::FeatureStream;
pub use synth::{simulate, MarketSim, SynthConfig};
pub use universe::{Market, Scale, UniverseSpec};
