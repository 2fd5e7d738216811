//! # rtgcn-core
//!
//! The paper's contribution: RT-GCN, a relational temporal graph
//! convolutional network for ranking-based stock prediction (Zheng et al.,
//! ICDE 2023).
//!
//! - [`config`] — hyperparameters and the [`config::Strategy`] enum;
//! - [`strategy`] — differentiable construction of the weighted adjacency
//!   for the uniform / weighted / time-sensitive strategies (Eqs. 3–5);
//! - [`layers`] — relational graph convolution and the weight-normalised
//!   causal temporal convolution block;
//! - [`model`] — the end-to-end [`model::RtGcn`] (Figure 3);
//! - [`ranker`] — the [`ranker::StockRanker`] trait every evaluated model
//!   implements, the [`ranker::fit_epochs`] loop every tape-trained model
//!   fits through, and RT-GCN's implementation.
//!
//! ```no_run
//! use rtgcn_core::{RtGcn, RtGcnConfig, Strategy, StockRanker};
//! use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
//!
//! let ds = StockDataset::generate(UniverseSpec::of(Market::Nasdaq, Scale::Small), 42);
//! let relations = ds.relations(RelationKind::Both);
//! let mut model = RtGcn::new(RtGcnConfig::with_strategy(Strategy::TimeSensitive), &relations, 42);
//! let report = model.fit(&ds);
//! println!("trained in {:.1}s, final loss {:.4}", report.train_secs, report.final_loss);
//! ```

pub mod checkpoint;
pub mod config;
pub mod layers;
pub mod model;
pub mod ranker;
pub mod refit;
pub mod strategy;

pub use checkpoint::{Checkpoint, CheckpointError, DataSpec};
pub use config::{RtGcnConfig, Strategy};
pub use model::{RtGcn, StepStats};
pub use ranker::{fit_epochs, FitPlan, FitReport, StockRanker};
pub use refit::{RefitPolicy, RefitReason};
pub use strategy::StrategyCtx;
