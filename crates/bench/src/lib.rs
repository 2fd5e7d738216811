//! # rtgcn-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`). Shared pieces:
//!
//! - [`cli`] — harness flags (`--scale`, `--seeds`, `--epochs`, ...);
//! - [`models`] — the unified [`models::Spec`] over RT-GCN, its ablations
//!   and all baselines;
//! - [`runner`] — seeded fit + backtest orchestration and aggregation;
//! - [`experiment`] — what every harness shares: one dataset and artifact
//!   per market, the journal context, and [`experiment::RosterTable`] for
//!   the roster-ranking tables (IV–VII);
//! - [`snapshot`] — fold telemetry JSONL run logs into machine-readable
//!   `BENCH_<harness>.json` perf baselines and diff them for regressions
//!   (CLI: the `rtgcn-report` binary).

pub mod cli;
pub mod experiment;
pub mod journal;
pub mod models;
pub mod monitor;
pub mod runner;
pub mod snapshot;

pub use cli::{begin_model_scope, harness_ctx, harness_error, HarnessArgs};
pub use models::Spec;
pub use experiment::{context, for_each_market, RosterTable};
pub use runner::{
    aggregate_with_failures, evaluate_roster, run_roster, strongest_baseline, FailedSeed,
    ModelRow, RunnerConfig, SeedRun,
};
pub use snapshot::{build_snapshot, diff_snapshots, render_markdown, BenchSnapshot};
