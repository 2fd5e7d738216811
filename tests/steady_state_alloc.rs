//! A steady-state RT-GCN forward allocates no large buffer: the second
//! `RtGcn::score` of a window takes every buffer of 64 KiB or more from the
//! spares the first call's tape left behind, and returns the same bits.
//!
//! The binary installs the tracking allocator and holds exactly one test,
//! so no sibling test thread can take or replace the spares in between.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn::core::{RtGcn, RtGcnConfig, Strategy};
use rtgcn::market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_telemetry::alloc::{set_tracking, thread_large_allocs};

#[test]
fn a_second_score_makes_no_large_allocation() {
    // The serving benchmark's shape: NASDAQ Small (102 stocks, both
    // relation kinds), RT-GCN (T) at its defaults (T = 16, 32 filters).
    let ds = StockDataset::generate(UniverseSpec::of(Market::Nasdaq, Scale::Small), 1);
    let relations = ds.relations(RelationKind::Both);
    let cfg = RtGcnConfig::default();
    assert_eq!(cfg.strategy, Strategy::TimeSensitive);
    let mut model = RtGcn::new(cfg.clone(), &relations, 7);
    let window = ds.sample(ds.test_end_days()[0], cfg.t_steps, cfg.n_features).x;

    set_tracking(true);
    let before = thread_large_allocs();
    let first = model.score(&window);
    let cold = thread_large_allocs() - before;
    let before = thread_large_allocs();
    let second = model.score(&window);
    let warm = thread_large_allocs() - before;
    set_tracking(false);

    assert!(cold > 0, "the first score should allocate its large buffers");
    assert_eq!(warm, 0, "a steady-state score made {warm} allocations of 64 KiB or more");
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first), bits(&second), "reused buffers changed the scores");
}
