//! A steady-state RT-GCN training step makes at most one large allocation:
//! after warm-up, each `RtGcn::train_step` takes its value and gradient
//! buffers of 64 KiB or more from the spares the previous step's tape left
//! behind. The one it still makes is the TCN input's second gradient, which
//! `Tape::backward_seeded` adds into the first and frees.
//!
//! The binary installs the tracking allocator and holds exactly one test,
//! so no sibling test thread can take or replace the spares in between.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn::core::{RtGcn, RtGcnConfig, Strategy};
use rtgcn::market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn::tensor::Adam;
use rtgcn_telemetry::alloc::{set_tracking, thread_large_allocs};

#[test]
fn a_warm_training_step_makes_at_most_one_large_allocation() {
    // The shape of `steady_state_alloc.rs`: NASDAQ Small, RT-GCN (T) at its
    // defaults, which train with spatial dropout.
    let ds = StockDataset::generate(UniverseSpec::of(Market::Nasdaq, Scale::Small), 1);
    let relations = ds.relations(RelationKind::Both);
    let cfg = RtGcnConfig::default();
    assert_eq!(cfg.strategy, Strategy::TimeSensitive);
    assert!(cfg.dropout > 0.0);
    let mut model = RtGcn::new(cfg.clone(), &relations, 7);
    let mut opt = Adam::new(cfg.lr, cfg.lambda);
    let days = &ds.train_end_days(cfg.t_steps)[..5];
    let samples: Vec<_> = days.iter().map(|&d| ds.sample(d, cfg.t_steps, cfg.n_features)).collect();

    set_tracking(true);
    let mut warm = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let before = thread_large_allocs();
        let loss = model.train_step(&s.x, &s.y, &mut opt);
        assert!(loss.is_finite(), "step {i} loss {loss}");
        if i >= 2 {
            warm.push(thread_large_allocs() - before);
        }
    }
    set_tracking(false);

    assert!(
        warm.iter().all(|&n| n <= 1),
        "warm training steps made {warm:?} allocations of 64 KiB or more"
    );
}
