//! Reusing tape buffers cannot change a result. Each case runs once on an
//! empty spare set, which leaves the set holding every large buffer the run
//! used; the set is then restocked with NaN-filled buffers of exactly those
//! sizes, and a second run must give the same bits while taking spares
//! instead of allocating. A kernel that read a spare before writing all of
//! it would read NaN.
//!
//! The binary holds one test, so no sibling test thread drops a tape
//! between the stocking and the run.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn::baselines::lstm_rankers::{LstmRanker, SeqConfig};
use rtgcn::baselines::rsr::{Rsr, RsrConfig};
use rtgcn::core::{RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn::market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn::tensor::{spares, Adam};
use rtgcn_telemetry::alloc;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run `case` on an empty spare set, then on NaN-filled spares of every
/// size the first run used, and require identical bits.
fn assert_reuse_is_invisible(name: &str, mut case: impl FnMut() -> Vec<u32>) {
    spares::stock(&[], 0.0);
    let large = alloc::thread_large_allocs();
    let clean = case();
    let clean_large = alloc::thread_large_allocs() - large;
    let sizes = spares::held();
    assert!(!sizes.is_empty(), "{name}: the run used no large buffer, so nothing is tested");
    spares::stock(&sizes, f32::NAN);
    let large = alloc::thread_large_allocs();
    let reused = case();
    let reused_large = alloc::thread_large_allocs() - large;
    assert!(
        reused_large < clean_large,
        "{name}: the stocked run took no spare ({reused_large} vs {clean_large} large allocations)"
    );
    assert!(clean == reused, "{name}: a result changed when buffers were reused");
}

#[test]
fn reused_buffers_give_bit_identical_results() {
    alloc::set_tracking(true);
    let ds = StockDataset::generate(UniverseSpec::of(Market::Nasdaq, Scale::Small), 1);
    let relations = ds.relations(RelationKind::Both);
    let day = ds.test_end_days()[0];
    let sample = ds.sample(day, 16, 4);

    for strategy in [Strategy::Uniform, Strategy::Weighted, Strategy::TimeSensitive] {
        // Forward and backward: one training step from the same seed,
        // then the loss terms, every gradient and every updated parameter.
        assert_reuse_is_invisible(&format!("RT-GCN {strategy:?} train step"), || {
            let cfg = RtGcnConfig { strategy, ..RtGcnConfig::default() };
            let mut model = RtGcn::new(cfg, &relations, 11);
            let stats = model.train_step_stats(&sample.x, &sample.y, &mut Adam::new(1e-3, 0.0));
            let mut out = bits(&[stats.loss, stats.mse, stats.rank, stats.grad_norm]);
            for id in model.store.ids() {
                out.extend(bits(model.store.grad(id).data()));
                out.extend(bits(model.store.value(id).data()));
            }
            out
        });
    }

    // Hidden width 128 puts the recurrent baselines' buffers over the floor.
    let mut lstm = LstmRanker::regression(SeqConfig { hidden: 128, ..SeqConfig::default() }, 5);
    assert_reuse_is_invisible("LSTM score", || bits(&lstm.score_window(&sample.x).unwrap()));

    let mut rsr = Rsr::new(RsrConfig { hidden: 128, ..RsrConfig::default() }, 5);
    rsr.prepare(&ds);
    assert_reuse_is_invisible("RSR score", || bits(&rsr.score_window(&sample.x).unwrap()));
    alloc::set_tracking(false);
}
