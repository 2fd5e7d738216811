//! End-to-end snapshot pipeline: a real (tiny) RT-GCN fit + backtest
//! streamed into the memory sink must fold into a `ModelSnapshot` carrying
//! kernel percentiles, per-day IRR series and the health verdict — and an
//! injected latency regression must trip the diff gate.

use rtgcn_bench::snapshot::{diff_snapshots, model_snapshot, parse_events, render_markdown, BenchSnapshot};
use rtgcn_core::{RtGcn, RtGcnConfig, StockRanker};
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_telemetry as tel;

fn tiny_ds() -> StockDataset {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 30;
    spec.test_days = 6;
    StockDataset::generate(spec, 11)
}

fn tiny_cfg() -> RtGcnConfig {
    RtGcnConfig {
        t_steps: 6,
        n_features: 2,
        rel_filters: 6,
        temporal_filters: 6,
        epochs: 2,
        ..RtGcnConfig::default()
    }
}

#[test]
fn memory_sink_run_folds_into_a_live_snapshot() {
    let _guard = tel::test_scope(tel::Level::Summary);
    let ds = tiny_ds();
    let mut model = RtGcn::new(tiny_cfg(), &ds.relations(RelationKind::Both), 5);
    let report = model.fit(&ds);
    assert!(report.final_loss.is_finite());
    let outcome = rtgcn_eval::backtest(&mut model, &ds, &[1, 5], 5);
    assert_eq!(outcome.daily_cumulative[&1].len(), ds.spec.test_days);
    tel::flush_aggregates();

    let lines = tel::drain_memory_sink();
    let events = parse_events(lines.iter().map(|s| s.as_str()));
    let m = model_snapshot("RT-GCN (T)", &events);

    // Kernel histogram with percentiles, one sample per scored test day.
    let day = m
        .hists
        .iter()
        .find(|h| h.name == "backtest.day_score_ns")
        .expect("backtest must record per-day scoring latency");
    assert_eq!(day.count, ds.spec.test_days as u64);
    assert!(day.p50_ns > 0 && day.p95_ns >= day.p50_ns);

    // Per-day cumulative IRR series for every requested k.
    for k in [1usize, 5] {
        let s = m
            .series
            .iter()
            .find(|s| s.name == format!("backtest.irr.k{k}"))
            .unwrap_or_else(|| panic!("missing IRR series for k={k}"));
        assert_eq!(s.points.len(), ds.spec.test_days);
        assert_eq!(s.points.last().unwrap().value, outcome.irr[&k]);
    }

    // Health verdict and per-epoch loss series from the fit monitor.
    assert_eq!(m.health, "Healthy");
    assert_eq!(m.epochs, 2);
    let loss = m.series.iter().find(|s| s.name == "fit.loss").expect("fit.loss series");
    assert_eq!(loss.points.len(), 2);

    // The span tree covers every training phase under the epoch.
    let tree = m.span_tree.as_ref().expect("snapshot builds a span tree");
    for phase in ["relational", "temporal", "loss", "backward", "optim"] {
        let leaf = format!("fit/epoch/{phase}");
        assert!(tree.iter().any(|s| s.path.ends_with(&leaf)), "missing phase span {leaf}");
    }
    assert!(m.backtest_days_per_sec > 0.0);

    // The markdown rendering names the model and its verdict.
    let snap = BenchSnapshot { harness: "snapshot_test".into(), created_ms: 0, models: vec![m] };
    let md = render_markdown(&snap);
    assert!(md.contains("RT-GCN (T)") && md.contains("Healthy"), "{md}");

    // Histogram diffs compare exact means (never the 2x-spaced bucket
    // bounds) and only for paths costing ≥1 ms at baseline, so pin the
    // baseline day-score mean at 5 ms: a +30% regression on it trips the
    // 20% gate, and the untouched snapshot diffs clean against itself.
    let mut snap = snap;
    snap.models[0]
        .hists
        .iter_mut()
        .find(|h| h.name == "backtest.day_score_ns")
        .unwrap()
        .mean_ns = 5e6;
    assert!(diff_snapshots(&snap, &snap, 20.0).is_empty());
    let mut slow = snap.clone();
    let h = slow.models[0]
        .hists
        .iter_mut()
        .find(|h| h.name == "backtest.day_score_ns")
        .unwrap();
    h.mean_ns *= 1.3;
    let regs = diff_snapshots(&snap, &slow, 20.0);
    assert_eq!(regs.len(), 1, "{regs:?}");
    assert_eq!(regs[0].metric, "backtest.day_score_ns.mean_ns");
    assert!(regs[0].pct > 20.0);
}
