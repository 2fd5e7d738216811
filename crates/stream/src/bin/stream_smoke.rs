//! Streaming smoke harness (`run_experiments.sh --stream-smoke`): train a
//! tiny RT-GCN on a wiki-bearing universe truncated right before the crash
//! shock, then walk it forward day by day through the streaming engine —
//! incremental features, streamed scoring, one edge add and one edge drop
//! mid-walk, scheduled walk-forward refits — verifying bitwise
//! parity against a from-scratch rebuild after the walk.
//!
//! The lagged walk-forward MRR / top-k return series land in the
//! `stream.mrr` / `stream.cum_irr` gauges and the `stream.score_ns`
//! histogram of the run's telemetry log; perfbench's stream-advance
//! workload times `/advance`.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{begin_model_scope, harness_error, HarnessArgs};
use rtgcn_core::{RefitPolicy, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_market::{DayEvent, Market, RelationKind, Scale, StockDataset, UniverseSpec, WikiEdge};
use rtgcn_stream::{share_model, StreamConfig, StreamEngine};

const HARNESS: &str = "stream_smoke";
const T_STEPS: usize = 8;
const N_FEATURES: usize = 2;
/// Days to walk forward (the smoke-scale "test period").
const WALK_DAYS: usize = 12;
/// Walk steps at which the relation graph mutates.
const ADD_STEP: usize = 3;
const DROP_STEP: usize = 7;

/// A wiki-bearing universe small enough for the default gate. CSI has no
/// wiki types (Table III), so edge add events would be rejected there —
/// the walk runs on a shrunken NASDAQ.
fn smoke_spec() -> UniverseSpec {
    let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
    spec.stocks = 14;
    spec.train_days = 60;
    spec.test_days = WALK_DAYS;
    spec.sectors = 3;
    spec
}

fn add_event(ds: &StockDataset) -> DayEvent {
    let n = ds.n_stocks();
    for i in 0..n {
        for j in (i + 1)..n {
            if !ds.wiki.relations.related(i, j) {
                return DayEvent {
                    add: vec![WikiEdge {
                        leader: i,
                        follower: j,
                        types: vec![0],
                        strength: 0.4,
                        period: 10,
                        phase: 0,
                        duty: 1.0,
                    }],
                    drop: vec![],
                };
            }
        }
    }
    harness_error(HARNESS, &"no unrelated pair to add an edge between");
}

fn drop_event(ds: &StockDataset) -> DayEvent {
    match ds.wiki.relations.pairs().next() {
        Some((i, j, _)) => DayEvent { add: vec![], drop: vec![(i, j)] },
        None => harness_error(HARNESS, &"no wiki pair to drop"),
    }
}

fn main() {
    // Must be set before HarnessArgs::init (which starts the server);
    // single-threaded at this point. An explicit RTGCN_MONITOR wins.
    if std::env::var("RTGCN_MONITOR").map(|v| v.trim().is_empty()).unwrap_or(true) {
        std::env::set_var("RTGCN_MONITOR", "127.0.0.1:0");
    }
    let (args, _telemetry) = HarnessArgs::init(HARNESS);
    begin_model_scope("stream");

    let spec = smoke_spec();
    let seed = args.base_seed;
    let shock = spec.test_start();
    // Truncate right before the shock: the first streamed day IS the crash
    // day, so the walk straddles the regime switch.
    let ds = StockDataset::generate_through(spec.clone(), seed, shock);
    let relations = ds.relations(RelationKind::Both);
    let cfg = RtGcnConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        rel_filters: 8,
        temporal_filters: 8,
        epochs: args.epochs,
        strategy: Strategy::TimeSensitive,
        dropout: 0.0,
        ..Default::default()
    };
    let mut model = RtGcn::new(cfg, &relations, seed);
    let report = model.fit(&ds);
    if report.health == rtgcn_telemetry::health::HealthVerdict::Diverged {
        harness_error(HARNESS, &format!("training diverged: {:?}", report.epoch_health));
    }
    println!(
        "[{HARNESS}] trained RT-GCN (T) on {} stocks x {} train days in {:.1}s (final loss {:.4})",
        spec.stocks, spec.train_days, report.train_secs, report.final_loss
    );

    let mut scfg = StreamConfig::new(T_STEPS, N_FEATURES, RelationKind::Both);
    scfg.top_k = 3;
    scfg.refit = RefitPolicy::every(5);
    let mut engine = StreamEngine::new(ds, share_model(model), scfg);
    if let Err(e) = engine.verify_parity() {
        harness_error(HARNESS, &format!("pre-walk parity: {e}"));
    }

    let (mut mutations, mut refits) = (0usize, 0usize);
    for step in 0..WALK_DAYS {
        let event = match step {
            ADD_STEP => Some(add_event(engine.dataset())),
            DROP_STEP => Some(drop_event(engine.dataset())),
            _ => None,
        };
        let out = engine.advance(event);
        mutations += out.relations_changed as usize;
        refits += out.refit.is_some() as usize;
        println!(
            "[{HARNESS}] day {}: mrr {} cum_irr {:+.4}{}{}",
            out.day,
            out.mrr.map(|m| format!("{m:.3}")).unwrap_or_else(|| "-".into()),
            out.cum_irr,
            if out.relations_changed { " [graph mutated]" } else { "" },
            out.refit.map(|r| format!(" [refit: {r:?}]")).unwrap_or_default(),
        );
    }
    if let Err(e) = engine.verify_parity() {
        harness_error(HARNESS, &format!("post-walk parity: {e}"));
    }
    if mutations != 2 {
        harness_error(HARNESS, &format!("expected 1 add + 1 drop to mutate the graph, saw {mutations}"));
    }
    if refits == 0 {
        harness_error(HARNESS, &"the 5-day refit cadence never fired over the walk");
    }

    let settled: Vec<_> = engine.outcomes().iter().filter(|o| o.mrr.is_some()).collect();
    if settled.len() != WALK_DAYS {
        harness_error(HARNESS, &format!("expected {WALK_DAYS} settled days, got {}", settled.len()));
    }
    let mean_mrr =
        settled.iter().map(|o| o.mrr.unwrap()).sum::<f64>() / settled.len() as f64;
    let final_irr = settled.last().map(|o| o.cum_irr).unwrap_or(0.0);
    if !(mean_mrr.is_finite() && mean_mrr > 0.0 && final_irr.is_finite()) {
        harness_error(HARNESS, &format!("degenerate walk-forward metrics: mrr {mean_mrr}, irr {final_irr}"));
    }
    println!(
        "[{HARNESS}] walk-forward: {} days (shock at {shock}), mean MRR {mean_mrr:.4}, \
         cumulative IRR {final_irr:+.4}, {refits} refits, {mutations} graph mutations",
        settled.len(),
    );
    println!("[{HARNESS}] streaming parity verified: bit-identical to batch rebuild at day {}",
        engine.current_day());
}
