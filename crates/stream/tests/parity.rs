//! The streaming parity suite: a K-day walk with relation mutations
//! mid-stream, crossing the crash shock at `test_start()`, must stay
//! **bit-identical** to a from-scratch batch rebuild at every day — dataset,
//! relation edges, moving averages, and the held prediction itself — and
//! each streamed ranking must equal the batch scoring of its day's
//! `window_features` window, bit for bit.

use rtgcn_core::{FitReport, RefitPolicy, RefitReason, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_market::{
    DayEvent, Market, RelationKind, Scale, StockDataset, UniverseSpec, WikiEdge,
};
use rtgcn_stream::{share_model, StreamConfig, StreamEngine};
use rtgcn_tensor::Tensor;

const T_STEPS: usize = 8;
const N_FEATURES: usize = 2;

fn tiny_spec() -> UniverseSpec {
    let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
    spec.stocks = 12;
    spec.train_days = 50;
    spec.test_days = 10;
    spec.sectors = 3;
    spec
}

fn trained_engine(seed: u64, refit: RefitPolicy) -> StreamEngine {
    let (ds, model) = trained_model(seed);
    let mut scfg = StreamConfig::new(T_STEPS, N_FEATURES, RelationKind::Both);
    scfg.top_k = 3;
    scfg.refit = refit;
    StreamEngine::new(ds, share_model(model), scfg)
}

fn trained_model(seed: u64) -> (StockDataset, RtGcn) {
    let spec = tiny_spec();
    // Truncate right before the shock day: the first advance generates
    // `test_start()` itself, so the walk straddles the crash regime switch.
    let ds = StockDataset::generate_through(spec.clone(), seed, spec.test_start());
    let relations = ds.relations(RelationKind::Both);
    let cfg = RtGcnConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        rel_filters: 8,
        temporal_filters: 8,
        epochs: 1,
        strategy: Strategy::TimeSensitive,
        dropout: 0.0,
        ..Default::default()
    };
    let mut model = RtGcn::new(cfg, &relations, seed);
    model.fit(&ds);
    (ds, model)
}

/// An add event for some currently-unrelated pair.
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
    panic!("universe is a complete graph?");
}

/// A drop event for some currently-related pair.
fn drop_event(ds: &StockDataset) -> DayEvent {
    let (i, j, _) = ds.wiki.relations.pairs().next().expect("no wiki pairs to drop");
    DayEvent { add: vec![], drop: vec![(i, j)] }
}

#[test]
fn streamed_walk_with_mutations_is_bit_identical_to_rebuild() {
    let mut engine = trained_engine(11, RefitPolicy::disabled());
    let shock = engine.dataset().spec.test_start();
    assert_eq!(engine.current_day(), shock - 1, "walk must start just before the shock");
    engine.verify_parity().expect("pre-walk parity");
    let mut mutated_days = 0;
    for step in 0..8 {
        let event = match step {
            2 => Some(add_event(engine.dataset())),
            5 => Some(drop_event(engine.dataset())),
            _ => None,
        };
        let out = engine.advance(event);
        mutated_days += out.relations_changed as usize;
        // Bitwise parity against a from-scratch rebuild at EVERY day, not
        // just at the end — the ISSUE's acceptance bar.
        engine.verify_parity().unwrap_or_else(|e| panic!("day {}: {e}", out.day));
        assert_eq!(out.day, shock + step, "days must advance one at a time");
        assert!(out.mrr.is_some(), "every advance settles the previous prediction");
    }
    assert_eq!(mutated_days, 2, "one add and one drop must have changed the graph");
    assert!(engine.current_day() >= shock + 7, "walk crossed the crash shock");
    let (_, scores) = engine.latest_scores();
    assert!(scores.iter().all(|s| s.is_finite()));
}

/// The held prediction and the model's batch scoring of the same day's
/// `window_features` window, as bits. `scores_for_day` would demand the
/// not-yet-generated next-day target, so the batch path scores the window
/// directly, as `POST /score` does.
fn streamed_and_batch_bits(engine: &StreamEngine) -> (Vec<u32>, Vec<u32>) {
    let (day, streamed) = engine.latest_scores();
    let x = rtgcn_market::window_features(&engine.dataset().sim.prices, day, T_STEPS, N_FEATURES);
    let batch = engine.model().lock().score_window(&x).expect("RT-GCN scores raw windows");
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    (bits(streamed), bits(&batch))
}

#[test]
fn streamed_scores_equal_batch_scoring_bitwise() {
    let mut engine = trained_engine(17, RefitPolicy::disabled());
    for step in 0..6 {
        let event = match step {
            1 => Some(add_event(engine.dataset())),
            4 => Some(drop_event(engine.dataset())),
            _ => None,
        };
        let out = engine.advance(event);
        let (streamed, batch) = streamed_and_batch_bits(&engine);
        assert_eq!(streamed, batch, "day {}", out.day);
    }
}

#[test]
fn schedule_refit_fires_on_cadence_and_resets() {
    let mut engine = trained_engine(23, RefitPolicy::every(3));
    let mut refit_days = Vec::new();
    for _ in 0..7 {
        let out = engine.advance(None);
        if let Some(reason) = out.refit {
            assert_eq!(reason, RefitReason::Schedule);
            refit_days.push(out.day);
        }
        let (_, scores) = engine.latest_scores();
        assert!(scores.iter().all(|s| s.is_finite()), "post-refit scores must stay finite");
    }
    let shock = engine.dataset().spec.test_start();
    assert_eq!(refit_days, vec![shock + 2, shock + 5], "every third advanced day");
    engine.verify_parity().expect("refits must not disturb data-side parity");
}

/// A model that cannot score raw windows: the engine must fall back to the
/// dataset scoring path and keep full parity.
struct IndexRanker;

impl StockRanker for IndexRanker {
    fn name(&self) -> String {
        "index".into()
    }
    fn fit(&mut self, _ds: &StockDataset) -> FitReport {
        FitReport::default()
    }
    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        // Yesterday's return as today's score: deterministic, data-derived.
        (0..ds.n_stocks()).map(|i| ds.realized_return(end_day - 1, i)).collect()
    }
}

#[test]
fn window_less_models_fall_back_and_keep_parity() {
    let spec = tiny_spec();
    let ds = StockDataset::generate_through(spec.clone(), 31, spec.test_start());
    let mut cfg = StreamConfig::new(T_STEPS, N_FEATURES, RelationKind::Both);
    cfg.top_k = 3;
    let mut engine = StreamEngine::new(ds, share_model(IndexRanker), cfg);
    for step in 0..4 {
        let event = (step == 1).then(|| add_event(engine.dataset()));
        engine.advance(event);
        engine.verify_parity().expect("fallback path must preserve parity");
    }
    let (day, scores) = engine.latest_scores();
    assert_eq!(day, spec.test_start() + 3);
    assert!(scores.iter().any(|&s| s != 0.0), "fallback scores must be real data");
}

/// RT-GCN that refuses every relation refresh, as it does when the universe
/// or the relation-type count changes: it keeps scoring its original graph.
struct StaleGraph(RtGcn);

impl StockRanker for StaleGraph {
    fn name(&self) -> String {
        "stale-graph".into()
    }
    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        self.0.fit(ds)
    }
    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        self.0.scores_for_day(ds, end_day)
    }
    fn score_window(&mut self, x: &Tensor) -> Option<Vec<f32>> {
        self.0.score_window(x)
    }
}

#[test]
fn a_model_that_refuses_a_refresh_keeps_scoring_its_graph() {
    let (ds, model) = trained_model(37);
    let mut cfg = StreamConfig::new(T_STEPS, N_FEATURES, RelationKind::Both);
    cfg.top_k = 3;
    let mut engine = StreamEngine::new(ds, share_model(StaleGraph(model)), cfg);
    for step in 0..3 {
        // After the add, the dataset holds one more edge than the model's
        // graph; the model goes on scoring the graph it has.
        let event = (step == 0).then(|| add_event(engine.dataset()));
        let out = engine.advance(event);
        engine.verify_parity().unwrap_or_else(|e| panic!("day {}: {e}", out.day));
        let (streamed, batch) = streamed_and_batch_bits(&engine);
        assert_eq!(streamed, batch, "day {}", out.day);
    }
}
