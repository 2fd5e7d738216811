//! Relation events on the streaming path: a 40-day walk on a tiny universe
//! with every kind of edge event must stay bit-identical to a from-scratch
//! rebuild (`StreamEngine::verify_parity`) after each event day, and report
//! a graph change exactly when a relation flag flipped.

use rtgcn::core::{RtGcn, RtGcnConfig, Strategy};
use rtgcn::market::{DayEvent, Market, RelationKind, Scale, StockDataset, UniverseSpec, WikiEdge};
use rtgcn_stream::{share_model, StreamConfig, StreamEngine};

const T_STEPS: usize = 8;
const N_FEATURES: usize = 2;
const KIND: RelationKind = RelationKind::Both;

fn tiny_engine(seed: u64) -> StreamEngine {
    let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
    spec.stocks = 12;
    spec.train_days = 50;
    spec.test_days = 10;
    spec.sectors = 3;
    let ds = StockDataset::generate_through(spec.clone(), seed, spec.test_start());
    let cfg = RtGcnConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        rel_filters: 8,
        temporal_filters: 8,
        dropout: 0.0,
        ..RtGcnConfig::with_strategy(Strategy::TimeSensitive)
    };
    // Untrained: parity does not depend on the weights, and skipping the
    // fit keeps the walk fast in debug builds.
    let model = RtGcn::new(cfg, &ds.relations(KIND), seed);
    let mut scfg = StreamConfig::new(T_STEPS, N_FEATURES, KIND);
    scfg.top_k = 3;
    StreamEngine::new(ds, share_model(model), scfg)
}

fn add((leader, follower): (usize, usize)) -> DayEvent {
    let edge = WikiEdge {
        leader,
        follower,
        types: vec![0],
        strength: 0.4,
        period: 10,
        phase: 0,
        duty: 1.0,
    };
    DayEvent { add: vec![edge], drop: vec![] }
}

fn drop_pair(pair: (usize, usize)) -> DayEvent {
    DayEvent { add: vec![], drop: vec![pair] }
}

fn edge_count(engine: &StreamEngine) -> isize {
    engine.dataset().relations(KIND).directed_edges().len() as isize
}

#[test]
fn every_kind_of_edge_event_keeps_stream_parity() {
    let mut engine = tiny_engine(5);
    let (fresh, stranger, peers) = {
        let ds = engine.dataset();
        let (wiki, industry) = (&ds.wiki.relations, &ds.industry.relations);
        let n = ds.n_stocks();
        let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
        let mut unrelated =
            pairs.clone().filter(|&(i, j)| !wiki.related(i, j) && !industry.related(i, j));
        let fresh = unrelated.next().expect("an unrelated pair");
        let stranger = unrelated.next().expect("a second unrelated pair");
        let peers = pairs
            .clone()
            .find(|&(i, j)| industry.related(i, j) && !wiki.related(i, j))
            .expect("an industry pair without a wiki relation");
        (fresh, stranger, peers)
    };

    // (walk step, event, relations changed, change in directed edge count)
    let schedule = [
        (3, add(fresh), true, 2),
        // Same edge set, but the pair's multi-hot gains wiki type 0.
        (9, add(peers), true, 0),
        // Every flag already set: still spills over, but no graph change.
        (15, add(fresh), false, 0),
        (21, drop_pair(fresh), true, -2),
        // A re-added edge is a new edge.
        (27, add(fresh), true, 2),
        (33, drop_pair(stranger), false, 0),
    ];
    let mut schedule = schedule.into_iter().peekable();
    for step in 0..40 {
        let due = schedule.next_if(|(at, ..)| *at == step);
        let edges_before = edge_count(&engine);
        let out = engine.advance(due.as_ref().map(|(_, ev, ..)| ev.clone()));
        match due {
            Some((_, _, changed, delta)) => {
                assert_eq!(out.relations_changed, changed, "day {}", out.day);
                assert_eq!(edge_count(&engine) - edges_before, delta, "day {}", out.day);
                engine.verify_parity().unwrap_or_else(|e| panic!("day {}: {e}", out.day));
            }
            None => assert!(!out.relations_changed, "day {}", out.day),
        }
    }
    assert!(schedule.next().is_none(), "every event was applied");
    let both = engine.dataset().relations(KIND);
    assert!(both.multi_hot(peers.0, peers.1).expect("still related")[0], "wiki type 0 set");
    engine.verify_parity().expect("parity at the end of the walk");
}
