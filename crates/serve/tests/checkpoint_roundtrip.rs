//! Serving-grade checkpoint parity: for every servable family (and every
//! RT-GCN propagation strategy) a trained model must survive
//! checkpoint → save → load → rebuild with **bit-identical** scores, both
//! on dataset days (`scores_for_day`) and on raw windows (`score_window`).

use rtgcn_baselines::{LstmRanker, Rsr, RsrConfig, SeqConfig, Sthan, SthanConfig};
use rtgcn_core::{Checkpoint, DataSpec, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::servable::{
    build_model, checkpoint_lstm, checkpoint_rsr, checkpoint_rtgcn, checkpoint_sthan,
};

const T_STEPS: usize = 6;
const N_FEATURES: usize = 2;
const SEED: u64 = 7;

fn tiny_data() -> (DataSpec, StockDataset) {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 6;
    spec.train_days = 30;
    spec.test_days = 4;
    let data = DataSpec { spec, seed: SEED, relation_kind: RelationKind::Both };
    let ds = StockDataset::generate(data.spec.clone(), data.seed);
    (data, ds)
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The shared assertion: disk round trip is byte-exact, and the rebuilt
/// model scores bit-identically to the trained one everywhere.
fn assert_parity(trained: &mut dyn StockRanker, ckpt: Checkpoint, ds: &StockDataset, tag: &str) {
    let dir = std::env::temp_dir().join(format!("rtgcn-serve-rt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.rtgckpt");
    ckpt.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(loaded, ckpt, "{tag}: disk round trip must be lossless");
    assert_eq!(loaded.to_bytes(), ckpt.to_bytes(), "{tag}: re-encode must be byte-identical");
    assert_eq!(loaded.content_id(), ckpt.content_id(), "{tag}: version tag must be stable");

    let mut rebuilt = build_model(&loaded, ds, None).unwrap_or_else(|e| panic!("{tag}: {e}"));
    for day in ds.test_end_days() {
        assert_eq!(
            bits(&rebuilt.model.scores_for_day(ds, day)),
            bits(&trained.scores_for_day(ds, day)),
            "{tag}: scores_for_day({day}) must be bit-identical after reload"
        );
    }
    let window = ds.sample(*ds.test_end_days().last().unwrap(), T_STEPS, N_FEATURES).x;
    let a = trained.score_window(&window).unwrap_or_else(|| panic!("{tag}: no score_window"));
    let b = rebuilt.model.score_window(&window).unwrap();
    assert_eq!(bits(&a), bits(&b), "{tag}: score_window must be bit-identical after reload");
}

fn rtgcn_cfg(strategy: Strategy) -> RtGcnConfig {
    RtGcnConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        rel_filters: 4,
        temporal_filters: 4,
        epochs: 1,
        strategy,
        ..RtGcnConfig::default()
    }
}

fn rtgcn_strategy_roundtrip(strategy: Strategy, tag: &str) {
    let (data, ds) = tiny_data();
    let relations = ds.relations(data.relation_kind);
    let mut model = RtGcn::new(rtgcn_cfg(strategy), &relations, SEED);
    model.fit(&ds);
    let ckpt = checkpoint_rtgcn(&model, &data).unwrap();
    assert_eq!(ckpt.family, "rtgcn");
    assert_parity(&mut model, ckpt, &ds, tag);
}

#[test]
fn rtgcn_uniform_roundtrip() {
    rtgcn_strategy_roundtrip(Strategy::Uniform, "rtgcn-uniform");
}

#[test]
fn rtgcn_weighted_roundtrip() {
    rtgcn_strategy_roundtrip(Strategy::Weighted, "rtgcn-weighted");
}

#[test]
fn rtgcn_time_sensitive_roundtrip() {
    rtgcn_strategy_roundtrip(Strategy::TimeSensitive, "rtgcn-time-sensitive");
}

/// RT-GCN checkpoints written while its config still had a `fused` switch
/// carry `"fused":true` (or `false`) in their config JSON. The key is gone;
/// such a checkpoint must still rebuild a model that scores bit-identically.
#[test]
fn rtgcn_checkpoint_with_legacy_fused_key_still_loads() {
    let (data, ds) = tiny_data();
    let relations = ds.relations(data.relation_kind);
    let mut model = RtGcn::new(rtgcn_cfg(Strategy::TimeSensitive), &relations, SEED);
    model.fit(&ds);
    let ckpt = checkpoint_rtgcn(&model, &data).unwrap();
    let window = ds.sample(*ds.test_end_days().last().unwrap(), T_STEPS, N_FEATURES).x;
    let expect = bits(&model.score_window(&window).unwrap());
    for fused in [true, false] {
        let mut old = ckpt.clone();
        let body = old.config_json.strip_suffix('}').unwrap();
        old.config_json = format!("{body},\"fused\":{fused}}}");
        let mut rebuilt =
            build_model(&old, &ds, None).unwrap_or_else(|e| panic!("fused={fused}: {e}"));
        assert_eq!(bits(&rebuilt.model.score_window(&window).unwrap()), expect, "fused={fused}");
    }
}

fn seq_cfg() -> SeqConfig {
    SeqConfig { t_steps: T_STEPS, n_features: N_FEATURES, hidden: 4, epochs: 1, ..SeqConfig::default() }
}

#[test]
fn lstm_roundtrip() {
    let (data, ds) = tiny_data();
    let mut model = LstmRanker::regression(seq_cfg(), SEED);
    model.fit(&ds);
    let ckpt = checkpoint_lstm(&model, &data).unwrap();
    assert_eq!(ckpt.family, "lstm");
    assert_parity(&mut model, ckpt, &ds, "lstm");
}

#[test]
fn rank_lstm_roundtrip() {
    let (data, ds) = tiny_data();
    let mut model = LstmRanker::ranking(seq_cfg(), SEED);
    model.fit(&ds);
    let ckpt = checkpoint_lstm(&model, &data).unwrap();
    assert_eq!(ckpt.family, "rank_lstm");
    assert_parity(&mut model, ckpt, &ds, "rank_lstm");
}

#[test]
fn rsr_roundtrip() {
    let (data, ds) = tiny_data();
    let cfg = RsrConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        hidden: 4,
        epochs: 1,
        ..RsrConfig::default()
    };
    let mut model = Rsr::new(cfg, SEED);
    model.fit(&ds);
    let ckpt = checkpoint_rsr(&model, &data).unwrap();
    assert_eq!(ckpt.family, "rsr");
    assert_parity(&mut model, ckpt, &ds, "rsr");
}

#[test]
fn sthan_roundtrip() {
    let (data, ds) = tiny_data();
    let cfg = SthanConfig {
        t_steps: T_STEPS,
        n_features: N_FEATURES,
        hidden: 4,
        epochs: 1,
        ..SthanConfig::default()
    };
    let mut model = Sthan::new(cfg, SEED);
    model.fit(&ds);
    let ckpt = checkpoint_sthan(&model, &data).unwrap();
    assert_eq!(ckpt.family, "sthan");
    assert_parity(&mut model, ckpt, &ds, "sthan");
}

/// A registry-installed RT-GCN (shared adjacency cache) must score exactly
/// like a standalone rebuild — the cache is a layout optimisation, not a
/// numerics change.
#[test]
fn shared_cache_rebuild_matches_standalone() {
    let (data, ds) = tiny_data();
    let relations = ds.relations(data.relation_kind);
    let mut model = RtGcn::new(rtgcn_cfg(Strategy::Weighted), &relations, SEED);
    model.fit(&ds);
    let ckpt = checkpoint_rtgcn(&model, &data).unwrap();

    let registry = rtgcn_serve::Registry::new();
    let entry = registry.install_checkpoint(&ckpt).unwrap();
    let day = *ds.test_end_days().last().unwrap();
    assert_eq!(
        bits(&entry.scores),
        bits(&model.scores_for_day(&ds, day)),
        "registry-precomputed ranking scores must match the trained model"
    );
    let window = ds.sample(day, T_STEPS, N_FEATURES).x;
    let via_registry = entry.score_window(window.data()).unwrap();
    let direct = model.score_window(&window).unwrap();
    assert_eq!(bits(&via_registry), bits(&direct));
}

/// Cross-family confusion must fail structurally: an RSR store cannot be
/// applied to an LSTM architecture.
#[test]
fn wrong_family_config_is_rejected() {
    let (data, ds) = tiny_data();
    let mut model = LstmRanker::regression(seq_cfg(), SEED);
    model.fit(&ds);
    let mut ckpt = checkpoint_lstm(&model, &data).unwrap();
    ckpt.family = "nonsense".to_string();
    assert!(matches!(
        build_model(&ckpt, &ds, None),
        Err(rtgcn_serve::ServeError::UnknownFamily(_))
    ));
}
