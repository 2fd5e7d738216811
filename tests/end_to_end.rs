//! Workspace integration tests: the full pipeline from synthetic market
//! generation through training to backtested metrics, spanning every crate.

use rtgcn::baselines::{CommonConfig, ModelKind};
use rtgcn::core::{FitReport, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn::eval::{backtest, Oracle, RandomRanker};
use rtgcn::market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn::telemetry as tel;

fn micro_dataset(seed: u64) -> StockDataset {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 12;
    spec.train_days = 60;
    spec.test_days = 12;
    StockDataset::generate(spec, seed)
}

fn micro_gcn_config(strategy: Strategy) -> RtGcnConfig {
    RtGcnConfig {
        t_steps: 8,
        n_features: 2,
        rel_filters: 8,
        temporal_filters: 8,
        epochs: 2,
        dropout: 0.0,
        ..RtGcnConfig::with_strategy(strategy)
    }
}

#[test]
fn rtgcn_full_pipeline_produces_valid_metrics() {
    let ds = micro_dataset(1);
    for strategy in Strategy::ALL {
        let mut model = RtGcn::new(micro_gcn_config(strategy), &ds.relations(RelationKind::Both), 1);
        let fit = model.fit(&ds);
        assert!(fit.final_loss.is_finite(), "{strategy:?} loss");
        let out = backtest(&mut model, &ds, &[1, 5, 10], 1);
        let mrr = out.mrr.expect("ranking model has MRR");
        assert!((0.0..=1.0).contains(&mrr), "{strategy:?} MRR {mrr}");
        for (&k, series) in &out.daily_cumulative {
            assert_eq!(series.len(), ds.spec.test_days, "{strategy:?} k={k}");
            assert!(series.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn oracle_dominates_and_random_is_baseline_floor() {
    let ds = micro_dataset(2);
    let o = backtest(&mut Oracle, &ds, &[1, 5], 2);
    let r = backtest(&mut RandomRanker::new(3), &ds, &[1, 5], 2);
    // Train a real model and place it between the bounds (weak check: must
    // not exceed the oracle).
    let mut model =
        RtGcn::new(micro_gcn_config(Strategy::Uniform), &ds.relations(RelationKind::Both), 2);
    model.fit(&ds);
    let m = backtest(&mut model, &ds, &[1, 5], 2);
    assert!(o.irr[&1] >= m.irr[&1], "oracle must upper-bound any model");
    assert!(o.mrr.unwrap() >= m.mrr.unwrap());
    assert!(o.irr[&1] > r.irr[&1], "oracle must beat random");
}

/// Every trained model of Tables IV and V: the Table IV baselines, STHAN-SR
/// and RT-GCN (T), all over `common`'s window and epoch budget.
fn roster(ds: &StockDataset, common: &CommonConfig) -> Vec<Box<dyn StockRanker>> {
    let mut models: Vec<Box<dyn StockRanker>> = ModelKind::TABLE4
        .into_iter()
        .chain([ModelKind::Sthan])
        .map(|kind| rtgcn::baselines::build(kind, common, 3))
        .collect();
    let gcn = RtGcnConfig {
        t_steps: common.t_steps,
        epochs: common.epochs,
        ..micro_gcn_config(Strategy::TimeSensitive)
    };
    models.push(Box::new(RtGcn::new(gcn, &ds.relations(RelationKind::Both), 3)));
    models
}

/// Fit `model` with fresh telemetry and return its report plus every event
/// the fit emitted, span aggregates included.
fn fit_recorded(model: &mut dyn StockRanker, ds: &StockDataset) -> (FitReport, Vec<tel::Event>) {
    tel::reset();
    tel::drain_memory_sink();
    let fit = model.fit(ds);
    tel::flush_aggregates();
    let events = tel::drain_memory_sink()
        .iter()
        .map(|l| serde_json::from_str(l).expect("telemetry line parses as an Event"))
        .collect();
    (fit, events)
}

fn has_event(events: &[tel::Event], kind: &str, name: &str) -> bool {
    events.iter().any(|e| e.kind == kind && e.name == name)
}

/// One fit contract for the whole roster: every model but the closed-form
/// ARIMA trains through the shared epoch loop, so each reports per-epoch
/// losses, wall times and health, and emits the same span skeleton; and an
/// empty training split yields NaN losses plus a `fit.empty_split` warning.
#[test]
fn every_baseline_runs_end_to_end_on_micro_data() {
    let _guard = tel::test_scope(tel::Level::Summary);
    let ds = micro_dataset(3);
    let common = CommonConfig {
        t_steps: 8,
        n_features: 2,
        hidden: 8,
        epochs: 2,
        ..Default::default()
    };
    for mut model in roster(&ds, &common) {
        let name = model.name();
        let (fit, events) = fit_recorded(model.as_mut(), &ds);
        assert!(fit.train_secs >= 0.0, "{name}");
        if name != "ARIMA" {
            assert_eq!(fit.epoch_losses.len(), 2, "{name} epoch_losses");
            assert_eq!(fit.epoch_secs.len(), 2, "{name} epoch_secs");
            assert_eq!(fit.epoch_health.len(), 2, "{name} epoch_health");
            for span in ["fit/epoch/backward", "fit/epoch/optim"] {
                assert!(has_event(&events, "span", span), "{name} emits no {span} span");
            }
        }
        let out = backtest(model.as_mut(), &ds, &[1, 5], 3);
        assert_eq!(out.mrr.is_some(), model.can_rank(), "{name} MRR presence");
        assert!(out.irr[&1].is_finite(), "{name} IRR");
    }

    // A window longer than the whole split leaves no training day.
    let empty = CommonConfig { t_steps: ds.spec.train_days + ds.spec.test_days + 10, ..common };
    for mut model in roster(&ds, &empty) {
        let name = model.name();
        if name == "ARIMA" {
            continue;
        }
        let (fit, events) = fit_recorded(model.as_mut(), &ds);
        assert_eq!(fit.epoch_losses.len(), 2, "{name}");
        assert!(
            fit.epoch_losses.iter().all(|l| l.is_nan()),
            "{name}: an empty split must yield NaN losses, not a silent 0.0: {:?}",
            fit.epoch_losses
        );
        assert!(has_event(&events, "warn", "fit.empty_split"), "{name} did not warn fit.empty_split");
    }
}

#[test]
fn training_and_testing_split_never_overlaps() {
    let ds = micro_dataset(4);
    for t in [4usize, 8, 12] {
        let train = ds.train_end_days(t);
        let test = ds.test_end_days();
        assert!(train.iter().all(|d| d + 1 < ds.spec.test_start()));
        assert!(test.iter().all(|&d| d >= ds.spec.test_start()));
    }
}

#[test]
fn relational_signal_improves_over_relation_blind_model() {
    // On a market with lead-lag spillover along relation edges, RT-GCN
    // should rank stocks better (higher MRR) than the same-capacity
    // relation-blind Rank_LSTM. MRR is used rather than IRR because the
    // short test window sits inside the simulated crash, where absolute
    // returns are regime-dominated. Averaged over seeds to avoid flakiness.
    let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
    spec.stocks = 36;
    spec.train_days = 110;
    spec.test_days = 25;
    let mut gcn_total = 0.0;
    let mut lstm_total = 0.0;
    for seed in [5u64, 6, 7] {
        let ds = StockDataset::generate(spec.clone(), seed);
        let mut gcn = RtGcn::new(
            RtGcnConfig { epochs: 3, t_steps: 8, n_features: 2, ..RtGcnConfig::with_strategy(Strategy::Weighted) },
            &ds.relations(RelationKind::Both),
            seed,
        );
        gcn.fit(&ds);
        gcn_total += backtest(&mut gcn, &ds, &[5], seed).mrr.unwrap();
        let mut lstm = rtgcn::baselines::LstmRanker::ranking(
            rtgcn::baselines::SeqConfig { epochs: 3, t_steps: 8, n_features: 2, ..Default::default() },
            seed,
        );
        lstm.fit(&ds);
        lstm_total += backtest(&mut lstm, &ds, &[5], seed).mrr.unwrap();
    }
    assert!(
        gcn_total > lstm_total,
        "relation-aware model should out-rank relation-blind on average: MRR {gcn_total} vs {lstm_total}"
    );
}

#[test]
fn umbrella_crate_reexports_work() {
    // Compile-time check that the umbrella crate exposes every layer.
    let t = rtgcn::tensor::Tensor::scalar(1.0);
    assert_eq!(t.item(), 1.0);
    let mut r = rtgcn::graph::RelationTensor::new(3, 1);
    r.connect(0, 1, 0);
    assert!(r.related(1, 0));
    let _ = rtgcn::eval::top_k_indices(&[0.3, 0.9], 1);
}
