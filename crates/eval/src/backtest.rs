//! The daily buy-sell backtester (paper Section V-B.1): every test day, buy
//! the predicted top-N stocks at the close and sell them at the next close;
//! report MRR and cumulative IRR. Classification baselines (which cannot
//! rank) get the paper's fallback: a uniformly random top-N draw from their
//! predicted-up set.

use crate::metrics::{cumulative_irr, daily_topk_return, reciprocal_rank};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtgcn_core::StockRanker;
use rtgcn_market::StockDataset;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything a results table needs about one model's test run.
#[derive(Clone, Debug)]
pub struct BacktestOutcome {
    pub name: String,
    /// `None` for classification models (the paper prints `-`).
    pub mrr: Option<f64>,
    /// Final cumulative IRR per top-k.
    pub irr: BTreeMap<usize, f64>,
    /// Full cumulative series per top-k (Figure 6).
    pub daily_cumulative: BTreeMap<usize, Vec<f64>>,
    /// Wall-clock seconds spent scoring the test period (Figure 5's shaded
    /// bars).
    pub test_secs: f64,
}

/// Classification label conventions for non-ranking models: `scores_for_day`
/// returns 2.0 (up), 1.0 (neutral) or 0.0 (down) per stock.
pub const CLASS_UP: f32 = 2.0;

/// Run the daily buy-sell evaluation over the dataset's test period.
pub fn backtest(
    model: &mut dyn StockRanker,
    ds: &StockDataset,
    ks: &[usize],
    seed: u64,
) -> BacktestOutcome {
    let _bt_span = rtgcn_telemetry::span("backtest");
    let days = ds.test_end_days();
    let n = ds.n_stocks();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbac6_7e57);
    let mut rr_sum = 0.0f64;
    let mut daily: BTreeMap<usize, Vec<f64>> = ks.iter().map(|&k| (k, Vec::new())).collect();
    let t0 = Instant::now();
    for &day in &days {
        // Per-day scoring latency feeds the `backtest.day_score_ns` histogram
        // (p50/p95/p99 in the summary sink and JSONL stream).
        let s0 = Instant::now();
        let scores = model.scores_for_day(ds, day);
        rtgcn_telemetry::record_ns("backtest.day_score_ns", s0.elapsed().as_nanos() as u64);
        assert_eq!(scores.len(), n, "model must score every stock");
        let truth: Vec<f32> = (0..n).map(|i| ds.realized_return(day, i)).collect();
        if model.can_rank() {
            rr_sum += reciprocal_rank(&scores, &truth);
            for &k in ks {
                daily.entry(k).or_default().push(daily_topk_return(&scores, &truth, k));
            }
        } else {
            // Paper V-C.1: classification methods output up/neutral/down and
            // cannot rank; select top-N uniformly at random, preferring
            // predicted-up stocks, then neutral, then down.
            let mut pool_up: Vec<usize> =
                (0..n).filter(|&i| scores[i] >= CLASS_UP - 0.5).collect();
            let mut pool_rest: Vec<usize> =
                (0..n).filter(|&i| scores[i] < CLASS_UP - 0.5).collect();
            pool_up.shuffle(&mut rng);
            pool_rest.shuffle(&mut rng);
            pool_up.extend(pool_rest);
            for &k in ks {
                let ret = class_day_return(&pool_up, &truth, k, &model.name());
                daily.entry(k).or_default().push(ret);
            }
        }
    }
    let test_secs = t0.elapsed().as_secs_f64();
    // An empty test split must not masquerade as a real (zero) score: follow
    // the NaN + warn-event convention degenerate fits use, so downstream
    // means/maxes can filter it rather than average in a fake 0.0.
    if days.is_empty() {
        rtgcn_telemetry::warn(
            "backtest.degenerate",
            &format!("{}: empty test split — MRR/IRR are NaN, not scores", model.name()),
        );
    }
    let mrr = if model.can_rank() {
        Some(if days.is_empty() { f64::NAN } else { rr_sum / days.len() as f64 })
    } else {
        None
    };
    let daily_cumulative: BTreeMap<usize, Vec<f64>> =
        daily.iter().map(|(&k, r)| (k, cumulative_irr(r))).collect();
    // Stream the cumulative-IRR curves (Figure 6) as gauge series so the
    // BENCH snapshot can carry per-day investment trajectories.
    for (&k, series) in &daily_cumulative {
        let name = format!("backtest.irr.k{k}");
        for (i, &v) in series.iter().enumerate() {
            rtgcn_telemetry::gauge(&name, i as u64, v);
        }
    }
    let irr: BTreeMap<usize, f64> = daily_cumulative
        .iter()
        .map(|(&k, c)| (k, c.last().copied().unwrap_or(f64::NAN)))
        .collect();
    BacktestOutcome { name: model.name(), mrr, irr, daily_cumulative, test_secs }
}

/// One classification-mode day return: mean realised return of the first
/// `k` pool entries (predicted-up stocks first). An undersized pool — only
/// possible with an empty universe — reports NaN plus a warn event instead
/// of panicking, per the degenerate-metric convention.
fn class_day_return(pool: &[usize], truth: &[f32], k: usize, model_name: &str) -> f64 {
    // lint:allow(nan-discipline) usize top-k clamp on index counts, not a float metric
    let kk = k.min(pool.len()).max(1);
    match pool.get(..kk) {
        Some(picks) => picks.iter().map(|&i| truth[i] as f64).sum::<f64>() / kk as f64,
        None => {
            rtgcn_telemetry::warn(
                "backtest.degenerate",
                &format!(
                    "{model_name}: top-{k} requested from a {}-stock pool — day return is NaN",
                    pool.len()
                ),
            );
            f64::NAN
        }
    }
}

/// A perfect-foresight oracle: scores equal tomorrow's true return ratios.
/// Upper-bounds every metric; used in tests and sanity checks.
pub struct Oracle;

impl StockRanker for Oracle {
    fn name(&self) -> String {
        "Oracle".into()
    }

    fn fit(&mut self, _ds: &StockDataset) -> rtgcn_core::FitReport {
        rtgcn_core::FitReport::default()
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        (0..ds.n_stocks()).map(|i| ds.realized_return(end_day, i)).collect()
    }
}

/// A uniformly random ranker — the no-information floor.
pub struct RandomRanker {
    rng: StdRng,
}

impl RandomRanker {
    pub fn new(seed: u64) -> Self {
        RandomRanker { rng: StdRng::seed_from_u64(seed) }
    }
}

impl StockRanker for RandomRanker {
    fn name(&self) -> String {
        "Random".into()
    }

    fn fit(&mut self, _ds: &StockDataset) -> rtgcn_core::FitReport {
        rtgcn_core::FitReport::default()
    }

    fn scores_for_day(&mut self, ds: &StockDataset, _end_day: usize) -> Vec<f32> {
        use rand::Rng;
        (0..ds.n_stocks()).map(|_| self.rng.gen::<f32>()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_market::{Market, Scale, UniverseSpec};

    fn tiny() -> StockDataset {
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = 10;
        spec.train_days = 40;
        spec.test_days = 30;
        StockDataset::generate(spec, 2)
    }

    #[test]
    fn class_day_return_means_first_k() {
        let truth = [0.1f32, 0.2, 0.4];
        let r = class_day_return(&[2, 0, 1], &truth, 2, "probe");
        assert!((r - 0.25).abs() < 1e-6, "mean of picks 2,0 is 0.25, got {r}");
        // k larger than the pool clamps to the pool size.
        let all = class_day_return(&[0, 1, 2], &truth, 99, "probe");
        assert!((all - (0.7 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn class_day_return_empty_pool_is_nan_with_warn_not_panic() {
        let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Summary);
        let r = class_day_return(&[], &[], 5, "probe");
        assert!(r.is_nan(), "empty pool must report NaN, not a fabricated 0.0");
        let lines = rtgcn_telemetry::drain_memory_sink();
        assert!(
            lines.iter().any(|l| l.contains("backtest.degenerate")),
            "degenerate day must emit a warn event, got {lines:?}"
        );
    }

    #[test]
    fn oracle_beats_random() {
        let ds = tiny();
        let o = backtest(&mut Oracle, &ds, &[1, 5], 1);
        let r = backtest(&mut RandomRanker::new(3), &ds, &[1, 5], 1);
        assert!(o.irr[&1] > r.irr[&1], "oracle {:?} vs random {:?}", o.irr, r.irr);
        assert!(o.mrr.unwrap() > 0.99, "oracle MRR is 1 by construction");
        assert!(r.mrr.unwrap() < 0.9);
    }

    #[test]
    fn series_lengths_match_test_days() {
        let ds = tiny();
        let o = backtest(&mut Oracle, &ds, &[1, 5, 10], 1);
        for (&k, series) in &o.daily_cumulative {
            assert_eq!(series.len(), ds.spec.test_days, "k={k}");
        }
        assert!(o.test_secs >= 0.0);
    }

    struct AlwaysUp;
    impl StockRanker for AlwaysUp {
        fn name(&self) -> String {
            "AlwaysUp".into()
        }
        fn fit(&mut self, _ds: &StockDataset) -> rtgcn_core::FitReport {
            rtgcn_core::FitReport::default()
        }
        fn scores_for_day(&mut self, ds: &StockDataset, _d: usize) -> Vec<f32> {
            vec![CLASS_UP; ds.n_stocks()]
        }
        fn can_rank(&self) -> bool {
            false
        }
    }

    #[test]
    fn classification_path_has_no_mrr_and_random_selection() {
        let ds = tiny();
        let out = backtest(&mut AlwaysUp, &ds, &[1, 5], 7);
        assert!(out.mrr.is_none(), "classification models print '-' for MRR");
        assert_eq!(out.daily_cumulative[&5].len(), ds.spec.test_days);
        // Different seeds give different random selections.
        let out2 = backtest(&mut AlwaysUp, &ds, &[1], 8);
        assert_ne!(out.irr[&1], out2.irr[&1]);
    }

    #[test]
    fn empty_test_split_yields_nan_not_zero() {
        let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Off);
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = 10;
        spec.train_days = 40;
        spec.test_days = 0;
        let ds = StockDataset::generate(spec, 2);
        let out = backtest(&mut Oracle, &ds, &[1, 5], 1);
        // A 0.0 MRR here would masquerade as a real score; NaN is filterable.
        assert!(out.mrr.unwrap().is_nan(), "empty split MRR must be NaN, got {:?}", out.mrr);
        for (&k, &v) in &out.irr {
            assert!(v.is_nan(), "empty split IRR-{k} must be NaN, got {v}");
        }
        let warned = rtgcn_telemetry::drain_memory_sink()
            .iter()
            .any(|l| l.contains("backtest.degenerate"));
        assert!(warned, "expected a backtest.degenerate warn event");
    }

    #[test]
    fn irr_is_last_cumulative_entry() {
        let ds = tiny();
        let o = backtest(&mut Oracle, &ds, &[5], 1);
        assert_eq!(o.irr[&5], *o.daily_cumulative[&5].last().unwrap());
    }
}
