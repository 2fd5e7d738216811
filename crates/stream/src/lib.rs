//! # rtgcn-stream
//!
//! The streaming day-advance pipeline (DESIGN.md §14): roll a trained
//! ranker forward one trading day at a time without ever re-running the
//! batch pipeline.
//!
//! Each [`StreamEngine::advance`] call:
//!
//! 1. applies any relation mutations ([`DayEvent`] edge adds/drops) and,
//!    when a relation flag actually flipped, asks the model to absorb the
//!    new tensor ([`StockRanker::refresh_relations`]);
//! 2. appends one simulated day to the dataset (bit-identical to batch
//!    generation — see [`StockDataset::generate_through`]);
//! 3. records the new day's moving averages ([`FeatureStream::push_day`]),
//!    so a window is a lookup instead of a rescan of the price history;
//! 4. settles yesterday's prediction against the newly observable return
//!    (lagged next-day MRR / top-k return, the walk-forward protocol);
//! 5. re-scores the newest window through [`StockRanker::score_window`],
//!    the path `POST /score` takes, so a streamed ranking is the batch
//!    scoring of that day's `window_features` window, bit for bit;
//! 6. consults the [`RefitPolicy`] (day-count schedule or MRR drift) and
//!    retrains on the extended history when it fires.
//!
//! ## Parity contract
//!
//! Every piece of incremental state is a pure function of the day sequence:
//! [`StreamEngine::verify_parity`] rebuilds the dataset and feature stream
//! from scratch — replaying the recorded [`DayEvent`]s at the days they
//! originally landed — and demands **bitwise** equality, including a fresh
//! re-score of the held prediction. "Close enough" is not accepted: a
//! single ulp of drift compounds over a long walk.

use parking_lot::Mutex;
use rtgcn_core::{RefitPolicy, RefitReason, StockRanker};
use rtgcn_eval::metrics::{daily_topk_return, reciprocal_rank};
use rtgcn_market::{DayEvent, FeatureStream, RelationKind, StockDataset, WARMUP_DAYS};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The model slot the engine scores and refits through. `Arc`-shared so a
/// serving registry can expose the same instance behind `/score` while the
/// engine rolls it forward.
pub type SharedModel = Arc<Mutex<Box<dyn StockRanker + Send>>>;

/// Static streaming configuration. `t_steps`/`n_features`/`relation_kind`
/// must match what the model was trained with — the engine assembles
/// windows of exactly this shape.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub relation_kind: RelationKind,
    /// Portfolio size for the walk-forward top-k return.
    pub top_k: usize,
    pub refit: RefitPolicy,
}

impl StreamConfig {
    pub fn new(t_steps: usize, n_features: usize, relation_kind: RelationKind) -> Self {
        StreamConfig { t_steps, n_features, relation_kind, top_k: 5, refit: RefitPolicy::disabled() }
    }
}

/// What one advanced day produced — the walk-forward evaluation record the
/// smoke harness summarises.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DayOutcome {
    /// Index of the newly generated day.
    pub day: usize,
    /// Day whose prediction was settled (always `day − 1` after the first
    /// advance; `None` only if the engine had nothing outstanding).
    pub eval_day: Option<usize>,
    /// Lagged next-day MRR of the settled prediction.
    pub mrr: Option<f64>,
    /// Realised top-k portfolio return of the settled prediction.
    pub day_return: Option<f64>,
    /// Running sum of daily returns (the walk-forward IRR so far).
    pub cum_irr: f64,
    /// Whether a [`DayEvent`] changed the relation graph this day.
    pub relations_changed: bool,
    /// Which trigger refit the model, if any.
    pub refit: Option<RefitReason>,
    /// Wall-clock nanoseconds spent scoring the new day.
    pub score_ns: u64,
}

/// The day-advance orchestrator. Owns a dataset it rolls forward plus the
/// incremental feature state, and drives a shared ranker.
pub struct StreamEngine {
    cfg: StreamConfig,
    ds: StockDataset,
    /// Seed the dataset was generated with (for the parity rebuild).
    seed: u64,
    /// Days of history present at construction (the parity rebuild
    /// truncates here before replaying).
    start_days: usize,
    /// Relation mutations by the day they took effect on.
    events: Vec<(usize, DayEvent)>,
    features: FeatureStream,
    model: SharedModel,
    /// Scores awaiting next-day settlement: `(end_day, scores)`.
    last_scores: Option<(usize, Vec<f32>)>,
    /// Lagged MRRs observed since the last (re)fit, newest last.
    mrr_history: Vec<f32>,
    /// Mean MRR over the first `drift_window` post-fit days (NaN until
    /// enough history exists) — the drift check's reference quality.
    baseline_mrr: f32,
    days_since_fit: usize,
    cum_irr: f64,
    outcomes: Vec<DayOutcome>,
}

impl StreamEngine {
    /// Wrap a dataset and an already-trained shared model. The engine
    /// immediately scores the newest generated day so the first
    /// [`Self::advance`] has a prediction to settle.
    ///
    /// For [`Self::verify_parity`] to hold, `ds` must be a pristine
    /// [`StockDataset::generate`]/[`StockDataset::generate_through`] product
    /// (no pre-construction mutations — the rebuild replays only events the
    /// engine itself witnessed).
    pub fn new(ds: StockDataset, model: SharedModel, cfg: StreamConfig) -> Self {
        let last_day = ds.days_generated().checked_sub(1).expect("empty dataset");
        assert!(
            last_day + 1 >= WARMUP_DAYS + cfg.t_steps,
            "dataset too short to score a {}-step window after warm-up",
            cfg.t_steps
        );
        let features = FeatureStream::from_prices(&ds.sim.prices);
        let seed = ds.sim.config.seed;
        let start_days = ds.days_generated();
        let mut engine = StreamEngine {
            cfg,
            ds,
            seed,
            start_days,
            events: Vec::new(),
            features,
            model,
            last_scores: None,
            mrr_history: Vec::new(),
            baseline_mrr: f32::NAN,
            days_since_fit: 0,
            cum_irr: 0.0,
            outcomes: Vec::new(),
        };
        let (scores, _) = engine.score_day(last_day);
        engine.last_scores = Some((last_day, scores));
        engine
    }

    /// Shared handle to the model the engine drives.
    pub fn model(&self) -> SharedModel {
        Arc::clone(&self.model)
    }

    pub fn dataset(&self) -> &StockDataset {
        &self.ds
    }

    /// Index of the newest generated day.
    pub fn current_day(&self) -> usize {
        self.ds.days_generated() - 1
    }

    /// The outstanding prediction: `(end_day, scores)` for the newest day.
    pub fn latest_scores(&self) -> (usize, &[f32]) {
        let (d, s) = self.last_scores.as_ref().expect("engine always holds a prediction");
        (*d, s)
    }

    /// Walk-forward records of every advanced day, oldest first.
    pub fn outcomes(&self) -> &[DayOutcome] {
        &self.outcomes
    }

    /// Advance one trading day. See the module docs for the exact sequence.
    pub fn advance(&mut self, event: Option<DayEvent>) -> DayOutcome {
        let relations_changed = match &event {
            Some(ev) => {
                let changed = self.ds.apply_event(ev);
                if changed {
                    self.refresh_model_relations();
                }
                changed
            }
            None => false,
        };
        let day = self.ds.append_day(None);
        if let Some(ev) = event {
            self.events.push((day, ev));
        }
        self.features.push_day(&self.ds.sim.prices);

        // Settle yesterday's prediction: its next-day return just became
        // observable.
        let (eval_day, mrr, day_return) = match self.last_scores.take() {
            Some((prev_day, scores)) => {
                let n = self.ds.n_stocks();
                let truth: Vec<f32> =
                    (0..n).map(|i| self.ds.realized_return(prev_day, i)).collect();
                let mrr = reciprocal_rank(&scores, &truth);
                let ret = daily_topk_return(&scores, &truth, self.cfg.top_k);
                self.cum_irr += ret;
                self.mrr_history.push(mrr as f32);
                let w = self.cfg.refit.drift_window;
                if w > 0 && self.baseline_mrr.is_nan() && self.mrr_history.len() >= w {
                    self.baseline_mrr = self.mrr_history[..w].iter().sum::<f32>() / w as f32;
                }
                rtgcn_telemetry::gauge("stream.mrr", prev_day as u64, mrr);
                rtgcn_telemetry::gauge("stream.day_return", prev_day as u64, ret);
                rtgcn_telemetry::gauge("stream.cum_irr", prev_day as u64, self.cum_irr);
                (Some(prev_day), Some(mrr), Some(ret))
            }
            None => (None, None, None),
        };

        let (scores, score_ns) = self.score_day(day);
        self.last_scores = Some((day, scores));

        self.days_since_fit += 1;
        let refit =
            self.cfg.refit.should_refit(self.days_since_fit, &self.mrr_history, self.baseline_mrr);
        if let Some(reason) = refit {
            self.refit(reason);
            // Re-score with the refreshed parameters so the outstanding
            // prediction reflects the model that will be held overnight.
            let (scores, _) = self.score_day(day);
            self.last_scores = Some((day, scores));
        }

        let outcome = DayOutcome {
            day,
            eval_day,
            mrr,
            day_return,
            cum_irr: self.cum_irr,
            relations_changed,
            refit,
            score_ns,
        };
        self.outcomes.push(outcome.clone());
        outcome
    }

    /// Score the window ending at `day` through [`StockRanker::score_window`],
    /// falling back to the dataset scoring path for models that cannot score
    /// raw windows.
    fn score_day(&mut self, day: usize) -> (Vec<f32>, u64) {
        let x = self.features.window(&self.ds.sim.prices, day, self.cfg.t_steps, self.cfg.n_features);
        let t0 = Instant::now();
        let scores = {
            let mut m = self.model.lock();
            m.score_window(&x).unwrap_or_else(|| m.scores_for_day(&self.ds, day))
        };
        let ns = t0.elapsed().as_nanos() as u64;
        rtgcn_telemetry::record_ns("stream.score_ns", ns);
        assert_eq!(scores.len(), self.ds.n_stocks(), "model returned a wrong-sized ranking");
        (scores, ns)
    }

    /// After a relation mutation: hand the model the new tensor. A model
    /// that cannot absorb it keeps scoring its old graph.
    fn refresh_model_relations(&mut self) {
        let relations = self.ds.relations(self.cfg.relation_kind);
        if !self.model.lock().refresh_relations(&relations) {
            rtgcn_telemetry::warn(
                "stream.refresh_relations",
                "model could not absorb the mutated relation tensor; \
                 it keeps scoring against the stale graph until the next refit",
            );
        }
    }

    /// Retrain on all history generated so far: the training split is
    /// extended so its last window's next-day target is the newest day.
    fn refit(&mut self, reason: RefitReason) {
        let _span = rtgcn_telemetry::span("stream.refit");
        refit_counter().inc(1);
        let day = self.current_day();
        let mut train_ds = self.ds.clone();
        // Last usable train end-day is WARMUP_DAYS + train_days − 2; choose
        // train_days so that lands on `day − 1` (target = `day`, observable).
        train_ds.spec.train_days = (day + 1).saturating_sub(WARMUP_DAYS);
        let report = self.model.lock().fit(&train_ds);
        rtgcn_telemetry::gauge("stream.refit_loss", day as u64, report.final_loss as f64);
        rtgcn_telemetry::warn(
            "stream.refit",
            &format!(
                "day {day}: walk-forward refit ({reason:?}) over {} train days, final loss {:.4}",
                train_ds.spec.train_days, report.final_loss
            ),
        );
        self.days_since_fit = 0;
        self.mrr_history.clear();
        self.baseline_mrr = f32::NAN;
    }

    /// From-scratch rebuild of the dataset: regenerate the truncated
    /// history, then replay every recorded day with its original event.
    pub fn rebuild_dataset(&self) -> StockDataset {
        let mut fresh = StockDataset::generate_through(self.ds.spec.clone(), self.seed, self.start_days);
        for d in self.start_days..self.ds.days_generated() {
            let ev = self.events.iter().find(|(day, _)| *day == d).map(|(_, e)| e);
            fresh.append_day(ev);
        }
        fresh
    }

    /// Prove the streamed state bit-identical to a from-scratch rebuild:
    /// prices/returns, the relation edge set, the recorded moving averages,
    /// and a fresh re-score of the outstanding prediction. `Err` carries the
    /// first divergence found.
    pub fn verify_parity(&self) -> Result<(), String> {
        let fresh = self.rebuild_dataset();
        if fresh.sim.prices != self.ds.sim.prices {
            return Err("prices diverge from the batch rebuild".into());
        }
        if fresh.sim.returns != self.ds.sim.returns {
            return Err("returns diverge from the batch rebuild".into());
        }
        let kind = self.cfg.relation_kind;
        if fresh.relations(kind).directed_edges() != self.ds.relations(kind).directed_edges() {
            return Err("relation edge set diverges from the batch rebuild".into());
        }

        let n = self.ds.n_stocks();
        let ff = FeatureStream::from_prices(&fresh.sim.prices);
        for day in 0..self.ds.days_generated() {
            for stock in 0..n {
                for k in 0..3 {
                    let (a, b) = (self.features.raw_ma(day, stock, k), ff.raw_ma(day, stock, k));
                    if a.to_bits() != b.to_bits() {
                        return Err(format!(
                            "raw MA diverges at day {day} stock {stock} window {k}: {a} vs {b}"
                        ));
                    }
                }
            }
        }

        // The outstanding prediction must reproduce exactly when the window
        // is reassembled from the rebuilt state.
        let (day, held) = self.latest_scores();
        let x = ff.window(&fresh.sim.prices, day, self.cfg.t_steps, self.cfg.n_features);
        let rescored = {
            let mut m = self.model.lock();
            m.score_window(&x).unwrap_or_else(|| m.scores_for_day(&fresh, day))
        };
        if rescored.len() != held.len()
            || rescored.iter().zip(held).any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!("re-scored day {day} diverges from the held prediction"));
        }
        Ok(())
    }
}

fn refit_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("stream.refits"))
}

/// Box and share a ranker for the engine.
pub fn share_model(model: impl StockRanker + Send + 'static) -> SharedModel {
    Arc::new(Mutex::new(Box::new(model)))
}
