//! The common interface every model in the evaluation implements, the one
//! epoch loop every tape-trained model fits through, plus the RT-GCN
//! implementation. Harnesses (Tables IV–VII, Figures 5–8) drive models
//! exclusively through [`StockRanker`], so RT-GCN and all eleven baselines
//! are interchangeable.

use crate::model::{RtGcn, StepStats};
use rtgcn_market::{Sample, StockDataset};
use rtgcn_telemetry::health::{EpochHealth, HealthConfig, HealthMonitor, HealthVerdict};
use rtgcn_tensor::Adam;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Outcome of fitting a model (Figure 5's speed comparison reads the times).
/// Serialisable so the parallel runner's job journal can round-trip
/// completed seed runs across harness restarts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FitReport {
    /// Wall-clock seconds spent training.
    pub train_secs: f64,
    /// Mean training loss of the final epoch (NaN for non-loss models).
    pub final_loss: f32,
    /// Per-epoch mean losses.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds per epoch (empty for single-shot fits).
    pub epoch_secs: Vec<f64>,
    /// Training-health verdict, worst across epochs (`Healthy` for
    /// single-shot fits like ARIMA, which run no epochs to monitor).
    pub health: HealthVerdict,
    /// Per-epoch numerical diagnostics (empty for single-shot fits). When
    /// `abort_on_divergence` stopped the fit early this is shorter than the
    /// configured epoch budget.
    pub epoch_health: Vec<EpochHealth>,
}

/// What [`fit_epochs`] needs to know about one fit. Every field is a value
/// the model's configuration already carries.
#[derive(Clone, Debug)]
pub struct FitPlan {
    /// Display name: the health-board key and the subject of warnings.
    pub name: String,
    /// Epoch budget.
    pub epochs: usize,
    /// Window length `T` of every training sample.
    pub t_steps: usize,
    /// Feature count `D` of every training sample.
    pub n_features: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Adam weight decay, also the λ the health monitor reports as `λ‖θ‖²`.
    pub l2: f32,
    /// Stop early once the health monitor reports `Diverged`.
    pub abort_on_divergence: bool,
}

/// The epoch loop behind every tape-trained model's [`StockRanker::fit`].
/// The model supplies only `step(model, opt, epoch, day, sample)`, one
/// optimisation step on one training day; the loop owns the rest: the `fit`
/// and `fit/epoch` spans, the Adam optimiser, training-day sampling, the
/// `fit.zero_epochs`/`fit.empty_split` warnings, per-epoch mean loss (NaN
/// for an empty split, never a silent 0.0 that would read as a converged
/// model) and wall time, and the [`HealthMonitor`], which reads
/// `weight_norm(model)` after each epoch.
pub fn fit_epochs<M>(
    model: &mut M,
    ds: &StockDataset,
    plan: FitPlan,
    mut step: impl FnMut(&mut M, &mut Adam, usize, usize, &Sample) -> StepStats,
    weight_norm: impl Fn(&M) -> f32,
) -> FitReport {
    let _fit_span = rtgcn_telemetry::span("fit");
    let t0 = Instant::now();
    let mut opt = Adam::new(plan.lr, plan.l2);
    let days = ds.train_end_days(plan.t_steps);
    if plan.epochs == 0 {
        rtgcn_telemetry::warn(
            "fit.zero_epochs",
            &format!("{}: fit called with epochs == 0; final_loss is NaN", plan.name),
        );
    }
    if days.is_empty() && plan.epochs > 0 {
        rtgcn_telemetry::warn(
            "fit.empty_split",
            &format!(
                "{}: training split has no usable days for t_steps = {}; \
                 epoch losses are NaN",
                plan.name, plan.t_steps
            ),
        );
    }
    let mut monitor = HealthMonitor::new(
        &plan.name,
        HealthConfig { abort_on_divergence: plan.abort_on_divergence, ..HealthConfig::default() },
    );
    let mut epoch_losses = Vec::with_capacity(plan.epochs);
    let mut epoch_secs = Vec::with_capacity(plan.epochs);
    for epoch in 0..plan.epochs {
        let _epoch_span = rtgcn_telemetry::span("epoch");
        let e0 = Instant::now();
        let mut acc = 0.0f64;
        for &day in &days {
            let s = ds.sample(day, plan.t_steps, plan.n_features);
            let st = step(model, &mut opt, epoch, day, &s);
            acc += st.loss as f64;
            monitor.observe_step(st.loss, st.mse, st.rank, st.grad_norm);
        }
        let mean = if days.is_empty() { f32::NAN } else { (acc / days.len() as f64) as f32 };
        epoch_losses.push(mean);
        epoch_secs.push(e0.elapsed().as_secs_f64());
        monitor.end_epoch(weight_norm(model), plan.l2);
        if monitor.should_abort() {
            break;
        }
    }
    let (health, epoch_health) = monitor.finish();
    FitReport {
        train_secs: t0.elapsed().as_secs_f64(),
        final_loss: epoch_losses.last().copied().unwrap_or(f32::NAN),
        epoch_losses,
        epoch_secs,
        health,
        epoch_health,
    }
}

/// A model that ranks stocks by expected next-day return ratio.
pub trait StockRanker {
    /// Display name used in result tables (e.g. `RT-GCN (T)`).
    fn name(&self) -> String;

    /// Train on the dataset's training split.
    fn fit(&mut self, ds: &StockDataset) -> FitReport;

    /// Ranking scores for the window ending at `end_day` (higher = buy).
    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32>;

    /// Score an arbitrary `(T, N, D)` feature window directly — the
    /// serving path for `POST /score`. `None` for models that only score
    /// dataset days (the default), or whose lazy graph state has not been
    /// built yet (call [`Self::prepare`] first).
    fn score_window(&mut self, x: &rtgcn_tensor::Tensor) -> Option<Vec<f32>> {
        let _ = x;
        None
    }

    /// Rebuild relation-derived state after the graph mutated (streaming
    /// edge add/drop events). Returns whether the model took the new tensor;
    /// `false` (the default) means the model has no relation state or cannot
    /// absorb the change, and the caller must fall back to a full refit.
    fn refresh_relations(&mut self, relations: &rtgcn_graph::RelationTensor) -> bool {
        let _ = relations;
        false
    }

    /// Whether scores are a true ranking. Classification baselines return
    /// `false`: their "scores" are class ids (2 = up, 1 = neutral, 0 = down)
    /// and the evaluator falls back to random top-N among predicted-up
    /// stocks (paper Section V-C.1).
    fn can_rank(&self) -> bool {
        true
    }

    /// Force lazy dataset-derived state (relation graphs, hypergraph
    /// layouts) into existence *without* training, so checkpoint parameters
    /// can be applied to a freshly constructed model. Models that build
    /// everything in their constructor keep the no-op default.
    fn prepare(&mut self, ds: &StockDataset) {
        let _ = ds;
    }

    /// The model's trainable parameters, if it exposes a [`ParamStore`]
    /// (checkpointable families return `Some`; closed-form baselines like
    /// ARIMA return the `None` default and cannot be served).
    fn param_store(&self) -> Option<&rtgcn_tensor::ParamStore> {
        None
    }

    /// Mutable access to the parameter store (see [`Self::param_store`]).
    fn param_store_mut(&mut self) -> Option<&mut rtgcn_tensor::ParamStore> {
        None
    }
}

impl StockRanker for RtGcn {
    fn name(&self) -> String {
        let mut label = self.config.strategy.label().to_string();
        if !self.config.use_temporal {
            label = "R-Conv".to_string();
        } else if !self.config.use_relational {
            label = "T-Conv".to_string();
        }
        label
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        let c = &self.config;
        let plan = FitPlan {
            name: self.name(),
            epochs: c.epochs,
            t_steps: c.t_steps,
            n_features: c.n_features,
            lr: c.lr,
            l2: c.lambda,
            abort_on_divergence: c.abort_on_divergence,
        };
        fit_epochs(
            self,
            ds,
            plan,
            |m, opt, _, _, s| m.train_step_stats(&s.x, &s.y, opt),
            RtGcn::weight_norm,
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.config.t_steps, self.config.n_features);
        self.score(&s.x)
    }

    fn score_window(&mut self, x: &rtgcn_tensor::Tensor) -> Option<Vec<f32>> {
        Some(self.score(x))
    }

    fn refresh_relations(&mut self, relations: &rtgcn_graph::RelationTensor) -> bool {
        RtGcn::refresh_relations(self, relations)
    }

    fn param_store(&self) -> Option<&rtgcn_tensor::ParamStore> {
        Some(&self.store)
    }

    fn param_store_mut(&mut self) -> Option<&mut rtgcn_tensor::ParamStore> {
        Some(&mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RtGcnConfig, Strategy};
    use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
    use rtgcn_telemetry::Level;

    fn tiny_dataset() -> StockDataset {
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = 12;
        spec.train_days = 60;
        spec.test_days = 10;
        spec.sectors = 3;
        StockDataset::generate(spec, 1)
    }

    fn tiny_config(strategy: Strategy) -> RtGcnConfig {
        RtGcnConfig {
            t_steps: 8,
            n_features: 2,
            rel_filters: 8,
            temporal_filters: 8,
            epochs: 2,
            strategy,
            dropout: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn fit_and_score_through_trait() {
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut model = RtGcn::new(tiny_config(Strategy::Weighted), &relations, 3);
        let report = model.fit(&ds);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(report.train_secs > 0.0);
        assert!(report.final_loss.is_finite());
        let day = ds.test_end_days()[0];
        let scores = model.scores_for_day(&ds, day);
        assert_eq!(scores.len(), ds.n_stocks());
        assert!(model.can_rank());
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut cfg = tiny_config(Strategy::Uniform);
        cfg.epochs = 4;
        let mut model = RtGcn::new(cfg, &relations, 5);
        let report = model.fit(&ds);
        assert!(
            report.epoch_losses.last().unwrap() <= report.epoch_losses.first().unwrap(),
            "losses {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn zero_epoch_fit_reports_nan_and_warns() {
        let _gate = rtgcn_telemetry::test_scope(Level::Summary);
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut cfg = tiny_config(Strategy::Uniform);
        cfg.epochs = 0;
        let mut model = RtGcn::new(cfg, &relations, 9);
        let report = model.fit(&ds);
        assert!(report.final_loss.is_nan(), "epochs == 0 must yield NaN, got {}", report.final_loss);
        assert!(report.epoch_losses.is_empty());
        assert!(report.epoch_secs.is_empty());
        let events = rtgcn_telemetry::drain_memory_sink().join("\n");
        assert!(
            events.contains("fit.zero_epochs"),
            "expected fit.zero_epochs warning, got: {events}"
        );
    }

    #[test]
    fn empty_training_split_reports_nan_and_warns() {
        let _gate = rtgcn_telemetry::test_scope(Level::Summary);
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut cfg = tiny_config(Strategy::Uniform);
        // Window longer than the training split → no usable end days.
        cfg.t_steps = ds.spec.train_days + ds.spec.test_days + 10;
        cfg.epochs = 2;
        let mut model = RtGcn::new(cfg, &relations, 9);
        let report = model.fit(&ds);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(
            report.epoch_losses.iter().all(|l| l.is_nan()),
            "empty split must yield NaN losses, not a silent 0.0: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss.is_nan());
        let events = rtgcn_telemetry::drain_memory_sink().join("\n");
        assert!(
            events.contains("fit.empty_split"),
            "expected fit.empty_split warning, got: {events}"
        );
    }

    #[test]
    fn fit_report_carries_epoch_timings() {
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut model = RtGcn::new(tiny_config(Strategy::Weighted), &relations, 3);
        let report = model.fit(&ds);
        assert_eq!(report.epoch_secs.len(), 2, "one wall-clock entry per epoch");
        assert!(report.epoch_secs.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn healthy_fit_reports_verdict_and_per_epoch_diagnostics() {
        let _gate = rtgcn_telemetry::test_scope(Level::Summary);
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut model = RtGcn::new(tiny_config(Strategy::Weighted), &relations, 3);
        let report = model.fit(&ds);
        assert_eq!(report.health, HealthVerdict::Healthy, "{:?}", report.epoch_health);
        assert_eq!(report.epoch_health.len(), 2);
        for e in &report.epoch_health {
            assert!(e.loss.is_finite() && e.mse.is_finite() && e.rank.is_finite());
            assert!(e.grad_norm.is_finite() && e.grad_norm > 0.0);
            assert!(e.weight_norm.is_finite() && e.weight_norm > 0.0);
            assert!(e.l2 > 0.0, "λ‖θ‖² must be positive for λ > 0");
            assert_eq!(e.non_finite_steps, 0);
            // The components recompose the combined objective (Eq. 9).
            let recomposed = e.mse + model.config.alpha * e.rank;
            assert!((recomposed - e.loss).abs() < 1e-3 * e.loss.abs().max(1.0));
        }
        // Per-epoch series land in the registry with monotone epoch indices.
        let loss_series = rtgcn_telemetry::series_points("fit.loss");
        assert_eq!(loss_series.len(), 2);
        assert!(loss_series[0].index < loss_series[1].index);
        let events = rtgcn_telemetry::drain_memory_sink().join("\n");
        assert!(events.contains("\"health\""), "health event missing: {events}");
    }

    #[test]
    fn absurd_lr_diverges_warns_and_aborts_early() {
        let _gate = rtgcn_telemetry::test_scope(Level::Summary);
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut cfg = tiny_config(Strategy::Uniform);
        cfg.lr = 1e4; // absurd: Adam steps of ~1e4 per parameter
        cfg.epochs = 8;
        cfg.abort_on_divergence = true;
        let mut model = RtGcn::new(cfg, &relations, 9);
        let report = model.fit(&ds);
        assert_eq!(report.health, HealthVerdict::Diverged, "{:?}", report.epoch_health);
        assert!(
            report.epoch_losses.len() < 8,
            "early abort must stop before the epoch budget: ran {} epochs",
            report.epoch_losses.len()
        );
        assert_eq!(report.epoch_health.len(), report.epoch_losses.len());
        let events = rtgcn_telemetry::drain_memory_sink().join("\n");
        assert!(events.contains("fit.diverged"), "expected fit.diverged warn: {events}");
    }

    #[test]
    fn divergence_without_abort_runs_the_full_epoch_budget() {
        let _gate = rtgcn_telemetry::test_scope(Level::Summary);
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut cfg = tiny_config(Strategy::Uniform);
        cfg.lr = 1e4;
        cfg.epochs = 3;
        let mut model = RtGcn::new(cfg, &relations, 9);
        let report = model.fit(&ds);
        assert_eq!(report.health, HealthVerdict::Diverged);
        assert_eq!(report.epoch_losses.len(), 3, "abort is opt-in");
    }

    #[test]
    fn names_for_ablations() {
        let ds = tiny_dataset();
        let relations = ds.relations(RelationKind::Both);
        let mut r = RtGcnConfig::r_conv();
        r.t_steps = 8;
        r.n_features = 2;
        let m = RtGcn::new(r, &relations, 1);
        assert_eq!(m.name(), "R-Conv");
        let mut t = RtGcnConfig::t_conv();
        t.t_steps = 8;
        t.n_features = 2;
        let m = RtGcn::new(t, &relations, 1);
        assert_eq!(m.name(), "T-Conv");
        let m = RtGcn::new(tiny_config(Strategy::TimeSensitive), &relations, 1);
        assert_eq!(m.name(), "RT-GCN (T)");
    }
}
