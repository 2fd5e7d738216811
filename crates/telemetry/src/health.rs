//! Training-health monitoring: per-epoch numerical diagnostics for fit
//! loops.
//!
//! Pairwise ranking losses on small per-day batches are known to train
//! unstably (Feng et al.'s RSR, STHAN-SR); a diverging fit is invisible in
//! the final MRR/IRR numbers until the whole harness has run. The
//! [`HealthMonitor`] watches every optimisation step for the numbers that
//! go wrong first — the loss components (MSE vs. pairwise vs. L2 of the
//! paper's Eq. 7/9 objective), the pre-clip global gradient L2 norm, the
//! weight norm, and NaN/Inf sentinels — aggregates them per epoch, records
//! them as `fit.*` series through [`gauge`](crate::gauge), and distils a
//! [`HealthVerdict`].
//!
//! Wiring pattern (`rtgcn_core::ranker::fit_epochs`, the one epoch loop
//! every trained model fits through):
//!
//! ```text
//! let mut monitor = HealthMonitor::new(&name, HealthConfig::default());
//! for epoch {
//!     for day { monitor.observe_step(loss, mse, rank, grad_norm); }
//!     monitor.end_epoch(weight_norm, l2);
//!     if monitor.should_abort() { break; }
//! }
//! let (verdict, per_epoch) = monitor.finish();
//! ```

use crate::{emit, gauge, warn, Event};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Distilled training health, worst-seen-so-far across epochs.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum HealthVerdict {
    /// All epochs numerically sound.
    #[default]
    Healthy,
    /// Suspicious but finite: gradient norm above the warn threshold, or
    /// the epoch loss regressed well past its best.
    Warn,
    /// NaN/Inf observed, gradient norm past the diverge threshold, or the
    /// loss exploded relative to its best epoch.
    Diverged,
}

impl HealthVerdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "Healthy",
            HealthVerdict::Warn => "Warn",
            HealthVerdict::Diverged => "Diverged",
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------- board

/// Process-wide sticky health board: worst verdict seen per model name,
/// across every [`HealthMonitor`] in the process (all scopes, all seeds of
/// a model merge into one row). The monitor server's `/healthz` endpoint
/// reads this — a live 503 the moment any in-flight fit diverges, instead
/// of a post-hoc surprise in the final table.
static BOARD: Mutex<BTreeMap<String, HealthVerdict>> = Mutex::new(BTreeMap::new());

/// Record (sticky-max) a model's verdict on the process-wide board.
pub fn board_record(model: &str, verdict: HealthVerdict) {
    let mut b = BOARD.lock();
    match b.get_mut(model) {
        Some(cur) => *cur = (*cur).max(verdict),
        None => {
            b.insert(model.to_string(), verdict);
        }
    }
}

/// Every model the board has seen, with its worst verdict, sorted by name.
pub fn board_snapshot() -> Vec<(String, HealthVerdict)> {
    BOARD.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Worst verdict across all models (Healthy for an empty board).
pub fn board_worst() -> HealthVerdict {
    BOARD.lock().values().copied().max().unwrap_or(HealthVerdict::Healthy)
}

/// Clear the board (tests; hold [`crate::test_lock`]).
pub fn board_reset() {
    BOARD.lock().clear();
}

/// Thresholds for [`HealthMonitor`]. The defaults are deliberately loose —
/// an order of magnitude beyond anything a converging fit produces on the
/// paper's data scales — so a `Warn`/`Diverged` verdict means something.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Pre-clip global gradient L2 norm above which an epoch is `Warn`.
    pub grad_warn: f32,
    /// Pre-clip global gradient L2 norm above which an epoch is `Diverged`.
    pub grad_diverge: f32,
    /// Mean epoch loss above `loss_warn_factor × best epoch loss` → `Warn`.
    pub loss_warn_factor: f32,
    /// Mean epoch loss above `loss_diverge_factor × best` → `Diverged`.
    pub loss_diverge_factor: f32,
    /// When true, [`HealthMonitor::should_abort`] returns true once the
    /// verdict reaches `Diverged`, letting the fit loop stop early instead
    /// of burning the remaining epochs on NaNs.
    pub abort_on_divergence: bool,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            grad_warn: 1e3,
            grad_diverge: 1e6,
            loss_warn_factor: 10.0,
            loss_diverge_factor: 1e3,
            abort_on_divergence: false,
        }
    }
}

/// Per-epoch aggregate diagnostics (what `FitReport::epoch_health` carries).
/// Loss fields are epoch means; `grad_norm` is the maximum pre-clip global
/// L2 norm over the epoch's steps (the spike is the signal — a mean hides
/// one exploding day among hundreds); `l2` is `λ·‖θ‖²`, the regularisation
/// term of Eq. 9 that the optimiser applies as weight decay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochHealth {
    pub epoch: u64,
    pub loss: f32,
    pub mse: f32,
    pub rank: f32,
    pub l2: f32,
    pub grad_norm: f32,
    pub weight_norm: f32,
    /// Steps in this epoch whose loss or gradient norm was NaN/Inf.
    pub non_finite_steps: u64,
}

/// Accumulates per-step diagnostics into per-epoch records and a verdict.
pub struct HealthMonitor {
    model: String,
    cfg: HealthConfig,
    epoch: u64,
    steps: u64,
    sum_loss: f64,
    sum_mse: f64,
    sum_rank: f64,
    max_grad: f32,
    non_finite_steps: u64,
    best_loss: f32,
    verdict: HealthVerdict,
    diverged_warned: bool,
    epochs: Vec<EpochHealth>,
}

impl HealthMonitor {
    pub fn new(model: &str, cfg: HealthConfig) -> Self {
        // An active fit shows on the health board immediately (as Healthy)
        // so `/healthz` lists every model that has started, not only those
        // that already closed an epoch.
        board_record(model, HealthVerdict::Healthy);
        HealthMonitor {
            model: model.to_string(),
            cfg,
            epoch: 0,
            steps: 0,
            sum_loss: 0.0,
            sum_mse: 0.0,
            sum_rank: 0.0,
            max_grad: 0.0,
            non_finite_steps: 0,
            best_loss: f32::INFINITY,
            verdict: HealthVerdict::Healthy,
            diverged_warned: false,
            epochs: Vec::new(),
        }
    }

    /// Record one optimisation step: total loss, its MSE and pairwise-rank
    /// components, and the pre-clip global gradient L2 norm. Models without
    /// a ranking term pass `rank = 0.0`.
    pub fn observe_step(&mut self, loss: f32, mse: f32, rank: f32, grad_norm: f32) {
        self.steps += 1;
        if !loss.is_finite() || !grad_norm.is_finite() {
            self.non_finite_steps += 1;
        }
        self.sum_loss += loss as f64;
        self.sum_mse += mse as f64;
        self.sum_rank += rank as f64;
        if grad_norm.is_finite() {
            self.max_grad = self.max_grad.max(grad_norm);
        }
    }

    /// Close the current epoch: aggregate the observed steps, record the
    /// `fit.*` series, re-evaluate the verdict and return it. `weight_norm`
    /// is the post-step global parameter L2 norm; `l2_lambda` is the λ of
    /// Eq. 9 (the L2 loss term is reported as `λ·‖θ‖²`).
    ///
    /// An epoch with zero observed steps (empty training split) records NaN
    /// diagnostics but does *not* count as divergence — there was no
    /// training to diverge; the fit loop separately warns `fit.empty_split`.
    pub fn end_epoch(&mut self, weight_norm: f32, l2_lambda: f32) -> HealthVerdict {
        let mean = |sum: f64, n: u64| {
            if n == 0 {
                f32::NAN
            } else {
                (sum / n as f64) as f32
            }
        };
        let record = EpochHealth {
            epoch: self.epoch,
            loss: mean(self.sum_loss, self.steps),
            mse: mean(self.sum_mse, self.steps),
            rank: mean(self.sum_rank, self.steps),
            l2: l2_lambda * weight_norm * weight_norm,
            grad_norm: if self.steps == 0 { f32::NAN } else { self.max_grad },
            weight_norm,
            non_finite_steps: self.non_finite_steps,
        };
        gauge("fit.loss", record.epoch, record.loss as f64);
        gauge("fit.loss.mse", record.epoch, record.mse as f64);
        gauge("fit.loss.rank", record.epoch, record.rank as f64);
        gauge("fit.loss.l2", record.epoch, record.l2 as f64);
        gauge("fit.grad_norm", record.epoch, record.grad_norm as f64);
        gauge("fit.weight_norm", record.epoch, record.weight_norm as f64);
        if crate::alloc::tracking_enabled() {
            // Per-epoch peak of live heap bytes (process-global — see the
            // caveats on `alloc`; meaningful per model with RTGCN_JOBS=1).
            gauge("mem.peak_bytes", record.epoch, crate::alloc::peak_live_bytes() as f64);
            crate::alloc::reset_peak();
        }
        if self.steps > 0 {
            let assessed = self.assess(&record);
            self.verdict = self.verdict.max(assessed);
            if record.loss.is_finite() && record.loss < self.best_loss {
                self.best_loss = record.loss;
            }
            if self.verdict == HealthVerdict::Diverged && !self.diverged_warned {
                self.diverged_warned = true;
                warn(
                    "fit.diverged",
                    &format!(
                        "{}: training diverged at epoch {} (loss {}, max grad norm {}, \
                         {} non-finite steps)",
                        self.model,
                        record.epoch,
                        record.loss,
                        record.grad_norm,
                        record.non_finite_steps
                    ),
                );
            }
        }
        board_record(&self.model, self.verdict);
        self.epochs.push(record);
        self.epoch += 1;
        self.steps = 0;
        self.sum_loss = 0.0;
        self.sum_mse = 0.0;
        self.sum_rank = 0.0;
        self.max_grad = 0.0;
        self.non_finite_steps = 0;
        self.verdict
    }

    fn assess(&self, e: &EpochHealth) -> HealthVerdict {
        if e.non_finite_steps > 0 || !e.loss.is_finite() || !e.weight_norm.is_finite() {
            return HealthVerdict::Diverged;
        }
        let mut v = HealthVerdict::Healthy;
        if e.grad_norm > self.cfg.grad_diverge {
            v = HealthVerdict::Diverged;
        } else if e.grad_norm > self.cfg.grad_warn {
            v = HealthVerdict::Warn;
        }
        if self.best_loss.is_finite() {
            // Floor the reference so a microscopic best epoch (loss ≈ 0)
            // does not turn ordinary noise into a 10× "regression".
            let floor = self.best_loss.max(1e-3);
            if e.loss > floor * self.cfg.loss_diverge_factor {
                v = v.max(HealthVerdict::Diverged);
            } else if e.loss > floor * self.cfg.loss_warn_factor {
                v = v.max(HealthVerdict::Warn);
            }
        }
        v
    }

    /// Whether the fit loop should stop now (divergence + opt-in abort).
    pub fn should_abort(&self) -> bool {
        self.cfg.abort_on_divergence && self.verdict == HealthVerdict::Diverged
    }

    /// Worst verdict seen so far.
    pub fn verdict(&self) -> HealthVerdict {
        self.verdict
    }

    /// Per-epoch records accumulated so far.
    pub fn epochs(&self) -> &[EpochHealth] {
        &self.epochs
    }

    /// Finish the fit: emit a `health` JSONL event (always, like warnings —
    /// verdicts must be machine-visible even at level `off`) and return the
    /// verdict plus the per-epoch records for the `FitReport`.
    pub fn finish(self) -> (HealthVerdict, Vec<EpochHealth>) {
        let final_loss = self.epochs.last().map(|e| e.loss as f64).unwrap_or(f64::NAN);
        emit(&Event {
            count: self.epochs.len() as u64,
            value: final_loss,
            msg: self.verdict.to_string(),
            ..Event::blank("health", &self.model)
        });
        (self.verdict, self.epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drain_memory_sink, series_points, test_scope, Level};

    #[test]
    fn converging_fit_is_healthy_and_records_series() {
        let _g = test_scope(Level::Summary);
        let mut m = HealthMonitor::new("unit", HealthConfig::default());
        for epoch in 0..3 {
            for _ in 0..4 {
                let loss = 1.0 / (epoch + 1) as f32;
                m.observe_step(loss, loss * 0.9, loss * 0.1, 2.0);
            }
            assert_eq!(m.end_epoch(3.0, 0.01), HealthVerdict::Healthy);
        }
        let (verdict, epochs) = m.finish();
        assert_eq!(verdict, HealthVerdict::Healthy);
        assert_eq!(epochs.len(), 3);
        assert!(epochs.iter().all(|e| e.loss.is_finite() && e.grad_norm.is_finite()));
        assert!((epochs[2].l2 - 0.01 * 9.0).abs() < 1e-6);
        let loss_series = series_points("fit.loss");
        assert_eq!(loss_series.len(), 3);
        assert!(loss_series.windows(2).all(|w| w[0].index < w[1].index));
        let events = drain_memory_sink().join("\n");
        assert!(events.contains("\"health\""), "missing health event: {events}");
        assert!(events.contains("Healthy"));
    }

    #[test]
    fn nan_loss_diverges_warns_once_and_aborts_when_opted_in() {
        let _g = test_scope(Level::Off); // warn events are emitted even at off
        let cfg = HealthConfig { abort_on_divergence: true, ..Default::default() };
        let mut m = HealthMonitor::new("unit", cfg);
        m.observe_step(0.5, 0.4, 0.1, 1.0);
        m.end_epoch(1.0, 0.01);
        assert!(!m.should_abort());
        m.observe_step(f32::NAN, f32::NAN, 0.0, 1.0);
        assert_eq!(m.end_epoch(1.0, 0.01), HealthVerdict::Diverged);
        assert!(m.should_abort());
        // Verdict is sticky and the warn fires exactly once.
        m.observe_step(0.5, 0.4, 0.1, 1.0);
        assert_eq!(m.end_epoch(1.0, 0.01), HealthVerdict::Diverged);
        let events = drain_memory_sink();
        let diverged: Vec<_> =
            events.iter().filter(|l| l.contains("fit.diverged")).collect();
        assert_eq!(diverged.len(), 1, "one fit.diverged warn expected: {events:?}");
    }

    #[test]
    fn gradient_thresholds_grade_warn_then_diverged() {
        let _g = test_scope(Level::Off);
        let mut m = HealthMonitor::new("unit", HealthConfig::default());
        m.observe_step(0.5, 0.5, 0.0, 5e3); // above grad_warn, below diverge
        assert_eq!(m.end_epoch(1.0, 0.0), HealthVerdict::Warn);
        m.observe_step(0.5, 0.5, 0.0, 5e6); // above grad_diverge
        assert_eq!(m.end_epoch(1.0, 0.0), HealthVerdict::Diverged);
    }

    #[test]
    fn loss_regression_relative_to_best_warns() {
        let _g = test_scope(Level::Off);
        let mut m = HealthMonitor::new("unit", HealthConfig::default());
        m.observe_step(0.1, 0.1, 0.0, 1.0);
        assert_eq!(m.end_epoch(1.0, 0.0), HealthVerdict::Healthy);
        m.observe_step(5.0, 5.0, 0.0, 1.0); // 50× the best epoch
        assert_eq!(m.end_epoch(1.0, 0.0), HealthVerdict::Warn);
    }

    #[test]
    fn empty_epoch_is_not_divergence() {
        let _g = test_scope(Level::Off);
        let mut m = HealthMonitor::new("unit", HealthConfig::default());
        let v = m.end_epoch(1.0, 0.01);
        assert_eq!(v, HealthVerdict::Healthy);
        assert!(m.epochs()[0].loss.is_nan());
        assert!(!m.should_abort());
    }
}
