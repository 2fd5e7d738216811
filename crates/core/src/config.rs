//! Model and training configuration for RT-GCN.

use serde::{Deserialize, Serialize};

/// The three relation-aware propagation strategies (paper Section IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Eq. 3 — binary adjacency, all relations equal.
    Uniform,
    /// Eq. 4 — learned per-relation-type weights, shared across time.
    Weighted,
    /// Eq. 5 — scaled-dot-product time correlation × relation importance,
    /// one adjacency per time-step.
    TimeSensitive,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [Strategy::Uniform, Strategy::Weighted, Strategy::TimeSensitive];

    /// Paper display name, e.g. `RT-GCN (T)`.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Uniform => "RT-GCN (U)",
            Strategy::Weighted => "RT-GCN (W)",
            Strategy::TimeSensitive => "RT-GCN (T)",
        }
    }
}

/// RT-GCN hyperparameters. Defaults follow the paper's tuned setting:
/// window T = 16 (grid {5,10,15,20} showed ~15 is best and flat beyond),
/// 4 features, α = 0.1, λ = 0.01, Adam lr = 0.001, one RT-GCN layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RtGcnConfig {
    /// Window size T (days of history per prediction).
    pub t_steps: usize,
    /// Number of features per stock-day, 1..=4 (Table VIII).
    pub n_features: usize,
    /// Relational convolution output width F.
    pub rel_filters: usize,
    /// Temporal convolution output channels H.
    pub temporal_filters: usize,
    /// Temporal kernel size.
    pub kernel: usize,
    /// Temporal stride (receptive-field expansion, Section IV-C).
    pub stride: usize,
    /// Stacked RT-GCN layers (paper uses 1; more overfits).
    pub layers: usize,
    /// Propagation strategy.
    pub strategy: Strategy,
    /// Spatial dropout after each TCN layer.
    pub dropout: f32,
    /// Ranking-loss balance α (Eq. 9).
    pub alpha: f32,
    /// L2 regularisation λ (Eq. 9), applied in the optimiser.
    pub lambda: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs (full passes over the training windows).
    pub epochs: usize,
    /// Ablation switches (Table VII): `R-Conv` = temporal off,
    /// `T-Conv` = relational off.
    pub use_relational: bool,
    pub use_temporal: bool,
    /// Stop the fit loop early once the training-health monitor reports
    /// `HealthVerdict::Diverged` (opt-in; the default keeps the paper's
    /// fixed epoch budget).
    pub abort_on_divergence: bool,
}

impl Default for RtGcnConfig {
    fn default() -> Self {
        RtGcnConfig {
            t_steps: 16,
            n_features: 4,
            rel_filters: 32,
            temporal_filters: 32,
            kernel: 3,
            stride: 2,
            layers: 1,
            strategy: Strategy::TimeSensitive,
            dropout: 0.1,
            alpha: 0.1,
            lambda: 0.01,
            lr: 1e-3,
            epochs: 6,
            use_relational: true,
            use_temporal: true,
            abort_on_divergence: false,
        }
    }
}

impl RtGcnConfig {
    pub fn with_strategy(strategy: Strategy) -> Self {
        RtGcnConfig { strategy, ..Default::default() }
    }

    /// The R-Conv ablation of Table VII: relational convolution only.
    pub fn r_conv() -> Self {
        RtGcnConfig {
            strategy: Strategy::Uniform,
            use_temporal: false,
            ..Default::default()
        }
    }

    /// The T-Conv ablation of Table VII: temporal convolution only.
    pub fn t_conv() -> Self {
        RtGcnConfig {
            strategy: Strategy::Uniform,
            use_relational: false,
            ..Default::default()
        }
    }

    /// Validate invariants; call before building a model.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_steps == 0 {
            return Err("t_steps must be >= 1".into());
        }
        if !(1..=4).contains(&self.n_features) {
            return Err("n_features must be in 1..=4 (Table VIII)".into());
        }
        if self.kernel == 0 || self.stride == 0 {
            return Err("kernel and stride must be >= 1".into());
        }
        if self.layers == 0 || self.layers > 4 {
            return Err("layers must be in 1..=4".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        if !self.use_relational && !self.use_temporal {
            return Err("at least one of relational/temporal modules must be enabled".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paperlike() {
        let c = RtGcnConfig::default();
        c.validate().unwrap();
        assert_eq!(c.strategy, Strategy::TimeSensitive);
        assert_eq!(c.lambda, 0.01);
        assert_eq!(c.lr, 1e-3);
    }

    #[test]
    fn ablations_flip_modules() {
        let r = RtGcnConfig::r_conv();
        assert!(r.use_relational && !r.use_temporal);
        r.validate().unwrap();
        let t = RtGcnConfig::t_conv();
        assert!(!t.use_relational && t.use_temporal);
        t.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = RtGcnConfig { n_features: 5, ..Default::default() };
        assert!(c.validate().is_err());
        let c = RtGcnConfig { use_relational: false, use_temporal: false, ..Default::default() };
        assert!(c.validate().is_err());
        let c = RtGcnConfig { layers: 0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Uniform.label(), "RT-GCN (U)");
        assert_eq!(Strategy::TimeSensitive.label(), "RT-GCN (T)");
    }
}
