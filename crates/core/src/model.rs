//! The end-to-end RT-GCN model (paper Section IV, Figure 3): stacked
//! relation-temporal graph convolution layers → average pooling over the
//! temporal dimension → fully connected ranking-score head, trained with the
//! combined regression + pairwise-ranking objective (Eq. 9).

use crate::config::RtGcnConfig;
use crate::layers::{RelationalConv, TemporalConvBlock};
use crate::strategy::StrategyCtx;
use rand::rngs::StdRng;
use rtgcn_graph::RelationTensor;
use rtgcn_tensor::{
    clip_grad_norm, init, ConvSpec, Optimizer, ParamId, ParamStore, Tape, Tensor, Var,
};
use std::time::Instant;

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Per-step diagnostics of one optimisation step, as every
/// [`fit_epochs`](crate::ranker::fit_epochs) step returns them: the loss, its
/// MSE and pairwise-ranking components (Eq. 9; 0.0 where a model has no such
/// term), and the pre-clip global gradient L2 norm — the inputs of the
/// training-health monitor.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    pub loss: f32,
    pub mse: f32,
    pub rank: f32,
    pub grad_norm: f32,
}

/// A ready-to-train RT-GCN over a fixed stock universe and relation tensor.
pub struct RtGcn {
    pub config: RtGcnConfig,
    pub store: ParamStore,
    pub ctx: StrategyCtx,
    rel_convs: Vec<RelationalConv>,
    tcn_blocks: Vec<TemporalConvBlock>,
    fc_w: ParamId,
    fc_b: ParamId,
    rng: StdRng,
    n_stocks: usize,
}

impl RtGcn {
    /// Build the model. Panics on invalid configuration (use
    /// [`RtGcnConfig::validate`] for a `Result`).
    pub fn new(config: RtGcnConfig, relations: &RelationTensor, seed: u64) -> Self {
        RtGcn::build(config, relations, StrategyCtx::new(relations), seed)
    }

    /// Like [`RtGcn::new`] but sharing a prebuilt normalised-adjacency
    /// layout (see [`rtgcn_graph::SharedAdjCache`]): the CSR grouping and
    /// uniform weights are `Arc`-shared with `cache`. The serving registry
    /// uses this so concurrent workers over one market never duplicate the
    /// layout.
    pub fn with_shared_cache(
        config: RtGcnConfig,
        relations: &RelationTensor,
        cache: &rtgcn_graph::SharedAdjCache,
        seed: u64,
    ) -> Self {
        let ctx = StrategyCtx::with_cache(relations, std::sync::Arc::clone(cache));
        RtGcn::build(config, relations, ctx, seed)
    }

    fn build(config: RtGcnConfig, relations: &RelationTensor, ctx: StrategyCtx, seed: u64) -> Self {
        // lint:allow(panic-free-hot-paths) documented constructor contract: invalid config is a programming error
        config.validate().unwrap_or_else(|e| panic!("invalid RtGcnConfig: {e}"));
        let mut rng = init::rng(seed);
        let mut store = ParamStore::new();
        let k = ctx.k_types;
        let mut rel_convs = Vec::new();
        let mut tcn_blocks = Vec::new();
        let mut width = config.n_features;
        for layer in 0..config.layers {
            if config.use_relational {
                rel_convs.push(RelationalConv::new(
                    &mut store,
                    &format!("layer{layer}.rel"),
                    width,
                    config.rel_filters,
                    k,
                    config.strategy,
                    &mut rng,
                ));
                width = config.rel_filters;
            }
            if config.use_temporal {
                tcn_blocks.push(TemporalConvBlock::new(
                    &mut store,
                    &format!("layer{layer}.tcn"),
                    width,
                    config.temporal_filters,
                    ConvSpec::new(config.kernel, config.stride, 1),
                    config.dropout,
                    &mut rng,
                ));
                width = config.temporal_filters;
            }
        }
        let fc_w = store.add("fc.w", init::xavier([width, 1], &mut rng));
        let fc_b = store.add("fc.b", Tensor::zeros([1]));
        RtGcn {
            config,
            store,
            ctx,
            rel_convs,
            tcn_blocks,
            fc_w,
            fc_b,
            rng,
            n_stocks: relations.num_stocks(),
        }
    }

    pub fn n_stocks(&self) -> usize {
        self.n_stocks
    }

    /// Trainable scalar count (for the speed-comparison context).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Check the `(T, N, D)` input against the configuration.
    fn check_input(&self, x: &Tensor) {
        let (t, n, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(t, self.config.t_steps, "input window length mismatch");
        assert_eq!(n, self.n_stocks, "stock count mismatch");
        assert_eq!(d, self.config.n_features, "feature count mismatch");
    }

    /// Forward pass producing the ranking scores `r̂ ∈ R^N`. The window
    /// stays a rank-3 `(T, N, C)` tensor end to end: one batched propagation
    /// and two `(T·N, C)` matmuls per relational layer, and a TCN that
    /// convolves along `T` in the same layout.
    pub fn forward(&mut self, tape: &mut Tape, x: &Tensor, training: bool) -> Var {
        self.check_input(x);
        let n = self.n_stocks;
        let mut cur = tape.constant(x.clone()); // (T, N, C)
        let (mut rel_i, mut tcn_i) = (0usize, 0usize);
        for _layer in 0..self.config.layers {
            if self.config.use_relational {
                let _span = rtgcn_telemetry::span("relational");
                let t = Instant::now();
                cur = self.rel_convs[rel_i].forward(tape, &self.store, &self.ctx, cur);
                rtgcn_telemetry::record_ns("kernel.gcn.relational_ns", elapsed_ns(t));
                rel_i += 1;
            }
            if self.config.use_temporal {
                let _span = rtgcn_telemetry::span("temporal");
                let t = Instant::now();
                let block = &self.tcn_blocks[tcn_i];
                cur = block.forward(tape, &self.store, cur, training, &mut self.rng); // (T', N, C)
                tcn_i += 1;
                rtgcn_telemetry::record_ns("kernel.gcn.temporal_ns", elapsed_ns(t));
            }
        }
        // Average pooling over the remaining temporal dimension (stride = H).
        let pooled = tape.mean_axis(cur, 0); // (N, C)
        let fc_w = self.store.bind(tape, self.fc_w);
        let fc_b = self.store.bind(tape, self.fc_b);
        let scores = tape.linear(pooled, fc_w, fc_b); // (N, 1)
        tape.reshape(scores, [n])
    }

    /// Inference: ranking scores as a plain vector.
    pub fn score(&mut self, x: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let s = self.forward(&mut tape, x, false);
        let out = tape.value(s).data().to_vec();
        self.store.clear_bindings();
        out
    }

    /// Rebuild the strategy context for a mutated relation tensor (streaming
    /// edge add/drop events). The learned relation-importance parameters
    /// `w ∈ R^K` carry over, so the stock universe and type count must be
    /// unchanged; returns `false` (and leaves the model untouched) otherwise.
    pub fn refresh_relations(&mut self, relations: &RelationTensor) -> bool {
        if relations.num_stocks() != self.n_stocks {
            rtgcn_telemetry::warn(
                "stream.refresh_relations",
                &format!(
                    "stock universe changed ({} -> {}); refusing to refresh",
                    self.n_stocks,
                    relations.num_stocks()
                ),
            );
            return false;
        }
        if relations.num_types().max(1) != self.ctx.k_types {
            rtgcn_telemetry::warn(
                "stream.refresh_relations",
                &format!(
                    "relation type count changed ({} -> {}); learned w no longer applies",
                    self.ctx.k_types,
                    relations.num_types().max(1)
                ),
            );
            return false;
        }
        self.ctx = StrategyCtx::new(relations);
        true
    }

    /// One optimisation step on a single day's window. Returns the loss.
    pub fn train_step(&mut self, x: &Tensor, y: &Tensor, opt: &mut dyn Optimizer) -> f32 {
        self.train_step_stats(x, y, opt).loss
    }

    /// [`train_step`](Self::train_step) plus the per-step diagnostics the
    /// training-health monitor consumes: the loss components of Eq. 9 and
    /// the pre-clip global gradient L2 norm.
    pub fn train_step_stats(&mut self, x: &Tensor, y: &Tensor, opt: &mut dyn Optimizer) -> StepStats {
        let mut tape = Tape::new();
        let scores = self.forward(&mut tape, x, true);
        let (loss, loss_val, mse, rank) = {
            let _span = rtgcn_telemetry::span("loss");
            let (loss, mse, rank) = tape.combined_rank_loss_parts(scores, y, self.config.alpha);
            (loss, tape.value(loss).item(), mse, rank)
        };
        {
            let _span = rtgcn_telemetry::span("backward");
            tape.backward(loss);
            self.store.absorb_grads(&tape);
        }
        let grad_norm = {
            let _span = rtgcn_telemetry::span("optim");
            let grad_norm = clip_grad_norm(&mut self.store, 5.0);
            opt.step(&mut self.store);
            grad_norm
        };
        StepStats { loss: loss_val, mse, rank, grad_norm }
    }

    /// Global parameter L2 norm (the ‖θ‖ the L2 term of Eq. 9 penalises).
    pub fn weight_norm(&self) -> f32 {
        self.store.value_norm()
    }

    /// Snapshot of the first relational layer's adjacency for
    /// introspection (Figure 8 case study): one weight vector per time-step,
    /// aligned with `self.ctx.edges` (relation edges then self-loops).
    /// Uniform/Weighted return a single shared snapshot; empty when the
    /// relational module is disabled (T-Conv).
    pub fn adjacency_snapshot(&mut self, x: &Tensor) -> Vec<Vec<f32>> {
        self.check_input(x);
        let Some(conv) = self.rel_convs.first() else {
            return Vec::new();
        };
        let mut tape = Tape::new();
        let x3 = tape.constant(x.clone());
        let adj = conv.adjacency(&mut tape, &self.store, &self.ctx, x3);
        let e = self.ctx.edges.len();
        let out = tape.value(adj).data().chunks(e).map(<[f32]>::to_vec).collect();
        self.store.clear_bindings();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use rtgcn_tensor::Adam;

    fn relations(n: usize) -> RelationTensor {
        let mut r = RelationTensor::new(n, 2);
        for i in 0..n - 1 {
            r.connect(i, i + 1, i % 2);
        }
        r
    }

    fn toy_input(t: usize, n: usize, d: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = init::rng(seed);
        let x = init::normal([t, n, d], 0.5, &mut rng);
        let y = init::normal([n], 0.02, &mut rng);
        (x, y)
    }

    #[test]
    fn forward_shapes_all_strategies() {
        for strategy in Strategy::ALL {
            let mut cfg = RtGcnConfig::with_strategy(strategy);
            cfg.t_steps = 8;
            cfg.n_features = 3;
            let mut model = RtGcn::new(cfg, &relations(5), 1);
            let (x, _) = toy_input(8, 5, 3, 2);
            let scores = model.score(&x);
            assert_eq!(scores.len(), 5, "{strategy:?}");
            assert!(scores.iter().all(|s| s.is_finite()), "{strategy:?}");
        }
    }

    #[test]
    fn ablation_variants_run() {
        for cfg in [RtGcnConfig::r_conv(), RtGcnConfig::t_conv()] {
            let mut cfg = cfg;
            cfg.t_steps = 8;
            cfg.n_features = 2;
            let mut model = RtGcn::new(cfg, &relations(4), 3);
            let (x, _) = toy_input(8, 4, 2, 4);
            assert_eq!(model.score(&x).len(), 4);
        }
    }

    #[test]
    fn two_layer_stack_runs() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::TimeSensitive);
        cfg.layers = 2;
        cfg.t_steps = 12;
        cfg.n_features = 2;
        let mut model = RtGcn::new(cfg, &relations(4), 5);
        let (x, _) = toy_input(12, 4, 2, 6);
        assert_eq!(model.score(&x).len(), 4);
    }

    #[test]
    fn training_reduces_loss() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::Weighted);
        cfg.t_steps = 8;
        cfg.n_features = 2;
        cfg.dropout = 0.0;
        let mut model = RtGcn::new(cfg, &relations(6), 7);
        let (x, y) = toy_input(8, 6, 2, 8);
        let mut opt = Adam::new(5e-3, 0.0);
        let first = model.train_step(&x, &y, &mut opt);
        let mut last = first;
        for _ in 0..60 {
            last = model.train_step(&x, &y, &mut opt);
        }
        assert!(
            last < first * 0.8,
            "loss should drop on a fixed batch: first {first}, last {last}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut cfg = RtGcnConfig::with_strategy(Strategy::TimeSensitive);
            cfg.t_steps = 6;
            cfg.n_features = 2;
            let mut m = RtGcn::new(cfg, &relations(4), 11);
            let (x, _) = toy_input(6, 4, 2, 12);
            m.score(&x)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn adjacency_snapshot_per_step_only_for_time_sensitive() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::TimeSensitive);
        cfg.t_steps = 5;
        cfg.n_features = 2;
        let mut model = RtGcn::new(cfg, &relations(4), 13);
        let (x, _) = toy_input(5, 4, 2, 14);
        let snaps = model.adjacency_snapshot(&x);
        assert_eq!(snaps.len(), 5, "one adjacency per time-step");
        assert_ne!(snaps[0], snaps[4], "adjacency evolves across steps");

        let mut cfg = RtGcnConfig::with_strategy(Strategy::Weighted);
        cfg.t_steps = 5;
        cfg.n_features = 2;
        let mut model = RtGcn::new(cfg, &relations(4), 13);
        assert_eq!(model.adjacency_snapshot(&x).len(), 1, "shared adjacency");

        let mut cfg = RtGcnConfig::t_conv();
        cfg.t_steps = 5;
        cfg.n_features = 2;
        let mut model = RtGcn::new(cfg, &relations(4), 13);
        assert!(model.adjacency_snapshot(&x).is_empty(), "T-Conv propagates no adjacency");
    }

    #[test]
    fn a_panicking_score_leaves_no_state_behind() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::TimeSensitive);
        cfg.t_steps = 6;
        cfg.n_features = 2;
        let rel = relations(5);
        let mut model = RtGcn::new(cfg.clone(), &rel, 45);
        // A window of the wrong feature width panics inside the forward.
        let (wide, _) = toy_input(6, 5, 3, 47);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.score(&wide)));
        assert!(panicked.is_err(), "a wrong feature width must panic");
        // A later score of another window equals a fresh model's.
        let (x2, _) = toy_input(6, 5, 2, 48);
        let fresh = RtGcn::new(cfg, &rel, 45).score(&x2);
        assert_eq!(model.score(&x2), fresh);
    }

    #[test]
    fn weighted_score_equals_the_training_forward() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::Weighted);
        cfg.t_steps = 6;
        cfg.n_features = 2;
        cfg.dropout = 0.0;
        let mut model = RtGcn::new(cfg, &relations(5), 49);
        let (x, _) = toy_input(6, 5, 2, 50);
        let scored = model.score(&x);
        let mut tape = Tape::new();
        let s = model.forward(&mut tape, &x, true);
        let trained: Vec<f32> = tape.value(s).data().to_vec();
        model.store.clear_bindings();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scored), bits(&trained), "inference and training build one adjacency");
    }

    #[test]
    fn refresh_relations_swaps_graph_but_keeps_params() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::TimeSensitive);
        cfg.t_steps = 6;
        cfg.n_features = 2;
        cfg.dropout = 0.0;
        let rel = relations(5);
        let mut model = RtGcn::new(cfg, &rel, 43);
        let (x, _) = toy_input(6, 5, 2, 44);
        let before = model.score(&x);
        // Same universe + type count, different edges: accepted.
        let mut rel2 = RelationTensor::new(5, 2);
        rel2.connect(0, 4, 0);
        rel2.connect(1, 3, 1);
        assert!(model.refresh_relations(&rel2));
        assert_eq!(model.ctx.n_rel_edges, 4);
        let after = model.score(&x);
        assert_ne!(before, after, "a different graph must change scores");
        // Type-count change: refused, state untouched.
        let rel3 = RelationTensor::new(5, 3);
        assert!(!model.refresh_relations(&rel3));
        assert_eq!(model.ctx.k_types, 2);
        // Universe change: refused.
        let rel4 = RelationTensor::new(6, 2);
        assert!(!model.refresh_relations(&rel4));
    }

    #[test]
    fn scores_differ_across_stocks() {
        let mut cfg = RtGcnConfig::with_strategy(Strategy::Uniform);
        cfg.t_steps = 8;
        cfg.n_features = 2;
        let mut model = RtGcn::new(cfg, &relations(6), 17);
        let (x, _) = toy_input(8, 6, 2, 18);
        let s = model.score(&x);
        let spread = s.iter().cloned().fold(f32::MIN, f32::max)
            - s.iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread > 1e-6, "scores should not collapse, spread {spread}");
    }
}
