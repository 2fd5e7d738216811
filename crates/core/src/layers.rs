//! The two building blocks of an RT-GCN layer (paper Section IV, Figure 3):
//! relational graph convolution (all planes of `G_RT` in one batched pass)
//! and the weight-normalised causal temporal convolution with residual
//! connection and spatial dropout.

use crate::config::Strategy;
use crate::strategy::StrategyCtx;
use rand::rngs::StdRng;
use rtgcn_tensor::{init, ConvSpec, ParamId, ParamStore, Tape, Tensor, Var};

/// Relational graph convolution `Z_t = ReLU(X_t Θ_self + Â(t) X_t Θ_nbr)`
/// — Eq. 2 applied with a strategy-provided adjacency, using the
/// self/neighbour *partitioning* of ST-GCN (Yan et al. [23], the
/// architecture RT-GCN's graph layer builds on): the root node keeps its
/// own weight matrix. Without the partition, symmetric renormalisation over
/// dense industry cliques (degree ≈ 50) dilutes each stock's own features
/// to `1/deg`, erasing the per-stock temporal signal before the temporal
/// convolution can read it (DESIGN.md §6).
pub struct RelationalConv {
    pub theta_self: ParamId,
    pub theta: ParamId,
    /// Strategy parameters `w ∈ R^{K×1}` and `b` (unused by Uniform).
    pub w_rel: ParamId,
    pub b_rel: ParamId,
    pub strategy: Strategy,
}

impl RelationalConv {
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        k_types: usize,
        strategy: Strategy,
        rng: &mut StdRng,
    ) -> Self {
        let theta_self =
            store.add(format!("{prefix}.theta_self"), init::xavier([in_dim, out_dim], rng));
        let theta = store.add(format!("{prefix}.theta"), init::xavier([in_dim, out_dim], rng));
        // Relation weights start near the uniform strategy (w ≈ 0, b = 1) so
        // early training matches Eq. 3 and learns departures from it.
        let w_rel = store.add(format!("{prefix}.w_rel"), init::normal([k_types, 1], 0.1, rng));
        let b_rel = store.add(format!("{prefix}.b_rel"), Tensor::from_vec(vec![1.0]));
        RelationalConv { theta_self, theta, w_rel, b_rel, strategy }
    }

    /// The strategy's edge weights for one window (Eqs. 3–5), aligned with
    /// `ctx.csr` (relation edges then self-loops): `(E)` shared by every
    /// plane for Uniform and Weighted, `(T, E)` one row per plane for
    /// TimeSensitive. Always built on the tape, in training and inference
    /// alike.
    pub(crate) fn adjacency(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ctx: &StrategyCtx,
        x3: Var,
    ) -> Var {
        match self.strategy {
            Strategy::Uniform => ctx.adjacency_uniform(tape),
            Strategy::Weighted => {
                let w = store.bind(tape, self.w_rel);
                let b = store.bind(tape, self.b_rel);
                ctx.adjacency_weighted(tape, w, b)
            }
            Strategy::TimeSensitive => {
                let w = store.bind(tape, self.w_rel);
                let b = store.bind(tape, self.b_rel);
                ctx.adjacency_time_sensitive_batched(tape, w, b, x3)
            }
        }
    }

    /// Forward over all time-steps at once: `x3` is the full `(T, N, C)`
    /// window, the result `(T, N, F)`. All planes share one
    /// `(T·N, C) × (C, F)` matmul per weight matrix and one batched
    /// propagation through the shared CSR layout.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ctx: &StrategyCtx, x3: Var) -> Var {
        let dims = tape.value(x3).dims().to_vec();
        let (t, n, c) = (dims[0], dims[1], dims[2]);
        let out_dim = store.value(self.theta).dims()[1];
        let adj = self.adjacency(tape, store, ctx, x3);
        let theta_self = store.bind(tape, self.theta_self);
        let theta = store.bind(tape, self.theta);
        let x2 = tape.reshape(x3, [t * n, c]);
        let own = tape.matmul(x2, theta_self);
        let agg = tape.spmm_batched(&ctx.csr, adj, x3); // (T, N, C)
        let agg2 = tape.reshape(agg, [t * n, c]);
        let nbr = tape.matmul(agg2, theta);
        let z = tape.add(own, nbr);
        let a = tape.relu(z);
        tape.reshape(a, [t, n, out_dim])
    }
}

/// Weight-normalised causal temporal convolution block: conv → ReLU →
/// spatial dropout, plus a (possibly strided 1×1) residual connection
/// (Section IV-C; He et al. residual, Salimans–Kingma weight norm,
/// Srivastava spatial dropout).
pub struct TemporalConvBlock {
    pub v: ParamId,
    pub gain: ParamId,
    pub bias: ParamId,
    /// 1×1 skip projection, present when channels or stride change.
    pub skip: Option<(ParamId, ParamId)>,
    pub spec: ConvSpec,
    pub in_channels: usize,
    pub out_channels: usize,
    pub dropout: f32,
}

impl TemporalConvBlock {
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        let v = store.add(
            format!("{prefix}.v"),
            init::kaiming([out_channels, in_channels * spec.kernel], rng)
                .reshape([out_channels, in_channels, spec.kernel]),
        );
        let gain = store.add(format!("{prefix}.gain"), Tensor::ones([out_channels]));
        let bias = store.add(format!("{prefix}.bias"), Tensor::zeros([out_channels]));
        let skip = if in_channels != out_channels || spec.stride != 1 {
            let sw = store.add(
                format!("{prefix}.skip_w"),
                init::xavier([out_channels, in_channels, 1], rng),
            );
            let sb = store.add(format!("{prefix}.skip_b"), Tensor::zeros([out_channels]));
            Some((sw, sb))
        } else {
            None
        };
        TemporalConvBlock { v, gain, bias, skip, spec, in_channels, out_channels, dropout }
    }

    /// `x: (T, N, C_in)` → `(⌈T/stride⌉, N, C_out)`. `rng` is consulted only
    /// when `training` (dropout).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let v = store.bind(tape, self.v);
        let gain = store.bind(tape, self.gain);
        let bias = store.bind(tape, self.bias);
        let w = tape.weight_norm(v, gain);
        let conv = tape.conv1d_causal(x, w, bias, self.spec);
        let act = tape.relu(conv);
        let reg = if training && self.dropout > 0.0 {
            tape.spatial_dropout(act, self.dropout, rng)
        } else {
            act
        };
        let residual = match self.skip {
            Some((sw, sb)) => {
                let sw = store.bind(tape, sw);
                let sb = store.bind(tape, sb);
                let skip_spec = ConvSpec::new(1, self.spec.stride, 1);
                tape.conv1d_causal(x, sw, sb, skip_spec)
            }
            None => x,
        };
        tape.add(reg, residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_graph::RelationTensor;

    fn ctx3() -> StrategyCtx {
        let mut r = RelationTensor::new(3, 2);
        r.connect(0, 1, 0);
        r.connect(1, 2, 1);
        StrategyCtx::new(&r)
    }

    #[test]
    fn relational_conv_output_shapes() {
        let (t, n, d) = (4, 3, 2);
        let data: Vec<f32> =
            (0..t * n * d).map(|i| ((i * 31 + 7) % 23) as f32 / 23.0 - 0.4).collect();
        for strategy in Strategy::ALL {
            let mut store = ParamStore::new();
            let mut rng = init::rng(1);
            let conv = RelationalConv::new(&mut store, "rc", d, 5, 2, strategy, &mut rng);
            let mut tape = Tape::new();
            let x3 = tape.constant(Tensor::new([t, n, d], data.clone()));
            let z = conv.forward(&mut tape, &store, &ctx3(), x3);
            assert_eq!(tape.value(z).dims(), &[t, n, 5], "{strategy:?}");
            assert!(!tape.value(z).has_non_finite(), "{strategy:?}");
        }
    }

    #[test]
    fn relational_conv_aggregates_neighbours() {
        // With uniform strategy, node 0's output depends on node 1's input.
        let mut store = ParamStore::new();
        let mut rng = init::rng(2);
        let conv = RelationalConv::new(&mut store, "rc", 2, 3, 2, Strategy::Uniform, &mut rng);
        let ctx = ctx3();
        let run = |x: Vec<f32>| -> Tensor {
            let mut tape = Tape::new();
            let xv = tape.constant(Tensor::new([1, 3, 2], x));
            let z = conv.forward(&mut tape, &store, &ctx, xv);
            tape.value(z).reshape([3, 3])
        };
        let base = run(vec![1., 1., 1., 1., 1., 1.]);
        let pert = run(vec![1., 1., 9., 9., 1., 1.]);
        let row0_changed = (0..3).any(|f| (base.at(&[0, f]) - pert.at(&[0, f])).abs() > 1e-6);
        assert!(row0_changed, "perturbing neighbour 1 must change node 0's output");
        // Nodes 0 and 2 are not related (both only touch node 1): perturbing
        // node 0 must leave node 2's output alone.
        let pert0 = run(vec![9., 9., 1., 1., 1., 1.]);
        let row2_changed = (0..3).any(|f| (base.at(&[2, f]) - pert0.at(&[2, f])).abs() > 1e-6);
        assert!(!row2_changed, "node 2 must be unaffected by non-neighbour node 0");
    }

    #[test]
    fn temporal_block_shapes_and_residual() {
        let mut store = ParamStore::new();
        let mut rng = init::rng(3);
        let spec = ConvSpec::new(3, 2, 1);
        let block = TemporalConvBlock::new(&mut store, "tcn", 4, 8, spec, 0.0, &mut rng);
        assert!(block.skip.is_some(), "channel/stride change requires projection");
        let mut tape = Tape::new();
        let x = tape.constant(init::normal([10, 5, 4], 1.0, &mut rng));
        let y = block.forward(&mut tape, &store, x, false, &mut rng);
        assert_eq!(tape.value(y).dims(), &[5, 5, 8]);
    }

    #[test]
    fn temporal_block_identity_skip_when_same_shape() {
        let mut store = ParamStore::new();
        let mut rng = init::rng(4);
        let spec = ConvSpec::new(3, 1, 1);
        let block = TemporalConvBlock::new(&mut store, "tcn", 6, 6, spec, 0.0, &mut rng);
        assert!(block.skip.is_none());
        let mut tape = Tape::new();
        let x = tape.constant(init::normal([8, 2, 6], 1.0, &mut rng));
        let y = block.forward(&mut tape, &store, x, false, &mut rng);
        assert_eq!(tape.value(y).dims(), &[8, 2, 6]);
    }

    #[test]
    fn temporal_block_gradients_flow_to_all_params() {
        let mut store = ParamStore::new();
        let mut rng = init::rng(5);
        let spec = ConvSpec::new(2, 2, 1);
        let block = TemporalConvBlock::new(&mut store, "tcn", 3, 4, spec, 0.0, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(init::normal([6, 2, 3], 1.0, &mut rng));
        let y = block.forward(&mut tape, &store, x, true, &mut rng);
        let sq = tape.square(y);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        store.absorb_grads(&tape);
        for id in store.ids().collect::<Vec<_>>() {
            assert!(
                store.grad(id).norm() > 0.0,
                "no gradient reached {}",
                store.name(id)
            );
        }
    }
}
