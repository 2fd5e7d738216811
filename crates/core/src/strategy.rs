//! Differentiable construction of the weighted adjacency `A` from the
//! relation tensor `𝒜` — the three relation-aware strategies of paper
//! Section IV-B, including the Kipf–Welling renormalisation
//! `D̃^{-1/2}(A + I)D̃^{-1/2}` expressed with tape ops so gradients reach the
//! strategy parameters `w ∈ R^K, b` (and, for the time-sensitive strategy,
//! the node features).

use rtgcn_graph::{NormalizedAdjCache, RelationTensor, SharedAdjCache, DEGREE_EPS};
use rtgcn_tensor::{CsrEdges, Edges, Tape, Tensor, Var};

/// Static per-dataset context shared by every forward pass: the directed
/// relation edges with self-loops appended (plus their CSR grouping and the
/// precomputed Eq. 3 weights in the shared [`NormalizedAdjCache`]) and the
/// per-edge multi-hot relation vectors.
#[derive(Clone, Debug)]
pub struct StrategyCtx {
    /// Relation edges followed by one self-loop per node (order matters:
    /// weight vectors are laid out the same way).
    pub edges: Edges,
    /// The leading relation edges only (no self-loops), `Arc`-backed; the
    /// edge set of the time-correlation term.
    pub rel_edges: Edges,
    /// Number of leading relation edges (the rest are self-loops).
    pub n_rel_edges: usize,
    /// Number of relation types K.
    pub k_types: usize,
    /// `(E_rel, K)` multi-hot matrix, one row per relation edge.
    pub multi_hot: Tensor,
    /// CSR layout and the precomputed Eq. 3 weights for the batched
    /// kernels, immutable and shared by every model over the same graph.
    pub cache: SharedAdjCache,
}

impl StrategyCtx {
    pub fn new(relations: &RelationTensor) -> Self {
        let rel_pairs = relations.directed_edges();
        let cache = NormalizedAdjCache::new(relations.num_stocks(), &rel_pairs);
        StrategyCtx::with_cache(relations, cache.into_shared())
    }

    /// Like [`Self::new`] but sharing an existing cache's CSR layout and
    /// uniform weights instead of renormalising from scratch. The cache must
    /// have been built from the same relation tensor. The serving registry
    /// uses this so every model over one market shares a single layout
    /// allocation.
    pub fn with_cache(relations: &RelationTensor, cache: SharedAdjCache) -> Self {
        let rel_pairs = relations.directed_edges();
        let n_rel = rel_pairs.len();
        assert_eq!(cache.n_rel_edges(), n_rel, "cache built from a different relation tensor");
        assert_eq!(cache.n_nodes(), relations.num_stocks(), "cache node count mismatch");
        let k = relations.num_types();
        let multi_hot = Tensor::new([n_rel, k.max(1)], if k == 0 {
            vec![0.0; n_rel]
        } else {
            relations.edge_multi_hot_flat()
        });
        StrategyCtx {
            edges: cache.edges().clone(),
            rel_edges: Edges::new(relations.num_stocks(), rel_pairs),
            n_rel_edges: n_rel,
            k_types: k.max(1),
            multi_hot,
            cache,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.edges.n
    }

    /// CSR grouping of [`Self::edges`] for the batched propagation kernels.
    pub fn csr(&self) -> &CsrEdges {
        self.cache.csr()
    }

    /// Relation-importance term `𝒜_ijᵀ w + b` per relation edge (shared by
    /// the weighted and time-sensitive strategies). `w: (K, 1)`, `b: (1)`.
    fn relation_importance(&self, tape: &mut Tape, w: Var, b: Var) -> Var {
        let hot = tape.constant(self.multi_hot.clone());
        let imp = tape.linear(hot, w, b); // (E_rel, 1)
        tape.reshape(imp, [self.n_rel_edges])
    }

    /// Weighted strategy (Eq. 4): `A_ij = 𝒜_ijᵀ w + b`, shared across all
    /// time-steps, renormalised as one plane of [`Self::renormalize_batched`]
    /// (unit self-loop weights appended). Returns `(E_total)`.
    pub fn adjacency_weighted(&self, tape: &mut Tape, w: Var, b: Var) -> Var {
        let imp = self.relation_importance(tape, w, b);
        let imp_row = tape.reshape(imp, [1, self.n_rel_edges]);
        let loops = tape.constant(Tensor::ones([1, self.n_nodes()]));
        let raw_all = tape.concat_cols(imp_row, loops);
        let adj = self.renormalize_batched(tape, raw_all, 1);
        tape.reshape(adj, [self.edges.len()])
    }

    /// Time-sensitive strategy (Eq. 5):
    /// `A(t)_ij = (X(t)_iᵀ X(t)_j / √d) · (𝒜_ijᵀ w + b)`, unique per
    /// time-step, for all `T` planes at once: one `edge_dot_batched` for the
    /// correlations, a single shared importance term, and one batched
    /// renormalisation. `x3` is the full `(T, N, D)` window, and the scaled
    /// dot-product gradient flows back into it; the result is `(T, E_total)`
    /// per-plane edge weights for [`rtgcn_tensor::Tape::spmm_batched`].
    /// Matches a per-plane on-tape renormalisation to ~1 ulp (the degree
    /// product associates differently).
    pub fn adjacency_time_sensitive_batched(&self, tape: &mut Tape, w: Var, b: Var, x3: Var) -> Var {
        let dims = tape.value(x3).dims().to_vec();
        let (t, d) = (dims[0], dims[2]);
        let n = self.n_nodes();
        let raw_all = if self.n_rel_edges == 0 {
            // No relation edges: the adjacency is self-loops only, raw
            // weight 1 — skip the correlation term entirely (a (T,0)
            // edge_dot has nothing to contribute).
            tape.constant(Tensor::ones([t, n]))
        } else {
            let corr = tape.edge_dot_batched(&self.rel_edges, x3, (d as f32).sqrt()); // (T, E_rel)
            let imp = self.relation_importance(tape, w, b); // (E_rel)
            let raw_rel = tape.mul(corr, imp); // broadcast over planes
            let loops = tape.constant(Tensor::ones([t, n]));
            tape.concat_cols(raw_rel, loops)
        };
        self.renormalize_batched(tape, raw_all, t)
    }

    /// Batched renormalisation of `(T, E_total)` raw weights (self-loops
    /// already appended), differentiably: `Ã = A + I`, `D̃_ii = Σ_j |Ã_ij|`
    /// (clamped), output weight per edge `Ã_sd / √(D̃_ss D̃_dd)`, all planes
    /// in single fused kernels. Each node's in-edges are summed in original
    /// edge order (the CSR grouping is stable).
    fn renormalize_batched(&self, tape: &mut Tape, raw_all: Var, t: usize) -> Var {
        let n = self.n_nodes();
        let abs_w = tape.abs(raw_all);
        let ones_col = tape.constant(Tensor::ones([t, n, 1]));
        let deg3 = tape.spmm_batched(self.csr(), abs_w, ones_col); // (T,N,1): Σ_in |w|
        let deg = tape.reshape(deg3, [t, n]);
        let deg = tape.clamp_min(deg, DEGREE_EPS);
        let sqrt_deg = tape.sqrt(deg);
        let one = tape.constant(Tensor::scalar(1.0));
        let dinv = tape.div(one, sqrt_deg); // broadcast scalar / (T,N)
        let d_src = tape.gather_src_batched(&self.edges, dinv);
        let d_dst = tape.gather_dst_batched(&self.edges, dinv);
        let scaled = tape.mul(raw_all, d_src);
        tape.mul(scaled, d_dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_relations() -> RelationTensor {
        let mut r = RelationTensor::new(3, 2);
        r.connect(0, 1, 0);
        r.connect(1, 2, 1);
        r.connect(0, 2, 0);
        r
    }

    #[test]
    fn ctx_layout() {
        let ctx = StrategyCtx::new(&triangle_relations());
        assert_eq!(ctx.n_rel_edges, 6, "3 pairs × 2 directions");
        assert_eq!(ctx.edges.len(), 9, "plus 3 self-loops");
        assert_eq!(ctx.multi_hot.dims(), &[6, 2]);
        assert_eq!(ctx.cache.uniform().len(), 9);
    }

    #[test]
    fn uniform_matches_static_renormalisation() {
        let ctx = StrategyCtx::new(&triangle_relations());
        // Triangle with self loops: every node degree 3, all weights 1/3.
        for &v in ctx.cache.uniform().iter() {
            assert!((v - 1.0 / 3.0).abs() < 1e-5, "weight {v}");
        }
    }

    #[test]
    fn weighted_reduces_to_uniform_when_w0_b1() {
        // With w = 0 and b = 1 every relation edge gets raw weight 1, so the
        // weighted strategy must reproduce Eq. 3 exactly.
        let rel = triangle_relations();
        let ctx = StrategyCtx::new(&rel);
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::zeros([2, 1]));
        let b = tape.leaf(Tensor::from_vec(vec![1.0]));
        let adj = ctx.adjacency_weighted(&mut tape, w, b);
        let expect = Tensor::from_vec(ctx.cache.uniform().to_vec());
        assert!(tape.value(adj).allclose(&expect, 1e-5));
    }

    #[test]
    fn weighted_gradients_reach_w_and_b() {
        let rel = triangle_relations();
        let ctx = StrategyCtx::new(&rel);
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::new([2, 1], vec![0.5, -0.3]));
        let b = tape.leaf(Tensor::from_vec(vec![0.2]));
        let adj = ctx.adjacency_weighted(&mut tape, w, b);
        let sq = tape.square(adj);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        assert!(tape.grad(w).unwrap().norm() > 0.0, "gradient must reach w");
        assert!(tape.grad(b).unwrap().norm() > 0.0, "gradient must reach b");
    }

    #[test]
    fn weighted_grad_check_via_numeric_diff() {
        let rel = triangle_relations();
        let ctx = StrategyCtx::new(&rel);
        let w0 = Tensor::new([2, 1], vec![0.7, -0.4]);
        rtgcn_tensor::check_gradient(&w0, 1e-3, 2e-2, move |tape, w| {
            let b = tape.leaf(Tensor::from_vec(vec![0.3]));
            let adj = ctx.adjacency_weighted(tape, w, b);
            let sq = tape.square(adj);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn time_sensitive_gives_distinct_adjacency_per_step() {
        let rel = triangle_relations();
        let ctx = StrategyCtx::new(&rel);
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::new([2, 1], vec![0.5, 0.5]));
        let b = tape.leaf(Tensor::from_vec(vec![0.1]));
        let x3 = tape.leaf(Tensor::new(
            [2, 3, 2],
            vec![1., 0., 0., 1., 1., 1., 0.2, 0.9, 0.4, 0.1, 0.8, 0.8],
        ));
        let adj = ctx.adjacency_time_sensitive_batched(&mut tape, w, b, x3);
        let (a1, a2) = tape.value(adj).data().split_at(ctx.edges.len());
        assert_ne!(a1, a2, "adjacency must vary with features");
    }

    #[test]
    fn time_sensitive_gradient_reaches_features() {
        let rel = triangle_relations();
        let ctx = StrategyCtx::new(&rel);
        let x0 = Tensor::new(
            [2, 3, 2],
            vec![0.6, -0.2, 0.3, 0.8, -0.5, 0.4, -0.1, 0.7, 0.5, -0.3, 0.2, 0.9],
        );
        rtgcn_tensor::check_gradient(&x0, 1e-3, 2e-2, move |tape, x| {
            let w = tape.leaf(Tensor::new([2, 1], vec![0.5, -0.7]));
            let b = tape.leaf(Tensor::from_vec(vec![0.2]));
            let adj = ctx.adjacency_time_sensitive_batched(tape, w, b, x);
            let sq = tape.square(adj);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn time_sensitive_batched_handles_empty_relations() {
        let rel = RelationTensor::new(4, 1);
        let ctx = StrategyCtx::new(&rel);
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::zeros([1, 1]));
        let b = tape.leaf(Tensor::from_vec(vec![0.5]));
        let x3 = tape.leaf(Tensor::ones([3, 4, 2]));
        let adj = ctx.adjacency_time_sensitive_batched(&mut tape, w, b, x3);
        assert_eq!(tape.value(adj).dims(), &[3, 4]);
        for &v in tape.value(adj).data() {
            assert!((v - 1.0).abs() < 1e-6, "isolated self-loop weight 1, got {v}");
        }
    }

    #[test]
    fn empty_relations_yield_self_loops_only() {
        let rel = RelationTensor::new(4, 1);
        let ctx = StrategyCtx::new(&rel);
        assert_eq!(ctx.n_rel_edges, 0);
        assert_eq!(ctx.edges.len(), 4);
        for &v in ctx.cache.uniform().iter() {
            assert!((v - 1.0).abs() < 1e-6, "isolated self-loop weight 1, got {v}");
        }
    }
}
