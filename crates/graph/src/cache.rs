//! Precomputed, reusable normalised adjacency — the static layout behind
//! the time-batched GCN kernels.
//!
//! Renormalising `D̃^{-1/2}(A + I)D̃^{-1/2}` from scratch on every forward
//! would redo work that only changes when the graph does. This cache
//! precomputes everything that is static per relation tensor:
//!
//! - the CSR grouping of the relation edges + self-loops (built once,
//!   shared by every [`rtgcn_tensor::Tape::spmm_batched`] call);
//! - the uniform-strategy weights (Eq. 3), fully static.
//!
//! The weighted and time-sensitive strategies (Eqs. 4–5) depend on the
//! learned parameters, so they renormalise on the tape on every forward,
//! sharing only the cached CSR layout. The cache is immutable once built,
//! so every model over one graph can share it behind an [`Arc`].

use crate::norm::renormalize_uniform;
use rtgcn_tensor::{CsrEdges, Edges};
use std::sync::Arc;

/// See the module docs.
pub struct NormalizedAdjCache {
    /// Relation edges followed by one self-loop per node, CSR-grouped.
    csr: CsrEdges,
    /// Number of leading relation edges in `csr` (the rest are self-loops).
    n_rel_edges: usize,
    /// Eq. 3 weights (already renormalised), length `csr.len()`.
    uniform: Vec<f32>,
}

impl NormalizedAdjCache {
    /// Build from the directed relation edges (no self-loops) over `n` nodes.
    pub fn new(n: usize, rel_edges: &[[usize; 2]]) -> Self {
        let norm = renormalize_uniform(n, rel_edges);
        NormalizedAdjCache {
            csr: CsrEdges::new(norm.edges),
            n_rel_edges: rel_edges.len(),
            uniform: norm.weights,
        }
    }

    /// CSR layout over relation edges + self-loops (the propagation kernel's
    /// edge set).
    pub fn csr(&self) -> &CsrEdges {
        &self.csr
    }

    /// The full edge list (relation edges then self-loops), `Arc`-shared
    /// with [`Self::csr`].
    pub fn edges(&self) -> &Edges {
        &self.csr.edges
    }

    pub fn n_nodes(&self) -> usize {
        self.csr.n()
    }

    pub fn n_rel_edges(&self) -> usize {
        self.n_rel_edges
    }

    /// Precomputed uniform-strategy weights (Eq. 3), aligned with
    /// [`Self::edges`].
    pub fn uniform(&self) -> &[f32] {
        &self.uniform
    }

    /// Wrap in an [`Arc`] for read-only sharing across models and serving
    /// workers.
    pub fn into_shared(self) -> SharedAdjCache {
        Arc::new(self)
    }
}

/// Read-only handle to a cache shared across models and serving worker
/// threads.
pub type SharedAdjCache = Arc<NormalizedAdjCache>;

impl std::fmt::Debug for NormalizedAdjCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalizedAdjCache")
            .field("n_nodes", &self.n_nodes())
            .field("n_rel_edges", &self.n_rel_edges)
            .field("n_edges", &self.csr.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_direct_renormalisation() {
        let edges = vec![[0, 1], [1, 0], [1, 2], [2, 1]];
        let cache = NormalizedAdjCache::new(3, &edges);
        let direct = renormalize_uniform(3, &edges);
        assert_eq!(cache.uniform(), direct.weights.as_slice());
        assert_eq!(cache.edges().len(), 7, "4 relation edges + 3 self-loops");
        assert_eq!(cache.n_rel_edges(), 4);
    }

    #[test]
    fn empty_relation_set_is_self_loops_only() {
        let cache = NormalizedAdjCache::new(3, &[]);
        assert_eq!(cache.n_rel_edges(), 0);
        assert_eq!(cache.edges().len(), 3);
        assert!(cache.uniform().iter().all(|&w| (w - 1.0).abs() < 1e-6));
    }
}
