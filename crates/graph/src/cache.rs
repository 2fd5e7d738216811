//! Precomputed, reusable normalised adjacency — the cache behind the
//! time-batched GCN kernels.
//!
//! Renormalising `D̃^{-1/2}(A + I)D̃^{-1/2}` from scratch on every forward
//! would redo work that only changes when the graph or the parameters do.
//! This cache precomputes everything that is static per fit:
//!
//! - the CSR grouping of the relation edges + self-loops (built once,
//!   shared by every [`rtgcn_tensor::Tape::spmm_batched`] call);
//! - the uniform-strategy weights (Eq. 3), fully static;
//! - a one-slot memo of the *frozen* weighted adjacency: at inference the
//!   learned relation importances `𝒜ᵀw + b` only change when the parameters
//!   do, so the renormalisation is recomputed on parameter change and reused
//!   across every scoring call in between (a backtest scores hundreds of
//!   days against one fixed parameter vector).
//!
//! The time-sensitive strategy still computes its `XᵀX/√d` correlation
//! factor for every plane of the window — that part genuinely depends on
//! the window — but shares the cached CSR layout and the once-per-forward
//! importance term.

use crate::norm::renormalize_uniform;
use rtgcn_tensor::{CsrEdges, Edges};
use std::sync::{Arc, Mutex};

/// `(raw relation weights, normalised full weights)` memo entry for the
/// weighted strategy's one-slot renormalisation cache.
type FrozenEntry = (Box<[f32]>, Arc<Vec<f32>>);

/// See the module docs. Cheap to clone (`Arc`-shared layouts; the frozen
/// memo is cloned by value).
pub struct NormalizedAdjCache {
    /// Relation edges followed by one self-loop per node, CSR-grouped.
    csr: CsrEdges,
    /// Number of leading relation edges in `csr` (the rest are self-loops).
    n_rel_edges: usize,
    /// Eq. 3 weights (already renormalised), length `csr.len()`.
    uniform: Arc<Vec<f32>>,
    /// Memo of the last [`Self::normalized_frozen`] call.
    frozen: Mutex<Option<FrozenEntry>>,
}

impl NormalizedAdjCache {
    /// Build from the directed relation edges (no self-loops) over `n` nodes.
    pub fn new(n: usize, rel_edges: &[[usize; 2]]) -> Self {
        let norm = renormalize_uniform(n, rel_edges);
        NormalizedAdjCache {
            csr: CsrEdges::new(norm.edges),
            n_rel_edges: rel_edges.len(),
            uniform: Arc::new(norm.weights),
            frozen: Mutex::new(None),
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
    pub fn uniform(&self) -> &Arc<Vec<f32>> {
        &self.uniform
    }

    /// Normalised adjacency for raw per-relation-edge weights, memoised on
    /// the weight values: returns the cached result when `raw_rel` matches
    /// the previous call bit-for-bit (the common case at inference, where
    /// `𝒜ᵀw + b` is constant between optimiser steps). Not differentiable —
    /// training paths must keep the on-tape renormalisation.
    pub fn normalized_frozen(&self, raw_rel: &[f32]) -> Arc<Vec<f32>> {
        assert_eq!(raw_rel.len(), self.n_rel_edges, "one raw weight per relation edge");
        let mut slot = self.frozen.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((key, cached)) = slot.as_ref() {
            if key.iter().zip(raw_rel).all(|(a, b)| a.to_bits() == b.to_bits()) {
                hit_counter().inc(1);
                return Arc::clone(cached);
            }
        }
        miss_counter().inc(1);
        let rel_pairs = &self.csr.edges.pairs[..self.n_rel_edges];
        let weights = Arc::new(crate::norm::renormalize(self.n_nodes(), rel_pairs, raw_rel).weights);
        *slot = Some((raw_rel.into(), Arc::clone(&weights)));
        weights
    }

    /// Drop the frozen-adjacency memo (e.g. after loading a checkpoint).
    pub fn invalidate(&self) {
        *self.frozen.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Wrap in an [`Arc`] for read-only sharing across serving workers.
    pub fn into_shared(self) -> SharedAdjCache {
        Arc::new(self)
    }

    /// A sibling cache sharing this one's CSR layout and uniform weights
    /// (`Arc`-shared, no recomputation) but with its own empty frozen memo.
    /// Used when several models serve the same graph concurrently: each
    /// gets a private memo slot keyed by its own parameters, so one model's
    /// weight updates never evict another's cached renormalisation.
    pub fn fork_layout(&self) -> NormalizedAdjCache {
        NormalizedAdjCache {
            csr: self.csr.clone(),
            n_rel_edges: self.n_rel_edges,
            uniform: Arc::clone(&self.uniform),
            frozen: Mutex::new(None),
        }
    }
}

/// Read-only handle to a cache shared across serving worker threads.
pub type SharedAdjCache = Arc<NormalizedAdjCache>;

fn hit_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("kernel.gcn.adj_cache.hit"))
}

fn miss_counter() -> &'static rtgcn_telemetry::Counter {
    static C: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| rtgcn_telemetry::counter("kernel.gcn.adj_cache.miss"))
}

impl Clone for NormalizedAdjCache {
    fn clone(&self) -> Self {
        NormalizedAdjCache {
            csr: self.csr.clone(),
            n_rel_edges: self.n_rel_edges,
            uniform: Arc::clone(&self.uniform),
            frozen: Mutex::new(self.frozen.lock().unwrap_or_else(|e| e.into_inner()).clone()),
        }
    }
}

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
        assert_eq!(cache.uniform().as_slice(), direct.weights.as_slice());
        assert_eq!(cache.edges().len(), 7, "4 relation edges + 3 self-loops");
        assert_eq!(cache.n_rel_edges(), 4);
    }

    #[test]
    fn frozen_memo_reuses_and_invalidates() {
        let edges = vec![[0, 1], [1, 0]];
        let cache = NormalizedAdjCache::new(2, &edges);
        let w1 = cache.normalized_frozen(&[2.0, 2.0]);
        let w2 = cache.normalized_frozen(&[2.0, 2.0]);
        assert!(Arc::ptr_eq(&w1, &w2), "identical inputs must hit the memo");
        let w3 = cache.normalized_frozen(&[3.0, 3.0]);
        assert!(!Arc::ptr_eq(&w1, &w3), "changed weights must recompute");
        // Hand check: degree = |2| + 1 = 3 → off-diagonal 2/3, self-loop 1/3.
        assert!((w1[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((w1[2] - 1.0 / 3.0).abs() < 1e-6);
        cache.invalidate();
        let w4 = cache.normalized_frozen(&[3.0, 3.0]);
        assert!(!Arc::ptr_eq(&w3, &w4), "invalidate must drop the memo");
        assert_eq!(w3.as_slice(), w4.as_slice());
    }

    #[test]
    fn frozen_matches_direct_renormalize() {
        let edges = vec![[0, 1], [1, 2], [2, 0]];
        let cache = NormalizedAdjCache::new(4, &edges);
        let raw = [0.5, -1.5, 2.0];
        let frozen = cache.normalized_frozen(&raw);
        let direct = crate::norm::renormalize(4, &edges, &raw);
        assert_eq!(frozen.as_slice(), direct.weights.as_slice());
    }

    #[test]
    fn empty_relation_set_is_self_loops_only() {
        let cache = NormalizedAdjCache::new(3, &[]);
        assert_eq!(cache.n_rel_edges(), 0);
        assert_eq!(cache.edges().len(), 3);
        let frozen = cache.normalized_frozen(&[]);
        assert!(frozen.iter().all(|&w| (w - 1.0).abs() < 1e-6));
    }
}
