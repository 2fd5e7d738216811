//! The multi-relational stock-relation tensor `𝒜 ∈ {0,1}^{N×N×K}`
//! (paper Section III-A).
//!
//! Pairwise relations are multi-hot: stock pair `(i, j)` may share several
//! relation types at once (e.g. *supplier-customer* and *same-industry*).
//! Storage is sparse — only pairs with at least one active relation are kept —
//! because real relation ratios are tiny (0.3 %–6.9 %, paper Table III).

use std::collections::BTreeMap;

/// Identifies a relation type `k ∈ [0, K)`.
pub type RelationType = usize;

/// Sparse symmetric multi-relational tensor over `n` stocks and `k_types`
/// relation types.
#[derive(Clone, Debug, Default)]
pub struct RelationTensor {
    n: usize,
    k_types: usize,
    /// Canonical key `(min(i,j), max(i,j))` → multi-hot vector. The paper's
    /// relations are undirected (`a_ij = a_ji`).
    entries: BTreeMap<(usize, usize), Vec<bool>>,
}

impl RelationTensor {
    pub fn new(n: usize, k_types: usize) -> Self {
        RelationTensor { n, k_types, entries: BTreeMap::new() }
    }

    /// Number of stocks `N`.
    pub fn num_stocks(&self) -> usize {
        self.n
    }

    /// Number of relation types `K`.
    pub fn num_types(&self) -> usize {
        self.k_types
    }

    fn key(i: usize, j: usize) -> (usize, usize) {
        if i <= j {
            (i, j)
        } else {
            (j, i)
        }
    }

    /// Set relation `k` between stocks `i` and `j` (symmetric). Self
    /// relations are rejected — `rtgcn_core::strategy::layout` adds one
    /// self-loop per node for the renormalisation. Returns whether the flag was clear, i.e. whether
    /// the tensor changed.
    pub fn connect(&mut self, i: usize, j: usize, k: RelationType) -> bool {
        assert!(i < self.n && j < self.n, "stock index out of range ({i},{j}) for n={}", self.n);
        assert!(k < self.k_types, "relation type {k} out of range for K={}", self.k_types);
        assert_ne!(i, j, "self relations are not stored in 𝒜");
        let hot = self.entries.entry(Self::key(i, j)).or_insert_with(|| vec![false; self.k_types]);
        !std::mem::replace(&mut hot[k], true)
    }

    /// Clear relation `k` between stocks `i` and `j` (symmetric). If no
    /// active type remains on the pair, the entry is dropped entirely so the
    /// pair stops contributing directed edges. Returns whether the flag was
    /// set. Streaming day events use this to express relations that lapse
    /// (acquisitions unwound, suppliers switched — MDGNN's dynamic graphs).
    pub fn disconnect(&mut self, i: usize, j: usize, k: RelationType) -> bool {
        assert!(i < self.n && j < self.n, "stock index out of range ({i},{j}) for n={}", self.n);
        assert!(k < self.k_types, "relation type {k} out of range for K={}", self.k_types);
        let key = Self::key(i, j);
        let Some(hot) = self.entries.get_mut(&key) else {
            return false;
        };
        let was = hot[k];
        hot[k] = false;
        if hot.iter().all(|&b| !b) {
            self.entries.remove(&key);
        }
        was
    }

    /// Drop the pair `(i, j)` entirely — every relation type at once.
    /// Returns whether the pair was related.
    pub fn disconnect_pair(&mut self, i: usize, j: usize) -> bool {
        self.entries.remove(&Self::key(i, j)).is_some()
    }

    /// Multi-hot vector `a_ij ∈ {0,1}^K`; `None` if the pair is unrelated.
    pub fn multi_hot(&self, i: usize, j: usize) -> Option<&[bool]> {
        self.entries.get(&Self::key(i, j)).map(|v| v.as_slice())
    }

    /// Multi-hot vector as `f32`s (all-zero if unrelated).
    pub fn multi_hot_f32(&self, i: usize, j: usize) -> Vec<f32> {
        match self.multi_hot(i, j) {
            Some(hot) => hot.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            None => vec![0.0; self.k_types],
        }
    }

    /// `sum(𝒜_ij) > 0` — whether any relation connects the pair (Eq. 3's
    /// predicate).
    pub fn related(&self, i: usize, j: usize) -> bool {
        self.entries.contains_key(&Self::key(i, j))
    }

    /// Number of related (unordered) pairs.
    pub fn num_related_pairs(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of unordered stock pairs with ≥ 1 relation — the paper's
    /// *relation ratio* (Table III).
    pub fn relation_ratio(&self) -> f64 {
        let total = self.n * (self.n - 1) / 2;
        if total == 0 {
            0.0
        } else {
            self.entries.len() as f64 / total as f64
        }
    }

    /// Number of relation types that actually occur on some pair.
    pub fn active_types(&self) -> usize {
        let mut seen = vec![false; self.k_types];
        for hot in self.entries.values() {
            for (k, &b) in hot.iter().enumerate() {
                if b {
                    seen[k] = true;
                }
            }
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// All related unordered pairs with their multi-hot vectors, in
    /// deterministic (sorted) order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, &[bool])> + '_ {
        self.entries.iter().map(|(&(i, j), hot)| (i, j, hot.as_slice()))
    }

    /// Directed edge list (both directions per related pair), in
    /// deterministic order. This is the edge set each relational graph `G_R`
    /// shares across time-steps (paper Figure 2).
    pub fn directed_edges(&self) -> Vec<[usize; 2]> {
        let mut edges = Vec::with_capacity(self.entries.len() * 2);
        for (&(i, j), _) in self.entries.iter() {
            edges.push([i, j]);
            edges.push([j, i]);
        }
        edges
    }

    /// Per-directed-edge multi-hot vectors aligned with
    /// [`RelationTensor::directed_edges`], flattened row-major `(E, K)`.
    pub fn edge_multi_hot_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.entries.len() * 2 * self.k_types);
        for (_, hot) in self.entries.iter() {
            for _ in 0..2 {
                out.extend(hot.iter().map(|&b| if b { 1.0 } else { 0.0 }));
            }
        }
        out
    }

    /// Neighbour lists (deterministic order), excluding self.
    pub fn neighbor_lists(&self) -> Vec<Vec<usize>> {
        let mut nbrs = vec![Vec::new(); self.n];
        for (&(i, j), _) in self.entries.iter() {
            nbrs[i].push(j);
            nbrs[j].push(i);
        }
        for l in &mut nbrs {
            l.sort_unstable();
        }
        nbrs
    }

    /// Merge another relation tensor over the same stocks into this one,
    /// offsetting its type indices after ours. Returns the combined tensor.
    /// Used to fuse wiki + industry relations into one `𝒜` (Section V-A.2).
    pub fn union(&self, other: &RelationTensor) -> RelationTensor {
        assert_eq!(self.n, other.n, "union requires the same stock universe");
        let mut out = RelationTensor::new(self.n, self.k_types + other.k_types);
        for (&(i, j), hot) in self.entries.iter() {
            for (k, &b) in hot.iter().enumerate() {
                if b {
                    out.connect(i, j, k);
                }
            }
        }
        for (&(i, j), hot) in other.entries.iter() {
            for (k, &b) in hot.iter().enumerate() {
                if b {
                    out.connect(i, j, self.k_types + k);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_storage() {
        let mut r = RelationTensor::new(4, 3);
        r.connect(2, 1, 0);
        assert!(r.related(1, 2));
        assert!(r.related(2, 1));
        assert!(!r.related(0, 1));
        assert_eq!(r.multi_hot(1, 2).unwrap(), &[true, false, false]);
        assert_eq!(r.multi_hot(2, 1).unwrap(), &[true, false, false]);
    }

    #[test]
    fn multi_hot_encoding_example_from_paper() {
        // Paper III-A: j is supplier and funder of i with K=3 relations
        // (supplier-customer, funded-by, same-industry) → a_ij = [1,1,0].
        let mut r = RelationTensor::new(2, 3);
        r.connect(0, 1, 0);
        r.connect(0, 1, 1);
        assert_eq!(r.multi_hot_f32(0, 1), vec![1.0, 1.0, 0.0]);
        assert_eq!(r.multi_hot_f32(1, 0), vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn relation_ratio_counts_pairs_once() {
        let mut r = RelationTensor::new(4, 1);
        assert!(r.connect(0, 1, 0));
        assert!(!r.connect(0, 1, 0), "duplicate, no effect");
        r.connect(2, 3, 0);
        assert_eq!(r.num_related_pairs(), 2);
        assert!((r.relation_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn directed_edges_have_both_directions() {
        let mut r = RelationTensor::new(3, 2);
        r.connect(0, 2, 1);
        let edges = r.directed_edges();
        assert_eq!(edges, vec![[0, 2], [2, 0]]);
        let hot = r.edge_multi_hot_flat();
        assert_eq!(hot, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn active_types_and_union() {
        let mut a = RelationTensor::new(3, 2);
        a.connect(0, 1, 1);
        let mut b = RelationTensor::new(3, 3);
        b.connect(1, 2, 0);
        let u = a.union(&b);
        assert_eq!(u.num_types(), 5);
        assert!(u.related(0, 1) && u.related(1, 2));
        assert_eq!(u.multi_hot_f32(0, 1), vec![0., 1., 0., 0., 0.]);
        assert_eq!(u.multi_hot_f32(1, 2), vec![0., 0., 1., 0., 0.]);
        assert_eq!(u.active_types(), 2);
    }

    #[test]
    fn disconnect_clears_types_and_drops_empty_pairs() {
        let mut r = RelationTensor::new(3, 2);
        r.connect(0, 1, 0);
        r.connect(0, 1, 1);
        assert!(r.disconnect(1, 0, 0), "flag was set (symmetric key)");
        assert!(r.related(0, 1), "one type still active");
        assert_eq!(r.multi_hot_f32(0, 1), vec![0.0, 1.0]);
        assert!(!r.disconnect(0, 1, 0), "already cleared");
        assert!(r.disconnect(0, 1, 1));
        assert!(!r.related(0, 1), "pair gone once all types cleared");
        assert!(r.directed_edges().is_empty());
    }

    #[test]
    fn disconnect_pair_removes_all_types() {
        let mut r = RelationTensor::new(3, 2);
        r.connect(0, 2, 0);
        r.connect(0, 2, 1);
        assert!(r.disconnect_pair(2, 0));
        assert!(!r.related(0, 2));
        assert!(!r.disconnect_pair(0, 2), "second removal is a no-op");
    }

    #[test]
    #[should_panic(expected = "self relations")]
    fn self_relation_rejected() {
        let mut r = RelationTensor::new(2, 1);
        r.connect(1, 1, 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let mut r = RelationTensor::new(4, 1);
        r.connect(3, 0, 0);
        r.connect(1, 0, 0);
        assert_eq!(r.neighbor_lists()[0], vec![1, 3]);
        assert_eq!(r.neighbor_lists()[3], vec![0]);
    }
}
