//! Hypergraph incidence substrate for the STHAN-SR baseline (Sawhney et al.,
//! AAAI 2021), which models stock relations as hyperedges (one hyperedge per
//! industry group / per wiki-relation cluster) instead of pairwise edges.
//!
//! Provides the incidence structure `H ∈ {0,1}^{N×M}` and the spectral
//! hypergraph convolution operator
//! `Ĥ = D_v^{-1/2} H W D_e^{-1} Hᵀ D_v^{-1/2}` (HGNN, Feng et al. 2019)
//! materialised as a pairwise edge list so it can run through the same
//! sparse kernels as everything else.

use rtgcn_tensor::Edges;

/// A hypergraph over `n` vertices: each hyperedge is a vertex subset.
#[derive(Clone, Debug, Default)]
pub struct Hypergraph {
    n: usize,
    hyperedges: Vec<Vec<usize>>,
}

impl Hypergraph {
    pub fn new(n: usize) -> Self {
        Hypergraph { n, hyperedges: Vec::new() }
    }

    /// Add a hyperedge over the given (deduplicated, sorted) member set.
    /// Hyperedges with fewer than 2 members carry no information and are
    /// rejected.
    pub fn add_hyperedge(&mut self, mut members: Vec<usize>) {
        members.sort_unstable();
        members.dedup();
        assert!(members.len() >= 2, "hyperedge needs at least 2 members");
        for &m in &members {
            assert!(m < self.n, "member {m} out of range for {} vertices", self.n);
        }
        self.hyperedges.push(members);
    }

    pub fn hyperedges(&self) -> &[Vec<usize>] {
        &self.hyperedges
    }

    /// Vertex degrees `D_v` (number of incident hyperedges).
    pub fn vertex_degrees(&self) -> Vec<usize> {
        let mut d = vec![0; self.n];
        for he in &self.hyperedges {
            for &v in he {
                d[v] += 1;
            }
        }
        d
    }

    /// Materialise the HGNN propagation operator
    /// `D_v^{-1/2} H W D_e^{-1} Hᵀ D_v^{-1/2}` (uniform hyperedge weights
    /// `W = I`) as pairwise edges + weights, including the implied
    /// self-connections. Isolated vertices receive a unit self-loop so
    /// propagation is well-defined for every stock.
    pub fn propagation_edges(&self) -> (Edges, Vec<f32>) {
        let dv = self.vertex_degrees();
        let dv_inv_sqrt: Vec<f32> =
            dv.iter().map(|&d| if d > 0 { 1.0 / (d as f32).sqrt() } else { 0.0 }).collect();
        // Accumulate pairwise weights: for each hyperedge e and vertices
        // (u, v) ∈ e², weight += dv^{-1/2}[u] · (1/|e|) · dv^{-1/2}[v].
        let mut acc: std::collections::BTreeMap<(usize, usize), f32> = Default::default();
        for he in &self.hyperedges {
            let inv_card = 1.0 / he.len() as f32;
            for &u in he {
                for &v in he {
                    *acc.entry((u, v)).or_insert(0.0) +=
                        dv_inv_sqrt[u] * inv_card * dv_inv_sqrt[v];
                }
            }
        }
        for (v, &d) in dv.iter().enumerate() {
            if d == 0 {
                acc.insert((v, v), 1.0);
            }
        }
        let mut pairs = Vec::with_capacity(acc.len());
        let mut weights = Vec::with_capacity(acc.len());
        for ((u, v), w) in acc {
            pairs.push([u, v]);
            weights.push(w);
        }
        (Edges::new(self.n, pairs), weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_tensor::{Tape, Tensor};

    #[test]
    fn degrees() {
        let mut h = Hypergraph::new(4);
        h.add_hyperedge(vec![0, 1, 2]);
        h.add_hyperedge(vec![2, 3]);
        assert_eq!(h.vertex_degrees(), vec![1, 1, 2, 1]);
    }

    #[test]
    fn propagation_operator_preserves_constants_on_connected_component() {
        // On a single hyperedge covering all vertices, D_v = 1 for all,
        // |e| = n, so the operator is the all-(1/n) matrix: constants map to
        // themselves.
        let mut h = Hypergraph::new(3);
        h.add_hyperedge(vec![0, 1, 2]);
        let (edges, weights) = h.propagation_edges();
        let mut tape = Tape::new();
        let w = tape.constant(Tensor::from_vec(weights));
        let x = tape.constant(Tensor::new([3, 1], vec![5.0, 5.0, 5.0]));
        let y = tape.spmm(&edges, w, x);
        assert!(tape.value(y).allclose(&Tensor::new([3, 1], vec![5.0, 5.0, 5.0]), 1e-5));
    }

    #[test]
    fn isolated_vertex_passthrough() {
        let mut h = Hypergraph::new(3);
        h.add_hyperedge(vec![0, 1]);
        let (edges, weights) = h.propagation_edges();
        let mut tape = Tape::new();
        let w = tape.constant(Tensor::from_vec(weights));
        let x = tape.constant(Tensor::new([3, 1], vec![1.0, 2.0, 7.0]));
        let y = tape.spmm(&edges, w, x);
        assert!((tape.value(y).at(&[2, 0]) - 7.0).abs() < 1e-6, "isolated vertex keeps value");
    }

    #[test]
    fn dedup_members() {
        let mut h = Hypergraph::new(3);
        h.add_hyperedge(vec![1, 0, 1, 2, 0]);
        assert_eq!(h.hyperedges()[0], vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn singleton_hyperedge_rejected() {
        let mut h = Hypergraph::new(3);
        h.add_hyperedge(vec![1, 1]);
    }
}
