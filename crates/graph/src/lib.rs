//! # rtgcn-graph
//!
//! The graph substrate of the RT-GCN reproduction:
//!
//! - [`relations::RelationTensor`] — the sparse multi-relational tensor
//!   `𝒜 ∈ {0,1}^{N×N×K}` of paper Section III-A;
//! - [`norm`] — Kipf–Welling renormalised adjacency (Eqs. 1–2), used to
//!   precompute the uniform strategy;
//! - [`hypergraph::Hypergraph`] — incidence substrate for the STHAN-SR
//!   baseline.
//!
//! Differentiable propagation happens in `rtgcn-core` / `rtgcn-baselines`
//! through `rtgcn-tensor`'s sparse kernels; this crate owns the *structure*.

pub mod cache;
pub mod hypergraph;
pub mod norm;
// No crate calls the plane cache; only perfbench's stream-advance probe
// times it.
pub mod plane;
pub mod relations;

pub use cache::{NormalizedAdjCache, SharedAdjCache};
pub use plane::TimePlaneCache;
pub use hypergraph::Hypergraph;
pub use norm::{renormalize, renormalize_uniform, NormalizedAdjacency, DEGREE_EPS};
pub use relations::{RelationTensor, RelationType};
