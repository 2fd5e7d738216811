//! # rtgcn-graph
//!
//! The graph substrate of the RT-GCN reproduction:
//!
//! - [`relations::RelationTensor`] — the sparse multi-relational tensor
//!   `𝒜 ∈ {0,1}^{N×N×K}` of paper Section III-A;
//! - [`hypergraph::Hypergraph`] — incidence substrate for the STHAN-SR
//!   baseline.
//!
//! The Kipf–Welling renormalisation (Eqs. 1–2) and all differentiable
//! propagation happen on the tape in `rtgcn-core` / `rtgcn-baselines`
//! through `rtgcn-tensor`'s sparse kernels; this crate owns the *structure*.

pub mod hypergraph;
// No crate calls the plane cache; only perfbench's stream-advance probe
// times it.
pub mod plane;
pub mod relations;

pub use plane::TimePlaneCache;
pub use hypergraph::Hypergraph;
pub use relations::{RelationTensor, RelationType};
