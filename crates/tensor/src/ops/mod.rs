//! Differentiable operations recorded on a [`crate::tape::Tape`].
//!
//! Each submodule adds `impl Tape` blocks for one family of ops:
//!
//! - [`elementwise`] — broadcast arithmetic and activations
//! - [`matmul`] — dense products and affine layers
//! - [`reduce`] — sums/means/softmax/norms
//! - [`shape_ops`] — reshape/stack/gather
//! - [`conv`] — causal strided 1-D convolution + weight norm (the TCN core)
//! - [`sparse`] — edge-list graph kernels (spmm, edge-dot, segment softmax)
//! - [`loss`] — MSE, pairwise ranking hinge, cross-entropy
//! - [`dropout`] — elementwise and spatial dropout

pub mod conv;
pub mod dropout;
pub mod elementwise;
pub mod loss;
pub mod matmul;
pub mod reduce;
pub mod shape_ops;
pub mod sparse;

pub use conv::ConvSpec;
pub use sparse::{CsrEdges, Edges};
