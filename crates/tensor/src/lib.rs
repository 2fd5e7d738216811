//! # rtgcn-tensor
//!
//! A from-scratch dense-tensor and reverse-mode autodiff engine sized for the
//! RT-GCN reproduction: every neural model in this workspace (RT-GCN itself,
//! the LSTM/GRU/SFM recurrences, GAT and hypergraph attention, the RL
//! baselines) runs on these kernels. No BLAS, no GPU — hot loops are
//! cache-conscious and run on the calling thread.
//!
//! ## Architecture
//!
//! - [`tensor::Tensor`] — contiguous row-major `f32` storage + shape.
//! - [`tape::Tape`] — define-by-run autodiff arena; ops live in [`ops`] as
//!   `impl Tape` extensions and register backward closures.
//! - [`param::ParamStore`] — persistent named parameters bound onto a fresh
//!   tape each step; [`optim`] consumes the accumulated gradients.
//! - [`linalg`] — raw (non-differentiable) matmul kernels shared by ops.
//! - [`init`] — seeded Xavier/Kaiming/uniform/normal initialisers.
//! - [`spares`] — large buffers of a dropped tape, reused by the next one.
//!
//! ## Example
//!
//! ```
//! use rtgcn_tensor::{Tape, Tensor, ParamStore, Adam, Optimizer};
//!
//! // Fit y = 2x with one weight.
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1, 0.0);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let wv = store.bind(&mut tape, w);
//!     let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0]));
//!     let pred = tape.mul(x, wv);
//!     let loss = tape.mse(pred, &Tensor::from_vec(vec![2.0, 4.0, 6.0]));
//!     tape.backward(loss);
//!     store.absorb_grads(&tape);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).item() - 2.0).abs() < 1e-2);
//! ```

pub mod finite;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod optim;
pub mod param;
pub mod shape;
pub mod spares;
pub mod tape;
mod telemetry_hooks;
pub mod tensor;

pub use finite::{assert_all_finite, suppress, SuppressGuard};
pub use ops::{ConvSpec, CsrEdges, Edges};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use param::{check_param_gradients, ParamId, ParamStore};
pub use shape::Shape;
pub use tape::{check_gradient, BackwardCtx, Tape, Var};
pub use tensor::Tensor;
