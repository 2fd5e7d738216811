//! Differentiable matrix products and affine layers.

use crate::linalg;
use crate::tape::{Tape, Var};
use crate::telemetry_hooks::kernel_counter;
use crate::tensor::Tensor;

impl Tape {
    /// Differentiable matrix product `a (m×k) · b (k×n)`.
    ///
    /// Backward: `∂L/∂a = g · bᵀ`, `∂L/∂b = aᵀ · g`, computed with the
    /// transpose-free kernels in [`crate::linalg`].
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        kernel_counter(&CALLS, "tensor.matmul.calls").inc(1);
        let _t = rtgcn_telemetry::span("matmul");
        let out = linalg::matmul(self.value(a), self.value(b));
        self.push_op_named("matmul", out, vec![a, b], |ctx| {
            let ga = linalg::matmul_nt(ctx.grad, ctx.parents[1]);
            let gb = linalg::matmul_tn(ctx.parents[0], ctx.grad);
            vec![ga, gb]
        })
    }

    /// Affine layer `x·W + bias` where `x: (m×k)`, `w: (k×n)`,
    /// `bias: (n)` broadcast over rows.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        kernel_counter(&CALLS, "tensor.linear.calls").inc(1);
        let _t = rtgcn_telemetry::span("linear");
        let xv = self.value(x);
        let wv = self.value(w);
        let bv = self.value(bias);
        assert_eq!(bv.rank(), 1, "linear bias must be a vector");
        assert_eq!(bv.dims()[0], wv.dims()[1], "bias length must equal output width");
        let mut out = linalg::matmul(xv, wv);
        let n = bv.dims()[0];
        // `max(1)`: `chunks_exact` rejects 0, and a zero-width output is empty.
        for row in out.data_mut().chunks_exact_mut(n.max(1)) {
            for (v, &b) in row.iter_mut().zip(bv.data()) {
                *v += b;
            }
        }
        self.push_op_named("linear", out, vec![x, w, bias], move |ctx| {
            let gx = linalg::matmul_nt(ctx.grad, ctx.parents[1]);
            let gw = linalg::matmul_tn(ctx.parents[0], ctx.grad);
            let mut gb = vec![0.0; n];
            for row in ctx.grad.data().chunks_exact(n.max(1)) {
                for (acc, &g) in gb.iter_mut().zip(row) {
                    *acc += g;
                }
            }
            vec![gx, gw, Tensor::from_vec(gb)]
        })
    }

    /// Differentiable dot product of two equal-shaped tensors, yielding a
    /// scalar: `Σ_i a_i b_i`.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "dot requires identical shapes");
        let out = Tensor::scalar(av.data().iter().zip(bv.data()).map(|(&x, &y)| x * y).sum());
        self.push_op_named("dot", out, vec![a, b], |ctx| {
            let g = ctx.grad.item();
            vec![ctx.parents[1].map(|v| v * g), ctx.parents[0].map(|v| v * g)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;

    #[test]
    fn matmul_forward() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let b = tape.leaf(Tensor::new([2, 2], vec![5., 6., 7., 8.]));
        let c = tape.matmul(a, b);
        assert_eq!(tape.value(c).data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_grad_check_both_sides() {
        let a0 = Tensor::new([3, 2], vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1]);
        let b0 = Tensor::new([2, 4], vec![1.0, 0.2, -0.3, 0.8, -0.5, 0.4, 0.9, -1.2]);
        let b_for_a = b0.clone();
        check_gradient(&a0, 1e-3, 1e-2, move |tape, a| {
            let b = tape.leaf(b_for_a.clone());
            let c = tape.matmul(a, b);
            tape.sum_all(c)
        })
        .unwrap();
        let a_for_b = a0;
        check_gradient(&b0, 1e-3, 1e-2, move |tape, b| {
            let a = tape.leaf(a_for_b.clone());
            let c = tape.matmul(a, b);
            tape.sum_all(c)
        })
        .unwrap();
    }

    #[test]
    fn linear_forward_and_bias_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([2, 2], vec![1., 0., 0., 1.]));
        let w = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let b = tape.leaf(Tensor::from_vec(vec![0.1, 0.2, 0.3]));
        let y = tape.linear(x, w, b);
        assert!(tape
            .value(y)
            .allclose(&Tensor::new([2, 3], vec![1.1, 2.2, 3.3, 4.1, 5.2, 6.3]), 1e-5));
        let s = tape.sum_all(y);
        tape.backward(s);
        // bias gradient: one per output column summed over 2 rows.
        assert_eq!(tape.grad(b).unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn linear_grad_check_weight() {
        let w0 = Tensor::new([3, 2], vec![0.1, -0.4, 0.6, 0.2, -0.8, 0.5]);
        check_gradient(&w0, 1e-3, 1e-2, |tape, w| {
            let x = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., -1., 0.5, 2.]));
            let b = tape.leaf(Tensor::from_vec(vec![0.0, 0.1]));
            let y = tape.linear(x, w, b);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn dot_grad() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let b = tape.leaf(Tensor::from_vec(vec![4., 5., 6.]));
        let d = tape.dot(a, b);
        assert_eq!(tape.value(d).item(), 32.0);
        tape.backward(d);
        assert_eq!(tape.grad(a).unwrap().data(), &[4., 5., 6.]);
        assert_eq!(tape.grad(b).unwrap().data(), &[1., 2., 3.]);
    }
}
