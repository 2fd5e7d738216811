//! Elementwise differentiable ops (with NumPy-style broadcasting for binary
//! ops) recorded on a [`Tape`].

use crate::shape::Shape;
use crate::spares;
use crate::tape::{BackwardCtx, Tape, Var};
use crate::tensor::Tensor;

/// Apply a binary op with broadcasting; `fwd` computes elementwise values,
/// `dfa`/`dfb` compute the local derivatives w.r.t. each operand given
/// `(a, b, out)` values at that element. Generic over the closures, so each
/// op's forward and backward loops inline them and vectorise.
fn binary_broadcast<F, DA, DB>(
    name: &'static str,
    tape: &mut Tape,
    a: Var,
    b: Var,
    fwd: F,
    dfa: DA,
    dfb: DB,
) -> Var
where
    F: Fn(f32, f32) -> f32,
    DA: Fn(f32, f32, f32) -> f32 + 'static,
    DB: Fn(f32, f32, f32) -> f32 + 'static,
{
    let (av, bv) = (tape.value(a), tape.value(b));
    let (ashape, bshape) = (av.shape().clone(), bv.shape().clone());
    if ashape == bshape {
        // Fast path: no broadcasting, no materialised copies.
        let out = av.zip(bv, fwd);
        return tape.push_op_named(name, out, vec![a, b], move |ctx| {
            let (ga, gb) = binary_grads(ctx.parents[0], ctx.parents[1], ctx, &dfa, &dfb);
            vec![
                Tensor::new(ctx.parents[0].shape().clone(), ga),
                Tensor::new(ctx.parents[1].shape().clone(), gb),
            ]
        });
    }
    let target: Shape = ashape
        .broadcast_with(&bshape)
        // lint:allow(panic-free-hot-paths) shape mismatch is a caller programming error, caught by op tests
        .unwrap_or_else(|| panic!("cannot broadcast {ashape:?} with {bshape:?}"));
    let ab = av.broadcast_to(&target);
    let bb = bv.broadcast_to(&target);
    let out = ab.zip(&bb, fwd);
    tape.push_op_named(name, out, vec![a, b], move |ctx| {
        let ab = ctx.parents[0].broadcast_to(&target);
        let bb = ctx.parents[1].broadcast_to(&target);
        let (ga, gb) = binary_grads(&ab, &bb, ctx, &dfa, &dfb);
        vec![
            Tensor::new(target.clone(), ga).reduce_to(ctx.parents[0].shape()),
            Tensor::new(target.clone(), gb).reduce_to(ctx.parents[1].shape()),
        ]
    })
}

/// `g · dfa(a, b, out)` and `g · dfb(a, b, out)` at every element of
/// same-shaped `a`, `b` and the op's output.
fn binary_grads(
    a: &Tensor,
    b: &Tensor,
    ctx: &BackwardCtx<'_>,
    dfa: &impl Fn(f32, f32, f32) -> f32,
    dfb: &impl Fn(f32, f32, f32) -> f32,
) -> (Vec<f32>, Vec<f32>) {
    let n = a.numel();
    let (ad, bd, od, g) =
        (a.data(), &b.data()[..n], &ctx.output.data()[..n], &ctx.grad.data()[..n]);
    let mut ga = spares::filled(n, 0.0);
    let mut gb = spares::filled(n, 0.0);
    for i in 0..n {
        ga[i] = g[i] * dfa(ad[i], bd[i], od[i]);
        gb[i] = g[i] * dfb(ad[i], bd[i], od[i]);
    }
    (ga, gb)
}

/// Apply a unary op; `fwd` maps each element, `df` gives the local derivative
/// from `(x, y)`.
fn unary<F, D>(name: &'static str, tape: &mut Tape, x: Var, fwd: F, df: D) -> Var
where
    F: Fn(f32) -> f32,
    D: Fn(f32, f32) -> f32 + 'static,
{
    let out = tape.value(x).map(fwd);
    tape.push_op_named(name, out, vec![x], move |ctx| {
        let (xd, yd, g) = (ctx.parents[0].data(), ctx.output.data(), ctx.grad.data());
        let mut data = spares::with_capacity(xd.len());
        data.extend(xd.iter().zip(yd).zip(g).map(|((&x, &y), &g)| g * df(x, y)));
        vec![Tensor::new(ctx.parents[0].shape().clone(), data)]
    })
}

impl Tape {
    /// `a + b` with broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        binary_broadcast("add", self, a, b, |x, y| x + y, |_, _, _| 1.0, |_, _, _| 1.0)
    }

    /// `a - b` with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        binary_broadcast("sub", self, a, b, |x, y| x - y, |_, _, _| 1.0, |_, _, _| -1.0)
    }

    /// Elementwise `a * b` with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        binary_broadcast("mul", self, a, b, |x, y| x * y, |_, y, _| y, |x, _, _| x)
    }

    /// Elementwise `a / b` with broadcasting.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        binary_broadcast("div", self, a, b, |x, y| x / y, |_, y, _| 1.0 / y, |x, y, _| -x / (y * y))
    }

    /// `-x`.
    pub fn neg(&mut self, x: Var) -> Var {
        unary("neg", self, x, |v| -v, |_, _| -1.0)
    }

    /// `x * k` for a compile-time constant `k` (no extra leaf).
    pub fn scale(&mut self, x: Var, k: f32) -> Var {
        let out = self.value(x).map(|v| v * k);
        self.push_op_named("scale", out, vec![x], move |ctx| vec![ctx.grad.map(|g| g * k)])
    }

    /// `x + k` for a constant `k`.
    pub fn add_scalar(&mut self, x: Var, k: f32) -> Var {
        let out = self.value(x).map(|v| v + k);
        self.push_op_named("add_scalar", out, vec![x], |ctx| vec![ctx.grad.clone()])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        unary("relu", self, x, |v| v.max(0.0), |v, _| if v > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with fixed negative slope 0.2 (the GAT default).
    pub fn leaky_relu(&mut self, x: Var) -> Var {
        unary("leaky_relu", self, x, |v| if v > 0.0 { v } else { 0.2 * v }, |v, _| if v > 0.0 { 1.0 } else { 0.2 })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        unary("sigmoid", self, x, |v| 1.0 / (1.0 + (-v).exp()), |_, y| y * (1.0 - y))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        unary("tanh", self, x, |v| v.tanh(), |_, y| 1.0 - y * y)
    }

    /// `exp(x)`.
    pub fn exp(&mut self, x: Var) -> Var {
        unary("exp", self, x, |v| v.exp(), |_, y| y)
    }

    /// Natural log; inputs are clamped at `1e-12` to avoid `-inf`.
    pub fn ln(&mut self, x: Var) -> Var {
        unary("ln", self, x, |v| v.max(1e-12).ln(), |v, _| 1.0 / v.max(1e-12))
    }

    /// `sqrt(x)`; derivative clamped near zero for stability.
    pub fn sqrt(&mut self, x: Var) -> Var {
        unary("sqrt", self, x, |v| v.max(0.0).sqrt(), |_, y| 0.5 / y.max(1e-6))
    }

    /// `x²`.
    pub fn square(&mut self, x: Var) -> Var {
        unary("square", self, x, |v| v * v, |v, _| 2.0 * v)
    }

    /// `|x|` (subgradient 0 at 0).
    pub fn abs(&mut self, x: Var) -> Var {
        unary("abs", self, x, |v| v.abs(), |v, _| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Clamp from below (used for numerical guards; straight-through gradient
    /// only where unclamped).
    pub fn clamp_min(&mut self, x: Var, min: f32) -> Var {
        let out = self.value(x).map(|v| v.max(min));
        self.push_op_named("clamp_min", out, vec![x], move |ctx| {
            let (xd, g) = (ctx.parents[0].data(), ctx.grad.data());
            let data = xd.iter().zip(g).map(|(&x, &g)| if x > min { g } else { 0.0 }).collect();
            vec![Tensor::new(ctx.parents[0].shape().clone(), data)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;

    fn t(v: Vec<f32>) -> Tensor {
        Tensor::from_vec(v)
    }

    #[test]
    fn add_mul_values() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(vec![1., 2., 3.]));
        let b = tape.leaf(t(vec![10., 20., 30.]));
        let s = tape.add(a, b);
        let m = tape.mul(a, b);
        assert_eq!(tape.value(s).data(), &[11., 22., 33.]);
        assert_eq!(tape.value(m).data(), &[10., 40., 90.]);
    }

    #[test]
    fn broadcast_add_gradients_reduce() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let b = tape.leaf(Tensor::new([1, 3], vec![10., 20., 30.]));
        let s = tape.add(a, b);
        let total = tape.sum_all(s);
        tape.backward(total);
        assert_eq!(tape.grad(a).unwrap().data(), &[1.; 6]);
        // b was broadcast over 2 rows, so its grad sums to 2 per element.
        assert_eq!(tape.grad(b).unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn grad_checks_elementwise() {
        let x = t(vec![0.3, -0.7, 1.2, -0.1]);
        for (name, f) in [
            ("relu", (|tape: &mut Tape, x: Var| tape.relu(x)) as fn(&mut Tape, Var) -> Var),
            ("sigmoid", |tape, x| tape.sigmoid(x)),
            ("tanh", |tape, x| tape.tanh(x)),
            ("exp", |tape, x| tape.exp(x)),
            ("square", |tape, x| tape.square(x)),
            ("leaky", |tape, x| tape.leaky_relu(x)),
        ] {
            let g = move |tape: &mut Tape, v: Var| {
                let y = f(tape, v);
                tape.sum_all(y)
            };
            check_gradient(&x, 1e-3, 1e-2, g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn grad_check_div() {
        let x = t(vec![0.5, 2.0, -1.5]);
        check_gradient(&x, 1e-3, 1e-2, |tape, v| {
            let c = tape.leaf(t(vec![2.0, 4.0, 0.5]));
            let d = tape.div(v, c);
            tape.sum_all(d)
        })
        .unwrap();
    }

    #[test]
    fn scale_and_add_scalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(t(vec![1., 2.]));
        let y = tape.scale(x, 3.0);
        let z = tape.add_scalar(y, 1.0);
        let s = tape.sum_all(z);
        assert_eq!(tape.value(s).item(), 11.0);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn clamp_min_blocks_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(t(vec![-1.0, 2.0]));
        let y = tape.clamp_min(x, 0.0);
        let s = tape.sum_all(y);
        tape.backward(s);
        assert_eq!(tape.value(y).data(), &[0.0, 2.0]);
        assert_eq!(tape.grad(x).unwrap().data(), &[0.0, 1.0]);
    }
}
