//! Reverse-mode automatic differentiation tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node in a
//! topologically ordered arena. [`Var`] is a cheap copyable handle (an index
//! into the arena). Calling [`Tape::backward`] walks the arena in reverse,
//! invoking each node's backward closure to propagate gradients to its
//! parents.
//!
//! Design notes:
//! - The tape is rebuilt every training step (define-by-run); model
//!   parameters live outside the tape in a [`crate::param::ParamStore`] and
//!   are re-inserted as leaves each step.
//! - Backward closures return one gradient tensor per parent rather than
//!   mutating shared state, which keeps the borrow story trivial and makes
//!   ops easy to test in isolation.
//! - Gradients for *every* node are retained after `backward`, so callers can
//!   inspect intermediate gradients (used by the adversarial-LSTM baseline to
//!   perturb its latent representation).
//! - A new tape claims the spare set of [`crate::spares`]; dropping or
//!   clearing it hands its large value and gradient buffers back, where the
//!   next tape's kernels pick them up.

use crate::tensor::Tensor;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Arena index (stable for the lifetime of the tape).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Context handed to a backward closure.
pub struct BackwardCtx<'a> {
    /// Gradient of the loss w.r.t. this node's output.
    pub grad: &'a Tensor,
    /// This node's forward output.
    pub output: &'a Tensor,
    /// Forward values of the node's parents, in registration order.
    pub parents: &'a [&'a Tensor],
}

type BackwardFn = Box<dyn Fn(&BackwardCtx<'_>) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    /// Op label for diagnostics — `finite_check!` failures name the
    /// producing node with it.
    name: &'static str,
}

/// A single forward pass's computation graph.
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// Gradients `backward` already summed into another; `release` hands
    /// them to the spare set with the rest.
    spent: Vec<Vec<f32>>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::new()
    }
}

impl Tape {
    /// An empty tape, which claims the spare buffers the last tape left.
    pub fn new() -> Self {
        crate::spares::claim();
        Tape { nodes: Vec::new(), grads: Vec::new(), spent: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Record a leaf (input or parameter value). Leaves receive gradients but
    /// propagate nothing further.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push("leaf", value, Vec::new(), None)
    }

    /// Record a constant: identical to a leaf. The distinction is purely
    /// documentary — constants' gradients are computed but never read.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value)
    }

    /// Record an op node. `backward` must return exactly one gradient tensor
    /// per parent, each with the parent's shape.
    pub fn push_op(
        &mut self,
        value: Tensor,
        parents: Vec<Var>,
        backward: impl Fn(&BackwardCtx<'_>) -> Vec<Tensor> + 'static,
    ) -> Var {
        self.push_op_named("op", value, parents, backward)
    }

    /// [`Tape::push_op`] with an op label: `finite_check!` failures in this
    /// node's forward value or backward gradients are reported against
    /// `name`, so NaN is pinned to the producing kernel. The built-in ops
    /// all register named; prefer this for custom ops too.
    pub fn push_op_named(
        &mut self,
        name: &'static str,
        value: Tensor,
        parents: Vec<Var>,
        backward: impl Fn(&BackwardCtx<'_>) -> Vec<Tensor> + 'static,
    ) -> Var {
        let parents = parents.into_iter().map(|v| v.0).collect();
        self.push(name, value, parents, Some(Box::new(backward)))
    }

    fn push(
        &mut self,
        name: &'static str,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        for &p in &parents {
            assert!(p < self.nodes.len(), "parent Var belongs to a different tape");
        }
        // Kernel-boundary invariant: a non-finite forward output is caught
        // here, at the op that produced it (debug builds only).
        crate::finite_check!("forward output", name, value.data());
        self.nodes.push(Node { value, parents, backward, name });
        Var(self.nodes.len() - 1)
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` call w.r.t. `v`, if any was computed.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Run reverse-mode differentiation from `root`, which must be a scalar
    /// (1-element) node. Gradients of all nodes are retained and queryable
    /// through [`Tape::grad`] until the next `backward` call.
    pub fn backward(&mut self, root: Var) {
        let root_value = &self.nodes[root.0].value;
        assert_eq!(
            root_value.numel(),
            1,
            "backward root must be scalar, got shape {:?}",
            root_value.shape()
        );
        self.backward_seeded(root, Tensor::new(root_value.shape().clone(), vec![1.0]));
    }

    /// Like [`Tape::backward`] but with an explicit seed gradient (used for
    /// vector-Jacobian products).
    pub fn backward_seeded(&mut self, root: Var, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.nodes[root.0].value.shape(),
            "seed gradient shape must match the root value shape"
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[root.0] = Some(seed);

        for i in (0..=root.0).rev() {
            let Some(grad) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(backward) = &node.backward {
                let parent_values: Vec<&Tensor> =
                    node.parents.iter().map(|&p| &self.nodes[p].value).collect();
                let ctx = BackwardCtx { grad: &grad, output: &node.value, parents: &parent_values };
                let parent_grads = backward(&ctx);
                // Kernel-boundary invariant: each gradient is checked the
                // moment the producing op's backward returns it, so NaN is
                // attributed to this node — not to wherever the gradient
                // accumulates three ops later (debug builds only).
                if cfg!(debug_assertions) {
                    for pg in &parent_grads {
                        crate::finite_check!("backward gradient", node.name, pg.data());
                    }
                }
                assert_eq!(
                    parent_grads.len(),
                    node.parents.len(),
                    "op at node {i} returned {} gradients for {} parents",
                    parent_grads.len(),
                    node.parents.len()
                );
                for (&p, pg) in node.parents.iter().zip(parent_grads) {
                    debug_assert_eq!(
                        pg.shape(),
                        self.nodes[p].value.shape(),
                        "gradient shape mismatch for parent {p} of node {i}"
                    );
                    match &mut grads[p] {
                        Some(acc) => {
                            acc.add_assign(&pg);
                            self.spent.push(pg.into_data());
                        }
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            grads[i] = Some(grad);
        }
        self.grads = grads;
    }

    /// Drop all recorded nodes and gradients, keeping the arena's
    /// allocation; the tape then starts over as if new.
    pub fn clear(&mut self) {
        self.release();
        crate::spares::claim();
    }

    /// Hand the large value and gradient buffers to the spare set.
    fn release(&mut self) {
        let values = self.nodes.drain(..).map(|node| node.value.into_data());
        let grads = self.grads.drain(..).flatten().map(Tensor::into_data);
        crate::spares::recycle(values.chain(grads).chain(self.spent.drain(..)));
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        self.release();
    }
}

/// Numerically check the gradient of `f` w.r.t. a single input tensor using
/// central differences. Test-support utility used across the workspace's op
/// tests; `f` must rebuild its computation on a fresh tape each call and
/// return a scalar Var.
pub fn check_gradient(
    input: &Tensor,
    eps: f32,
    tol: f32,
    f: impl Fn(&mut Tape, Var) -> Var,
) -> Result<(), String> {
    // Analytic gradient.
    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let y = f(&mut tape, x);
    tape.backward(y);
    let analytic = tape.grad(x).cloned().unwrap_or_else(|| Tensor::zeros(input.shape().clone()));

    for i in 0..input.numel() {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;

        let eval = |t: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let x = tape.leaf(t.clone());
            let y = f(&mut tape, x);
            tape.value(y).item()
        };
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        let denom = 1.0f32.max(a.abs()).max(numeric.abs());
        if (a - numeric).abs() / denom > tol {
            return Err(format!(
                "gradient mismatch at element {i}: analytic {a}, numeric {numeric}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = sum(x * x) has gradient 2x.
    fn square_sum(tape: &mut Tape, x: Var) -> Var {
        let xv = tape.value(x).clone();
        let sq = xv.zip(&xv, |a, b| a * b);
        let s = Tensor::scalar(sq.sum());
        tape.push_op(s, vec![x], move |ctx| {
            let g = ctx.grad.item();
            vec![ctx.parents[0].map(|v| 2.0 * v * g)]
        })
    }

    #[test]
    fn backward_simple_square() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0, 3.0]));
        let y = square_sum(&mut tape, x);
        assert_eq!(tape.value(y).item(), 14.0);
        tape.backward(y);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn gradient_accumulates_across_fanout() {
        // z = sum(x*x) + sum(x*x): grad should be 4x.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
        let a = square_sum(&mut tape, x);
        let b = square_sum(&mut tape, x);
        let sum = Tensor::scalar(tape.value(a).item() + tape.value(b).item());
        let z = tape.push_op(sum, vec![a, b], |ctx| {
            vec![ctx.grad.clone(), ctx.grad.clone()]
        });
        tape.backward(z);
        assert_eq!(tape.grad(x).unwrap().data(), &[4.0, 8.0]);
    }

    #[test]
    fn numeric_check_square() {
        let x = Tensor::from_vec(vec![0.5, -1.5, 2.0]);
        check_gradient(&x, 1e-3, 1e-2, square_sum).unwrap();
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_on_non_scalar_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
        tape.backward(x);
    }

    #[test]
    fn leaves_have_no_parents_and_grad_defaults_none() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        assert!(tape.grad(x).is_none());
        tape.backward(x);
        assert_eq!(tape.grad(x).unwrap().item(), 1.0);
    }
}
