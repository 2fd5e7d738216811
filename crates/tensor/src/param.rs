//! Persistent model parameters.
//!
//! The tape is rebuilt every step (define-by-run), so parameters live outside
//! it in a [`ParamStore`]. Each training step binds parameters onto the tape
//! with [`ParamStore::bind`], runs forward/backward, then calls
//! [`ParamStore::absorb_grads`] to pull the tape gradients into the
//! persistent per-parameter gradient buffers consumed by the optimiser.
//! The tape records the bindings, so they die with it.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stable handle to a parameter within one [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

struct ParamSlot {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// One [`ParamStore::bind`] as the tape records it: the binding store's
/// tag, the parameter and its leaf.
pub(crate) type Binding = (usize, ParamId, Var);

/// A named collection of trainable tensors with persistent gradients.
pub struct ParamStore {
    /// Process-unique tag on this store's bindings, so stores that bind onto
    /// one tape absorb only their own gradients.
    id: usize,
    slots: Vec<ParamSlot>,
    by_name: HashMap<String, ParamId>,
}

impl Default for ParamStore {
    fn default() -> Self {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        ParamStore {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slots: Vec::new(),
            by_name: HashMap::new(),
        }
    }
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter. Names must be unique; namespace layers with
    /// prefixes like `"gcn.theta"`.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name:?}");
        let grad = Tensor::zeros(value.shape().clone());
        let id = ParamId(self.slots.len());
        self.by_name.insert(name.clone(), id);
        self.slots.push(ParamSlot { name, value, grad });
        id
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar parameters (for model-size reporting).
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.numel()).sum()
    }

    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Mutable gradient access; public writers are the optimisers in
    /// [`crate::optim`], kept out of typical model code.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].grad
    }

    /// Iterate `(id, name)` pairs in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.slots.len()).map(ParamId)
    }

    /// Put the parameter's current value on the tape as a leaf and record
    /// the binding on the tape so `absorb_grads` can route the gradient back.
    pub fn bind(&self, tape: &mut Tape, id: ParamId) -> Var {
        let var = tape.leaf(self.slots[id.0].value.clone());
        tape.bindings.push((self.id, id, var));
        var
    }

    /// After `tape.backward`, accumulate the gradient of each leaf this
    /// store bound onto `tape` into the parameter's persistent grad buffer,
    /// in bind order. Other stores' bindings on the same tape are skipped;
    /// absorbing one tape twice adds its gradients twice.
    pub fn absorb_grads(&mut self, tape: &Tape) {
        for &(store, id, var) in &tape.bindings {
            if store != self.id {
                continue;
            }
            if let Some(g) = tape.grad(var) {
                // Kernel-boundary invariant: the optimiser must never see a
                // non-finite gradient; name the parameter it was bound to.
                crate::finite_check!("absorbed gradient", &self.slots[id.0].name, g.data());
                self.slots[id.0].grad.add_assign(g);
            }
        }
    }

    /// Zero every persistent gradient buffer.
    pub fn zero_grads(&mut self) {
        for s in &mut self.slots {
            s.grad.fill(0.0);
        }
    }

    /// Global L2 norm over all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.slots.iter().map(|s| s.grad.data().iter().map(|&g| g * g).sum::<f32>()).sum::<f32>().sqrt()
    }

    /// Global L2 norm over all parameter values.
    pub fn value_norm(&self) -> f32 {
        self.slots
            .iter()
            .map(|s| s.value.data().iter().map(|&v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Snapshot all values (for early stopping / best-checkpoint restore).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.slots.iter().map(|s| s.value.clone()).collect()
    }

    /// Restore a snapshot taken from this store.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.slots.len(), "snapshot size mismatch");
        for (s, t) in self.slots.iter_mut().zip(snapshot) {
            assert_eq!(s.value.shape(), t.shape(), "snapshot shape mismatch for {}", s.name);
            s.value = t.clone();
        }
    }
}

/// Finite-difference check of every parameter in a [`ParamStore`] against the
/// analytic gradients of `loss` — the model-level companion of
/// [`crate::tape::check_gradient`].
///
/// `loss` must rebuild the scalar objective on a fresh tape from the store's
/// *current* values each call and be deterministic across calls (disable
/// dropout / fix RNG consumption). Each parameter is probed at up to
/// `max_elems_per_param` evenly-strided elements with central differences of
/// half-width `eps`; an element fails when
/// `|analytic − numeric| / max(1, |analytic|, |numeric|) > tol`.
pub fn check_param_gradients(
    store: &mut ParamStore,
    eps: f32,
    tol: f32,
    max_elems_per_param: usize,
    mut loss: impl FnMut(&mut Tape, &ParamStore) -> Var,
) -> Result<(), String> {
    store.zero_grads();
    let mut tape = Tape::new();
    let root = loss(&mut tape, store);
    if tape.value(root).numel() != 1 {
        return Err(format!(
            "loss must be scalar, got shape {:?}",
            tape.value(root).shape()
        ));
    }
    tape.backward(root);
    store.absorb_grads(&tape);
    drop(tape);

    let ids: Vec<ParamId> = store.ids().collect();
    for id in ids {
        let numel = store.value(id).numel();
        let step = (numel / max_elems_per_param.max(1)).max(1);
        for i in (0..numel).step_by(step) {
            let orig = store.value(id).data()[i];
            let eval = |v: f32, store: &mut ParamStore, loss: &mut dyn FnMut(&mut Tape, &ParamStore) -> Var| -> f32 {
                store.value_mut(id).data_mut()[i] = v;
                let mut tape = Tape::new();
                let root = loss(&mut tape, store);
                tape.value(root).item()
            };
            let plus = eval(orig + eps, store, &mut loss);
            let minus = eval(orig - eps, store, &mut loss);
            store.value_mut(id).data_mut()[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = store.grad(id).data()[i];
            let denom = 1.0f32.max(analytic.abs()).max(numeric.abs());
            if (analytic - numeric).abs() / denom > tol {
                return Err(format!(
                    "gradient mismatch for {}[{i}]: analytic {analytic}, numeric {numeric}",
                    store.name(id)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_backward_absorb_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![2.0, 3.0]));
        let mut tape = Tape::new();
        let wv = store.bind(&mut tape, w);
        let sq = tape.square(wv);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        store.absorb_grads(&tape);
        assert_eq!(store.grad(w).data(), &[4.0, 6.0]);
        // Gradients accumulate across absorbs until zeroed.
        let mut tape2 = Tape::new();
        let wv2 = store.bind(&mut tape2, w);
        let sq2 = tape2.square(wv2);
        let loss2 = tape2.sum_all(sq2);
        tape2.backward(loss2);
        store.absorb_grads(&tape2);
        assert_eq!(store.grad(w).data(), &[8.0, 12.0]);
        store.zero_grads();
        assert_eq!(store.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(1.0));
        store.add("w", Tensor::scalar(2.0));
    }

    #[test]
    fn snapshot_restore() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0]));
        let snap = store.snapshot();
        store.value_mut(w).data_mut()[0] = 99.0;
        store.restore(&snap);
        assert_eq!(store.value(w).data(), &[1.0]);
    }

    #[test]
    fn lookup_and_counting() {
        let mut store = ParamStore::new();
        let a = store.add("layer.a", Tensor::zeros([2, 3]));
        store.add("layer.b", Tensor::zeros([4]));
        assert_eq!(store.id("layer.a"), Some(a));
        assert_eq!(store.id("nope"), None);
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.name(a), "layer.a");
    }

    #[test]
    fn check_param_gradients_passes_on_correct_model() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::new([2, 2], vec![0.5, -1.2, 2.0, 0.3]));
        let b = store.add("b", Tensor::from_vec(vec![0.7, -0.4]));
        check_param_gradients(&mut store, 1e-2, 1e-3, 16, |tape, s| {
            let wv = s.bind(tape, w);
            let bv = s.bind(tape, b);
            let x = tape.constant(Tensor::new([3, 2], vec![1., 2., -0.5, 0.3, 0.8, -1.1]));
            let h = tape.matmul(x, wv);
            let y = tape.add(h, bv);
            let r = tape.relu(y);
            let sq = tape.square(r);
            tape.sum_all(sq)
        })
        .unwrap();
        // Values must be restored exactly after probing.
        assert_eq!(store.value(w).data(), &[0.5, -1.2, 2.0, 0.3]);
    }

    #[test]
    fn check_param_gradients_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        let err = check_param_gradients(&mut store, 1e-2, 1e-3, 8, |tape, s| s.bind(tape, w));
        assert!(err.is_err());
    }

    #[test]
    fn stores_sharing_a_tape_absorb_only_their_own_bindings() {
        // Both stores' first parameter is ParamId(0): only the store tag
        // keeps their gradients apart.
        let mut a = ParamStore::new();
        let mut b = ParamStore::new();
        let wa = a.add("w", Tensor::scalar(2.0));
        let wb = b.add("w", Tensor::scalar(5.0));
        let mut tape = Tape::new();
        let va = a.bind(&mut tape, wa);
        let vb = b.bind(&mut tape, wb);
        let prod = tape.mul(va, vb);
        let loss = tape.sum_all(prod);
        tape.backward(loss);
        a.absorb_grads(&tape);
        b.absorb_grads(&tape);
        assert_eq!(a.grad(wa).item(), 5.0);
        assert_eq!(b.grad(wb).item(), 2.0);
    }

    #[test]
    fn multiple_bindings_of_same_param_accumulate() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let w1 = store.bind(&mut tape, w);
        let w2 = store.bind(&mut tape, w);
        let prod = tape.mul(w1, w2); // w * w, but through two independent leaves
        let loss = tape.sum_all(prod);
        tape.backward(loss);
        store.absorb_grads(&tape);
        // d(w²)/dw = 2w = 6 when both leaves route back to the same param.
        assert_eq!(store.grad(w).item(), 6.0);
    }
}
