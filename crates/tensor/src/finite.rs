//! Debug-build finite-value invariants for the autodiff kernels.
//!
//! The repo's NaN-discipline convention (DESIGN.md § "Static analysis &
//! invariants") keeps NaN out of kernel outputs and gradients; when one does
//! appear, it historically surfaced three crates downstream (a NaN IRR in a
//! bench table) with no pointer back to the op that produced it. The
//! [`finite_check!`] macro closes that gap: asserted at kernel boundaries —
//! forward outputs in [`crate::Tape`], per-parent gradients right after each
//! backward closure runs, parameter gradients in
//! [`crate::ParamStore::absorb_grads`] — it panics *at the producing op*,
//! naming it.
//!
//! Cost model: the checks are compiled out of release builds
//! (`debug_assertions` off — note the release profile's `debug = true` only
//! adds debuginfo, it does not enable debug assertions). In debug builds
//! they are always on, except in a region suppressed via [`suppress`] — for
//! tests that deliberately drive a model to divergence.

use std::cell::Cell;

thread_local! {
    static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Is the finite check active on this thread right now?
pub fn enabled() -> bool {
    cfg!(debug_assertions) && SUPPRESS_DEPTH.with(|d| d.get()) == 0
}

/// RAII region suppressing finite checks on the current thread (nestable).
/// For tests that intentionally produce non-finite values.
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

pub fn suppress() -> SuppressGuard {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    SuppressGuard(())
}

/// Assert every element of `data` is finite. `stage` says which kernel
/// boundary ("forward output", "backward gradient", ...), `label` names the
/// producing op or parameter. Panics with both plus the offending index and
/// value, so the report pinpoints the origin instead of the symptom.
pub fn assert_all_finite(stage: &str, label: &str, data: &[f32]) {
    if !enabled() {
        return;
    }
    if let Some((i, v)) = data.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        panic!(
            "finite_check failed: {stage} of `{label}` has non-finite value {v} at element {i} \
             (of {len}) — NaN/inf originates at this op, not downstream \
             (wrap a deliberate divergence in `rtgcn_tensor::suppress()`)",
            len = data.len()
        );
    }
}

/// Assert a tensor-or-slice is finite at a kernel boundary; compiled out of
/// release builds. Usage: `finite_check!("forward output", "matmul",
/// tensor.data())`.
#[macro_export]
macro_rules! finite_check {
    ($stage:expr, $label:expr, $data:expr) => {
        if cfg!(debug_assertions) {
            $crate::finite::assert_all_finite($stage, $label, $data);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_data_passes() {
        assert_all_finite("forward output", "t", &[0.0, -1.5, 3.0e20]);
        finite_check!("forward output", "t", &[1.0f32]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn non_finite_panics_with_stage_and_label() {
        let err = std::panic::catch_unwind(|| {
            assert_all_finite("backward gradient", "nan_kernel", &[1.0, f32::NAN]);
        })
        .expect_err("NaN must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("backward gradient"), "{msg}");
        assert!(msg.contains("nan_kernel"), "{msg}");
        assert!(msg.contains("element 1"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn suppress_guard_disables_and_restores() {
        {
            let _g = suppress();
            assert!(!enabled());
            assert_all_finite("forward output", "t", &[f32::INFINITY]);
            {
                let _g2 = suppress();
                assert!(!enabled());
            }
            assert!(!enabled(), "nested guard must not re-enable on drop");
        }
        assert!(enabled(), "dropping the last guard must re-enable the check");
    }
}
