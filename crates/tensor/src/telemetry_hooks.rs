//! Glue between the hot tensor kernels and `rtgcn-telemetry`.
//!
//! Kernel call sites cache their [`Counter`] handle in a function-local
//! `OnceLock` so the per-call cost at any log level is a couple of relaxed
//! atomic loads — cheap enough to leave compiled into release builds.

use rtgcn_telemetry::Counter;
use std::sync::OnceLock;

/// Fetch (once) the registry counter for a kernel call site.
#[inline]
pub(crate) fn kernel_counter(
    cell: &'static OnceLock<Counter>,
    name: &'static str,
) -> &'static Counter {
    cell.get_or_init(|| rtgcn_telemetry::counter(name))
}
