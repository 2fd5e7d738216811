//! Opt-in heap-allocation tracking (`RTGCN_ALLOC_STATS=1`).
//!
//! [`TrackingAlloc`] wraps the system allocator and, when enabled, bumps a
//! set of process-global and thread-local byte counters on every
//! alloc/dealloc. The span layer snapshots the thread-local counters when a
//! span opens and attributes the delta to the span's path on drop, so the
//! span tree gains per-path `alloc`/`freed` byte totals (self values
//! computed by [`crate::spantree`], same subtraction as self time). The
//! process-global live/peak counters feed the health monitor's per-epoch
//! `mem.peak_bytes` gauge and the `alloc.*` counters published at flush.
//! Allocations of [`LARGE_BYTES`] or more are also counted, per thread
//! ([`thread_large_allocs`]) and process-wide (`alloc.large`), so a profile
//! or a test can see large-buffer reuse without reading `/proc`.
//!
//! A binary opts in with:
//!
//! ```ignore
//! rtgcn_telemetry::install_tracking_allocator!();
//! ```
//!
//! (`#[global_allocator]` is once-per-binary, so the macro is invoked by
//! each harness `main.rs`, never by a library.) With `RTGCN_ALLOC_STATS`
//! unset the wrapper costs one relaxed atomic load per allocation.
//!
//! # Caveats
//!
//! - Attribution is **per thread**: bytes a worker thread allocates while a
//!   span is open on a *different* thread are not charged to that span.
//!   Rayon-free, pool-per-job RT-GCN code keeps a model's work on the
//!   entering thread, so in practice self-alloc lines up with self-time.
//! - `live`/`peak` are **process-global** (allocation sites cannot see
//!   scopes), so with `RTGCN_JOBS>1` the peak mixes concurrent models —
//!   profile with `RTGCN_JOBS=1` when the per-model number matters.
//! - The counters themselves never allocate (fixed atomics + const-init
//!   thread locals), so tracking cannot recurse into the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Size from which an allocation counts as large: smaller blocks come back
/// from malloc's bins, larger ones may come from fresh pages the kernel has
/// to fault in (the floor `rtgcn-tensor` recycles tape buffers from).
pub const LARGE_BYTES: usize = 64 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTAL_ALLOC: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOC: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREED: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGE: Cell<u64> = const { Cell::new(0) };
}

/// Read `RTGCN_ALLOC_STATS` once and enable tracking if it is truthy.
/// Called by [`crate::init_harness`]; `env::var` allocates, so this must
/// never run inside the allocator itself.
pub fn init_from_env() {
    let on = std::env::var("RTGCN_ALLOC_STATS")
        .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false);
    set_tracking(on);
}

/// Programmatically enable/disable tracking (tests; overrides the env).
pub fn set_tracking(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation tracking is currently enabled.
#[inline]
pub fn tracking_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Process-wide bytes allocated since start of tracking.
pub fn total_allocated_bytes() -> u64 {
    TOTAL_ALLOC.load(Ordering::Relaxed)
}

/// Process-wide bytes freed since start of tracking.
pub fn total_freed_bytes() -> u64 {
    TOTAL_FREED.load(Ordering::Relaxed)
}

/// Currently live (allocated − freed) bytes seen by the tracker.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Process-wide count of allocations of [`LARGE_BYTES`] or more.
pub fn large_allocs() -> u64 {
    LARGE.load(Ordering::Relaxed)
}

/// The calling thread's count of allocations of [`LARGE_BYTES`] or more.
#[inline]
pub fn thread_large_allocs() -> u64 {
    THREAD_LARGE.try_with(Cell::get).unwrap_or(0)
}

/// Restart the peak high-water mark from the current live level (the health
/// monitor calls this at each epoch boundary so `mem.peak_bytes` is a
/// per-epoch, not per-run, peak).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Calling thread's cumulative `(allocated, freed)` byte counters. The span
/// layer subtracts two snapshots of this to charge an open span.
#[inline]
pub fn thread_counters() -> (u64, u64) {
    let a = THREAD_ALLOC.try_with(Cell::get).unwrap_or(0);
    let f = THREAD_FREED.try_with(Cell::get).unwrap_or(0);
    (a, f)
}

#[inline]
fn on_alloc(bytes: u64) {
    TOTAL_ALLOC.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed).wrapping_add(bytes);
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD_ALLOC.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    if bytes >= LARGE_BYTES as u64 {
        LARGE.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_LARGE.try_with(|c| c.set(c.get() + 1));
    }
}

#[inline]
fn on_free(bytes: u64) {
    TOTAL_FREED.fetch_add(bytes, Ordering::Relaxed);
    // Saturating: frees of blocks allocated before tracking was enabled
    // must not wrap the live gauge.
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(bytes))
    });
    let _ = THREAD_FREED.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// A `#[global_allocator]` shim over [`System`] that feeds the byte
/// counters when tracking is enabled. Install with
/// [`install_tracking_allocator!`](crate::install_tracking_allocator).
pub struct TrackingAlloc;

// SAFETY: defers every allocation verbatim to `System`; the bookkeeping
// touches only lock-free atomics and const-initialised thread-local `Cell`s
// (via `try_with`, tolerant of TLS teardown), so it never allocates,
// never blocks, and never panics inside the allocator.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && tracking_enabled() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    // SAFETY: forwards the caller's contract straight to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if tracking_enabled() {
            on_free(layout.size() as u64);
        }
    }

    // SAFETY: forwards the caller's contract straight to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && tracking_enabled() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    // SAFETY: forwards the caller's contract straight to `System.realloc`;
    // the counters treat it as free(old size) + alloc(new size).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && tracking_enabled() {
            on_free(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Install [`TrackingAlloc`] as the binary's `#[global_allocator]`. Invoke
/// once, at module scope, in each harness `main.rs`; tracking stays dormant
/// (one atomic load per allocation) until `RTGCN_ALLOC_STATS=1`.
#[macro_export]
macro_rules! install_tracking_allocator {
    () => {
        #[global_allocator]
        static RTGCN_TRACKING_ALLOC: $crate::alloc::TrackingAlloc =
            $crate::alloc::TrackingAlloc;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The real end-to-end assertions live in `tests/alloc_tracking.rs`,
    // which installs the allocator for its whole test binary. Here we only
    // exercise the counter arithmetic directly.
    #[test]
    fn counters_accumulate_and_peak_tracks_high_water() {
        let large = thread_large_allocs();
        on_alloc(1000);
        on_free(400);
        on_alloc(200);
        assert_eq!(thread_large_allocs(), large, "small blocks are not large");
        on_alloc(LARGE_BYTES as u64);
        on_free(LARGE_BYTES as u64);
        assert_eq!(thread_large_allocs(), large + 1);
        assert!(large_allocs() > large);
        assert!(total_allocated_bytes() >= 1200);
        assert!(total_freed_bytes() >= 400);
        assert!(peak_live_bytes() >= live_bytes());
        let (ta, tf) = thread_counters();
        assert!(ta >= 1200 && tf >= 400);
        reset_peak();
        assert_eq!(peak_live_bytes(), live_bytes());
    }
}
