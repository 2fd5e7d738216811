//! Reuse of large tensor buffers from one tape to the next.
//!
//! When a [`Tape`](crate::Tape) is dropped or cleared, its value and
//! gradient buffers of [`LARGE_BYTES`] or more become the process-wide
//! spare set, replacing the set the previous tape left. A new tape claims
//! the whole set for its thread, and kernels that create a large output on
//! that thread take a claimed spare of exactly the requested capacity
//! before they call the allocator. A forward asks for the same sizes on
//! every call, so a steady stream of forwards allocates no large buffer.
//!
//! Without this, glibc hands the freed top of the heap back to the kernel
//! when a tape drops, and the next forward faults it all back in (DESIGN.md
//! §8, "Buffer reuse"); smaller buffers come back from malloc's bins anyway.
//! The set is process-wide because the server runs each request on a fresh
//! thread, and holds one tape's worth so that retained memory does not grow
//! with the number of models. A tape running at the same time on another
//! thread finds the set claimed and allocates its own buffers, which its
//! own heap can trim again, instead of splitting the set.
//!
//! Every kernel still writes or zero-fills its whole output, so a spare's
//! old contents are never read and results are bit-identical.

use rtgcn_telemetry::alloc::LARGE_BYTES;
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shortest buffer, in elements, that is recycled.
const MIN_LEN: usize = LARGE_BYTES / std::mem::size_of::<f32>();

/// Buffers of at least [`MIN_LEN`] capacity; their contents are stale.
type Spares = Vec<Vec<f32>>;

/// The spare set while no tape has claimed it.
static SPARES: Mutex<Spares> = Mutex::new(Vec::new());

thread_local! {
    /// The spares claimed by the tapes running on this thread.
    static CLAIMED: RefCell<Spares> = const { RefCell::new(Vec::new()) };
}

/// Lock the spare set. Nothing panics while it is held, and a poisoned
/// lock is recovered, so no caller ever panics here.
fn spares() -> MutexGuard<'static, Spares> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claim the whole spare set for a tape starting on this thread.
pub(crate) fn claim() {
    let set = std::mem::take(&mut *spares());
    if !set.is_empty() {
        // During thread teardown the claim is simply freed.
        let _ = CLAIMED.try_with(|c| c.borrow_mut().extend(set));
    }
}

/// A claimed spare of capacity exactly `len`, if `len` is large and one is.
fn take(len: usize) -> Option<Vec<f32>> {
    if len < MIN_LEN {
        return None;
    }
    CLAIMED
        .try_with(|c| {
            let mut claimed = c.borrow_mut();
            let i = claimed.iter().position(|b| b.capacity() == len)?;
            let mut buf = claimed.swap_remove(i);
            buf.clear();
            Some(buf)
        })
        .ok()
        .flatten()
}

/// An empty buffer with room for `len` elements.
pub(crate) fn with_capacity(len: usize) -> Vec<f32> {
    take(len).unwrap_or_else(|| Vec::with_capacity(len))
}

/// `len` copies of `v`.
pub(crate) fn filled(len: usize, v: f32) -> Vec<f32> {
    match take(len) {
        Some(mut buf) => {
            buf.resize(len, v);
            buf
        }
        None => vec![v; len],
    }
}

/// A copy of `src`.
pub(crate) fn copied(src: &[f32]) -> Vec<f32> {
    let mut buf = with_capacity(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Make the large buffers among `buffers` (a dropping tape's values and
/// gradients) the spare set, and free the rest along with whatever this
/// thread claimed but did not use. A tape without a large buffer gives its
/// claim back as the set instead; with neither, the set is left alone and
/// the lock is not taken.
pub(crate) fn recycle(buffers: impl Iterator<Item = Vec<f32>>) {
    let claimed = CLAIMED.try_with(RefCell::take).unwrap_or_default();
    let large: Spares = buffers.filter(|b| b.capacity() >= MIN_LEN).collect();
    let (set, unused) = if large.is_empty() { (claimed, Vec::new()) } else { (large, claimed) };
    if set.is_empty() {
        return;
    }
    let old = std::mem::replace(&mut *spares(), set);
    // The replaced set and the unused claim are freed outside the lock.
    drop((old, unused));
}

/// Capacities of the unclaimed spares (test support).
#[doc(hidden)]
pub fn held() -> Vec<usize> {
    spares().iter().map(Vec::capacity).collect()
}

/// Replace the spare set with buffers of the given capacities whose memory
/// holds `fill` throughout (test support: a kernel that read a spare before
/// writing it would read `fill`).
#[doc(hidden)]
pub fn stock(capacities: &[usize], fill: f32) {
    let set = capacities.iter().map(|&c| vec![fill; c]).collect();
    let _old = std::mem::replace(&mut *spares(), set);
}
