//! The spare set holds one tape's worth of large buffers: the last dropped
//! tape's. The binary holds one test, because every tape on any thread
//! claims and returns the process-wide set.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_telemetry::alloc::{set_tracking, thread_large_allocs, LARGE_BYTES};
use rtgcn_tensor::{spares::held, Tape, Tensor};

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

fn tape_with(lens: &[usize]) -> Tape {
    let mut tape = Tape::new();
    for &n in lens {
        tape.leaf(Tensor::zeros([n]));
    }
    tape
}

#[test]
fn the_set_holds_only_the_last_dropped_tapes_large_buffers() {
    let big = LARGE_BYTES / 4;
    drop(tape_with(&[big, big + 1, big + 2]));
    assert_eq!(sorted(held()), [big, big + 1, big + 2]);
    // The next tape replaces the set; its small buffer, and the claimed
    // spares it did not use, are freed.
    drop(tape_with(&[big + 3, 8]));
    assert_eq!(held(), [big + 3]);
    // A tape without a large buffer gives its claim back.
    drop(tape_with(&[8]));
    assert_eq!(held(), [big + 3]);

    // A new tape claims the whole set, and a kernel takes the spare of its
    // exact size only.
    set_tracking(true);
    let mut tape = Tape::new();
    assert!(held().is_empty());
    let before = thread_large_allocs();
    tape.leaf(Tensor::zeros([big + 2]));
    assert_eq!(thread_large_allocs() - before, 1, "no spare of that size");
    tape.leaf(Tensor::zeros([big + 3]));
    assert_eq!(thread_large_allocs() - before, 1, "the spare was taken");
    set_tracking(false);
    drop(tape);
    assert_eq!(sorted(held()), [big + 2, big + 3]);

    // Gradients are recycled with the values, also by `clear`, after which
    // the tape claims the set again.
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::zeros([big]));
    let s = tape.sum_all(x);
    tape.backward(s);
    tape.clear();
    assert!(tape.is_empty());
    assert!(held().is_empty());
    drop(tape);
    assert_eq!(held(), [big, big], "the value and the gradient of x");
}
