//! Integration tests for the telemetry layer. All of these touch global
//! state (level, registry, sink), so each test holds the crate's exported
//! test lock — `tel::test_scope` — for its full duration; Rust runs
//! integration tests in threads within one process (see the contract on
//! `reset()`). The guard gives the test thread a registry of its own;
//! worker threads a test spawns enter it through `TestGuard::scope`.

use rtgcn_telemetry as tel;
use std::time::Duration;

fn fresh(level: tel::Level) -> tel::TestGuard {
    tel::test_scope(level)
}

#[test]
fn span_nesting_builds_slash_paths() {
    let _g = fresh(tel::Level::Summary);
    {
        let _fit = tel::span("fit");
        for _ in 0..3 {
            let _epoch = tel::span("epoch");
            let _fwd = tel::span("forward");
        }
    }
    let summary = tel::render_summary();
    assert!(summary.contains("fit"), "missing root span:\n{summary}");
    // Nested paths render indented under their parents with per-path counts.
    assert!(summary.contains("epoch"), "missing nested span:\n{summary}");
    assert!(summary.contains("forward"), "missing doubly nested span:\n{summary}");
    assert!(summary.contains("| 3\n"), "epoch should have count 3:\n{summary}");
}

#[test]
fn span_timers_are_monotone_and_contain_children() {
    let _g = fresh(tel::Level::Summary);
    let outer_elapsed;
    {
        let outer = tel::span("outer");
        let before = outer.elapsed();
        {
            let _inner = tel::span("inner");
            std::thread::sleep(Duration::from_millis(5));
        }
        let after = outer.elapsed();
        assert!(after >= before, "span clock went backwards");
        assert!(after >= Duration::from_millis(5), "outer must contain inner sleep");
        outer_elapsed = after;
    }
    // A second reading from a fresh span also moves forward.
    let again = tel::span("outer2");
    std::thread::sleep(Duration::from_millis(1));
    assert!(again.elapsed() > Duration::ZERO);
    assert!(outer_elapsed >= Duration::from_millis(5));
}

#[test]
fn disabled_spans_are_inert() {
    let _g = fresh(tel::Level::Off);
    {
        let s = tel::span("never");
        assert!(!s.is_active());
        assert_eq!(s.elapsed(), Duration::ZERO);
    }
    tel::count("never.counter", 5);
    assert_eq!(tel::counter_value("never.counter"), 0);
    assert!(tel::render_summary().is_empty());
}

#[test]
fn debug_spans_only_fire_at_debug() {
    let _g = fresh(tel::Level::Summary);
    assert!(!tel::debug_span("kernel").is_active());
    tel::set_level(tel::Level::Debug);
    assert!(tel::debug_span("kernel").is_active());
}

#[test]
fn histogram_percentiles_on_known_inputs() {
    let _g = fresh(tel::Level::Summary);
    let h = tel::histogram("known");
    // 100 samples at exact bucket upper bounds: 90 fast (64ns), 9 medium
    // (8192ns), 1 slow (1048576ns) → p50 fast, p95 medium, p99 medium,
    // p99.5+ slow.
    for _ in 0..90 {
        h.record(64);
    }
    for _ in 0..9 {
        h.record(8_192);
    }
    h.record(1_048_576);
    assert_eq!(h.count(), 100);
    assert_eq!(h.percentile(0.50), 64);
    assert_eq!(h.percentile(0.90), 64);
    assert_eq!(h.percentile(0.95), 8_192);
    assert_eq!(h.percentile(0.99), 8_192);
    assert_eq!(h.percentile(1.0), 1_048_576);
    let mean = h.mean_ns();
    assert!(mean > 64 && mean < 1_048_576, "mean {mean} out of range");
}

#[test]
fn histogram_empty_and_single_sample() {
    let _g = fresh(tel::Level::Summary);
    let h = tel::histogram("edge");
    assert_eq!(h.percentile(0.99), 0);
    h.record(1);
    assert_eq!(h.percentile(0.0), 64); // clamped to rank 1 → first bucket bound
    assert_eq!(h.percentile(1.0), 64);
}

#[test]
fn percentile_is_robust_to_degenerate_q() {
    let _g = fresh(tel::Level::Summary);
    let h = tel::histogram("degenerate");
    // Empty histogram: every q, including NaN, yields 0.
    for q in [0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN] {
        assert_eq!(h.percentile(q), 0, "empty histogram must return 0 for q={q}");
    }
    h.record(64);
    h.record(8_192);
    assert_eq!(h.percentile(f64::NAN), 0, "NaN q must not pick a garbage bucket");
    // Out-of-range q clamps to the endpoints.
    assert_eq!(h.percentile(-1.0), h.percentile(0.0));
    assert_eq!(h.percentile(2.0), h.percentile(1.0));
    assert_eq!(h.percentile(0.0), 64);
    assert_eq!(h.percentile(1.0), 8_192);
}

#[test]
fn gauge_series_record_read_back_and_stream() {
    let _g = fresh(tel::Level::Summary);
    tel::gauge("fit.loss", 0, 1.5);
    tel::gauge("fit.loss", 1, 0.75);
    tel::gauge("fit.grad_norm", 0, 10.0);
    let pts = tel::series_points("fit.loss");
    assert_eq!(pts.len(), 2);
    assert_eq!(pts[0], tel::SeriesPoint { index: 0, value: 1.5 });
    assert_eq!(pts[1], tel::SeriesPoint { index: 1, value: 0.75 });
    assert_eq!(tel::series_names(), vec!["fit.grad_norm".to_string(), "fit.loss".to_string()]);
    assert!(tel::series_points("unknown").is_empty());
    // Each point streams immediately as a series event with count = index.
    let lines = tel::drain_memory_sink();
    let events: Vec<tel::Event> =
        lines.iter().map(|l| serde_json::from_str(l).unwrap()).collect();
    let fit_loss: Vec<_> =
        events.iter().filter(|e| e.kind == "series" && e.name == "fit.loss").collect();
    assert_eq!(fit_loss.len(), 2);
    assert_eq!(fit_loss[1].count, 1);
    assert_eq!(fit_loss[1].value, 0.75);
    // reset() clears series state like every other aggregate.
    tel::reset();
    assert!(tel::series_points("fit.loss").is_empty());
}

#[test]
fn gauges_are_inert_at_level_off() {
    let _g = fresh(tel::Level::Off);
    tel::gauge("quiet", 0, 1.0);
    assert!(tel::series_points("quiet").is_empty());
    assert!(tel::drain_memory_sink().is_empty());
}

#[test]
fn counters_are_atomic_under_scoped_threads() {
    let g = fresh(tel::Level::Summary);
    let scope = g.scope().expect("test_scope has a scope");
    let c = tel::counter("parallel.hits");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = c.clone();
            s.spawn(move || {
                let _in = scope.enter();
                for _ in 0..PER_THREAD {
                    c.inc(1);
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(tel::counter_value("parallel.hits"), THREADS as u64 * PER_THREAD);
}

#[test]
fn jsonl_events_roundtrip_through_serde_json() {
    let _g = fresh(tel::Level::Summary);
    tel::warn("test.code", "something degenerate");
    tel::count("c", 3);
    tel::record_ns("h", 100);
    tel::record_ns("h", 200_000);
    tel::flush_aggregates();
    let lines = tel::drain_memory_sink();
    assert!(!lines.is_empty(), "no JSONL emitted");
    let mut kinds = Vec::new();
    for line in &lines {
        let ev: tel::Event = serde_json::from_str(line).expect("line must parse as Event");
        // Round-trip: serialize again and reparse — identical.
        let re = serde_json::to_string(&ev).unwrap();
        let ev2: tel::Event = serde_json::from_str(&re).unwrap();
        assert_eq!(ev, ev2);
        kinds.push(ev.kind.clone());
    }
    assert!(kinds.iter().any(|k| k == "warn"));
    assert!(kinds.iter().any(|k| k == "counter"));
    assert!(kinds.iter().any(|k| k == "hist"));
    let warn_line = lines.iter().find(|l| l.contains("\"warn\"")).unwrap();
    let ev: tel::Event = serde_json::from_str(warn_line).unwrap();
    assert_eq!(ev.name, "test.code");
    assert_eq!(ev.msg, "something degenerate");
}

#[test]
fn file_sink_writes_parseable_jsonl() {
    let _g = fresh(tel::Level::Summary);
    let dir = std::env::temp_dir().join("rtgcn-telemetry-test");
    let path = tel::run_log_path(&dir, "unit_test", "RT-GCN (T)");
    tel::install_file_sink(&path).expect("sink install");
    tel::warn("io.check", "hello");
    tel::count("io.counter", 7);
    tel::flush_aggregates();
    tel::close_sink();
    let text = std::fs::read_to_string(&path).expect("log file exists");
    let mut parsed = 0;
    for line in text.lines() {
        let _: tel::Event = serde_json::from_str(line).expect("parseable line");
        parsed += 1;
    }
    assert!(parsed >= 2, "expected at least warn + counter events, got {parsed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spans_merge_across_threads() {
    let g = fresh(tel::Level::Summary);
    let scope = g.scope().expect("test_scope has a scope");
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let _in = scope.enter();
                let _root = tel::span("worker");
            });
        }
    });
    let summary = tel::render_summary();
    assert!(summary.contains("worker"), "{summary}");
    assert!(summary.contains("| 4\n"), "4 worker spans expected:\n{summary}");
}

// ------------------------------------------------- scope order/leak checker

/// Guards dropped LIFO, with a balanced finish, must not produce any
/// `telemetry.scope_*` diagnostics.
#[test]
fn balanced_scope_use_emits_no_order_or_leak_warns() {
    let _g = fresh(tel::Level::Off);
    let scope = tel::ModelScope::new();
    scope.install_memory_sink();
    {
        let _e = scope.enter();
        tel::count("inner.work", 1);
    }
    scope.finish();
    let lines = scope.drain_memory_sink();
    assert!(
        !lines.iter().any(|l| l.contains("telemetry.scope_")),
        "clean enter/exit/finish must stay silent, got {lines:?}"
    );
}

/// Dropping scope guards out of LIFO order is the worker-pool bug the
/// checker exists for: the first wrong drop pops the *other* scope, so every
/// metric recorded in between lands in the wrong registry. Debug builds
/// report it as a `telemetry.scope_order` warn (never a panic in Drop).
#[cfg(debug_assertions)]
#[test]
fn out_of_order_guard_drop_warns_scope_order() {
    let _g = fresh(tel::Level::Off);
    let a = tel::ModelScope::new();
    let b = tel::ModelScope::new();
    a.install_memory_sink();
    let ga = a.enter();
    let gb = b.enter();
    // Wrong order: the guard for `a` drops while `b` is still on top.
    drop(ga);
    drop(gb);
    let a_lines = a.drain_memory_sink();
    assert!(
        a_lines.iter().any(|l| l.contains("telemetry.scope_order")),
        "out-of-order drop must warn, got {a_lines:?}"
    );
    // The root memory sink catches the second (now also mismatched) pop.
    let root_lines = tel::drain_memory_sink();
    assert!(
        root_lines.iter().any(|l| l.contains("telemetry.scope_order")),
        "second unwinding drop is also out of order, got {root_lines:?}"
    );
}

/// `finish()` while a worker thread still holds a guard flushes aggregates
/// mid-write; debug builds record `telemetry.scope_leak` in the scope's own
/// sink. Channel-synchronised so the worker provably holds its guard across
/// the `finish` call.
#[cfg(debug_assertions)]
#[test]
fn finish_with_live_cross_thread_guard_warns_scope_leak() {
    let _g = fresh(tel::Level::Off);
    let scope = tel::ModelScope::new();
    scope.install_memory_sink();
    let worker_scope = scope.clone();
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let _e = worker_scope.enter();
        entered_tx.send(()).unwrap();
        // Hold the guard until the main thread has called finish().
        done_rx.recv().unwrap();
    });
    entered_rx.recv().unwrap();
    scope.finish();
    done_tx.send(()).unwrap();
    worker.join().unwrap();
    let lines = scope.drain_memory_sink();
    assert!(
        lines.iter().any(|l| l.contains("telemetry.scope_leak")),
        "finish with a live guard must warn, got {lines:?}"
    );
    // The leak is also a counter in the scope registry, so it shows up in
    // a live /metrics scrape (satellite: scrapeable failure signals).
    let text = {
        let _e = scope.enter();
        tel::render_prometheus()
    };
    assert!(
        text.contains("rtgcn_telemetry_scope_leak_total 1"),
        "scope leak must be scrapeable, got:\n{text}"
    );
    // After the worker exits, a second finish is balanced: no new warn.
    // (The sticky `telemetry.scope_leak` *counter* still flushes — it is
    // deliberately scrapeable via /metrics after the fact.)
    scope.finish();
    let lines = scope.drain_memory_sink();
    assert!(
        !lines.iter().any(|l| l.contains("\"kind\":\"warn\"") && l.contains("telemetry.scope_leak")),
        "balanced finish must not warn, got {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"counter\"") && l.contains("telemetry.scope_leak")),
        "leak counter must stay scrapeable after the leak, got {lines:?}"
    );
}
