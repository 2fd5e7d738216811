//! End-to-end test of the tracking `#[global_allocator]`: this test binary
//! installs it exactly as harness binaries do, then proves that enabled
//! tracking attributes bytes to the active span, publishes `alloc.*`
//! counters at flush, and feeds the health monitor's per-epoch
//! `mem.peak_bytes` gauge — while disabled tracking records nothing.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_telemetry as tel;

const MB: u64 = 1 << 20;

#[test]
fn enabled_tracking_attributes_bytes_to_the_active_span() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::alloc::set_tracking(true);
    tel::alloc::reset_peak();
    let large = tel::alloc::thread_large_allocs();
    {
        let _s = tel::span("alloc_work");
        let v: Vec<u8> = vec![0u8; MB as usize];
        std::hint::black_box(&v);
        drop(v);
        // Allocation that outlives the inner one: nested span attribution.
        let _inner = tel::span("inner");
        let w: Vec<u8> = vec![0u8; (MB / 2) as usize];
        std::hint::black_box(&w);
    }
    // Both blocks are large; the span bookkeeping around them is not.
    assert_eq!(tel::alloc::thread_large_allocs() - large, 2, "one count per large block");
    tel::flush_aggregates();
    let aggs = tel::spantree::snapshot_current();
    let outer = aggs.iter().find(|a| a.path == "alloc_work").expect("outer span");
    let inner = aggs.iter().find(|a| a.path == "alloc_work/inner").expect("inner span");
    assert!(outer.alloc_bytes >= MB + MB / 2, "outer alloc {} too small", outer.alloc_bytes);
    assert!(outer.freed_bytes >= MB, "outer freed {} too small", outer.freed_bytes);
    assert!(inner.alloc_bytes >= MB / 2, "inner alloc {} too small", inner.alloc_bytes);
    // Self-alloc subtracts the child: the outer's own MiB dominates.
    assert!(outer.self_alloc_bytes >= MB, "self alloc {}", outer.self_alloc_bytes);
    assert!(outer.self_alloc_bytes < outer.alloc_bytes, "child not subtracted");
    // Flush published the scope totals as alloc.* counters.
    assert!(tel::counter_value("alloc.bytes_allocated") >= MB + MB / 2);
    assert!(tel::counter_value("alloc.bytes_freed") >= MB);
    assert!(tel::counter_value("alloc.peak_live_bytes") > 0);
    assert!(tel::alloc::peak_live_bytes() >= MB, "peak missed the 1MiB burst");
    assert!(tel::counter_value("alloc.large") >= 2);
    // The summary gains the self-alloc column while tracking is on.
    assert!(tel::render_summary().contains("self-alloc"));
    tel::alloc::set_tracking(false);
}

#[test]
fn health_monitor_gauges_per_epoch_peak_bytes() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::alloc::set_tracking(true);
    tel::alloc::reset_peak();
    let mut m = tel::health::HealthMonitor::new("alloc-probe", Default::default());
    let v: Vec<u8> = vec![0u8; (2 * MB) as usize];
    std::hint::black_box(&v);
    m.observe_step(0.5, 0.3, 0.2, 1.0);
    m.end_epoch(1.0, 0.0);
    drop(v);
    let points = tel::series_points("mem.peak_bytes");
    assert_eq!(points.len(), 1, "one epoch, one peak sample");
    assert!(points[0].value >= (2 * MB) as f64, "peak {} too small", points[0].value);
    // end_epoch restarted the peak window from current live bytes.
    assert!(tel::alloc::peak_live_bytes() >= tel::alloc::live_bytes());
    tel::alloc::set_tracking(false);
}

#[test]
fn disabled_tracking_records_nothing() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::alloc::set_tracking(false);
    {
        let _s = tel::span("quiet");
        let v: Vec<u8> = vec![0u8; MB as usize];
        std::hint::black_box(&v);
    }
    let aggs = tel::spantree::snapshot_current();
    let quiet = aggs.iter().find(|a| a.path == "quiet").expect("span");
    assert_eq!(quiet.alloc_bytes, 0);
    assert_eq!(quiet.freed_bytes, 0);
    tel::flush_aggregates();
    assert_eq!(tel::counter_value("alloc.bytes_allocated"), 0);
    assert!(!tel::render_summary().contains("self-alloc"));
}

#[test]
fn recording_into_an_existing_histogram_allocates_nothing() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::alloc::set_tracking(true);
    tel::record_ns("probe.latency_ns", 1_000);
    let (before, _) = tel::alloc::thread_counters();
    for ns in [10, 1_000, 1_000_000] {
        tel::record_ns("probe.latency_ns", ns);
    }
    let (after, _) = tel::alloc::thread_counters();
    tel::alloc::set_tracking(false);
    assert_eq!(after - before, 0, "a sample into an existing histogram allocated");
    assert_eq!(tel::histogram("probe.latency_ns").count(), 4);
}
