//! End-to-end test of the live observability server over a real parallel
//! run: start the monitor exactly the way a harness does (`RTGCN_MONITOR`
//! env + `start_monitor_from_env`), kick off a parallel roster whose probe
//! model is slow enough to be caught mid-flight, scrape all four endpoints
//! while jobs are running, and assert the monitored run's `ModelRow`s are
//! bit-identical to an unmonitored run — the monitor must be observably
//! free on the results path.

use rtgcn_bench::{evaluate_roster, monitor, ModelRow, RunnerConfig, Spec};
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_telemetry as tel;
use std::time::Duration;

fn tiny_ds() -> StockDataset {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 40;
    spec.test_days = 8;
    StockDataset::generate(spec, 1)
}

fn tiny_common() -> rtgcn_baselines::CommonConfig {
    rtgcn_baselines::CommonConfig {
        t_steps: 8,
        n_features: 2,
        hidden: 8,
        epochs: 1,
        ..Default::default()
    }
}

fn cfg_with_jobs(jobs: usize) -> RunnerConfig {
    let mut cfg = RunnerConfig::from_env();
    cfg.jobs = jobs;
    cfg.timeout = None;
    cfg.retries = 0;
    cfg.journal = None;
    cfg.log_sink = None;
    cfg
}

fn scrape(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
    tel::http::roundtrip(addr, raw.as_bytes()).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// Everything but wall-clock must match bit-for-bit between the monitored
/// and unmonitored schedules.
fn assert_rows_identical(a: &[ModelRow], b: &[ModelRow]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.mrr.map(f64::to_bits), y.mrr.map(f64::to_bits), "{}: mrr", x.name);
        for (k, v) in &x.irr {
            assert_eq!(v.to_bits(), y.irr[k].to_bits(), "{}: irr-{k}", x.name);
        }
        for (k, s) in &x.irr_samples {
            let bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
            let other: Vec<u64> = y.irr_samples[k].iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, other, "{}: irr_samples-{k}", x.name);
        }
        let bits: Vec<u64> = x.mrr_samples.iter().map(|v| v.to_bits()).collect();
        let other: Vec<u64> = y.mrr_samples.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, other, "{}: mrr_samples", x.name);
        assert_eq!(x.health, y.health, "{}: health", x.name);
        assert_eq!(x.failed_seeds, y.failed_seeds, "{}: failed_seeds", x.name);
    }
}

#[test]
fn live_run_is_scrapeable_on_all_endpoints_and_rows_stay_bit_identical() {
    let _g = tel::test_lock();
    monitor::board_clear();
    monitor::install_runs_route();
    // Start the monitor through the same path a harness uses.
    std::env::set_var("RTGCN_MONITOR", "127.0.0.1:0");
    tel::http::start_monitor_from_env();
    std::env::remove_var("RTGCN_MONITOR");
    let addr = tel::http::monitor_addr().expect("monitor must be running");

    // SlowProbe sleeps 2s per fit, so with both workers on its two seeds
    // first, the mid-flight scrape below reliably sees `running` jobs.
    let ds = tiny_ds();
    let common = tiny_common();
    let roster = [Spec::SlowProbe, Spec::Gcn(Strategy::Uniform)];
    let seeds = [1u64, 2];
    let ks = [1usize, 5];

    let run_ds = ds.clone();
    let run_common = common.clone();
    let monitored = std::thread::spawn(move || {
        evaluate_roster(
            &roster,
            &run_ds,
            &run_common,
            RelationKind::Both,
            &seeds,
            &ks,
            &cfg_with_jobs(2),
        )
    });

    // Wait until the board actually shows a running job (bounded poll —
    // SlowProbe holds both workers for 2s, so this settles in a few ms).
    let mut runs_body = String::new();
    let mut saw_running = false;
    for _ in 0..100 {
        let (status, body) = scrape(addr, "/runs");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"running\"") {
            saw_running = true;
            runs_body = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(saw_running, "a SlowProbe job must be observable as running mid-flight");
    let v: serde_json::Value = serde_json::from_str(&runs_body).expect("/runs is valid JSON");
    let jobs = v
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "jobs").map(|(_, v)| v.clone()))
        .and_then(|j| j.as_seq().map(<[serde_json::Value]>::to_vec))
        .expect("/runs has a jobs array");
    assert_eq!(jobs.len(), 4, "2 models x 2 seeds");
    assert!(
        jobs.iter().any(|j| {
            j.as_map().is_some_and(|m| {
                m.iter().any(|(k, v)| k == "model" && v.as_str() == Some("SlowProbe"))
            })
        }),
        "{runs_body}"
    );

    // The other three endpoints, mid-flight.
    let (status, metrics) = scrape(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE rtgcn_build_info gauge"), "{metrics}");
    assert!(metrics.contains("rtgcn_process_uptime_seconds"), "{metrics}");
    assert!(!metrics.contains("NaN"), "non-finite values must never render:\n{metrics}");
    let (status, health) = scrape(addr, "/healthz");
    assert_eq!(status, 200, "no model has diverged: {health}");
    let (status, spans) = scrape(addr, "/spans");
    assert_eq!(status, 200);
    let _: serde_json::Value = serde_json::from_str(&spans).expect("/spans is valid JSON");

    let monitored_rows = monitored.join().expect("monitored run");

    // After the run settles, the board shows every job ok.
    let (status, body) = scrape(addr, "/runs");
    assert_eq!(status, 200);
    assert!(!body.contains("\"state\":\"running\""), "{body}");
    assert!(!body.contains("\"state\":\"queued\""), "{body}");
    assert!(body.contains("\"ok\":4"), "{body}");

    tel::http::shutdown_monitor();
    monitor::board_clear();

    // Same roster without a monitor: rows must match bit-for-bit.
    let unmonitored =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &ks, &cfg_with_jobs(2));
    assert_rows_identical(&monitored_rows, &unmonitored);
}
