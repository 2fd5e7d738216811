//! Monitor smoke harness (`run_experiments.sh --monitor-smoke`): run a
//! tiny 1-model roster with the live observability server enabled, then
//! scrape `/metrics`, `/healthz`, `/runs`, and `/spans` with
//! [`rtgcn_telemetry::http::roundtrip`] (no curl dependency) and fail on
//! any non-200 status or unparseable body. Defaults `RTGCN_MONITOR` to `127.0.0.1:0`
//! so the gate never collides with a user's pinned port.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{evaluate_roster, harness_error, HarnessArgs, RunnerConfig, Spec};
use rtgcn_baselines::CommonConfig;
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};

const HARNESS: &str = "monitor_smoke";

fn scrape(addr: std::net::SocketAddr, path: &str) -> Result<(u16, String), String> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: monitor\r\n\r\n");
    rtgcn_telemetry::http::roundtrip(addr, raw.as_bytes()).map_err(|e| format!("{path}: {e}"))
}

fn check_endpoint(addr: std::net::SocketAddr, path: &str) -> Result<(), String> {
    let (status, body) = scrape(addr, path)?;
    if status != 200 {
        return Err(format!("{path}: expected 200, got {status} ({body:?})"));
    }
    match path {
        "/metrics" => {
            if !body.contains("# TYPE rtgcn_build_info gauge") {
                return Err(format!("{path}: missing build-info family in:\n{body}"));
            }
            if body.contains("NaN") {
                return Err(format!("{path}: non-finite value leaked into:\n{body}"));
            }
        }
        _ => {
            let parsed: Result<serde_json::Value, _> = serde_json::from_str(&body);
            if let Err(e) = parsed {
                return Err(format!("{path}: body is not valid JSON ({e:?}): {body:?}"));
            }
        }
    }
    println!("[{HARNESS}] GET {path} -> 200 OK ({} bytes)", body.len());
    Ok(())
}

fn main() {
    // Must be set before HarnessArgs::init (which starts the server);
    // single-threaded at this point. An explicit RTGCN_MONITOR wins.
    if std::env::var("RTGCN_MONITOR").map(|v| v.trim().is_empty()).unwrap_or(true) {
        std::env::set_var("RTGCN_MONITOR", "127.0.0.1:0");
    }
    let (args, _telemetry) = HarnessArgs::init(HARNESS);
    let Some(addr) = rtgcn_telemetry::http::monitor_addr() else {
        harness_error(HARNESS, &"monitor server did not start (bind failed?)");
    };

    // One model, one seed, tiny universe: the point is the transport, not
    // the numbers.
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 40;
    spec.test_days = 8;
    let ds = StockDataset::generate(spec, args.base_seed);
    let common = CommonConfig { t_steps: 8, n_features: 2, hidden: 8, epochs: 1, ..Default::default() };
    let cfg = RunnerConfig::from_env().with_journal(format!("monitor-smoke-s{}", args.base_seed));
    let rows = evaluate_roster(
        &[Spec::Gcn(Strategy::Uniform)],
        &ds,
        &common,
        RelationKind::Both,
        &[args.base_seed],
        &[1, 5],
        &cfg,
    );
    if rows.iter().any(|r| !r.failed_seeds.is_empty()) {
        harness_error(HARNESS, &"smoke roster had failed seeds");
    }

    for path in ["/metrics", "/healthz", "/runs", "/spans"] {
        if let Err(e) = check_endpoint(addr, path) {
            harness_error(HARNESS, &e);
        }
    }
    // /runs must reflect the settled roster, not an empty board.
    match scrape(addr, "/runs") {
        Ok((_, body)) if body.contains("\"state\":\"ok\"") || body.contains("\"state\":\"resumed\"") => {}
        Ok((_, body)) => harness_error(HARNESS, &format!("/runs shows no settled job: {body}")),
        Err(e) => harness_error(HARNESS, &e),
    }
    println!("[{HARNESS}] all four endpoints healthy at http://{addr}");
}
