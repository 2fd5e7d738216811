//! Serving smoke harness (`run_experiments.sh --serve-smoke`): train a
//! tiny RT-GCN for one epoch, checkpoint it to disk, reload, boot the
//! scoring routes on the monitor server, scrape every endpoint, roll the
//! registry snapshot forward through the streaming `/advance` route, then
//! run a short concurrent load test that hot-swaps a second checkpoint in
//! mid-load. Zero failed requests are tolerated, and every `/rank`
//! response must carry exactly one of the two installed version ids.
//!
//! Latencies land in the `serve.load.rank_ns` histogram, which
//! `rtgcn-report --harness serve_smoke` folds into
//! `results/BENCH_serve.json`.

rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{begin_model_scope, harness_error, HarnessArgs};
use rtgcn_core::{Checkpoint, DataSpec, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::servable::checkpoint_rtgcn;
use rtgcn_serve::{install_routes, ModelEntry, Registry};
use rtgcn_telemetry::http::roundtrip;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HARNESS: &str = "serve_smoke";
/// Concurrent load-test clients. Must stay below the server's in-flight
/// budget (8) so shed 503s cannot masquerade as hot-swap failures.
const CLIENT_THREADS: usize = 4;
/// Requests per client thread.
const REQUESTS_PER_CLIENT: usize = 150;

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    roundtrip(addr, format!("GET {path} HTTP/1.1\r\nHost: serve\r\n\r\n").as_bytes())
        .map_err(|e| format!("GET {path}: {e}"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    roundtrip(addr, raw.as_bytes()).map_err(|e| format!("POST {path}: {e}"))
}

/// Train for `epochs` and capture a durable checkpoint.
fn train_checkpoint(
    cfg: &RtGcnConfig,
    ds: &StockDataset,
    data: &DataSpec,
    epochs: usize,
    seed: u64,
) -> Result<Checkpoint, String> {
    let mut cfg = cfg.clone();
    cfg.epochs = epochs;
    let relations = ds.relations(data.relation_kind);
    let mut model = RtGcn::new(cfg, &relations, seed);
    let report = model.fit(ds);
    if report.health == rtgcn_telemetry::health::HealthVerdict::Diverged {
        return Err(format!("training diverged: {:?}", report.epoch_health));
    }
    checkpoint_rtgcn(&model, data).map_err(|e| format!("checkpoint: {e}"))
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
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

    // Tiny CSI universe: the gate exercises the serving transport and the
    // checkpoint plumbing, not the paper numbers.
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 40;
    spec.test_days = 8;
    let data = DataSpec { spec, seed: args.base_seed, relation_kind: RelationKind::Both };
    let ds = StockDataset::generate(data.spec.clone(), data.seed);
    let cfg = RtGcnConfig {
        t_steps: 8,
        n_features: 2,
        rel_filters: 8,
        temporal_filters: 8,
        strategy: Strategy::Uniform,
        ..RtGcnConfig::default()
    };

    begin_model_scope("serve");

    // Two checkpoint versions: 1 and 2 epochs of training. The first goes
    // through a full disk round trip (the durable path rtgcn-serve uses).
    let ckpt_v1 = train_checkpoint(&cfg, &ds, &data, 1, args.base_seed)
        .unwrap_or_else(|e| harness_error(HARNESS, &e));
    let ckpt_v2 = train_checkpoint(&cfg, &ds, &data, 2, args.base_seed)
        .unwrap_or_else(|e| harness_error(HARNESS, &e));
    let ckpt_path = args.logs_dir().join("serve-smoke.rtgckpt");
    if let Err(e) = ckpt_v1.save(&ckpt_path) {
        harness_error(HARNESS, &e);
    }
    let ckpt_v1 = match Checkpoint::load(&ckpt_path) {
        Ok(c) => c,
        Err(e) => harness_error(HARNESS, &e),
    };
    let (v1, v2) = (ckpt_v1.content_id(), ckpt_v2.content_id());
    if v1 == v2 {
        harness_error(HARNESS, &"v1 and v2 checkpoints are identical; swap test is vacuous");
    }
    println!("[{HARNESS}] checkpointed {} -> versions {v1} / {v2}", ckpt_path.display());

    let registry = Arc::new(Registry::new());
    let entry_v1 = match registry.install_checkpoint(&ckpt_v1) {
        Ok(e) => e,
        Err(e) => harness_error(HARNESS, &e),
    };
    let entry_v2 = match ModelEntry::from_checkpoint(&ckpt_v2, &ds, None) {
        Ok(e) => Arc::new(e),
        Err(e) => harness_error(HARNESS, &e),
    };
    install_routes(Arc::clone(&registry));

    // Every endpoint must answer before the load phase starts.
    for path in ["/healthz", "/metrics", "/rank?market=csi&k=5", "/rank?market=csi&k=0"] {
        match get(addr, path) {
            Ok((200, body)) => println!("[{HARNESS}] GET {path} -> 200 OK ({} bytes)", body.len()),
            Ok((status, body)) => {
                harness_error(HARNESS, &format!("GET {path}: expected 200, got {status} ({body:?})"))
            }
            Err(e) => harness_error(HARNESS, &e),
        }
    }
    match get(addr, "/rank?market=tse") {
        Ok((404, _)) => println!("[{HARNESS}] GET /rank?market=tse -> 404 as expected"),
        Ok((status, body)) => {
            harness_error(HARNESS, &format!("unknown market: expected 404, got {status} ({body:?})"))
        }
        Err(e) => harness_error(HARNESS, &e),
    }
    let window: Vec<String> = (0..cfg.t_steps * ds.n_stocks() * cfg.n_features)
        .map(|i| format!("{:.1}", (i % 7) as f32 * 0.5))
        .collect();
    let score_body = format!("{{\"market\":\"csi\",\"window\":[{}]}}", window.join(","));
    match post(addr, "/score", &score_body) {
        Ok((200, body)) => {
            let parsed: Result<serde_json::Value, _> = serde_json::from_str(&body);
            let n = parsed
                .ok()
                .and_then(|v| v.get("scores").and_then(|s| s.as_seq().map(<[_]>::len)));
            if n != Some(ds.n_stocks()) {
                harness_error(HARNESS, &format!("/score: expected {} scores in {body:?}", ds.n_stocks()));
            }
            println!("[{HARNESS}] POST /score -> 200 OK ({} bytes)", body.len());
        }
        Ok((status, body)) => {
            harness_error(HARNESS, &format!("POST /score: expected 200, got {status} ({body:?})"))
        }
        Err(e) => harness_error(HARNESS, &e),
    }
    match post(addr, "/score", "not json") {
        Ok((400, _)) => println!("[{HARNESS}] POST /score (malformed) -> 400 as expected"),
        Ok((status, body)) => {
            harness_error(HARNESS, &format!("malformed body: expected 400, got {status} ({body:?})"))
        }
        Err(e) => harness_error(HARNESS, &e),
    }

    // Streaming day-advance: two days through the stream engine must roll
    // the `/rank` snapshot forward under a `+d<day>` version tag.
    let end_before = registry.get("csi").map(|e| e.end_day).unwrap_or(0);
    match post(addr, "/advance", "{\"market\":\"csi\",\"days\":2}") {
        Ok((200, body)) => {
            if !body.contains(&format!("\"version\":\"{v1}+d")) {
                harness_error(HARNESS, &format!("/advance: expected a rolled v1 version in {body:?}"));
            }
            println!("[{HARNESS}] POST /advance -> 200 OK ({} bytes)", body.len());
        }
        Ok((status, body)) => {
            harness_error(HARNESS, &format!("POST /advance: expected 200, got {status} ({body:?})"))
        }
        Err(e) => harness_error(HARNESS, &e),
    }
    let end_after = registry.get("csi").map(|e| e.end_day).unwrap_or(0);
    // The stream seeds at the newest generated day (one past the last
    // scorable batch end-day), so two advances move end_day forward by 3.
    if end_after != end_before + 3 {
        harness_error(
            HARNESS,
            &format!("/advance: end_day {end_before} should roll to {}, got {end_after}", end_before + 3),
        );
    }
    match get(addr, "/rank?market=csi&k=3") {
        Ok((200, body)) if body.contains("+d") => {
            println!("[{HARNESS}] /rank serves streamed day {end_after} (rolled version)")
        }
        Ok((status, body)) => {
            harness_error(HARNESS, &format!("/rank after advance: {status} ({body:?})"))
        }
        Err(e) => harness_error(HARNESS, &e),
    }
    // Restore the pristine v1 entry (and drop the stream) so the load
    // phase sees exactly the two checkpointed versions.
    registry.install_entry(Arc::clone(&entry_v1));

    // Load phase: CLIENT_THREADS hammer /rank while the main thread swaps
    // v1 <-> v2 in a tight loop. Every response must be a 200 carrying one
    // of the two version ids; any connection error fails the gate.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            let (v1, v2) = (v1.clone(), v2.clone());
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let t0 = Instant::now();
                    let (status, body) = get(addr, "/rank?market=csi&k=3")?;
                    lat.push(t0.elapsed().as_nanos() as u64);
                    if status != 200 {
                        return Err(format!("/rank under load: {status} ({body:?})"));
                    }
                    let tagged_v1 = body.contains(&format!("\"version\":\"{v1}\""));
                    let tagged_v2 = body.contains(&format!("\"version\":\"{v2}\""));
                    if !(tagged_v1 ^ tagged_v2) {
                        return Err(format!("response is not exactly one installed version: {body:?}"));
                    }
                }
                Ok(lat)
            })
        })
        .collect();
    let swapper = {
        let (registry, stop) = (Arc::clone(&registry), Arc::clone(&stop));
        let (entry_v1, entry_v2) = (Arc::clone(&entry_v1), Arc::clone(&entry_v2));
        std::thread::spawn(move || {
            let mut swaps: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let next =
                    if swaps.is_multiple_of(2) { Arc::clone(&entry_v2) } else { Arc::clone(&entry_v1) };
                registry.install_entry(next);
                swaps += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            swaps
        })
    };
    let mut latencies: Vec<u64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for c in clients {
        match c.join() {
            Ok(Ok(lat)) => latencies.extend(lat),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("client thread panicked".to_string()),
        }
    }
    stop.store(true, Ordering::Relaxed);
    let swaps = swapper.join().unwrap_or(0);
    if !failures.is_empty() {
        harness_error(
            HARNESS,
            &format!("{} of {} clients failed: {}", failures.len(), CLIENT_THREADS, failures[0]),
        );
    }
    if swaps < 2 {
        harness_error(HARNESS, &format!("only {swaps} hot-swaps happened during the load phase"));
    }
    for &ns in &latencies {
        rtgcn_telemetry::record_ns("serve.load.rank_ns", ns);
    }
    latencies.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!(
        "[{HARNESS}] load test: {} requests, {swaps} hot-swaps, p50={:.2}ms p95={:.2}ms p99={:.2}ms",
        latencies.len(),
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
    );
    println!("[{HARNESS}] serving endpoints healthy at http://{addr}; hot-swap clean");
}
