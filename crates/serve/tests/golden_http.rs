//! Golden serving fixtures: `/rank` and `/score` response bodies asserted
//! **byte-for-byte** against hand-computed expectations, using the
//! [`rtgcn_serve::probe::WindowSumProbe`] family (whose scores are plain
//! scaled window sums, reproducible with a four-line loop). Covers the
//! happy paths plus every specified edge: `k=0`, `k > N`, unknown market
//! → 404, malformed body → 400, wrong method → 405.
//!
//! The route table and monitor server are process-global, so every test
//! goes through one shared server and a serialising lock.

use rtgcn_core::{Checkpoint, DataSpec};
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::probe::{ProbeConfig, WindowSumProbe};
use rtgcn_serve::servable::checkpoint_probe;
use rtgcn_serve::{install_routes, Registry};
use rtgcn_telemetry::http::{roundtrip, Server};
use std::net::SocketAddr;
use std::sync::{Mutex, OnceLock};

const T_STEPS: usize = 2;
const N_FEATURES: usize = 2;
const N_STOCKS: usize = 4;
const SCALE: f32 = 0.5;
const SEED: u64 = 11;

struct Fixture {
    addr: SocketAddr,
    version: String,
    end_day: usize,
    ds: StockDataset,
    /// Serialises tests: the server/route table is process-global state.
    lock: Mutex<()>,
    _server: Server,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = N_STOCKS;
        spec.train_days = 12;
        spec.test_days = 3;
        let data = DataSpec { spec, seed: SEED, relation_kind: RelationKind::Both };
        let ds = StockDataset::generate(data.spec.clone(), data.seed);
        let probe =
            WindowSumProbe::new(ProbeConfig { t_steps: T_STEPS, n_features: N_FEATURES }, SCALE);
        let ckpt = checkpoint_probe(&probe, &data).unwrap();
        // Disk round trip so the goldens cover the durable path too.
        let dir = std::env::temp_dir().join(format!("rtgcn-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.rtgckpt");
        ckpt.save(&path).unwrap();
        let ckpt = Checkpoint::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let registry = std::sync::Arc::new(Registry::new());
        let entry = registry.install_checkpoint(&ckpt).unwrap();
        install_routes(std::sync::Arc::clone(&registry));
        let server = Server::start("127.0.0.1:0").unwrap();
        Fixture {
            addr: server.local_addr(),
            version: ckpt.content_id(),
            end_day: entry.end_day,
            ds,
            lock: Mutex::new(()),
            _server: server,
        }
    })
}

fn get(path: &str) -> (u16, String) {
    let f = fixture();
    let _g = f.lock.lock().unwrap();
    roundtrip(f.addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).unwrap()
}

fn post(path: &str, body: &str) -> (u16, String) {
    let f = fixture();
    let _g = f.lock.lock().unwrap();
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    roundtrip(f.addr, raw.as_bytes()).unwrap()
}

/// The vendored `serde_json` float rule, reproduced independently so the
/// goldens are genuinely hand-computed strings.
fn fmt_f64(f: f64) -> String {
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

/// Hand-reproduction of the probe: `score_i = SCALE · Σ_{t,d} x[t,i,d]`,
/// summed in the same order as `WindowSumProbe::score_window` so the f32
/// accumulation is bit-identical.
fn expected_scores(window: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; N_STOCKS];
    for t in 0..T_STEPS {
        for (i, o) in out.iter_mut().enumerate() {
            for d in 0..N_FEATURES {
                *o += window[(t * N_STOCKS + i) * N_FEATURES + d];
            }
        }
    }
    for o in &mut out {
        *o *= SCALE;
    }
    out
}

fn expected_rank_body(k: usize) -> String {
    let f = fixture();
    let window = f.ds.sample(f.end_day, T_STEPS, N_FEATURES).x;
    let scores = expected_scores(window.data());
    let mut order: Vec<usize> = (0..N_STOCKS).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
    order.truncate(k.min(N_STOCKS));
    let ranked: Vec<String> = order
        .iter()
        .map(|&i| format!("{{\"stock\":{i},\"score\":{}}}", fmt_f64(scores[i] as f64)))
        .collect();
    format!(
        "{{\"market\":\"csi\",\"version\":\"{}\",\"k\":{k},\"end_day\":{},\"ranked\":[{}]}}",
        f.version,
        f.end_day,
        ranked.join(",")
    )
}

#[test]
fn rank_default_and_explicit_k_match_goldens() {
    let (status, body) = get("/rank?market=csi&k=2");
    assert_eq!((status, body), (200, expected_rank_body(2)));
    // Default k is 10, which exceeds N=4: the full ranking comes back.
    let (status, body) = get("/rank?market=csi");
    assert_eq!((status, body), (200, expected_rank_body(10)));
}

#[test]
fn rank_k_zero_is_an_empty_ranking() {
    let (status, body) = get("/rank?market=csi&k=0");
    assert_eq!((status, body), (200, expected_rank_body(0)));
    assert!(body_contains_empty_ranked(&expected_rank_body(0)));
}

fn body_contains_empty_ranked(b: &str) -> bool {
    b.ends_with("\"ranked\":[]}")
}

#[test]
fn rank_k_past_universe_clamps_to_all_stocks() {
    let (status, body) = get("/rank?market=csi&k=100");
    assert_eq!((status, body), (200, expected_rank_body(100)));
}

#[test]
fn rank_error_fixtures() {
    assert_eq!(get("/rank?market=tse"), (404, "{\"error\":\"unknown market\"}".to_string()));
    assert_eq!(
        get("/rank"),
        (400, "{\"error\":\"missing required query parameter: market\"}".to_string())
    );
    assert_eq!(
        get("/rank?market=csi&k=banana"),
        (400, "{\"error\":\"k must be a non-negative integer\"}".to_string())
    );
    assert_eq!(post("/rank?market=csi", ""), (405, "{\"error\":\"/rank is GET-only\"}".to_string()));
}

#[test]
fn score_matches_hand_computed_golden() {
    let f = fixture();
    // Window 1..=16 over (T=2, N=4, D=2): stock sums 22, 30, 38, 46 →
    // scaled by 0.5 → 11, 15, 19, 23.
    let window: Vec<String> = (1..=16).map(|v| format!("{v}")).collect();
    let body = format!("{{\"market\":\"csi\",\"window\":[{}]}}", window.join(","));
    let (status, got) = post("/score", &body);
    assert_eq!(
        (status, got),
        (
            200,
            format!(
                "{{\"market\":\"csi\",\"version\":\"{}\",\"scores\":[11.0,15.0,19.0,23.0]}}",
                f.version
            )
        )
    );
}

#[test]
fn score_error_fixtures() {
    assert_eq!(
        post("/score", "not json at all"),
        (400, "{\"error\":\"body is not valid JSON\"}".to_string())
    );
    assert_eq!(
        post("/score", "{\"window\":[1,2]}"),
        (400, "{\"error\":\"body must have a string \\\"market\\\" field\"}".to_string())
    );
    assert_eq!(
        post("/score", "{\"market\":\"csi\"}"),
        (400, "{\"error\":\"body must have a numeric-array \\\"window\\\" field\"}".to_string())
    );
    assert_eq!(
        post("/score", "{\"market\":\"csi\",\"window\":[1,\"x\"]}"),
        (400, "{\"error\":\"window values must be numbers\"}".to_string())
    );
    // 1e39 is a finite JSON number but overflows f32 to inf.
    let overflow = format!("{{\"market\":\"csi\",\"window\":[1e39{}]}}", ",1".repeat(15));
    assert_eq!(
        post("/score", &overflow),
        (400, "{\"error\":\"window values must be finite f32 numbers\"}".to_string())
    );
    assert_eq!(
        post("/score", "{\"market\":\"tse\",\"window\":[1,2]}"),
        (404, "{\"error\":\"unknown market\"}".to_string())
    );
    assert_eq!(
        post("/score", "{\"market\":\"csi\",\"window\":[1,2,3]}"),
        (
            400,
            "{\"error\":\"window must have t_steps*n_stocks*n_features = 16 values, got 3\"}"
                .to_string()
        )
    );
    assert_eq!(get("/score"), (405, "{\"error\":\"/score is POST-only\"}".to_string()));
}

/// A 1 MiB JSON string is decoded in one pass, so the request is answered
/// well within the fixture's 5 s read timeout instead of pinning a server
/// thread on a per-character re-scan of the rest of the body.
#[test]
fn score_with_a_one_mib_market_string_answers_promptly() {
    let body = format!("{{\"market\":\"{}\",\"window\":[]}}", "m".repeat(1 << 20));
    assert_eq!(post("/score", &body), (404, "{\"error\":\"unknown market\"}".to_string()));
}
