//! `POST /advance` end-to-end: day-advance a served market through the
//! streaming pipeline over live HTTP, and check that the registry's
//! `/rank` snapshot actually rolls forward — new `+d<day>` version, new
//! end day, streamed scores. Uses the [`WindowSumProbe`] family on a
//! shrunken NASDAQ universe (the CSI fixture has zero wiki relation
//! types, so edge-add events would be unrepresentable there).

use rtgcn_core::DataSpec;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::probe::{ProbeConfig, WindowSumProbe};
use rtgcn_serve::servable::checkpoint_probe;
use rtgcn_serve::{install_routes, Registry};
use rtgcn_telemetry::http::{roundtrip, Server};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};

const T_STEPS: usize = 2;
const N_FEATURES: usize = 2;
const SEED: u64 = 19;

struct Fixture {
    addr: SocketAddr,
    registry: Arc<Registry>,
    ckpt: rtgcn_core::Checkpoint,
    /// Pristine copy of the served dataset, for picking valid mutations.
    ds: StockDataset,
    /// Serialises tests: routes and registry are shared.
    lock: Mutex<()>,
    _server: Server,
}

fn spec() -> UniverseSpec {
    let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
    spec.stocks = 6;
    spec.train_days = 12;
    spec.test_days = 3;
    spec.sectors = 2;
    spec
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = DataSpec { spec: spec(), seed: SEED, relation_kind: RelationKind::Both };
        let ds = StockDataset::generate(data.spec.clone(), data.seed);
        let probe =
            WindowSumProbe::new(ProbeConfig { t_steps: T_STEPS, n_features: N_FEATURES }, 0.5);
        let ckpt = checkpoint_probe(&probe, &data).unwrap();
        let registry = Arc::new(Registry::new());
        registry.install_checkpoint(&ckpt).unwrap();
        install_routes(Arc::clone(&registry));
        let server = Server::start("127.0.0.1:0").unwrap();
        Fixture {
            addr: server.local_addr(),
            registry,
            ckpt,
            ds,
            lock: Mutex::new(()),
            _server: server,
        }
    })
}

fn get(path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    roundtrip(fixture().addr, raw.as_bytes()).unwrap()
}

fn post(path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    roundtrip(fixture().addr, raw.as_bytes()).unwrap()
}

fn field_u64(body: &str, key: &str) -> u64 {
    let parsed = serde_json::from_str::<serde::Value>(body).unwrap();
    parsed.get(key).and_then(serde::Value::as_u64).unwrap_or_else(|| panic!("no {key} in {body}"))
}

fn field_str(body: &str, key: &str) -> String {
    let parsed = serde_json::from_str::<serde::Value>(body).unwrap();
    parsed
        .get(key)
        .and_then(serde::Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .to_string()
}

#[test]
fn advance_rolls_rank_snapshot_forward_over_http() {
    let f = fixture();
    let _g = f.lock.lock().unwrap();
    let base = f.ckpt.content_id();
    // Reset any stream state left by other tests in this binary.
    f.registry.install_checkpoint(&f.ckpt).unwrap();
    let day0 = f.ds.days_generated() - 1;

    // One plain day: the stream seeds from the full generated history, so
    // the first advanced day is `day0 + 1`.
    let (status, body) = post("/advance", "{\"market\":\"nasdaq\"}");
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_str(&body, "market"), "nasdaq");
    assert_eq!(field_str(&body, "version"), format!("{base}+d{}", day0 + 1));
    assert_eq!(field_u64(&body, "end_day"), (day0 + 1) as u64);
    assert_eq!(field_u64(&body, "days"), 1);
    assert_eq!(field_u64(&body, "refits"), 0);
    let parsed = serde_json::from_str::<serde::Value>(&body).unwrap();
    assert!(parsed.get("mrr").and_then(serde::Value::as_f64).is_some(), "mrr settles: {body}");
    assert!(parsed.get("cum_irr").and_then(serde::Value::as_f64).is_some());

    // /rank now serves the rolled snapshot: streamed version + end day,
    // and scores matching a hand-run of the probe on the streamed day.
    let (status, rank) = get("/rank?market=nasdaq&k=3");
    assert_eq!(status, 200, "{rank}");
    assert_eq!(field_str(&rank, "version"), format!("{base}+d{}", day0 + 1));
    assert_eq!(field_u64(&rank, "end_day"), (day0 + 1) as u64);

    // Two more days with one add and one drop event (picked from the
    // pristine dataset: mutations to other pairs don't invalidate them).
    let n = f.ds.n_stocks();
    let (da, db, _) = f.ds.wiki.relations.pairs().next().expect("nasdaq has wiki pairs");
    let (mut aa, mut ab) = (usize::MAX, usize::MAX);
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            if !f.ds.wiki.relations.related(i, j) {
                (aa, ab) = (i, j);
                break 'outer;
            }
        }
    }
    assert_ne!(aa, usize::MAX, "no unrelated pair in the fixture universe");
    let body = format!(
        "{{\"market\":\"nasdaq\",\"days\":2,\
         \"add\":[{{\"leader\":{aa},\"follower\":{ab},\"types\":[0],\"strength\":0.4,\"period\":10}}],\
         \"drop\":[[{da},{db}]]}}"
    );
    let (status, resp) = post("/advance", &body);
    assert_eq!(status, 200, "{resp}");
    assert_eq!(field_str(&resp, "version"), format!("{base}+d{}", day0 + 3));
    assert_eq!(field_u64(&resp, "end_day"), (day0 + 3) as u64);
    assert_eq!(field_u64(&resp, "days"), 2);

    // Hot-swapping the checkpoint back drops the stream: the next advance
    // starts over from the freshly generated history.
    f.registry.install_checkpoint(&f.ckpt).unwrap();
    let (_, rank) = get("/rank?market=nasdaq&k=1");
    assert_eq!(field_str(&rank, "version"), base, "reinstall resets the served version");
    let (status, resp) = post("/advance", "{\"market\":\"nasdaq\"}");
    assert_eq!(status, 200, "{resp}");
    assert_eq!(field_str(&resp, "version"), format!("{base}+d{}", day0 + 1));
}

#[test]
fn advance_error_fixtures() {
    let f = fixture();
    let _g = f.lock.lock().unwrap();
    assert_eq!(
        post("/advance", "{\"market\":\"tse\"}"),
        (404, "{\"error\":\"unknown market\"}".to_string())
    );
    assert_eq!(
        post("/advance", "not json"),
        (400, "{\"error\":\"body is not valid JSON\"}".to_string())
    );
    assert_eq!(
        post("/advance", "{\"days\":1}"),
        (400, "{\"error\":\"body must have a string \\\"market\\\" field\"}".to_string())
    );
    assert_eq!(
        post("/advance", "{\"market\":\"nasdaq\",\"days\":0}"),
        (400, "{\"error\":\"days must be an integer in 1..=365\"}".to_string())
    );
    assert_eq!(
        post("/advance", "{\"market\":\"nasdaq\",\"drop\":[[0]]}"),
        (400, "{\"error\":\"each drop must be a two-element [a,b] stock pair\"}".to_string())
    );
    assert_eq!(
        post("/advance", "{\"market\":\"nasdaq\",\"add\":[{\"leader\":0,\"types\":[0]}]}"),
        (400, "{\"error\":\"each add edge needs an integer \\\"follower\\\"\"}".to_string())
    );
    // Screened before reaching `apply_event` (which would panic): a
    // relation type past the universe's wiki type count.
    let (status, body) = post(
        "/advance",
        "{\"market\":\"nasdaq\",\"add\":[{\"leader\":0,\"follower\":1,\"types\":[9999]}]}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("relation type out of range"), "{body}");
    // A zero period would divide-by-zero inside the simulator's activity
    // cycle; screened at parse time.
    let (status, body) = post(
        "/advance",
        "{\"market\":\"nasdaq\",\"add\":[{\"leader\":0,\"follower\":1,\"types\":[0],\"period\":0}]}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("period must be at least 1"), "{body}");
    assert_eq!(
        get("/advance"),
        (405, "{\"error\":\"/advance is POST-only\"}".to_string())
    );
}
