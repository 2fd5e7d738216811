//! Tests for the `rtgcn-monitor` HTTP layer (`telemetry::http`): endpoint
//! behaviour, protocol hardening (malformed request lines, oversized
//! headers, premature disconnects, concurrent scrapes), and a property test
//! that every line `/metrics` can produce matches the Prometheus text
//! exposition grammar.
//!
//! Each test starts its own [`tel::http::Server`] on `127.0.0.1:0`, so
//! tests never share a port; tests that mutate process-global telemetry
//! state (registries, the health board) hold the telemetry test lock.

use proptest::prelude::*;
use rtgcn_telemetry as tel;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn start() -> tel::http::Server {
    tel::http::Server::start("127.0.0.1:0").expect("bind 127.0.0.1:0")
}

/// Send raw bytes, read the whole response (the server always closes).
fn raw_request(server: &tel::http::Server, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // The server may respond (431) before we finish writing; ignore EPIPE.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn get(server: &tel::http::Server, path: &str) -> String {
    raw_request(server, format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::count("http.test.metric", 3);
    let server = start();
    let resp = get(&server, "/metrics");
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("Content-Type: text/plain; version=0.0.4"), "{resp}");
    // The root scope's counter and the build-info satellite both render.
    assert!(resp.contains("rtgcn_http_test_metric_total 3"), "{resp}");
    assert!(resp.contains("# TYPE rtgcn_build_info gauge"), "{resp}");
    assert!(resp.contains("rtgcn_process_uptime_seconds"), "{resp}");
}

#[test]
fn healthz_is_200_until_a_model_diverges_then_sticky_503() {
    let _g = tel::test_lock();
    tel::health::board_reset();
    let server = start();
    tel::health::board_record("LSTM", tel::health::HealthVerdict::Healthy);
    let resp = get(&server, "/healthz");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(body_of(&resp).contains("\"Healthy\""), "{resp}");

    tel::health::board_record("RT-GCN (U)", tel::health::HealthVerdict::Diverged);
    let resp = get(&server, "/healthz");
    assert_eq!(status_of(&resp), 503, "{resp}");
    assert!(body_of(&resp).contains("\"Diverged\""), "{resp}");

    // Sticky: a later healthy epoch must not clear the divergence.
    tel::health::board_record("RT-GCN (U)", tel::health::HealthVerdict::Healthy);
    let resp = get(&server, "/healthz");
    assert_eq!(status_of(&resp), 503, "verdicts are sticky-max: {resp}");
    tel::health::board_reset();
}

#[test]
fn spans_endpoint_returns_parseable_json_rows() {
    let _g = tel::test_scope(tel::Level::Summary);
    {
        let _outer = tel::span("fit");
        let _inner = tel::span("epoch");
    }
    let server = start();
    let resp = get(&server, "/spans");
    assert_eq!(status_of(&resp), 200);
    let v: serde_json::Value = serde_json::from_str(body_of(&resp)).expect("valid JSON");
    let rows = v.as_seq().expect("top-level array");
    assert!(
        rows.iter().any(|r| {
            r.as_map().is_some_and(|m| {
                m.iter().any(|(k, v)| k == "path" && v.as_str() == Some("fit/epoch"))
            })
        }),
        "expected fit/epoch row in {resp}"
    );
}

#[test]
fn malformed_request_lines_get_400() {
    let server = start();
    for bad in [
        "GARBAGE\r\n\r\n",
        "GET /metrics\r\n\r\n",                  // missing HTTP version
        "GET /metrics HTTP/1.1 extra\r\n\r\n",   // four tokens
        "GET metrics HTTP/1.1\r\n\r\n",          // target without leading /
        " / HTTP/1.1\r\n\r\n",                   // empty method
    ] {
        let resp = raw_request(&server, bad.as_bytes());
        assert_eq!(status_of(&resp), 400, "request {bad:?} got {resp:?}");
    }
}

#[test]
fn non_get_methods_get_405_and_unknown_paths_404() {
    let server = start();
    let resp = raw_request(&server, b"POST /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&resp), 405, "{resp}");
    let resp = get(&server, "/nope");
    assert_eq!(status_of(&resp), 404, "{resp}");
    // Query strings are stripped before routing.
    let _g = tel::test_scope(tel::Level::Summary);
    let resp = get(&server, "/metrics?x=1");
    assert_eq!(status_of(&resp), 200, "{resp}");
}

#[test]
fn oversized_request_head_gets_431() {
    let server = start();
    let mut req = String::from("GET /metrics HTTP/1.1\r\n");
    while req.len() <= tel::http::MAX_HEAD_BYTES + 1024 {
        req.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    req.push_str("\r\n");
    let resp = raw_request(&server, req.as_bytes());
    assert_eq!(status_of(&resp), 431, "{resp:?}");
}

#[test]
fn premature_disconnect_leaves_server_serving() {
    let server = start();
    for _ in 0..3 {
        // Half a request line, then hang up.
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut s = stream;
        let _ = s.write_all(b"GET /metr");
        drop(s);
    }
    let _g = tel::test_scope(tel::Level::Summary);
    let resp = get(&server, "/metrics");
    assert_eq!(status_of(&resp), 200, "server must survive disconnects: {resp}");
}

/// Register `path` as a route that replies with the request body; the
/// returned counter counts its calls.
fn echo_route(path: &str) -> Arc<AtomicUsize> {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    tel::http::register_route(path, move |req| {
        counted.fetch_add(1, Ordering::SeqCst);
        tel::http::Response::text(200, req.body_str().unwrap_or("<not utf-8>"))
    });
    calls
}

#[test]
fn a_body_sent_one_byte_per_write_arrives_intact() {
    echo_route("/echo-bytewise");
    let server = start();
    let body: String = (0..600).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let head = format!("POST /echo-bytewise HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).unwrap();
    for b in body.bytes() {
        stream.write_all(&[b]).unwrap();
    }
    let mut resp = String::new();
    let _ = stream.read_to_string(&mut resp);
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert_eq!(body_of(&resp), body);
}

#[test]
fn a_short_body_then_a_hang_up_gets_no_reply() {
    let calls = echo_route("/echo-short");
    let server = start();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
        .write_all(b"POST /echo-short HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly ten b")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    let _ = stream.read_to_string(&mut resp);
    assert_eq!(resp, "", "a truncated request must not be answered");
    assert_eq!(calls.load(Ordering::SeqCst), 0, "the handler must not run");
}

/// Sample count of a histogram in the root scope, where connection threads
/// record (a fresh thread has entered no scope).
fn root_histogram_count(name: &'static str) -> u64 {
    std::thread::spawn(move || tel::histogram(name).count()).join().unwrap()
}

#[test]
fn every_request_records_its_phases() {
    let _g = tel::test_scope(tel::Level::Summary);
    let before = root_histogram_count("http.write_ns");
    let server = start();
    let resp = get(&server, "/nope");
    assert_eq!(status_of(&resp), 404, "{resp}");
    // The connection thread records the write phase after replying.
    for _ in 0..200 {
        if root_histogram_count("http.write_ns") > before {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for phase in ["http.queue_ns", "http.read_ns", "http.handler_ns", "http.write_ns"] {
        assert!(root_histogram_count(phase) >= 1, "{phase} has no sample");
    }
}

#[test]
fn concurrent_scrapes_all_succeed() {
    let _g = tel::test_scope(tel::Level::Summary);
    tel::count("http.concurrent.metric", 1);
    let server = start();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
                let mut out = String::new();
                let _ = stream.read_to_string(&mut out);
                out
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().expect("scrape thread");
        assert_eq!(status_of(&resp), 200, "{resp}");
        assert!(resp.contains("rtgcn_http_concurrent_metric_total 1"), "{resp}");
    }
}

#[test]
fn shutdown_releases_the_port_and_stops_serving() {
    let server = start();
    let addr = server.local_addr();
    server.shutdown();
    // A fresh bind on the same port must now succeed.
    let rebound = tel::http::Server::start(&addr.to_string()).expect("rebind after shutdown");
    rebound.shutdown();
}

// ----------------------------------------------------- exposition grammar

/// `true` if `s` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` if `s` is a valid label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validate one sample line: `name{label="value",...} value`. Returns an
/// error message naming the offence.
fn validate_sample_line(line: &str) -> Result<(), String> {
    let name_end = line.find(['{', ' ']).ok_or("no name terminator")?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        // Parse label pairs char by char, honouring \" escapes.
        let mut chars = after_brace.char_indices().peekable();
        loop {
            // label name up to '='
            let start = match chars.peek() {
                Some(&(i, _)) => i,
                None => return Err("unterminated label set".into()),
            };
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or("label without '='")?;
            if !valid_label_name(&after_brace[start..eq]) {
                return Err(format!("invalid label name {:?}", &after_brace[start..eq]));
            }
            match chars.next() {
                Some((_, '"')) => {}
                other => return Err(format!("label value must start with '\"', got {other:?}")),
            }
            // label value: consume until unescaped '"'
            let mut escaped = false;
            let mut closed = false;
            for (_, c) in chars.by_ref() {
                if escaped {
                    if !matches!(c, '\\' | '"' | 'n') {
                        return Err(format!("invalid escape \\{c}"));
                    }
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    closed = true;
                    break;
                } else if c == '\n' {
                    return Err("raw newline in label value".into());
                }
            }
            if !closed {
                return Err("unterminated label value".into());
            }
            match chars.next() {
                Some((_, ',')) => continue,
                Some((j, '}')) => {
                    rest = &after_brace[j + 1..];
                    break;
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    let value = rest.strip_prefix(' ').ok_or("no space before value")?;
    if value.is_empty() || value.contains(' ') {
        // (no timestamps in our output, so exactly one value token)
        return Err(format!("bad value field {value:?}"));
    }
    match value {
        "+Inf" | "-Inf" | "NaN" => Ok(()),
        v => v.parse::<f64>().map(|_| ()).map_err(|e| format!("unparseable value {v:?}: {e}")),
    }
}

/// Validate a whole exposition body: comment lines are well-formed
/// HELP/TYPE with valid names and known types; everything else is a valid
/// sample line; TYPE appears at most once per family.
fn validate_exposition(text: &str) {
    let mut seen_type: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let kw = it.next().unwrap_or("");
            let name = it.next().unwrap_or("");
            assert!(kw == "HELP" || kw == "TYPE", "unknown comment keyword in {line:?}");
            assert!(valid_metric_name(name), "invalid family name in {line:?}");
            if kw == "TYPE" {
                let kind = it.next().unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                    "unknown type in {line:?}"
                );
                assert!(!seen_type.contains(&name.to_string()), "duplicate TYPE for {name}");
                seen_type.push(name.to_string());
            }
            continue;
        }
        if let Err(e) = validate_sample_line(line) {
            panic!("bad sample line {line:?}: {e}");
        }
    }
}

/// Characters deliberately hostile to the exposition format: dots and
/// slashes (name sanitisation), quotes/backslashes/newlines (label value
/// escaping), unicode, spaces, leading digits.
const HOSTILE: [char; 14] =
    ['a', 'Z', '7', '.', '-', '/', ' ', '"', '\\', '\n', 'é', '_', '{', '}'];

fn hostile_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..HOSTILE.len(), 1..12)
        .prop_map(|ix| ix.into_iter().map(|i| HOSTILE[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever metric/span names and values land in the registries, every
    /// line of the merged /metrics body obeys the exposition grammar.
    #[test]
    fn every_rendered_metric_line_matches_the_grammar(
        names in proptest::collection::vec(hostile_string(), 1..5),
        counts in proptest::collection::vec(0u64..1000, 1..5),
        gauge_vals in proptest::collection::vec(-1.0e12f64..1.0e12, 1..4),
        span_name in hostile_string(),
    ) {
        let _g = tel::test_scope(tel::Level::Summary);
        for (i, name) in names.iter().enumerate() {
            tel::count(name, counts[i % counts.len()]);
        }
        for (i, v) in gauge_vals.iter().enumerate() {
            tel::gauge("prop.gauge", i as u64, *v);
        }
        tel::gauge("prop.nan", 0, f64::NAN);
        tel::record_ns("prop.hist", 123);
        tel::record_ns("prop.hist", 456_789);
        drop(tel::span(&span_name));
        let scope = tel::ModelScope::new();
        scope.emit(&tel::Event::meta("model", &span_name));
        {
            let _e = scope.enter();
            tel::count("prop.scoped", 1);
        }
        let text = tel::render_prometheus_all();
        validate_exposition(&text);
        prop_assert!(!text.contains("NaN"), "non-finite values must be skipped:\n{text}");
    }
}
