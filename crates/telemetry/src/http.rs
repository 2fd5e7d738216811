//! Hand-rolled HTTP/1.1 observability server — the `rtgcn-monitor`
//! transport. Zero dependencies: a [`std::net::TcpListener`] accept loop on
//! its own thread, a bounded in-flight connection budget, per-connection
//! read/write timeouts, and graceful shutdown on harness exit (the
//! [`crate::Telemetry`] guard's drop).
//!
//! Any harness starts it by setting `RTGCN_MONITOR=<addr>` (e.g.
//! `127.0.0.1:9184`, or `127.0.0.1:0` for an ephemeral port — the bound
//! address is printed to stderr). Built-in endpoints:
//!
//! | endpoint   | body |
//! |------------|------|
//! | `/metrics` | Prometheus text over **all live scopes** ([`crate::render_prometheus_all`]) |
//! | `/healthz` | 200/503 + JSON from the sticky per-model health board |
//! | `/spans`   | top-self-time span table as JSON, per live scope |
//!
//! Extra read-only routes (the bench runner's `/runs`) plug in via
//! [`register_route`] *before* the server starts.
//!
//! The server is read-only and unauthenticated: bind it to loopback
//! (anything else logs a `monitor.non_loopback` warning).
//!
//! Every request records its phases as histograms: `http.queue_ns` (accept
//! to connection thread), `http.read_ns` (head and body), `http.handler_ns`
//! (routing and the handler) and `http.write_ns` (the response).

use crate::{health, spantree};
use parking_lot::Mutex;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request head (request line + headers) larger than this gets a 431.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// POST body larger than this gets a 413 (a feature window for a
/// paper-scale market is well under this).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-connection read/write timeout; a stalled client is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Connections handled concurrently; excess get an immediate 503.
const MAX_INFLIGHT: usize = 8;
/// Rows returned by `/spans` (merged across scopes, by self time).
const SPANS_TOP_K: usize = 100;

// ---------------------------------------------------------------- response

/// A fully-materialised HTTP response; handlers build one of these and the
/// connection thread serialises it (status line, `Content-Length`,
/// `Connection: close`).
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    pub fn json(status: u16, value: &Value) -> Response {
        let body = serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string());
        Response { status, content_type: "application/json", body }
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Send head and body in one write, so the head never waits in its own
    /// segment for the client's acknowledgement.
    fn write_to(&self, stream: &mut TcpStream) {
        let mut msg = Vec::with_capacity(128 + self.body.len());
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            msg,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len()
        );
        msg.extend_from_slice(self.body.as_bytes());
        // Client may have gone away mid-write; nothing useful to do about it.
        let _ = stream.write_all(&msg);
        let _ = stream.flush();
    }
}

// --------------------------------------------------------------- requests

/// A parsed request handed to registered handlers: method (`GET` or
/// `POST` — everything else is rejected before dispatch), the path with
/// the query string stripped, the raw query string, and the request body
/// (empty for GET; bounded by [`MAX_BODY_BYTES`] for POST).
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: String,
    pub body: Vec<u8>,
}

impl Request {
    /// A bodyless GET (handy for tests and internal dispatch).
    pub fn get(path: &str) -> Request {
        let (path, query) = split_target(path);
        Request { method: "GET".to_string(), path, query, body: Vec::new() }
    }

    /// First value of `name` in the query string (`k=v` pairs joined by
    /// `&`; no percent-decoding — route values here are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// The body as UTF-8, or `None` when it isn't valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Split a request target into `(path, query)` at the first `?`.
fn split_target(target: &str) -> (String, String) {
    match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    }
}

// ---------------------------------------------------------------- routes

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

static ROUTES: Mutex<Vec<(String, Handler)>> = Mutex::new(Vec::new());

/// Register (or replace) a route. The handler receives the parsed
/// [`Request`] (method, query string, POST body) and owns its method
/// policy — return a 405 yourself for methods you don't serve. Call before
/// the server starts — typically before `init_harness` runs — though
/// routes added later are picked up too (the table is consulted per
/// request). Paths are matched exactly after the query string is stripped.
pub fn register_route(path: &str, handler: impl Fn(&Request) -> Response + Send + Sync + 'static) {
    let mut routes = ROUTES.lock();
    routes.retain(|(p, _)| p != path);
    routes.push((path.to_string(), Arc::new(handler)));
}

fn dispatch(req: &Request) -> Response {
    let handler: Option<Handler> = {
        let routes = ROUTES.lock();
        routes.iter().find(|(p, _)| p == &req.path).map(|(_, h)| Arc::clone(h))
    };
    let run = |f: &dyn Fn() -> Response| {
        // A panicking handler must not kill the connection thread silently:
        // surface it as a 500 so scrapers see the failure.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| Response::text(500, "handler panicked\n"))
    };
    if let Some(h) = handler {
        return run(&|| h(req));
    }
    // Built-in observability endpoints are read-only: GET only.
    if req.method != "GET" {
        return Response::text(405, "built-in endpoints are GET-only\n");
    }
    match req.path.as_str() {
        "/metrics" => run(&handle_metrics),
        "/healthz" => run(&handle_healthz),
        "/spans" => run(&handle_spans),
        _ => Response::text(404, "not found; try /metrics /healthz /runs /spans\n"),
    }
}

// ------------------------------------------------------- built-in handlers

fn handle_metrics() -> Response {
    Response {
        status: 200,
        // Prometheus text exposition format version marker.
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: crate::render_prometheus_all(),
    }
}

fn handle_healthz() -> Response {
    let worst = health::board_worst();
    let status = if worst == health::HealthVerdict::Diverged { 503 } else { 200 };
    let models: Vec<(String, Value)> = health::board_snapshot()
        .into_iter()
        .map(|(m, v)| (m, Value::Str(v.as_str().to_string())))
        .collect();
    let body = Value::Map(vec![
        ("status".to_string(), Value::Str(worst.as_str().to_string())),
        ("models".to_string(), Value::Map(models)),
    ]);
    Response::json(status, &body)
}

fn handle_spans() -> Response {
    // Merge every live scope's span tree; rows carry the scope's model
    // label so concurrent jobs stay distinguishable.
    let mut rows: Vec<(String, spantree::SpanAgg)> = Vec::new();
    for (i, (label, scope)) in crate::snapshot_scopes().into_iter().enumerate() {
        let model = if i == 0 { "root".to_string() } else if label.is_empty() { format!("scope-{i}") } else { label };
        let raw: Vec<(String, u64, u64, u64, u64)> = {
            let spans = scope.registry.spans.lock();
            spans
                .iter()
                .map(|(p, st)| (p.clone(), st.count, st.total_ns, st.alloc_bytes, st.freed_bytes))
                .collect()
        };
        for agg in spantree::aggregate(raw) {
            rows.push((model.clone(), agg));
        }
    }
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.1.path.cmp(&b.1.path)));
    rows.truncate(SPANS_TOP_K);
    let out: Vec<Value> = rows
        .into_iter()
        .map(|(model, a)| {
            Value::Map(vec![
                ("model".to_string(), Value::Str(model)),
                ("path".to_string(), Value::Str(a.path)),
                ("count".to_string(), Value::U64(a.count)),
                ("total_ns".to_string(), Value::U64(a.total_ns)),
                ("self_ns".to_string(), Value::U64(a.self_ns)),
            ])
        })
        .collect();
    Response::json(200, &Value::Seq(out))
}

// ---------------------------------------------------------------- parsing

enum HeadError {
    /// Head exceeded [`MAX_HEAD_BYTES`] without terminating.
    TooLarge,
    /// Read error, timeout, or the client hung up before `\r\n\r\n`.
    Disconnect,
}

/// Read the request head (through the blank line). Returns the head text
/// plus any body bytes that arrived in the same reads (handed to
/// [`read_body`]).
fn read_head(stream: &mut TcpStream) -> Result<(String, Vec<u8>), HeadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let (end, term_len) = loop {
        if let Some((at, len)) = find_terminator(&buf) {
            break (at, len);
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HeadError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HeadError::Disconnect),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(HeadError::Disconnect),
        }
    };
    let leftover = buf.split_off(end + term_len);
    let head = String::from_utf8(buf).map_err(|_| HeadError::Disconnect)?;
    Ok((head, leftover))
}

/// Position and length of the head terminator (`\r\n\r\n`, tolerant of a
/// bare `\n\n`).
fn find_terminator(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, 4))
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| (p, 2)))
}

/// Parse the request line into `(method, target)`; anything that is not
/// `METHOD SP TARGET SP HTTP/…` is an error.
fn parse_request_line(head: &str) -> Option<(String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || method.is_empty() || !version.starts_with("HTTP/") {
        return None;
    }
    if !target.starts_with('/') {
        return None;
    }
    Some((method.to_string(), target.to_string()))
}

/// The declared `Content-Length`, if any. `Err` on an unparseable value.
fn content_length(head: &str) -> Result<usize, ()> {
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.trim().eq_ignore_ascii_case("content-length") {
            return value.trim().parse::<usize>().map_err(|_| ());
        }
    }
    Ok(0)
}

/// The `want`-byte body: the bytes that arrived with the head, then the
/// rest read straight into a buffer reserved once at the declared length
/// (already capped at [`MAX_BODY_BYTES`]). `None` on disconnect/timeout
/// mid-body.
fn read_body(stream: &mut TcpStream, mut body: Vec<u8>, want: usize) -> Option<Vec<u8>> {
    body.truncate(want);
    body.reserve_exact(want - body.len());
    let rest = (want - body.len()) as u64;
    Read::take(&mut *stream, rest).read_to_end(&mut body).ok()?;
    (body.len() == want).then_some(body)
}

/// Read and parse one request. `Err(Some(reply))` for a request the server
/// refuses; `Err(None)` when the client went away (or timed out) before
/// the request was complete, so nobody is listening for a reply.
fn read_request(stream: &mut TcpStream) -> Result<Request, Option<Response>> {
    let (head, leftover) = match read_head(stream) {
        Ok(h) => h,
        Err(HeadError::TooLarge) => {
            return Err(Some(Response::text(431, "request head exceeds 8 KiB\n")))
        }
        Err(HeadError::Disconnect) => return Err(None),
    };
    match parse_request_line(&head) {
        Some((method, target)) if method == "GET" || method == "POST" => {
            let (path, query) = split_target(&target);
            match content_length(&head) {
                Err(()) => Err(Some(Response::text(400, "unparseable Content-Length\n"))),
                Ok(len) if len > MAX_BODY_BYTES => {
                    Err(Some(Response::text(413, "request body exceeds 4 MiB\n")))
                }
                Ok(len) => {
                    let body = read_body(stream, leftover, len).ok_or(None)?;
                    Ok(Request { method, path, query, body })
                }
            }
        }
        Some(_) => Err(Some(Response::text(405, "only GET and POST are supported\n"))),
        None => Err(Some(Response::text(400, "malformed request line\n"))),
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Serve one connection accepted at `accepted`, recording its phases.
fn handle_connection(mut stream: TcpStream, accepted: Instant) {
    crate::record_ns("http.queue_ns", ns_since(accepted));
    let read = Instant::now();
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let resp = match read_request(&mut stream) {
        Ok(req) => {
            crate::record_ns("http.read_ns", ns_since(read));
            let handler = Instant::now();
            let resp = dispatch(&req);
            crate::record_ns("http.handler_ns", ns_since(handler));
            resp
        }
        Err(Some(refusal)) => refusal,
        Err(None) => return,
    };
    let write = Instant::now();
    resp.write_to(&mut stream);
    crate::record_ns("http.write_ns", ns_since(write));
}

// ---------------------------------------------------------------- server

/// A running monitor server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop and joins the accept thread; in-flight connection
/// threads finish on their own (each is bounded by [`IO_TIMEOUT`]).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and start the accept loop on a named thread.
    pub fn start(addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicUsize::new(0));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("rtgcn-monitor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let accepted = Instant::now();
                    if inflight.load(Ordering::SeqCst) >= MAX_INFLIGHT {
                        // Shed load in the accept thread itself rather than
                        // queueing unboundedly behind slow scrapers.
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        Response::text(503, "too many concurrent connections\n")
                            .write_to(&mut stream);
                        continue;
                    }
                    inflight.fetch_add(1, Ordering::SeqCst);
                    let conn_inflight = Arc::clone(&inflight);
                    let spawned = std::thread::Builder::new()
                        .name("rtgcn-monitor-conn".to_string())
                        .spawn(move || {
                            handle_connection(stream, accepted);
                            conn_inflight.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?;
        Ok(Server { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the accept loop, join the accept thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(t) = self.accept_thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // `accept` blocks; a throwaway self-connection wakes it so it can
        // observe the stop flag. If the connect fails the listener is
        // already dead and the thread exits on the accept error.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        let _ = t.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// --------------------------------------------------------- global monitor

static MONITOR: Mutex<Option<Server>> = Mutex::new(None);

/// Start the process-wide monitor if `RTGCN_MONITOR=<addr>` is set (no-op
/// otherwise, or if one is already running). Called from
/// [`crate::init_harness`], so every harness bin gets it for free.
pub fn start_monitor_from_env() {
    let Ok(addr) = std::env::var("RTGCN_MONITOR") else { return };
    let addr = addr.trim().to_string();
    if addr.is_empty() {
        return;
    }
    start_monitor(&addr);
}

/// Start the process-wide monitor on `addr`; idempotent. A bind failure is
/// a warning, never fatal — experiments must not die because a port is
/// taken.
pub fn start_monitor(addr: &str) {
    let mut slot = MONITOR.lock();
    if slot.is_some() {
        return;
    }
    match Server::start(addr) {
        Ok(server) => {
            let local = server.local_addr();
            eprintln!("[rtgcn-monitor] listening on http://{local} (metrics, healthz, runs, spans)");
            if !local.ip().is_loopback() {
                crate::warn(
                    "monitor.non_loopback",
                    "RTGCN_MONITOR is bound to a non-loopback address; the monitor is \
                     read-only but unauthenticated",
                );
            }
            *slot = Some(server);
        }
        Err(e) => {
            crate::warn("monitor.bind_failed", &format!("cannot bind RTGCN_MONITOR={addr}: {e}"));
        }
    }
}

/// The bound address of the running process-wide monitor, if any. This is
/// how tests and the smoke binary resolve `127.0.0.1:0`.
pub fn monitor_addr() -> Option<SocketAddr> {
    MONITOR.lock().as_ref().map(Server::local_addr)
}

/// Stop the process-wide monitor (no-op when not running). Called from the
/// [`crate::Telemetry`] guard's drop so the port is released before the
/// process exits.
pub fn shutdown_monitor() {
    let server = MONITOR.lock().take();
    if let Some(s) = server {
        s.shutdown();
    }
}

// ------------------------------------------------------------------ client

/// Connect and read timeout of [`roundtrip`].
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Minimal blocking client for smoke harnesses and tests: send the raw
/// request bytes to `addr` on a fresh connection, read the reply to EOF (the
/// server always answers `Connection: close`) and return its status code
/// and body. Connecting and reading each time out after 5 s.
pub fn roundtrip(addr: SocketAddr, raw: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp).map_err(|e| format!("read: {e}"))?;
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no HTTP status line in {resp:?}"))?;
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}
