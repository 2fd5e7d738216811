//! The serving side of the HTTP workloads (the real `rtgcn-serve` routes on
//! the real `telemetry::http` server, on loopback) and a minimal client
//! that opens one connection per request, as the server closes each one.

use rtgcn_serve::{install_routes, Registry};
use rtgcn_telemetry::http::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A registry served over HTTP; dropping it stops the server.
pub struct Service {
    pub registry: Arc<Registry>,
    pub addr: SocketAddr,
    _server: Server,
}

impl Service {
    pub fn start(registry: Arc<Registry>) -> Result<Service, String> {
        install_routes(Arc::clone(&registry));
        let server =
            Server::start("127.0.0.1:0").map_err(|e| format!("cannot start the server: {e}"))?;
        Ok(Service {
            registry,
            addr: server.local_addr(),
            _server: server,
        })
    }
}

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time to establish the TCP connection.
    pub connect: Duration,
}

/// Send one raw request and read the reply to the server's close.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let t = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect = t.elapsed();
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut resp = Vec::new();
    stream
        .read_to_end(&mut resp)
        .map_err(|e| format!("read: {e}"))?;
    let resp = String::from_utf8(resp).map_err(|_| "reply is not UTF-8".to_string())?;
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "no HTTP status line in {:?}",
                resp.chars().take(80).collect::<String>()
            )
        })?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply {
        status,
        body,
        connect,
    })
}

/// A GET request, built outside the timed path.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// A POST request, built outside the timed path.
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A 200 reply's body, or the failure as text.
pub fn ok_body(r: Result<Reply, String>) -> Result<String, String> {
    match r {
        Ok(Reply {
            status: 200, body, ..
        }) => Ok(body),
        Ok(Reply { status, body, .. }) => Err(format!("status {status}: {body}")),
        Err(e) => Err(e),
    }
}
