//! A minimal concurrent HTTP/1.1 load generator for `hva serve`.
//!
//! Used three ways: by `benches/serve.rs` for round-trip latency numbers,
//! by `examples/loadgen.rs` as the CI serve-smoke driver (DESIGN §10), and
//! by the root `tests/serve_api.rs` saturation
//! test. It is a *client* — it speaks just enough HTTP/1.1 to exercise the
//! server's wire surface: one `POST /v1/check` per request, `Content-Length`
//! framed, `Connection: close` (each request is a fresh connection, so the
//! acceptor's backpressure path — the whole point of the exercise — is in
//! play on every single request).
//!
//! Outcome taxonomy mirrors the ISSUE acceptance language: a request is
//! *dropped* only when no HTTP response came back at all (`failed`);
//! a 503 with `Retry-After` is *shed*, which is the server keeping its
//! promise under overload, not a drop.

use hv_core::DurationHistogram;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one load run should do.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:8077`.
    pub addr: String,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Requests each client sends, sequentially.
    pub requests_per_client: usize,
    /// HTML payload sent as the raw `text/html` body of `POST /v1/check`.
    pub body: String,
    /// Per-connection read/write timeout.
    pub timeout: Duration,
}

impl LoadgenOptions {
    pub fn new(addr: impl Into<String>) -> Self {
        LoadgenOptions {
            addr: addr.into(),
            clients: 4,
            requests_per_client: 200,
            body: crate::violating_page(),
            timeout: Duration::from_secs(10),
        }
    }
}

/// Aggregated outcome of one load run. Addition-only, so per-client stats
/// merge associatively.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct LoadStats {
    /// Requests attempted (`clients * requests_per_client`).
    pub sent: u64,
    /// 200 responses with a parseable `CheckResponse` body.
    pub ok: u64,
    /// 503 responses (load shed). `shed_with_retry_after` counts how many
    /// of them carried the promised `Retry-After` header.
    pub shed: u64,
    pub shed_with_retry_after: u64,
    /// Other 4xx responses (should be zero for well-formed requests).
    pub client_errors: u64,
    /// 5xx responses other than 503 (should be zero).
    pub server_errors: u64,
    /// No HTTP response at all: connect/write/read error or garbage bytes.
    /// These are the *dropped* requests the acceptance criterion forbids.
    pub failed: u64,
    /// Findings summed over all `ok` responses — a cheap end-to-end
    /// correctness pulse (0 on a violating payload means something lied).
    pub findings_total: u64,
    /// Round-trip latency (connect → full response read), log₂ buckets.
    pub latency: DurationHistogram,
}

impl LoadStats {
    pub fn merge(&mut self, other: &LoadStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.shed_with_retry_after += other.shed_with_retry_after;
        self.client_errors += other.client_errors;
        self.server_errors += other.server_errors;
        self.failed += other.failed;
        self.findings_total += other.findings_total;
        self.latency.merge(&other.latency);
    }

    /// True when every well-formed request was answered: served or shed,
    /// never dropped, and every shed response carried `Retry-After`.
    pub fn all_answered(&self) -> bool {
        self.failed == 0
            && self.client_errors == 0
            && self.server_errors == 0
            && self.shed_with_retry_after == self.shed
            && self.ok + self.shed == self.sent
    }
}

/// One parsed HTTP response: status code, (lowercased-name, value) headers,
/// body bytes.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Send one request over a fresh connection and read the full response.
/// `body` is sent verbatim with the given `content_type`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    read_response(&mut stream)
}

/// `POST /v1/check` with a raw `text/html` body.
pub fn post_check(addr: &str, html: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    request(addr, "POST", "/v1/check", "text/html", html.as_bytes(), timeout)
}

/// Read and parse one `Connection: close`-framed HTTP response.
fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_response(raw: &[u8]) -> Option<HttpResponse> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let status: u16 = parts.next()?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':')?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let body_start = head_end + 4;
    let body = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            let len: usize = v.parse().ok()?;
            raw.get(body_start..body_start + len)?.to_vec()
        }
        None => raw[body_start..].to_vec(),
    };
    Some(HttpResponse { status, headers, body })
}

/// Count of `"kind"` occurrences in a `CheckResponse` body — a dependency-
/// free proxy for the findings count (each finding object has exactly one).
fn findings_in(body: &str) -> u64 {
    body.matches("\"kind\"").count() as u64
}

/// Run the load: `clients` threads, each sending `requests_per_client`
/// sequential `POST /v1/check` requests, every one on a fresh connection.
pub fn run(opts: &LoadgenOptions) -> LoadStats {
    let (tx, rx) = mpsc::channel::<LoadStats>();
    std::thread::scope(|scope| {
        for client in 0..opts.clients {
            let tx = tx.clone();
            let opts = &*opts;
            scope.spawn(move || {
                let mut stats = LoadStats::default();
                for _ in 0..opts.requests_per_client {
                    stats.sent += 1;
                    let started = Instant::now();
                    match post_check(&opts.addr, &opts.body, opts.timeout) {
                        Ok(resp) => {
                            stats.latency.record(started.elapsed().as_nanos() as u64);
                            match resp.status {
                                200 => {
                                    stats.ok += 1;
                                    stats.findings_total += findings_in(resp.body_str());
                                }
                                503 => {
                                    stats.shed += 1;
                                    if resp.header("retry-after").is_some() {
                                        stats.shed_with_retry_after += 1;
                                    }
                                }
                                400..=499 => stats.client_errors += 1,
                                _ => stats.server_errors += 1,
                            }
                        }
                        Err(_) => stats.failed += 1,
                    }
                }
                let _ = tx.send(stats);
                let _ = client;
            });
        }
    });
    drop(tx);
    let mut total = LoadStats::default();
    for stats in rx {
        total.merge(&stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_response() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                    content-length: 2\r\n\r\n{}";
        let resp = parse_response(raw).expect("parse");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        assert_eq!(resp.body_str(), "{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all\r\n\r\n").is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 99\r\n\r\nshort").is_none());
    }

    #[test]
    fn stats_merge_and_answered() {
        let mut a =
            LoadStats { sent: 3, ok: 2, shed: 1, shed_with_retry_after: 1, ..Default::default() };
        let b = LoadStats { sent: 1, ok: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.sent, 4);
        assert!(a.all_answered());
        a.failed += 1;
        a.sent += 1;
        assert!(!a.all_answered());
    }

    #[test]
    fn end_to_end_against_a_live_server() {
        let server = hv_server::serve(
            hv_server::ServeOptions::new().addr("127.0.0.1:0").threads(2).queue_depth(16),
        )
        .expect("server starts");
        let addr = server.addr().to_string();
        let mut opts = LoadgenOptions::new(&addr);
        opts.clients = 2;
        opts.requests_per_client = 5;
        let stats = run(&opts);
        server.shutdown();
        assert_eq!(stats.sent, 10);
        assert!(stats.all_answered(), "unexpected outcomes: {stats:?}");
        assert!(stats.ok >= 1);
        assert!(stats.findings_total >= stats.ok, "violating payload must yield findings");
        assert_eq!(stats.latency.count, stats.ok + stats.shed);
    }
}
