//! A hand-rolled HTTP/1.1 subset: exactly what the v1 API needs, nothing
//! more.
//!
//! The parser reads the request head (request line + headers) up to a hard
//! cap, validates `Content-Length` against the configured body budget
//! **before** reading a single body byte — the same refuse-early shape as
//! the pipeline's §7 `OversizedBody` guard — and only then drains the
//! body. Responses are written in one buffered pass with an explicit
//! `Content-Length` (no chunked encoding). Pipelined requests are
//! supported: bytes read past the current request are handed back to the
//! caller through a per-connection carry buffer and seed the next parse.

use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request head (request line + headers). Large enough
/// for any sane client, small enough that a slow-loris peer cannot tie up
/// worker memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// The request target path, without query string.
    pub path: String,
    /// Header names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 requires an
    /// explicit `keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Content-Type, lowercased, parameters stripped (`text/html; charset=x`
    /// → `text/html`).
    pub fn content_type(&self) -> Option<String> {
        self.header("content-type")
            .map(|v| v.split(';').next().unwrap_or(v).trim().to_ascii_lowercase())
    }
}

/// Why a request could not be read. Each variant maps to exactly one HTTP
/// status in [`RequestError::to_response`].
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line or header → 400.
    BadRequest(String),
    /// Head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadersTooLarge,
    /// Declared `Content-Length` over the body budget → 413. The body was
    /// never read.
    BodyTooLarge { len: usize, budget: usize },
    /// The peer went silent mid-request → 408.
    Timeout,
    /// The peer closed or errored mid-request; no response can be sent.
    Disconnected,
}

impl RequestError {
    /// The response to write for this error, if one can be written at all.
    pub fn to_response(&self) -> Option<Response> {
        let (status, code, message) = match self {
            RequestError::BadRequest(m) => (400, "bad_request", m.clone()),
            RequestError::HeadersTooLarge => {
                (431, "headers_too_large", format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
            }
            RequestError::BodyTooLarge { len, budget } => (
                413,
                "body_too_large",
                format!("declared body of {len} bytes exceeds the {budget}-byte limit"),
            ),
            RequestError::Timeout => {
                (408, "timeout", "connection went silent mid-request".to_owned())
            }
            RequestError::Disconnected => return None,
        };
        let body = crate::api::v1::ErrorBody::new(code, message);
        Some(Response::json(status, &body).close())
    }
}

/// Read one request from the stream. `Ok(None)` means the peer closed (or
/// went idle past the read timeout) *between* requests — a clean keep-alive
/// termination, not an error.
///
/// `carry` holds bytes already read from the stream that belong to the
/// *next* request (a pipelining client sends several requests in one
/// write). It seeds this parse and is refilled with whatever this parse
/// reads past its own body; the caller owns it for the connection's
/// lifetime and must not share it across connections.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    carry: &mut Vec<u8>,
) -> Result<Option<Request>, RequestError> {
    // --- head: everything up to \r\n\r\n, capped ---
    let mut head = std::mem::take(carry);
    let mut buf = [0u8; 4096];
    let (head_end, spill) = loop {
        if let Some(pos) = find_head_end(&head) {
            // Bytes past the head belong to the body (or the next request).
            break (pos, head.split_off(pos + 4));
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None); // clean close between requests
                }
                return Err(RequestError::Disconnected);
            }
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                if head.is_empty() {
                    return Ok(None); // idle keep-alive: close silently
                }
                return Err(RequestError::Timeout);
            }
            Err(_) => return Err(RequestError::Disconnected),
        };
        head.extend_from_slice(&buf[..n]);
    };
    head.truncate(head_end);
    let head_text = std::str::from_utf8(&head)
        .map_err(|_| RequestError::BadRequest("request head is not valid UTF-8".into()))?;

    // --- request line ---
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(RequestError::BadRequest(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(RequestError::BadRequest(format!("unsupported version: {version}")));
    }

    // --- headers ---
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::BadRequest(format!("malformed header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let find = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    // --- body: refuse before reading (§7 guard shape) ---
    let content_length: usize = match find("content-length") {
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| RequestError::BadRequest(format!("bad content-length: {v:?}")))?,
        None => 0,
    };
    if find("transfer-encoding").is_some() {
        return Err(RequestError::BadRequest("transfer-encoding is not supported".into()));
    }
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge { len: content_length, budget: max_body });
    }
    // Bytes already read past the head seed the body; anything beyond the
    // declared length belongs to the next pipelined request and goes back
    // into the carry buffer.
    let mut body = spill;
    if body.len() > content_length {
        *carry = body.split_off(content_length);
    }
    while body.len() < content_length {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Err(RequestError::Disconnected),
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(RequestError::Timeout),
            Err(_) => return Err(RequestError::Disconnected),
        };
        let want = content_length - body.len();
        body.extend_from_slice(&buf[..n.min(want)]);
        if n > want {
            carry.extend_from_slice(&buf[want..n]);
        }
    }

    let path = target.split('?').next().unwrap_or(target).to_owned();
    Ok(Some(Request { method: method.to_owned(), path, headers, body, keep_alive }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// An outgoing response, written in one buffered pass.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
    /// Extra headers (`Retry-After`, …).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Force `Connection: close` regardless of the request's wish.
    pub force_close: bool,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Response { status, body, content_type, extra_headers: Vec::new(), force_close: false }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body.into().into_bytes())
    }

    /// Serialize `body` as JSON. Serialization of our own DTOs cannot
    /// fail; a failure would be a server bug, reported as a plain-text 500
    /// rather than a panic.
    pub fn json<T: Serialize>(status: u16, body: &T) -> Self {
        match serde_json::to_string(body) {
            Ok(text) => Response::new(status, "application/json", text.into_bytes()),
            Err(e) => Response::text(500, format!("response serialization failed: {e}")),
        }
    }

    /// JSON error envelope.
    pub fn error(status: u16, code: &str, message: impl Into<String>) -> Self {
        Response::json(status, &crate::api::v1::ErrorBody::new(code, message.into()))
    }

    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    pub fn close(mut self) -> Self {
        self.force_close = true;
        self
    }

    /// Write the response. Returns whether the connection stays open.
    pub fn write_to(&self, stream: &mut TcpStream, request_keep_alive: bool) -> io::Result<bool> {
        let keep_alive = request_keep_alive && !self.force_close;
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        stream.write_all(&out)?;
        stream.flush()?;
        Ok(keep_alive)
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The acceptor's shed response: written directly on the accepted socket
/// when the worker queue is full, without ever parsing the request.
pub fn write_shed_response(stream: &mut TcpStream) {
    let resp = Response::error(503, "shedding_load", "server at capacity, retry shortly")
        .header("retry-after", "1")
        .close();
    // Best effort: the peer may already be gone; shedding must not block
    // the accept loop on a slow reader either, so give it a short timeout.
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(500)));
    if resp.write_to(stream, false).is_ok() {
        drain_before_close(stream);
    }
}

/// Prepare to close a connection whose request was *not* fully read (shed,
/// 4xx before the body, timeout). Closing with unread bytes in the receive
/// buffer makes the kernel send RST instead of FIN, which destroys the
/// error response still sitting in the peer's receive buffer — the client
/// then sees `ECONNRESET` where it should have seen the 503/413. So:
/// half-close the write side (response + FIN go out), then read and
/// discard the remainder of the request, bounded by a short timeout and a
/// byte cap so a trickling peer can't pin the thread.
pub fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let mut scratch = [0u8; 4096];
    let mut budget = 256 * 1024usize;
    loop {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => match budget.checked_sub(n) {
                Some(rest) => budget = rest,
                None => return,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run the parser against raw bytes through a real socket pair.
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Option<Request>, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Half-close so the reader sees EOF after the payload.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let out = read_request(&mut stream, max_body, &mut Vec::new());
        let _ = writer.join();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_raw(
            b"POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\ncontent-length: 12\r\n\r\n{\"html\":\"a\"}",
            1024,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/check");
        assert_eq!(req.body, b"{\"html\":\"a\"}");
        assert!(req.keep_alive);
        assert_eq!(req.content_type().as_deref(), Some("application/json"));
    }

    #[test]
    fn strips_query_string_and_honors_close() {
        let req = parse_raw(b"GET /healthz?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n", 0)
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive);
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let req = parse_raw(b"GET / HTTP/1.0\r\n\r\n", 0).unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(parse_raw(b"NONSENSE\r\n\r\n", 0), Err(RequestError::BadRequest(_))));
        assert!(matches!(
            parse_raw(b"GET noslash HTTP/1.1\r\n\r\n", 0),
            Err(RequestError::BadRequest(_))
        ));
    }

    #[test]
    fn refuses_oversized_body_before_reading_it() {
        // Declared length over budget; only the head is ever sent — the
        // parser must fail fast instead of waiting for body bytes.
        let err = parse_raw(b"POST /v1/check HTTP/1.1\r\ncontent-length: 999999\r\n\r\n", 1024);
        match err {
            Err(RequestError::BodyTooLarge { len, budget }) => {
                assert_eq!(len, 999_999);
                assert_eq!(budget, 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse_raw(b"", 0).unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_survive_in_carry() {
        // Two requests in one write: the first parse must hand the second
        // request's bytes back through the carry, and a second parse seeded
        // from the carry must read it without touching the (now-EOF) stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /v1/check HTTP/1.1\r\ncontent-length: 5\r\n\r\nfirstGET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let mut carry = Vec::new();
        let first = read_request(&mut stream, 1024, &mut carry).unwrap().unwrap();
        assert_eq!(first.body, b"first");
        assert!(!carry.is_empty(), "second request's bytes must land in the carry");
        let second = read_request(&mut stream, 1024, &mut carry).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(carry.is_empty());
        let _ = writer.join();
    }

    #[test]
    fn response_writes_and_parses_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::json(200, &crate::api::v1::ErrorBody::new("x", "y"))
                .header("retry-after", "1")
                .write_to(&mut stream, true)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        t.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("{\"code\":\"x\",\"message\":\"y\"}"));
    }

    /// Every byte `write_to` sends for `resp`.
    fn written(resp: Response, request_keep_alive: bool) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            resp.write_to(&mut stream, request_keep_alive).unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut raw = Vec::new();
        client.read_to_end(&mut raw).unwrap();
        t.join().unwrap();
        raw
    }

    #[test]
    fn response_head_bytes_are_pinned() {
        let ok = written(Response::json(200, &crate::api::v1::ErrorBody::new("x", "y")), true);
        assert_eq!(
            String::from_utf8(ok).unwrap(),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 26\r\n\
             connection: keep-alive\r\n\r\n{\"code\":\"x\",\"message\":\"y\"}"
        );
        let shed = Response::error(503, "shedding_load", "server at capacity, retry shortly")
            .header("retry-after", "1")
            .close();
        assert_eq!(
            String::from_utf8(written(shed, true)).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 70\r\nconnection: close\r\nretry-after: 1\r\n\r\n\
             {\"code\":\"shedding_load\",\"message\":\"server at capacity, retry shortly\"}"
        );
    }
}
