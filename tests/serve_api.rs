//! Integration: the `hva serve` HTTP layer over real TCP.
//!
//! The contract under test is the ISSUE's acceptance list: concurrent
//! clients get byte-identical findings to the in-process `Battery` path
//! (what `hva check` runs), saturation answers 503 with `Retry-After`
//! instead of dropping connections, an oversized body is refused with 413
//! before the server reads it, a malformed request line gets 400, and
//! graceful shutdown finishes in-flight requests.

use html_violations::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Minimal HTTP/1.1 client: one request on a fresh connection,
/// `Connection: close`, returns (status line, lowercased header block, body).
fn roundtrip(addr: &str, raw_head_and_body: &[u8]) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(raw_head_and_body).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let head_end = text.find("\r\n\r\n").expect("response head");
    let (head, body) = text.split_at(head_end);
    let status = head.lines().next().unwrap_or("").to_string();
    (status, head.to_ascii_lowercase(), body[4..].to_string())
}

fn post(addr: &str, path: &str, content_type: &str, body: &[u8]) -> (String, String, String) {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         content-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    roundtrip(addr, &req)
}

fn start(opts: ServeOptions) -> (hv_server::Server, String) {
    let server = serve(opts).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

/// What `hva check` computes for a page, serialized exactly as the server
/// serializes it.
fn expected_check_json(page: &str) -> String {
    let report = Battery::full().run_str(page);
    serde_json::to_string(&CheckResponse::from(&report)).expect("serialize")
}

#[test]
fn concurrent_clients_get_byte_identical_findings() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(3).queue_depth(32));

    let pages: Vec<String> = vec![
        r#"<img src="logo.png"onerror="alert(1)">"#.into(),
        "<!DOCTYPE html><html><head><title>t</title></head><body>\
         <img src=a src=b><table><tr><b>x</b></tr></table></body></html>"
            .into(),
        "<p>perfectly clean paragraph</p>".into(),
        concat!(
            "<math><mtext><table><mglyph><style><!--</style>",
            "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
        )
        .into(),
    ];

    std::thread::scope(|scope| {
        for client in 0..4 {
            let addr = &addr;
            let pages = &pages;
            scope.spawn(move || {
                for (i, page) in pages.iter().enumerate() {
                    let expected = expected_check_json(page);
                    // Alternate raw-HTML and JSON-envelope request shapes.
                    let (status, _, body) = if (client + i) % 2 == 0 {
                        post(addr, "/v1/check", "text/html", page.as_bytes())
                    } else {
                        let req =
                            serde_json::to_string(&CheckRequest { html: page.clone() }).unwrap();
                        post(addr, "/v1/check", "application/json", req.as_bytes())
                    };
                    assert!(status.contains("200"), "client {client} page {i}: {status}");
                    assert_eq!(body, expected, "client {client} page {i} response diverged");
                }
            });
        }
    });

    server.shutdown();
}

#[test]
fn saturation_sheds_with_retry_after() {
    // One worker, one queue slot. Park the worker on a half-sent request,
    // fill the single slot, and every further connection must be shed.
    let (server, addr) = start(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .threads(1)
            .queue_depth(1)
            .read_timeout(Duration::from_secs(2)),
    );

    // Occupy the only worker: a connection with an unfinished request
    // head blocks it in `read_request` until the 2s read timeout.
    let mut parked = TcpStream::connect(&addr).expect("connect");
    parked.write_all(b"POST /v1/check HTTP/1.1\r\nhost: t\r\n").expect("partial write");
    std::thread::sleep(Duration::from_millis(100));

    // Flood with *concurrent* clients (a sequential flood would wait for
    // each answer and never fill the 1-deep queue). One of them lands in
    // the queue slot and is served once the worker frees up; the rest must
    // be answered 503 + Retry-After — never dropped.
    let results: Vec<(String, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || post(addr, "/v1/check", "text/html", b"<p>x</p>"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("flood client answered")).collect()
    });
    let mut shed = 0;
    for (status, head, body) in &results {
        assert!(
            status.contains("200") || status.contains("503"),
            "expected 200 or 503 under saturation, got {status}"
        );
        if status.contains("503") {
            assert!(head.contains("retry-after:"), "503 without retry-after:\n{head}");
            assert!(body.contains("shedding_load"), "unexpected shed body: {body}");
            shed += 1;
        }
    }
    assert!(shed > 0, "concurrent flood of 12 against a full 1-deep queue never shed");

    drop(parked);
    server.shutdown();
}

#[test]
fn oversized_body_is_refused_with_413() {
    let (server, addr) =
        start(ServeOptions::new().addr("127.0.0.1:0").threads(1).queue_depth(4).max_body(1024));

    let big = "x".repeat(10_000);
    let (status, _, body) = post(&addr, "/v1/check", "text/html", big.as_bytes());
    assert!(status.contains("413"), "oversized body: {status}");
    assert!(body.contains("body_too_large"), "unexpected 413 body: {body}");

    // A body within budget still works.
    let (status, _, _) = post(&addr, "/v1/check", "text/html", b"<p>ok</p>");
    assert!(status.contains("200"), "in-budget body after a 413: {status}");

    server.shutdown();
}

/// `/v1/fix` serializes the repaired page. A page nested 200,000 deep fits
/// the default body limit; the worker, on its default 2 MiB stack, must
/// answer it with a 200 and then live on to answer the next request.
#[test]
fn deep_page_fix_returns_200_and_the_worker_survives() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1).queue_depth(4));

    let page = format!("<body>{}", "<div>".repeat(200_000));
    assert!(page.len() <= hv_server::DEFAULT_MAX_BODY);
    let (status, _, body) = post(&addr, "/v1/fix", "text/html", page.as_bytes());
    assert!(status.contains("200"), "deep page fix: {status}");
    assert!(body.contains("\"fixed_html\""), "unexpected fix body prefix: {:.200}", body);
    assert!(body.contains(&"</div>".repeat(8)), "repaired page lost its nesting");

    let (status, _, _) = post(&addr, "/v1/check", "text/html", b"<p>x</p>");
    assert!(status.contains("200"), "request after the deep fix: {status}");

    server.shutdown();
}

#[test]
fn malformed_request_line_gets_400() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1).queue_depth(4));

    let (status, _, body) = roundtrip(&addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(status.contains("400"), "garbage request line: {status}");
    assert!(body.contains("bad_request"), "unexpected 400 body: {body}");

    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(2).queue_depth(8));

    // A stream of requests racing the shutdown below. Requests arriving
    // after the listener closed fail to connect or read — the client stops
    // there; everything that *was* accepted must be answered in full.
    let addr2 = addr.clone();
    let clients = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for _ in 0..6 {
            let outcome = std::panic::catch_unwind(|| {
                post(&addr2, "/v1/check", "text/html", br#"<img src=a src=b>"#)
            });
            match outcome {
                Ok((status, _, body)) => statuses.push((status, body)),
                Err(_) => break, // server gone: connect/read refused, not truncated
            }
        }
        statuses
    });

    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    let statuses = clients.join().expect("client thread");
    assert!(!statuses.is_empty(), "not even one request completed before shutdown");
    for (status, body) in &statuses {
        assert!(status.contains("200"), "in-flight request not completed: {status}");
        assert!(body.contains("DM3"), "truncated response body: {body}");
    }
}

#[test]
fn healthz_and_metricsz_respond() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1).queue_depth(4));

    let (status, _, _) = post(&addr, "/v1/check", "text/html", b"<p>x</p>");
    assert!(status.contains("200"));

    let (status, _, body) = roundtrip(&addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert!(status.contains("200"), "healthz: {status}");
    assert!(body.contains("ok"), "healthz body: {body}");

    let (status, _, body) = roundtrip(&addr, b"GET /metricsz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert!(status.contains("200"), "metricsz: {status}");
    assert!(body.contains("\"served\""), "metricsz body: {body}");
    assert!(body.contains("POST /v1/check"), "metricsz missing per-route stats: {body}");

    server.shutdown();
}

/// Read exactly `n` responses off one keep-alive connection, splitting on
/// each response's own `Content-Length`.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(String, String)> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    while out.len() < n {
        let head_end = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let got = stream.read(&mut buf).expect("read response");
            assert!(got > 0, "server closed before all pipelined responses arrived");
            raw.extend_from_slice(&buf[..got]);
        };
        let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .expect("content-length header")
            .trim()
            .parse()
            .expect("numeric content-length");
        while raw.len() < head_end + 4 + len {
            let got = stream.read(&mut buf).expect("read body");
            assert!(got > 0, "server closed mid-body");
            raw.extend_from_slice(&buf[..got]);
        }
        let rest = raw.split_off(head_end + 4 + len);
        let body = String::from_utf8_lossy(&raw[head_end + 4..]).into_owned();
        let status = head.lines().next().unwrap_or("").to_owned();
        out.push((status, body));
        raw = rest;
    }
    out
}

/// A pipelining client: several requests written in one burst on a single
/// keep-alive connection must each get their own correct response, in
/// order — bytes read past one request's body seed the next parse instead
/// of being dropped.
#[test]
fn pipelined_keep_alive_requests_are_all_answered() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1));
    let pages = ["<p>first", "<div id=a id=a>second</div>", "<table><tr><b>third"];

    let mut burst = Vec::new();
    for (i, page) in pages.iter().enumerate() {
        let connection = if i + 1 == pages.len() { "close" } else { "keep-alive" };
        burst.extend_from_slice(
            format!(
                "POST /v1/check HTTP/1.1\r\nhost: t\r\nconnection: {connection}\r\n\
                 content-type: text/html\r\ncontent-length: {}\r\n\r\n{page}",
                page.len()
            )
            .as_bytes(),
        );
    }

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(&burst).expect("write pipelined burst");
    let responses = read_responses(&mut stream, pages.len());
    for ((status, body), page) in responses.iter().zip(&pages) {
        assert!(status.contains("200"), "pipelined response: {status}");
        assert_eq!(body, &expected_check_json(page), "response out of order for {page:?}");
    }
    server.shutdown();
}

/// A POST with `Content-Length: 0` is a complete, valid request: the empty
/// page must be checked (not hang waiting for body bytes, not 400).
#[test]
fn content_length_zero_post_checks_the_empty_page() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1));
    let (status, _, body) = post(&addr, "/v1/check", "text/html", b"");
    assert!(status.contains("200"), "empty POST: {status}");
    assert_eq!(body, expected_check_json(""));
    server.shutdown();
}

/// Header names are case-insensitive (RFC 9110 §5.1): a client shouting
/// `CONTENT-LENGTH` must parse the same as one whispering it.
#[test]
fn header_names_are_case_insensitive() {
    let (server, addr) = start(ServeOptions::new().addr("127.0.0.1:0").threads(1));
    let page = "<p>hi";
    let req = format!(
        "POST /v1/check HTTP/1.1\r\nHOST: t\r\nCONNECTION: CLOSE\r\n\
         Content-TYPE: TEXT/HTML\r\nCONTENT-Length: {}\r\n\r\n{page}",
        page.len()
    );
    let (status, _, body) = roundtrip(&addr, req.as_bytes());
    assert!(status.contains("200"), "mixed-case headers: {status}");
    assert_eq!(body, expected_check_json(page));
    server.shutdown();
}
