//! The `/v1/check` client side: a keep-alive HTTP/1.1 connection, an
//! open-loop generator at a fixed rate, a closed-loop saturation phase,
//! and the traced outside copy of the server's connection loop.

use crate::trace::Tracer;
use hv_server::handler::{Handler, Shared};
use hv_server::http::read_request;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The bytes of one `POST /v1/check` with a raw `text/html` body.
pub fn check_request(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/check HTTP/1.1\r\nhost: bench\r\ncontent-type: text/html\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(8192) })
    }

    /// Send one request and read its response: `(status, body)`.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("response head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("content-length"))?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill(&mut chunk)?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok((status, body))
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        match self.stream.read(chunk)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// Requests and the exact bodies their 200 responses must carry.
pub struct Traffic<'a> {
    pub requests: &'a [Vec<u8>],
    pub expected: &'a [Vec<u8>],
}

/// What one load phase saw.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Open loop: per request, from its due time to the full response, in
    /// milliseconds. A request that failed is `f64::INFINITY`: it missed
    /// every limit.
    pub due_ms: Vec<f64>,
    /// Open loop: from the send time to the full response.
    pub service_ms: Vec<f64>,
    /// Open loop: how late each request was sent.
    pub lags_ms: Vec<f64>,
    pub attempted: u64,
    /// No response, a non-200 status, or a body that differs from the
    /// expected bytes.
    pub failed: u64,
    pub elapsed_s: f64,
}

impl LoadResult {
    fn absorb(&mut self, other: LoadResult) {
        self.due_ms.extend(other.due_ms);
        self.service_ms.extend(other.service_ms);
        self.lags_ms.extend(other.lags_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One request on `conn` (reconnecting after a failure), checked against
/// the expected body. Returns whether it succeeded.
fn exchange(conn: &mut Option<Conn>, addr: SocketAddr, traffic: &Traffic, i: usize) -> bool {
    let k = i % traffic.requests.len();
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    let Some(c) = conn.as_mut() else { return false };
    match c.round_trip(&traffic.requests[k]) {
        Ok((200, body)) => body == traffic.expected[k],
        Ok(_) => false,
        Err(_) => {
            *conn = None;
            false
        }
    }
}

/// Open loop: request `i` is due at `start + i / rate`, whatever happened
/// to earlier requests. `conns` keep-alive connections each take the next
/// due request when free, so a stall shows as lag on later requests, and
/// every latency is counted from the due time.
pub fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    rate: f64,
    duration: Duration,
    conns: usize,
) -> LoadResult {
    let total = ((rate * duration.as_secs_f64()).floor() as usize).max(1);
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut result = LoadResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut conn = Conn::connect(addr).ok();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break out;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = exchange(&mut conn, addr, traffic, i);
                        let done = Instant::now();
                        out.attempted += 1;
                        out.lags_ms.push(ms(sent.saturating_duration_since(due)));
                        if ok {
                            out.due_ms.push(ms(done.saturating_duration_since(due)));
                            out.service_ms.push(ms(done - sent));
                        } else {
                            out.failed += 1;
                            out.due_ms.push(f64::INFINITY);
                            out.service_ms.push(f64::INFINITY);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            result.absorb(h.join().expect("open-loop client thread panicked"));
        }
    });
    result.elapsed_s = start.elapsed().as_secs_f64();
    result
}

/// Closed loop: each of `conns` connections sends its next request as
/// soon as the previous response arrives, until `duration` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    duration: Duration,
    conns: usize,
) -> LoadResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    let mut result = LoadResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut conn = Conn::connect(addr).ok();
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        out.attempted += 1;
                        out.failed += !exchange(&mut conn, addr, traffic, i) as u64;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            result.absorb(h.join().expect("closed-loop client thread panicked"));
        }
    });
    result.elapsed_s = start.elapsed().as_secs_f64();
    result
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Server-side timings of one request in the traced connection loop.
struct ServerSpans {
    read: (Instant, Instant),
    handle: (Instant, Instant),
    write: (Instant, Instant),
}

/// What the traced connection loop measured, per request on average.
pub struct TracedServe {
    pub requests: u64,
    pub failed: u64,
    pub read_us: f64,
    pub handle_us: f64,
    pub write_us: f64,
    /// Client round trip minus the three server-side spans: the kernel,
    /// wake-ups and the client's own parsing.
    pub outside_us: f64,
}

/// The server's connection loop, rebuilt outside the crate from its public
/// parts (`http::read_request`, `Handler::handle`, `Response::write_to`),
/// serving one client that sends `count` requests back to back. Each
/// server-side part is recorded as a span under the innermost open span
/// of `tracer`.
pub fn traced_connection_loop(tracer: &Tracer, traffic: &Traffic, count: usize) -> TracedServe {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding the traced listener");
    let addr = listener.local_addr().expect("traced listener address");
    let max_body = hv_server::DEFAULT_MAX_BODY;
    let (spans, round_trips, failed) = std::thread::scope(|s| {
        let server = s.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepting the traced client");
            stream.set_nodelay(true).expect("nodelay");
            let shared = Arc::new(Shared {
                store: None,
                metrics: hv_server::metrics::Metrics::new(),
                max_body,
            });
            let mut handler = Handler::new(shared);
            let mut carry = Vec::new();
            let mut spans = Vec::with_capacity(count);
            let mut peek = [0u8; 1];
            loop {
                // Wait for the request's first bytes outside the span, so
                // the read span is parsing, not the client's think time.
                if carry.is_empty() && !matches!(stream.peek(&mut peek), Ok(n) if n > 0) {
                    break spans;
                }
                let t0 = Instant::now();
                let req = match read_request(&mut stream, max_body, &mut carry) {
                    Ok(Some(req)) => req,
                    _ => break spans,
                };
                let t1 = Instant::now();
                let handled = handler.handle(&req);
                let t2 = Instant::now();
                let kept = handled.response.write_to(&mut stream, req.keep_alive);
                let t3 = Instant::now();
                spans.push(ServerSpans { read: (t0, t1), handle: (t1, t2), write: (t2, t3) });
                if !matches!(kept, Ok(true)) {
                    break spans;
                }
            }
        });
        // One connection only: the loop serves a single client, so a lost
        // connection ends the phase and counts the rest as failed.
        let mut conn = Conn::connect(addr).expect("connecting to the traced loop");
        let mut round_trips = Vec::with_capacity(count);
        let mut failed = 0u64;
        for i in 0..count {
            let k = i % traffic.requests.len();
            let t = Instant::now();
            match conn.round_trip(&traffic.requests[k]) {
                Ok((200, body)) if body == traffic.expected[k] => {}
                Ok(_) => failed += 1,
                Err(_) => {
                    failed += (count - i) as u64;
                    break;
                }
            }
            round_trips.push(t.elapsed());
        }
        drop(conn);
        (server.join().expect("traced server thread panicked"), round_trips, failed)
    });

    let n = spans.len().max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (mut read, mut handle, mut write, mut outside) = (0.0, 0.0, 0.0, 0.0);
    for (sp, rt) in spans.iter().zip(&round_trips) {
        tracer.record("http.read_request", sp.read.0, sp.read.1);
        tracer.record("handler.handle", sp.handle.0, sp.handle.1);
        tracer.record("http.write", sp.write.0, sp.write.1);
        let server =
            (sp.read.1 - sp.read.0) + (sp.handle.1 - sp.handle.0) + (sp.write.1 - sp.write.0);
        read += us(sp.read.1 - sp.read.0);
        handle += us(sp.handle.1 - sp.handle.0);
        write += us(sp.write.1 - sp.write.0);
        outside += us(rt.saturating_sub(server));
    }
    TracedServe {
        requests: count as u64,
        failed,
        read_us: read / n,
        handle_us: handle / n,
        write_us: write / n,
        outside_us: outside / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_server::http::Response;

    /// A server that answers every request correctly but takes `delay`
    /// per request, one connection at a time.
    fn slow_stub(
        delay: Duration,
        body: &'static [u8],
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut carry = Vec::new();
            while let Ok(Some(_req)) = read_request(&mut stream, 1 << 20, &mut carry) {
                std::thread::sleep(delay);
                let resp = Response::new(200, "application/json", body.to_vec());
                if !matches!(resp.write_to(&mut stream, true), Ok(true)) {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn round_trip_reads_status_and_body() {
        let (addr, server) = slow_stub(Duration::ZERO, b"{\"ok\":1}");
        let mut c = Conn::connect(addr).unwrap();
        for _ in 0..3 {
            let (status, body) = c.round_trip(&check_request(b"<p>x")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, b"{\"ok\":1}");
        }
        drop(c);
        server.join().unwrap();
    }

    /// At four times the stub's capacity the generator falls further behind
    /// with every request, and latency counted from the due time grows with
    /// it; a mismatched body would count as failed.
    #[test]
    fn open_loop_lag_grows_against_a_slow_server() {
        let (addr, server) = slow_stub(Duration::from_millis(5), b"ok");
        let requests = vec![check_request(b"<p>x")];
        let expected = vec![b"ok".to_vec()];
        let traffic = Traffic { requests: &requests, expected: &expected };
        let r = open_loop(addr, &traffic, 800.0, Duration::from_millis(150), 1);
        server.join().unwrap();
        assert_eq!(r.attempted, 120);
        assert_eq!(r.failed, 0);
        let lags = &r.lags_ms;
        let early: f64 = lags[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = lags[lags.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(late > early + 200.0, "lag must grow: early {early:.1} ms, late {late:.1} ms");
        // Each latency includes the lag that preceded the send.
        for (due, lag) in r.due_ms.iter().zip(lags) {
            assert!(due >= lag);
        }
        let last = r.due_ms[r.due_ms.len() - 1];
        assert!(last > 400.0, "the last request waited behind the backlog: {last:.1} ms");
    }

    #[test]
    fn open_loop_keeps_up_with_a_fast_server() {
        let (addr, server) = slow_stub(Duration::ZERO, b"ok");
        let requests = vec![check_request(b"<p>x")];
        let expected = vec![b"ok".to_vec()];
        let traffic = Traffic { requests: &requests, expected: &expected };
        let r = open_loop(addr, &traffic, 200.0, Duration::from_millis(200), 1);
        server.join().unwrap();
        assert_eq!(r.attempted, 40);
        let mut lags = r.lags_ms.clone();
        lags.sort_by(f64::total_cmp);
        assert!(
            crate::stats::median(&lags) < 5.0,
            "median lag {:.2} ms",
            crate::stats::median(&lags)
        );
    }

    #[test]
    fn wrong_bodies_and_dead_servers_count_as_failed() {
        let (addr, server) = slow_stub(Duration::ZERO, b"unexpected");
        let requests = vec![check_request(b"<p>x")];
        let expected = vec![b"ok".to_vec()];
        let traffic = Traffic { requests: &requests, expected: &expected };
        let r = closed_loop(addr, &traffic, Duration::from_millis(50), 1);
        server.join().unwrap();
        assert!(r.attempted > 0);
        assert_eq!(r.failed, r.attempted);
        assert_eq!(r.completed(), 0);
    }
}
