//! Load-generator smoke driver for `hva serve`.
//!
//! Starts an in-process server (unless `--addr` points at a running one),
//! fires `--clients` concurrent client threads sending
//! `--requests` sequential `POST /v1/check` requests each — every request
//! on a fresh connection so the acceptor's backpressure path is exercised
//! throughout — then prints a JSON summary to stdout and exits non-zero
//! if any well-formed request was dropped (no response), errored, or was
//! shed without the promised `Retry-After` header.
//!
//! ```text
//! cargo run --release -p hv-bench --example loadgen -- \
//!     --clients 4 --requests 200 --threads 4 --queue-depth 64
//! ```
//!
//! CI's serve smoke runs this 4×200 profile and a 16×50 saturation profile
//! (DESIGN §10) on every commit.

use hv_bench::loadgen::{run, LoadgenOptions};
use hv_server::{serve, ServeOptions};
use std::time::Instant;

struct Args {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    threads: usize,
    queue_depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { addr: None, clients: 4, requests: 200, threads: 4, queue_depth: 64 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--clients" => {
                args.clients = value("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                args.requests =
                    value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--queue-depth" => {
                args.queue_depth =
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.clients == 0 || args.requests == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            eprintln!(
                "usage: loadgen [--addr HOST:PORT] [--clients N] [--requests N] \
                 [--threads N] [--queue-depth N]"
            );
            std::process::exit(2);
        }
    };

    // Own server unless pointed at an external one.
    let (addr, server) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = serve(
                ServeOptions::new()
                    .addr("127.0.0.1:0")
                    .threads(args.threads)
                    .queue_depth(args.queue_depth),
            )
            .unwrap_or_else(|e| {
                eprintln!("loadgen: failed to start server: {e}");
                std::process::exit(2);
            });
            (server.addr().to_string(), Some(server))
        }
    };
    eprintln!(
        "loadgen: {} clients x {} requests -> http://{addr} \
         (server threads={}, queue depth={})",
        args.clients, args.requests, args.threads, args.queue_depth
    );

    let mut opts = LoadgenOptions::new(&addr);
    opts.clients = args.clients;
    opts.requests_per_client = args.requests;
    let started = Instant::now();
    let stats = run(&opts);
    let wall = started.elapsed();

    let ok = stats.all_answered();
    let summary = serde_json::json!({
        "clients": args.clients as u64,
        "requests_per_client": args.requests as u64,
        "server_threads": args.threads as u64,
        "queue_depth": args.queue_depth as u64,
        "wall_millis": wall.as_millis() as u64,
        "throughput_rps": (stats.sent as f64 / wall.as_secs_f64() * 10.0).round() / 10.0,
        "mean_latency_micros": (stats.latency.mean_nanos() / 1000.0).round(),
        "all_answered": ok,
        "stats": stats,
    });
    println!("{}", serde_json::to_string_pretty(&summary).expect("stats serialize"));

    if let Some(server) = server {
        server.shutdown();
    }
    if !ok {
        eprintln!(
            "loadgen: FAILED — dropped={} client_errors={} server_errors={} \
             shed={} (with retry-after: {})",
            stats.failed,
            stats.client_errors,
            stats.server_errors,
            stats.shed,
            stats.shed_with_retry_after
        );
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: OK — {} served, {} shed (all with retry-after), 0 dropped",
        stats.ok, stats.shed
    );
}
