//! The traced run: every per-layer metric, timed from outside.
//!
//! Pages are replayed single-threaded through each layer's public entry
//! point with one span per call. `tree_builder` has no entry point of its
//! own, so its time is an estimate: `CheckContext::new` (tokenize + tree
//! build + tag collection) minus a separate `spec_html::tokenize` of the
//! same text.

use crate::adversarial::Family;
use crate::serve;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workload::{pin, report_digest, setup, sorted, Config, Metric, Outcome, Workload};
use hv_bench::alloc::allocation_count;
use hv_core::{Battery, CheckContext};
use hv_corpus::warc::{load_cdxj_lenient, read_record};
use hv_corpus::{Archive, Snapshot};
use hv_pipeline::{run, warcscan, FileSink, IndexedStore, LoadOptions, ResultStore, ScanOptions};
use hv_pipeline::{StoreSink, StoreWriter};
use hv_server::api::v1::CheckResponse;
use spec_html::decoder::{decode_utf8, Decoded};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Stage spans: the roots. Their self time is the benchmark's own work.
const SCAN_STAGES: [&str; 2] = ["stage.scan", "stage.warc"];
const SEQUENTIAL_STAGES: [&str; 6] = [
    "stage.scan",
    "stage.warc",
    "stage.store_write",
    "stage.report",
    "stage.adversarial",
    "stage.check_direct",
];

/// Counts from one replay of the archive.
#[derive(Debug, Default)]
struct Replay {
    listed: u64,
    analyzed: u64,
    rejected: u64,
    decoded_bytes: u64,
    /// Σ over analyzed pages of the kinds each page shows.
    kinds: u64,
    parse_allocs: u64,
    battery_allocs: u64,
}

/// Every page of the archive, in the engine's slot order, through fetch,
/// decode, tokenize, context and battery.
fn replay_archive(t: &Tracer, archive: &Archive, battery: &mut Battery) -> Replay {
    let mut r = Replay::default();
    for snap in Snapshot::ALL {
        for domain in archive.domains() {
            let Some(cdx) = t.span("corpus.cdx", || archive.cdx_lookup(domain, snap)) else {
                continue;
            };
            for entry in &cdx.pages {
                r.listed += 1;
                let body =
                    t.span("corpus.fetch", || archive.fetch_page(&cdx.snapshot, entry.page_index));
                let text = t.span("decoder.decode", || match decode_utf8(&body) {
                    Decoded::Utf8(s) => Some(s),
                    Decoded::NotUtf8 { .. } => None,
                });
                let Some(text) = text else {
                    r.rejected += 1;
                    continue;
                };
                r.analyzed += 1;
                r.decoded_bytes += text.len() as u64;
                t.span("tokenizer.tokenize", || drop(black_box(spec_html::tokenize(text))));
                let a0 = allocation_count();
                let cx = t.span("parse.context", || CheckContext::new(text));
                let a1 = allocation_count();
                r.kinds += t.span("battery.check", || battery.run_ref(&cx).kinds().len()) as u64;
                let a2 = allocation_count();
                t.span("parse.drop", || drop(cx));
                r.parse_allocs += a1 - a0;
                r.battery_allocs += a2 - a1;
            }
        }
    }
    r
}

/// Every record of the WARC export read back through the CDXJ index.
fn replay_warc(t: &Tracer, dir: &Path) -> Result<(u64, u64), String> {
    let inputs = t.span("warc.discover", || warcscan::discover(dir)).map_err(|e| e.to_string())?;
    let (mut records, mut errors) = (0u64, 0u64);
    for input in inputs {
        let (index, bad) = t
            .span("warc.cdxj_load", || load_cdxj_lenient(&input.cdx))
            .map_err(|e| format!("loading {}: {e}", input.cdx.display()))?;
        errors += bad.len() as u64;
        let mut file = std::fs::File::open(&input.warc).map_err(|e| e.to_string())?;
        for line in &index {
            let ok =
                t.span("warc.read", || read_record(&mut file, line.offset, line.length).is_ok());
            records += ok as u64;
            errors += !ok as u64;
        }
    }
    Ok((records, errors))
}

/// A [`FileSink`] whose writes and syncs are spans. The file is shared so
/// the benchmark can sync at each segment boundary, as a streamed scan does.
struct TimedSink<'t> {
    file: Rc<RefCell<FileSink>>,
    tracer: &'t Tracer,
}

impl Write for TimedSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tracer.span("format.write", || self.file.borrow_mut().write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.tracer.span("format.write", || self.file.borrow_mut().flush())
    }
}

impl StoreSink for TimedSink<'_> {
    fn sync(&mut self) -> std::io::Result<()> {
        self.tracer.span("format.fsync", || self.file.borrow_mut().sync())
    }
}

/// Rewrite `store` segment by segment through [`StoreWriter::new`] over a
/// [`TimedSink`], syncing after each segment.
fn replay_store_write(t: &Tracer, store: &ResultStore, path: &Path) -> Result<(), String> {
    let file = Rc::new(RefCell::new(FileSink::create(path).map_err(|e| e.to_string())?));
    let sink = TimedSink { file: Rc::clone(&file), tracer: t };
    let err = |e: hv_core::HvError| e.to_string();
    let mut w = t
        .span("format.header", || {
            StoreWriter::new(sink, path, store.seed, store.scale, store.universe)
        })
        .map_err(err)?;
    for snap in Snapshot::ALL {
        let records: Vec<_> =
            store.records.iter().filter(|r| r.snapshot == snap).cloned().collect();
        let quarantine: Vec<_> =
            store.quarantine.iter().filter(|q| q.snapshot == snap).cloned().collect();
        t.span("format.segment", || w.write_segment(snap, &records, &quarantine)).map_err(err)?;
        t.span("format.fsync", || file.borrow_mut().sync()).map_err(|e| e.to_string())?;
    }
    t.span("format.finish", || w.finish()).map_err(err)?;
    Ok(())
}

/// Seconds per repetition of one pathological page: tokenize, context and
/// battery (with serialization).
struct CaseTimes {
    family: Family,
    doubled: bool,
    tok: Vec<f64>,
    cx: Vec<f64>,
    bat: Vec<f64>,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn per(nanos: u64, n: u64) -> f64 {
    nanos as f64 / 1e3 / n.max(1) as f64
}

/// The traced run: every per-layer metric.
pub fn run(cfg: &Config, workload: Workload, seed: u64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fx = setup(cfg, seed, work, true)?;
    let t = Tracer::new(true);
    let mut battery = Battery::full();

    // Scan layers: a warm-up pass, then an untraced twin for the overhead
    // ratio (the first pass over the archive runs slower than the rest).
    let plain = Tracer::new(false);
    replay_archive(&plain, &fx.archive, &mut battery);
    let started = Instant::now();
    let base = replay_archive(&plain, &fx.archive, &mut battery);
    let untraced_wall = started.elapsed().as_nanos() as u64;
    let stage = t.enter("stage.scan");
    let replay = replay_archive(&t, &fx.archive, &mut battery);
    t.exit(stage);
    let same = |a: &Replay, b: &Replay| {
        (a.listed, a.analyzed, a.rejected, a.decoded_bytes, a.kinds)
            == (b.listed, b.analyzed, b.rejected, b.decoded_bytes, b.kinds)
    };
    out.check(same(&replay, &base), || format!("traced replay {replay:?} != untraced {base:?}"));
    out.attempted += replay.listed;

    let stage = t.enter("stage.warc");
    let (records, warc_errors) = replay_warc(&t, fx.warc_dir.as_deref().expect("exported"))?;
    t.exit(stage);
    out.check(records == replay.listed, || {
        format!("WARC export holds {records} records, the archive lists {}", replay.listed)
    });
    out.failed += warc_errors;

    // Engine shares, from one instrumented streamed scan.
    let engine_path = work.join("engine.hvs");
    let opts = ScanOptions::new().threads(cfg.threads).collect_metrics(true).overwrite(true);
    let summary = run::scan_streamed(&fx.archive, &Snapshot::ALL, opts, &engine_path)
        .map_err(|e| format!("scan_streamed: {e}"))?;
    let m = summary.metrics.clone().expect("metrics were requested");
    out.check(m.pages_analyzed == replay.analyzed && m.pages_listed == replay.listed, || {
        format!(
            "engine analyzed {}/{} pages, replay {}/{}",
            m.pages_analyzed, m.pages_listed, replay.analyzed, replay.listed
        )
    });
    out.failed += summary.quarantined as u64;
    let busy = m.phases.total() as f64 / (m.wall_nanos as f64 * m.threads as f64);

    // Store write, over the engine's records without its metrics block.
    let mut engine_store = ResultStore::load(&engine_path).map_err(|e| e.to_string())?;
    engine_store.metrics = None;
    let page_kinds: u64 = engine_store
        .records
        .iter()
        .flat_map(|r| r.page_counts.values())
        .map(|&n| u64::from(n))
        .sum();
    out.check(page_kinds == replay.kinds, || {
        format!("engine counted {page_kinds} page findings, the replay {}", replay.kinds)
    });
    let rewrite_path = work.join("rewrite.hvs");
    let stage = t.enter("stage.store_write");
    replay_store_write(&t, &engine_store, &rewrite_path)?;
    t.exit(stage);
    let store_bytes = std::fs::metadata(&rewrite_path).map_err(|e| e.to_string())?.len();
    let rewritten = ResultStore::load(&rewrite_path).map_err(|e| e.to_string())?;
    out.check(
        serde_json::to_string(&rewritten.records).ok()
            == serde_json::to_string(&engine_store.records).ok(),
        || "rewritten store reads back different records".to_owned(),
    );

    // Read-back: load, index, render every experiment.
    let stage = t.enter("stage.report");
    let loaded = t
        .span("store.load", || ResultStore::load_with(&rewrite_path, LoadOptions::default()))
        .map_err(|e| e.to_string())?;
    let indexed = t.span("aggregate.index_build", || IndexedStore::from_loaded(loaded));
    let mut outputs = Vec::new();
    for name in hv_report::EXPERIMENTS {
        let layer = match *name {
            "aux" => "auxstudies.aux",
            "all" => "report.all",
            _ => "report.render",
        };
        outputs
            .push(t.span(layer, || hv_report::render(name, &indexed)).expect("listed experiment"));
    }
    t.span("store.drop", || drop(indexed));
    t.exit(stage);
    // The rewrite is the metrics-free store a clean scan writes, so the
    // scan_corpus pins hold for it and its report.
    let (store_sha, report_sha) = (
        crate::sha256::hex(&std::fs::read(&rewrite_path).map_err(|e| e.to_string())?),
        report_digest(&outputs),
    );
    if let Some(p) = pin(cfg, Workload::ScanCorpus, seed) {
        out.check(store_sha == p.store, || {
            format!("rewritten store sha256 {store_sha} is not the pinned {}", p.store)
        });
        out.check(report_sha == p.report, || {
            format!("report sha256 {report_sha} is not the pinned {}", p.report)
        });
    }
    out.facts.push(("store_sha256", store_sha));
    out.facts.push(("report_sha256", report_sha));

    // The pathological set, in process, at n and 2n.
    let stage = t.enter("stage.adversarial");
    let mut per_case = Vec::new();
    for (case, want) in fx.cases.iter().zip(&fx.case_expected) {
        let (mut tok, mut cx_s, mut bat) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.traced_adversarial_reps.max(1) {
            let s = Instant::now();
            t.span("adversarial.tokenize", || drop(black_box(spec_html::tokenize(&case.html))));
            tok.push(s.elapsed().as_secs_f64());
            let s = Instant::now();
            let cx = t.span("adversarial.context", || CheckContext::new(&case.html));
            cx_s.push(s.elapsed().as_secs_f64());
            let s = Instant::now();
            let json = t.span("adversarial.battery", || {
                serde_json::to_string(&CheckResponse::from(battery.run_ref(&cx)))
                    .expect("serializes")
            });
            bat.push(s.elapsed().as_secs_f64());
            t.span("adversarial.drop", || drop(cx));
            out.attempted += 1;
            out.check(json.as_bytes() == want.as_slice(), || {
                format!("{} page answered differently in process", case.family.name())
            });
        }
        per_case.push(CaseTimes { family: case.family, doubled: case.doubled, tok, cx: cx_s, bat });
    }
    t.exit(stage);

    // The connection loop, outside-in, then the handler's parts directly.
    let traffic = fx.traffic();
    let stage = t.enter("stage.serve");
    let ts = serve::traced_connection_loop(&t, &traffic, cfg.traced_requests);
    t.exit(stage);
    out.attempted += ts.requests;
    out.failed += ts.failed;
    let stage = t.enter("stage.check_direct");
    for (body, want) in fx.bodies.iter().zip(&fx.expected) {
        let cx = t.span("check.parse", || CheckContext::new(body));
        let id = t.enter("check.battery");
        let report = battery.run_ref(&cx);
        t.exit(id);
        let json = t.span("api.serialize", || {
            serde_json::to_string(&CheckResponse::from(report)).expect("serializes")
        });
        t.span("check.drop", || drop(cx));
        out.check(json.as_bytes() == want.as_slice(), || {
            "direct check answered differently".to_owned()
        });
    }
    t.exit(stage);
    // The open loop at the fixed rate, timed from each request's due time.
    let open =
        serve::open_loop(fx.addr(), &traffic, cfg.open_rate, Duration::from_secs(3), cfg.threads);
    out.attempted += open.attempted;
    out.failed += open.failed;
    let due = sorted(&open.due_ms);
    out.check(stats::supports_percentile(due.len(), 0.99), || {
        format!("{} samples cannot support p99", due.len())
    });
    out.facts.push(("check_p99_samples", due.len().to_string()));
    let tail = (stats::percentile(&due, 0.99), stats::percentile(&sorted(&open.lags_ms), 0.99));

    out.facts.push(("phase_shares", phase_shares(&t, &m)));
    out.metrics = metrics(
        &t,
        &replay,
        untraced_wall,
        &m,
        busy,
        store_bytes,
        &ts,
        tail,
        &per_case,
        fx.bodies.len(),
    );
    let spans_path = work.parent().unwrap_or(work).join(format!("spans-{}.tsv", workload.name()));
    t.write_tsv(&spans_path).map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    out.facts.push(("spans", spans_path.display().to_string()));
    out.facts.push((
        "tree_builder",
        "estimate: CheckContext::new minus a separate spec_html::tokenize of the same text"
            .to_owned(),
    ));
    Ok(out)
}

/// Shares of fetch, decode, parse and check in the outside replay and in
/// the same run's `ScanMetrics.phases`. The engine's check phase runs the
/// per-rule instrumented battery, so its check share reads higher.
fn shares(t: &Tracer, m: &hv_pipeline::ScanMetrics) -> ([f64; 4], [f64; 4]) {
    let st = t.self_times();
    let outside = ["corpus.fetch", "decoder.decode", "parse.context", "battery.check"]
        .map(|name| st.get(name).map_or(0, |s| s.nanos));
    let engine = [m.phases.fetch, m.phases.decode, m.phases.parse, m.phases.check];
    let norm = |v: [u64; 4]| {
        let total = v.iter().sum::<u64>().max(1) as f64;
        v.map(|x| x as f64 / total)
    };
    (norm(outside), norm(engine))
}

fn phase_shares(t: &Tracer, m: &hv_pipeline::ScanMetrics) -> String {
    let (outside, engine) = shares(t, m);
    let fmt = |v: [f64; 4]| v.map(|x| format!("{x:.3}")).join("/");
    format!("fetch/decode/parse/check outside {} vs engine {}", fmt(outside), fmt(engine))
}

#[allow(clippy::too_many_arguments)]
fn metrics(
    t: &Tracer,
    r: &Replay,
    untraced_wall: u64,
    m: &hv_pipeline::ScanMetrics,
    busy: f64,
    store_bytes: u64,
    ts: &serve::TracedServe,
    (check_p99_ms, lag_p99_ms): (f64, f64),
    per_case: &[CaseTimes],
    bodies: usize,
) -> Vec<Metric> {
    let st = t.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0, |s| s.nanos);
    let count = |name: &str| st.get(name).map_or(0, |s| s.count);
    let wall = |names: &[&str]| names.iter().map(|n| t.total_nanos(n)).sum::<u64>();
    let uncovered = |names: &[&str]| names.iter().map(|n| self_ns(n)).sum::<u64>();
    let coverage = |names: &[&str]| 1.0 - uncovered(names) as f64 / wall(names).max(1) as f64;

    let (outside, engine) = shares(t, m);
    let gap = outside.iter().zip(&engine).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);

    let tokenize = self_ns("tokenizer.tokenize");
    let context = self_ns("parse.context");
    let mut v: Vec<Metric> = vec![
        ("corpus.cdx_ms", ms(self_ns("corpus.cdx")), "ms"),
        ("corpus.fetch_us", per(self_ns("corpus.fetch"), r.listed), "us"),
        ("warc.cdxj_load_ms", ms(self_ns("warc.cdxj_load")), "ms"),
        ("warc.read_us", per(self_ns("warc.read"), count("warc.read")), "us"),
        ("decoder.decode_us", per(self_ns("decoder.decode"), r.listed), "us"),
        ("tokenizer.tokenize_us", per(tokenize, r.analyzed), "us"),
        (
            "tokenizer.mib_per_s",
            r.decoded_bytes as f64 / (1 << 20) as f64 / (tokenize as f64 / 1e9),
            "MiB/s",
        ),
        ("tree_builder.build_us", per(context.saturating_sub(tokenize), r.analyzed), "us"),
        ("parse.drop_us", per(self_ns("parse.drop"), r.analyzed), "us"),
        ("battery.check_us", per(self_ns("battery.check"), r.analyzed), "us"),
        ("parse.allocs_per_page", r.parse_allocs as f64 / r.analyzed.max(1) as f64, "count"),
        ("battery.allocs_per_page", r.battery_allocs as f64 / r.analyzed.max(1) as f64, "count"),
        ("run.busy_share", busy, "share"),
        ("run.unattributed_share", 1.0 - busy, "share"),
        (
            "format.encode_ms",
            ms(self_ns("format.segment") + self_ns("format.header") + self_ns("format.finish")),
            "ms",
        ),
        ("format.write_ms", ms(self_ns("format.write")), "ms"),
        ("format.fsync_ms", ms(self_ns("format.fsync")), "ms"),
        ("format.fsync_count", count("format.fsync") as f64, "count"),
        ("format.store_bytes", store_bytes as f64, "bytes"),
        ("store.load_ms", ms(self_ns("store.load")), "ms"),
        ("aggregate.index_build_ms", ms(self_ns("aggregate.index_build")), "ms"),
        ("report.render_ms", ms(self_ns("report.render")), "ms"),
        ("report.all_ms", ms(self_ns("report.all")), "ms"),
        ("auxstudies.aux_ms", ms(self_ns("auxstudies.aux")), "ms"),
        ("http.read_request_us", ts.read_us, "us"),
        ("handler.handle_us", ts.handle_us, "us"),
        ("http.write_us", ts.write_us, "us"),
        ("server.outside_us", ts.outside_us, "us"),
        ("check.parse_us", per(self_ns("check.parse"), bodies as u64), "us"),
        ("check.battery_us", per(self_ns("check.battery"), bodies as u64), "us"),
        ("api.serialize_us", per(self_ns("api.serialize"), bodies as u64), "us"),
        ("check_p99_ms", check_p99_ms, "ms"),
        ("loadgen.lag_p99_ms", lag_p99_ms, "ms"),
    ];
    // Per family and size: (cx + battery, tokenize, cx - tokenize) samples.
    let mut by_family: BTreeMap<&'static str, [Option<[Vec<f64>; 3]>; 2]> = BTreeMap::new();
    for CaseTimes { family, doubled, tok, cx, bat } in per_case {
        let total: Vec<f64> = cx.iter().zip(bat).map(|(a, b)| a + b).collect();
        let build: Vec<f64> = cx.iter().zip(tok).map(|(c, k)| (c - k).max(0.0)).collect();
        by_family.entry(family.name()).or_default()[*doubled as usize] =
            Some([total, tok.clone(), build]);
    }
    for family in Family::ALL {
        let Some([Some(n), Some(n2)]) = by_family.get(family.name()) else { continue };
        let (ratio, tok, build) = match family {
            Family::DeepNesting => (
                "complexity.ratio.deep_nesting",
                "tokenizer.tokenize_ms.deep_nesting",
                "tree_builder.build_ms.deep_nesting",
            ),
            Family::Formatting => (
                "complexity.ratio.formatting",
                "tokenizer.tokenize_ms.formatting",
                "tree_builder.build_ms.formatting",
            ),
            Family::FosterTable => (
                "complexity.ratio.foster_table",
                "tokenizer.tokenize_ms.foster_table",
                "tree_builder.build_ms.foster_table",
            ),
            Family::DupAttrs => (
                "complexity.ratio.dup_attrs",
                "tokenizer.tokenize_ms.dup_attrs",
                "tree_builder.build_ms.dup_attrs",
            ),
        };
        v.push((ratio, stats::complexity_ratio(&n2[0], &n[0]), "ratio"));
        v.push((tok, median(&n2[1]) * 1e3, "ms"));
        v.push((build, median(&n2[2]) * 1e3, "ms"));
    }
    v.extend([
        ("trace.coverage", coverage(&SEQUENTIAL_STAGES), "share"),
        ("trace.coverage.scan", coverage(&SCAN_STAGES), "share"),
        ("trace.coverage.adversarial", coverage(&["stage.adversarial"]), "share"),
        (
            "trace.overhead",
            t.total_nanos("stage.scan") as f64 / untraced_wall.max(1) as f64,
            "ratio",
        ),
        ("trace.share_gap", gap, "share"),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{benchmark_json, names, scratch, smoke};

    #[test]
    fn smoke_traced_run_reports_every_layer() {
        let dir = scratch("traced");
        let work = dir.join("work");
        std::fs::create_dir_all(&work).unwrap();
        let out = run(&smoke(), Workload::ScanCorpus, 7, &work).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.correct(), "{:?}", out.mismatches);
        let printed: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(printed, names(&benchmark_json(), "per_layer"));
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        let coverage = out.metrics.iter().find(|m| m.0 == "trace.coverage").unwrap().1;
        assert!(coverage > 0.9, "coverage {coverage}");
    }
}
