//! Subcommand implementations.

use crate::args::{Command, ScanInput, StoreAction, USAGE};
use hv_core::{autofix, Battery};
use hv_corpus::{Archive, CorpusConfig, Snapshot};
use hv_pipeline::warcscan::{discover, WarcSource};
use hv_pipeline::{
    scan_snapshots, scan_streamed, IndexedStore, LoadOptions, PageSource, ResultStore, ScanOptions,
    StoreFormat,
};
use std::fs;
use std::path::Path;
use std::time::Instant;

pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Check { file, json } => check(&file, json),
        Command::Fix { file, out } => fix(&file, out.as_deref()),
        Command::Gen { seed, scale, out, domains, year, warc } => {
            gen(seed, scale, &out, domains, year, warc)
        }
        Command::Scan { input, threads, store, metrics, faults, resume, overwrite } => {
            let mut opts = ScanOptions::new()
                .threads(threads)
                .progress_every(20_000)
                .collect_metrics(metrics)
                .resume(resume)
                .overwrite(overwrite);
            opts.faults = faults;
            match input {
                ScanInput::Archive { seed, scale } => {
                    eprintln!("building archive (seed {seed}, scale {scale}) ...");
                    let archive = Archive::new(CorpusConfig { seed, scale });
                    eprintln!(
                        "scanning {} domains x {} snapshots ...",
                        archive.domains().len(),
                        Snapshot::ALL.len()
                    );
                    scan_to(&archive, &Snapshot::ALL, opts, store.as_deref())
                }
                ScanInput::Warc(dir) => {
                    let inputs = discover(&dir).map_err(|e| {
                        format!("discovering WARC inputs in {}: {e}", dir.display())
                    })?;
                    if inputs.is_empty() {
                        return Err(format!(
                            "no CC-MAIN-*.warc/.cdxj pairs found in {}",
                            dir.display()
                        ));
                    }
                    eprintln!("scanning {} WARC snapshot(s) ...", inputs.len());
                    let source =
                        WarcSource::open(&inputs).map_err(|e| format!("scanning WARC: {e}"))?;
                    scan_to(&source, &source.snapshots(), opts, store.as_deref())
                }
            }
        }
        Command::Chaos { seed, scale, faults, threads } => chaos(seed, scale, faults, threads),
        Command::Fuzz { seed, cases, time_budget, oracle, regress_dir, replay, list_oracles } => {
            fuzz(seed, cases, time_budget, oracle, regress_dir, replay, list_oracles)
        }
        Command::Report { experiment, store, allow_partial } => {
            // One load, one index build per invocation: the IndexedStore is
            // constructed here and every render below reads from it.
            let indexed = IndexedStore::load_with(&store, LoadOptions { allow_partial })
                .map_err(|e| format!("loading store: {e}"))?;
            warn_dropped(&indexed);
            println!("{}", render_experiment(&experiment, &indexed)?);
            Ok(())
        }
        Command::Store { action } => store_cmd(action),
        Command::Explain { what } => explain(&what),
        Command::Serve { addr, threads, max_body, queue_depth, store } => {
            serve(addr, threads, max_body, queue_depth, store)
        }
        Command::Repro { seed, scale, threads, out, json } => {
            eprintln!("building archive (seed {seed}, scale {scale}) ...");
            let archive = Archive::new(CorpusConfig { seed, scale });
            // Repro always collects metrics: the run's provenance (how fast,
            // how many pages, which checks fired) belongs in the record.
            let opts =
                ScanOptions::new().threads(threads).progress_every(20_000).collect_metrics(true);
            let t0 = Instant::now();
            let store = scan_snapshots(&archive, &Snapshot::ALL, opts);
            narrate_scan(&store, t0);
            // One index build feeds the console report, the markdown dump,
            // and the JSON dump — the records are never re-aggregated.
            let store = IndexedStore::new(store);
            println!("{}", hv_report::full_report(&store));
            if let Some(path) = out {
                let md = hv_report::experiments_markdown(&store);
                fs::write(&path, md).map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("\nmarkdown summary written to {}", path.display());
            }
            if let Some(path) = json {
                let v = hv_report::experiments_json(&store);
                let text = serde_json::to_string_pretty(&v)
                    .map_err(|e| format!("serializing experiments: {e}"))?;
                fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("JSON dump written to {}", path.display());
            }
            Ok(())
        }
    }
}

/// `hva fuzz`: differential fuzzing against the oracle registry. Exits
/// non-zero on any oracle violation, with a one-line replay command per
/// minimized reproducer so CI logs are directly actionable.
fn fuzz(
    seed: u64,
    cases: u64,
    time_budget: Option<u64>,
    oracle: Option<String>,
    regress_dir: std::path::PathBuf,
    replay: Option<std::path::PathBuf>,
    list_oracles: bool,
) -> Result<(), String> {
    if list_oracles {
        for o in hv_fuzz::all_oracles() {
            println!("{:24} {}", o.name(), o.describe());
        }
        return Ok(());
    }
    if let Some(path) = replay {
        let violations = hv_fuzz::replay(&path, oracle.as_deref())?;
        if violations.is_empty() {
            println!("{}: all oracles pass", path.display());
            return Ok(());
        }
        for (name, message) in &violations {
            println!("FAIL {name}: {message}");
        }
        return Err(format!("{}: {} oracle violation(s)", path.display(), violations.len()));
    }

    let opts = hv_fuzz::FuzzOptions {
        seed,
        cases,
        time_budget: time_budget.map(std::time::Duration::from_secs),
        oracle: oracle.clone(),
        regress_dir: Some(regress_dir),
    };
    eprintln!(
        "fuzzing: seed {seed}, {cases} cases, {} ...",
        oracle.as_deref().unwrap_or("all oracles")
    );
    let out = hv_fuzz::fuzz(&opts)?;
    eprintln!(
        "{} case(s) in {:.1}s{}",
        out.cases_run,
        out.elapsed.as_secs_f64(),
        if out.stopped_by_budget { " (time budget reached)" } else { "" }
    );
    if out.ok() {
        println!("OK: {} case(s), no oracle violations", out.cases_run);
        return Ok(());
    }
    for f in &out.failures {
        println!("FAIL {} on case (seed {}, index {}): {}", f.oracle, f.seed, f.index, f.message);
        println!("  minimized to {} byte(s): {:?}", f.minimized.len(), f.minimized);
        if let Some(path) = &f.fixture {
            println!("  reproducer: hva fuzz --seed {} --replay {}", f.seed, path.display());
        }
    }
    Err(format!("{} oracle violation(s) found", out.failures.len()))
}

/// `hva serve`: run the /v1 HTTP API until the process is killed.
fn serve(
    addr: String,
    threads: usize,
    max_body: usize,
    queue_depth: usize,
    store: Option<std::path::PathBuf>,
) -> Result<(), String> {
    let mut opts = hv_server::ServeOptions::new()
        .addr(addr)
        .threads(threads)
        .max_body(max_body)
        .queue_depth(queue_depth);
    if let Some(path) = store {
        eprintln!("loading result store from {} ...", path.display());
        opts = opts.store_path(path);
    }
    let server = hv_server::serve(opts).map_err(|e| e.to_string())?;
    eprintln!(
        "serving http://{} — POST /v1/check, POST /v1/fix, GET /v1/explain/{{kind}}, \
         GET /v1/report/{{experiment}}, GET /v1/store/summary, GET /healthz, GET /metricsz",
        server.addr()
    );
    // Serve until killed; the acceptor and workers own all the work.
    loop {
        std::thread::park();
    }
}

fn explain(what: &str) -> Result<(), String> {
    use hv_core::ViolationKind;
    let kinds: Vec<ViolationKind> = if what.eq_ignore_ascii_case("all") {
        ViolationKind::ALL.to_vec()
    } else {
        vec![ViolationKind::from_id(&what.to_ascii_uppercase())
            .ok_or_else(|| format!("unknown violation: {what} (try `hva explain all`)"))?]
    };
    for kind in kinds {
        let e = kind.explanation();
        println!(
            "{} — {}\n  group:      {} ({})\n  category:   {:?}\n  fixability: {:?}\n  behaviour:  {}\n  attack:     {}\n  fix:        {}\n",
            kind.id(),
            kind.definition(),
            kind.group().name(),
            kind.group().code(),
            kind.category(),
            kind.fixability(),
            e.behaviour,
            e.attack,
            e.fix,
        );
    }
    Ok(())
}

fn check(file: &Path, json: bool) -> Result<(), String> {
    let bytes = fs::read(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    // Clean UTF-8 borrows from `bytes`; only the lossy fallback allocates.
    let text: std::borrow::Cow<'_, str> = match spec_html::decoder::decode_utf8(&bytes) {
        spec_html::decoder::Decoded::Utf8(t) => t.into(),
        spec_html::decoder::Decoded::NotUtf8 { valid_up_to } => {
            eprintln!(
                "note: {} is not valid UTF-8 (first bad byte at {valid_up_to}); \
                 decoding lossily (the measurement pipeline would skip this document)",
                file.display()
            );
            spec_html::decoder::decode_utf8_lossy(&bytes).into()
        }
    };
    let report = Battery::full().run_str(&text);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| format!("serializing: {e}"))?
        );
        return Ok(());
    }
    if report.is_clean() {
        println!("{}: no violations", file.display());
        return Ok(());
    }
    println!("{}: {} finding(s)", file.display(), report.findings.len());
    for f in &report.findings {
        println!(
            "  {:6} [{}|{}]  @{:<6}  {}",
            f.kind.id(),
            f.kind.group().code(),
            match f.kind.fixability() {
                hv_core::Fixability::Automatic => "auto-fixable",
                hv_core::Fixability::Manual => "manual",
            },
            f.offset,
            f.evidence
        );
    }
    let m = report.mitigations;
    if m.script_in_attribute || m.newline_in_url {
        println!(
            "mitigation flags: script_in_attribute={} newline_in_url={} newline_and_lt_in_url={}",
            m.script_in_attribute, m.newline_in_url, m.newline_and_lt_in_url
        );
    }
    Ok(())
}

fn fix(file: &Path, out: Option<&Path>) -> Result<(), String> {
    let text = fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    let outcome = autofix::auto_fix(&text);
    eprintln!(
        "before: {:?}\nafter:  {:?}\neliminated: {:?}",
        outcome.before.iter().map(|k| k.id()).collect::<Vec<_>>(),
        outcome.after.iter().map(|k| k.id()).collect::<Vec<_>>(),
        outcome.eliminated().iter().map(|k| k.id()).collect::<Vec<_>>(),
    );
    match out {
        Some(path) => {
            fs::write(path, &outcome.fixed_html)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("fixed document written to {}", path.display());
        }
        None => println!("{}", outcome.fixed_html),
    }
    Ok(())
}

fn gen(
    seed: u64,
    scale: f64,
    out: &Path,
    domains: usize,
    year: Option<u16>,
    warc: bool,
) -> Result<(), String> {
    let archive = Archive::new(CorpusConfig { seed, scale });
    let snaps: Vec<Snapshot> = match year {
        Some(y) => {
            vec![Snapshot::from_year(y).ok_or(format!("--year must be 2015..=2022, got {y}"))?]
        }
        None => Snapshot::ALL.to_vec(),
    };
    fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    if warc {
        for &snap in &snaps {
            let (warc_path, cdx_path, n) =
                hv_corpus::warc::export_snapshot(&archive, snap, out, domains)
                    .map_err(|e| format!("exporting {snap}: {e}"))?;
            println!(
                "{}: {n} records -> {} + {}",
                snap.crawl_id(),
                warc_path.display(),
                cdx_path.display()
            );
        }
        return Ok(());
    }
    let mut written = 0usize;
    for d in archive.domains().iter().take(domains) {
        for &snap in &snaps {
            let Some(cdx) = archive.cdx_lookup(d, snap) else { continue };
            let dir = out.join(snap.crawl_id()).join(&d.name);
            fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            for entry in cdx.pages.iter().take(5) {
                let body = archive.fetch_page(&cdx.snapshot, entry.page_index);
                let name = if entry.page_index == 0 {
                    "index.html".to_owned()
                } else {
                    format!("page{}.html", entry.page_index)
                };
                fs::write(dir.join(&name), &body).map_err(|e| format!("writing page: {e}"))?;
                written += 1;
            }
        }
    }
    println!(
        "wrote {written} pages for {} domains under {}",
        domains.min(archive.domains().len()),
        out.display()
    );
    Ok(())
}

/// Scan `snapshots` of any source to where `store` points. A v1 store
/// streams one snapshot segment at a time (peak memory never holds the
/// full record set) and can resume; a v0 JSON store is scanned in memory
/// and saved once; without a store the full report is printed.
fn scan_to<S: PageSource>(
    source: &S,
    snapshots: &[Snapshot],
    opts: ScanOptions,
    store: Option<&Path>,
) -> Result<(), String> {
    let t0 = Instant::now();
    if let Some(plan) = opts.faults {
        eprintln!("injecting deterministic faults ({}) ...", plan.render());
    }
    match store {
        Some(path) if StoreFormat::for_path(path) == StoreFormat::V1Binary => {
            if opts.resume {
                eprintln!("resuming {} ...", path.display());
            }
            let summary = scan_streamed(source, snapshots, opts, path)
                .map_err(|e| format!("streamed scan: {e}"))?;
            if summary.resumed_segments > 0 {
                eprintln!(
                    "resume: kept {} completed segment(s){}",
                    summary.resumed_segments,
                    if summary.truncated_bytes > 0 {
                        format!(", truncated {} torn-tail byte(s)", summary.truncated_bytes)
                    } else {
                        String::new()
                    }
                );
            }
            eprintln!(
                "scan finished in {:.1}s ({} domain-snapshot records in {} segment(s))",
                t0.elapsed().as_secs_f64(),
                summary.records,
                summary.segments.len()
            );
            if summary.quarantined > 0 {
                eprintln!("faults: {} page(s) quarantined", summary.quarantined);
            }
            if let Some(m) = &summary.metrics {
                eprint!("{}", m.render());
            }
            println!("store written to {} (v1-binary, streamed)", path.display());
        }
        Some(path) if opts.resume => {
            return Err(format!(
                "--resume requires a v1 binary store, but {} is v0 JSON \
                 (one-shot writes cannot be resumed)",
                path.display()
            ));
        }
        _ => {
            let result = scan_snapshots(source, snapshots, opts);
            narrate_scan(&result, t0);
            match store {
                Some(path) => {
                    result.save(path).map_err(|e| format!("saving store: {e}"))?;
                    println!("store written to {}", path.display());
                }
                // Index exactly once; every experiment renders from it.
                None => println!("{}", hv_report::full_report(&IndexedStore::new(result))),
            }
        }
    }
    Ok(())
}

/// Report an in-memory scan's size, faults and metrics on stderr.
fn narrate_scan(store: &ResultStore, t0: Instant) {
    eprintln!(
        "scan finished in {:.1}s ({} domain-snapshot records)",
        t0.elapsed().as_secs_f64(),
        store.records.len()
    );
    if !store.quarantine.is_empty() {
        let faulted: usize = store.records.iter().map(|r| r.pages_faulted).sum();
        let degraded: usize = store.records.iter().map(|r| r.pages_degraded).sum();
        eprintln!(
            "faults: {faulted} pages faulted, {degraded} degraded, {} quarantined",
            store.quarantine.len()
        );
    }
    if let Some(m) = &store.metrics {
        eprint!("{}", m.render());
    }
}

/// `hva chaos`: run the scan under deterministic fault injection at two
/// thread counts and verify the robustness invariants. Non-zero exit (an
/// `Err`) when any invariant fails, so CI can smoke-test robustness.
fn chaos(
    seed: u64,
    scale: f64,
    faults: hv_corpus::FaultPlan,
    threads: usize,
) -> Result<(), String> {
    let t0 = Instant::now();
    eprintln!("building archive (seed {seed}, scale {scale}) ...");
    let archive = Archive::new(CorpusConfig { seed, scale });
    // Single-threaded as the reference, the requested (or all-core) count
    // as the challenger: the pair is what makes thread-invariance a check.
    let thread_counts = [1usize, threads];
    eprintln!(
        "chaos: scanning {} domains under fault injection ({}) at threads {:?} ...",
        archive.domains().len(),
        faults.render(),
        thread_counts
    );
    let report = hv_pipeline::run_chaos(&archive, faults, &Snapshot::ALL, &thread_counts);
    eprintln!("chaos finished in {:.1}s", t0.elapsed().as_secs_f64());
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("chaos invariants FAILED".into())
    }
}

fn render_experiment(name: &str, store: &IndexedStore) -> Result<String, String> {
    hv_report::render(name, store)
        .ok_or_else(|| format!("unknown experiment: {name} (try `hva help`)"))
}

/// Surface what a partial load dropped — the report still renders, but
/// the operator must know it is built from a damaged store.
fn warn_dropped(store: &IndexedStore) {
    for d in &store.dropped {
        eprintln!(
            "warning: dropped segment {} at byte {}: {} (results exclude it)",
            d.segment, d.offset, d.detail
        );
    }
}

/// `hva store <action>`: maintenance verbs over saved result stores.
fn store_cmd(action: StoreAction) -> Result<(), String> {
    match action {
        StoreAction::Inspect { file, allow_partial } => {
            let loaded = ResultStore::load_with(&file, LoadOptions { allow_partial })
                .map_err(|e| format!("loading store: {e}"))?;
            let s = &loaded.store;
            println!("{}: {}", file.display(), loaded.format.name());
            println!("  seed       {:#x} ({})", s.seed, s.seed);
            println!("  scale      {}", s.scale);
            println!("  universe   {} domains", s.universe);
            println!("  records    {}", s.records.len());
            println!("  metrics    {}", if s.metrics.is_some() { "embedded" } else { "none" });
            println!("  quarantine {} page(s)", s.quarantine.len());
            if !loaded.segments.is_empty() {
                println!(
                    "  {:<16} {:>8} {:>9} {:>10} {:>11} {:>12} {:>12}",
                    "segment",
                    "records",
                    "analyzed",
                    "violating",
                    "pages-found",
                    "pages-anlzd",
                    "quarantined"
                );
                for seg in &loaded.segments {
                    println!(
                        "  {:<16} {:>8} {:>9} {:>10} {:>11} {:>12} {:>12}",
                        seg.snapshot.crawl_id(),
                        seg.records,
                        seg.domains_analyzed,
                        seg.domains_violating,
                        seg.pages_found,
                        seg.pages_analyzed,
                        seg.pages_quarantined
                    );
                }
            }
            for d in &loaded.dropped {
                println!("  DROPPED segment {} at byte {}: {}", d.segment, d.offset, d.detail);
            }
            Ok(())
        }
        StoreAction::Verify { file } => {
            // Strict load: any framing, checksum, or footer mismatch fails.
            let loaded = ResultStore::load_with(&file, LoadOptions::default())
                .map_err(|e| format!("verify FAILED: {e}"))?;
            println!(
                "OK: {} ({}, {} segment(s), {} record(s), checksums and footers verified)",
                file.display(),
                loaded.format.name(),
                loaded.segments.len(),
                loaded.store.records.len()
            );
            Ok(())
        }
        StoreAction::Migrate { src, dst, to, allow_partial } => {
            let loaded = ResultStore::load_with(&src, LoadOptions { allow_partial })
                .map_err(|e| format!("loading store: {e}"))?;
            for d in &loaded.dropped {
                eprintln!(
                    "warning: dropped segment {} at byte {}: {} (not migrated)",
                    d.segment, d.offset, d.detail
                );
            }
            let target = to.unwrap_or_else(|| StoreFormat::for_path(&dst));
            loaded.store.save_as(&dst, target).map_err(|e| format!("writing store: {e}"))?;
            println!(
                "migrated {} ({}) -> {} ({}), {} record(s)",
                src.display(),
                loaded.format.name(),
                dst.display(),
                target.name(),
                loaded.store.records.len()
            );
            Ok(())
        }
        StoreAction::Export { src, dst, allow_partial } => {
            let loaded = ResultStore::load_with(&src, LoadOptions { allow_partial })
                .map_err(|e| format!("loading store: {e}"))?;
            for d in &loaded.dropped {
                eprintln!(
                    "warning: dropped segment {} at byte {}: {} (not exported)",
                    d.segment, d.offset, d.detail
                );
            }
            loaded.store.save(&dst).map_err(|e| format!("writing JSON: {e}"))?;
            println!(
                "exported {} ({}) -> {} (v0-json), {} record(s)",
                src.display(),
                loaded.format.name(),
                dst.display(),
                loaded.store.records.len()
            );
            Ok(())
        }
    }
}
