//! Workloads, their shared set-up, and the untraced end-to-end run.
//!
//! Every run does the whole job on its workload's inputs, because every
//! run reports every end-to-end metric: scan the archive to a v1 store,
//! read it back and render every experiment, serve `/v1/check` traffic at a
//! fixed open-loop rate and then closed-loop, and check the pathological
//! page set over the wire. The two workloads differ in where the scan's
//! pages come from.

use crate::adversarial::{self, Case, Family};
use crate::calibrate::{self, Pace};
use crate::serve::{self, Conn, Traffic};
use crate::{sha256, stats};
use hv_core::{Battery, CheckContext};
use hv_corpus::{Archive, CorpusConfig, Snapshot};
use hv_pipeline::{run, warcscan, IndexedStore, ResultStore, ScanOptions};
use hv_server::api::v1::CheckResponse;
use hv_server::{ServeOptions, Server};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `scan_streamed` over the in-memory calibrated archive with one
    /// worker per core: the paper's study, and the engine every scan
    /// option goes through.
    ScanCorpus,
    /// The same archive exported to WARC + CDXJ files at set-up, read back
    /// from disk by `warcscan`: the only path through `hv_corpus::warc`
    /// and the single-threaded WARC loop.
    ScanWarc,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ScanCorpus, Workload::ScanWarc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCorpus => "scan_corpus",
            Workload::ScanWarc => "scan_warc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run's size depends on. [`Config::standard`] is the one
/// the recorded numbers come from.
#[derive(Debug, Clone)]
pub struct Config {
    /// Archive scale: 0.002 is 50 domains, 8 snapshots, about 32k pages.
    pub scale: f64,
    /// Distinct page bodies the `/v1/check` traffic cycles through; enough
    /// that their mean cost varies little from seed to seed.
    pub check_pages: usize,
    /// The open-loop rate, in requests per second: a constant near half
    /// of the saturation rate measured on the seed code.
    pub open_rate: f64,
    /// Client connections, server workers and scan threads: one per core.
    pub threads: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The pathological set: each family's n in bytes.
    pub adversarial: Vec<(Family, usize)>,
    /// Requests the traced connection loop serves.
    pub traced_requests: usize,
    /// Repetitions of each pathological page in the traced run.
    pub traced_adversarial_reps: usize,
}

/// Each round's open-loop slice (at least 1000 samples at the fixed rate,
/// so every slice supports a p99) and closed-loop slice.
///
/// `check_p50_ms` times each request from its send time. On a shared
/// 2-vCPU host the whole machine stalls for 10-40 ms several times a
/// second (a thread sleeping 1 ms oversleeps that much with nothing else
/// running); timed from the due time, each stall's backlog moves the p50
/// and sets the p99 of a whole run, so neither repeats within its bound.
/// The due-time p50 and p99 go with the provenance, and the traced run
/// reports the due-time `check_p99_ms` and the generator's lag.
const OPEN_SLICE: Duration = Duration::from_millis(700);
const CLOSED_SLICE: Duration = Duration::from_millis(500);

/// Reports are rendered back to back until this much time has passed in a
/// sample, so a short report (the WARC store's) is not one stall's length.
const REPORT_MIN: Duration = Duration::from_millis(300);

/// Report samples per round: the report is the most variable stage from
/// one moment to the next, so it gets more samples than the others.
const REPORT_LAPS: usize = 2;

impl Config {
    pub fn standard() -> Config {
        Config {
            scale: 0.002,
            check_pages: 1024,
            open_rate: 3000.0,
            threads: std::thread::available_parallelism().map_or(2, usize::from),
            setup_reps: 3,
            adversarial: vec![
                (Family::DeepNesting, 16_000),
                (Family::Formatting, 8_000),
                (Family::FosterTable, 64_000),
                (Family::DupAttrs, 16_000),
            ],
            traced_requests: 1024,
            traced_adversarial_reps: 5,
        }
    }
}

/// Store and report digests pinned for the standard configuration.
pub struct Pin {
    workload: Workload,
    seed: u64,
    pub store: &'static str,
    pub report: &'static str,
}

/// The default seed.
pub const DEFAULT_SEED: u64 = 4_740_657;
/// The held-out seed: claims made on the default seed are confirmed here.
pub const HELD_OUT_SEED: u64 = 20_221_025;

const PINS: &[Pin] = &[
    Pin {
        workload: Workload::ScanCorpus,
        seed: DEFAULT_SEED,
        store: "35b99680cf5f4026dbbc3253a2156973a58cc789032f996d24da39407ea0d358",
        report: "2505d2bea4fdc578c3e3f9eced4fd7dc48b9dd88cb82b0a5fc60f998ec5c9ce4",
    },
    Pin {
        workload: Workload::ScanCorpus,
        seed: HELD_OUT_SEED,
        store: "99005852248ce3063b919b6a825eaa5ee82186460e709095cbb22f851d3245a5",
        report: "314251018776f8e1206572f4b4da4852e4d93d423a68fda1c08a710d2adc3b5a",
    },
    Pin {
        workload: Workload::ScanWarc,
        seed: DEFAULT_SEED,
        store: "897328c99e0f4c561e16b7765e6b805860776cc785cfd3efbcd1e6ce3029f39a",
        report: "5676c3c450b1c706e560858187ae7ea518241abbef420a6fa73e9b4168b3a69c",
    },
    Pin {
        workload: Workload::ScanWarc,
        seed: HELD_OUT_SEED,
        store: "dfb22bef007abbc31bc326bc5549a8d5d562def24d4f02fc072e6731803a0543",
        report: "972a065e8b999c046a35080cc6f7157aa134f4642418bbd54f8051d6e6f437ea",
    },
];

pub fn pin(cfg: &Config, workload: Workload, seed: u64) -> Option<&'static Pin> {
    let standard = Config::standard();
    let same = cfg.scale == standard.scale;
    PINS.iter().find(|p| same && p.workload == workload && p.seed == seed)
}

/// The inputs of one run, built by [`setup`].
pub struct Fixture {
    pub archive: Archive,
    /// Bodies of the `/v1/check` traffic, sampled from the archive.
    pub bodies: Vec<String>,
    pub requests: Vec<Vec<u8>>,
    /// The `CheckResponse` JSON each body must get back, from `Battery`.
    pub expected: Vec<Vec<u8>>,
    pub cases: Vec<Case>,
    pub case_requests: Vec<Vec<u8>>,
    pub case_expected: Vec<Vec<u8>>,
    pub warc_dir: Option<PathBuf>,
    server: Option<Server>,
}

impl Fixture {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }

    pub fn traffic(&self) -> Traffic<'_> {
        Traffic { requests: &self.requests, expected: &self.expected }
    }

    pub fn case_traffic(&self) -> Traffic<'_> {
        Traffic { requests: &self.case_requests, expected: &self.case_expected }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The `/v1/check` response body the server must send for `html`.
pub fn expected_json(battery: &mut Battery, html: &str) -> Vec<u8> {
    let cx = CheckContext::new(html);
    let response = CheckResponse::from(battery.run_ref(&cx));
    serde_json::to_string(&response).expect("CheckResponse serializes").into_bytes()
}

/// `n` distinct UTF-8 pages of the archive, chosen by `seed`.
fn sample_bodies(archive: &Archive, seed: u64, n: usize) -> Vec<String> {
    let mut slots = Vec::new();
    let mut total = 0usize;
    for (d, domain) in archive.domains().iter().enumerate() {
        for snap in Snapshot::ALL {
            if let Some(cdx) = archive.cdx_lookup(domain, snap) {
                if cdx.snapshot.utf8_ok {
                    slots.push((total, d, snap));
                    total += cdx.pages.len();
                }
            }
        }
    }
    let want = n.min(total);
    let mut chosen = BTreeSet::new();
    let mut draw = 0u64;
    while chosen.len() < want {
        chosen.insert(hv_corpus::rng::below(seed, &[0xC4EC, draw], total));
        draw += 1;
    }
    let mut bodies = Vec::with_capacity(want);
    for g in chosen {
        let slot = slots.partition_point(|s| s.0 <= g) - 1;
        let (start, d, snap) = slots[slot];
        let cdx = archive.cdx_lookup(&archive.domains()[d], snap).expect("slot came from a hit");
        let body = archive.fetch_page(&cdx.snapshot, cdx.pages[g - start].page_index);
        if let Ok(text) = String::from_utf8(body) {
            bodies.push(text);
        }
    }
    bodies
}

/// Build a run's inputs: the archive, the sampled check traffic, the
/// pathological set, the WARC export (when asked), the server, and every
/// expected answer.
pub fn setup(cfg: &Config, seed: u64, work: &Path, warc: bool) -> Result<Fixture, String> {
    let archive = Archive::new(CorpusConfig { seed, scale: cfg.scale });
    let bodies = sample_bodies(&archive, seed, cfg.check_pages);
    let cases = adversarial::cases(&cfg.adversarial);
    let warc_dir = if warc {
        let dir = work.join("warc");
        for snap in Snapshot::ALL {
            hv_corpus::warc::export_snapshot(&archive, snap, &dir, usize::MAX)
                .map_err(|e| format!("exporting {snap} to WARC: {e}"))?;
        }
        Some(dir)
    } else {
        None
    };
    let server = hv_server::serve(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .threads(cfg.threads)
            .read_timeout(Duration::from_secs(30)),
    )
    .map_err(|e| format!("starting the server: {e}"))?;

    let mut battery = Battery::full();
    let requests = bodies.iter().map(|b| serve::check_request(b.as_bytes())).collect();
    let expected = bodies.iter().map(|b| expected_json(&mut battery, b)).collect();
    let case_requests = cases.iter().map(|c| serve::check_request(c.html.as_bytes())).collect();
    let case_expected = cases.iter().map(|c| expected_json(&mut battery, &c.html)).collect();
    Ok(Fixture {
        archive,
        bodies,
        requests,
        expected,
        cases,
        case_requests,
        case_expected,
        warc_dir,
        server: Some(server),
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub mismatches: Vec<String>,
    /// Run facts for the provenance line.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

fn file_digest(path: &Path) -> Result<String, String> {
    std::fs::read(path)
        .map(|b| sha256::hex(&b))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Digest of every rendered experiment, in order.
pub fn report_digest(outputs: &[String]) -> String {
    let mut h = sha256::Sha256::default();
    for o in outputs {
        h.update(o.as_bytes());
        h.update(&[0]);
    }
    h.hex()
}

/// The untraced run: every end-to-end metric.
///
/// The stages run in rounds (scan, report, pathological set, an open-loop
/// slice, a closed-loop slice) until `seconds` have passed, so every
/// metric samples the whole run rather than one stretch of it: the speed
/// of a shared machine drifts by several percent within a minute. Each
/// figure is stated at the reference pace (see [`calibrate`]), which takes
/// out the drift between runs.
pub fn run(
    cfg: &Config,
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut pace = Pace::new();
    let mut setup_s = Samples::default();
    let mut fixture = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(setup(cfg, seed, work, workload == Workload::ScanWarc)?);
        setup_s.time(t.elapsed().as_secs_f64(), pace.lap());
    }
    let fx = fixture.expect("at least one set-up");
    crate::provenance::reset_peak_rss();

    let store_path = work.join("store.hvs");
    let traffic = fx.traffic();
    let cases = fx.case_traffic();
    let (mut scan_rates, mut store_digests, mut warc_store) =
        (Samples::default(), BTreeSet::new(), None);
    let (mut report_s, mut report_digests) = (Samples::default(), BTreeSet::new());
    let mut adversarial_s = Samples::default();
    let (mut latencies, mut lags, mut smallest) = (Vec::new(), Vec::new(), usize::MAX);
    let mut slice_p50 = Vec::new();
    let (mut sat_rps, mut closed_requests) = (Samples::default(), 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;

        // Scan to a store on disk.
        let (analyzed, listed, quarantined, secs) = match workload {
            Workload::ScanCorpus => {
                let opts = ScanOptions::new().threads(cfg.threads).overwrite(true);
                let t = Instant::now();
                let s = run::scan_streamed(&fx.archive, &Snapshot::ALL, opts, &store_path)
                    .map_err(|e| format!("scan_streamed: {e}"))?;
                let secs = t.elapsed().as_secs_f64();
                let analyzed = s.segments.iter().map(|g| g.pages_analyzed).sum::<u64>();
                let listed = s.segments.iter().map(|g| g.pages_found).sum::<u64>();
                (analyzed, listed, s.quarantined as u64, secs)
            }
            Workload::ScanWarc => {
                let dir = fx.warc_dir.as_deref().expect("the WARC workload exports at set-up");
                let t = Instant::now();
                let inputs = warcscan::discover(dir).map_err(|e| format!("discover: {e}"))?;
                let store = warcscan::scan_warc(&inputs).map_err(|e| format!("scan_warc: {e}"))?;
                let secs = t.elapsed().as_secs_f64();
                store.save_v1(&store_path).map_err(|e| format!("saving the WARC store: {e}"))?;
                let analyzed = store.records.iter().map(|r| r.pages_analyzed as u64).sum::<u64>();
                let listed = store.records.iter().map(|r| r.pages_found as u64).sum::<u64>();
                let quarantined = store.quarantine.len() as u64;
                warc_store = Some(store);
                (analyzed, listed, quarantined, secs)
            }
        };
        out.attempted += listed;
        out.failed += quarantined;
        store_digests.insert(file_digest(&store_path)?);
        scan_rates.rate(analyzed as f64 / secs, pace.lap());

        // Read the store back and render every experiment.
        for _ in 0..REPORT_LAPS {
            let t = Instant::now();
            let mut reports = 0;
            while reports == 0 || t.elapsed() < REPORT_MIN {
                let store = IndexedStore::load(&store_path)
                    .map_err(|e| format!("loading the store: {e}"))?;
                let outputs: Vec<String> = hv_report::EXPERIMENTS
                    .iter()
                    .map(|name| {
                        hv_report::render(name, &store).expect("every listed experiment renders")
                    })
                    .collect();
                report_digests.insert(report_digest(&outputs));
                reports += 1;
            }
            report_s.time(t.elapsed().as_secs_f64() / f64::from(reports), pace.lap());
        }

        // The pathological set, one page at a time over one connection.
        // The server gives each open connection a worker of its own, so
        // this one closes before the check traffic needs every worker.
        let mut conn = Conn::connect(fx.addr()).map_err(|e| format!("connecting: {e}"))?;
        let t = Instant::now();
        for (req, want) in cases.requests.iter().zip(cases.expected) {
            out.attempted += 1;
            match conn.round_trip(req) {
                Ok((200, body)) if &body == want => {}
                Ok((status, _)) => {
                    out.failed += 1;
                    out.mismatches
                        .push(format!("pathological page answered {status} or a wrong body"));
                }
                Err(e) => return Err(format!("pathological request failed: {e}")),
            }
        }
        let secs = t.elapsed().as_secs_f64();
        drop(conn);
        adversarial_s.time(secs, pace.lap());

        // The check service: a slice at the fixed rate, then saturation.
        let open = serve::open_loop(fx.addr(), &traffic, cfg.open_rate, OPEN_SLICE, cfg.threads);
        let slice = sorted(&open.due_ms);
        smallest = smallest.min(slice.len());
        slice_p50.push(stats::percentile(&sorted(&open.service_ms), 0.5));
        // A point between the slices, so the closed slice's lap is its own.
        pace.lap();
        latencies.extend(slice);
        lags.extend(open.lags_ms);
        let closed = serve::closed_loop(fx.addr(), &traffic, CLOSED_SLICE, cfg.threads);
        sat_rps.rate(closed.completed() as f64 / closed.elapsed_s, pace.lap());
        closed_requests += closed.attempted;
        out.attempted += open.attempted + closed.attempted;
        out.failed += open.failed + closed.failed;
    }
    let peak_rss_mib = crate::provenance::peak_rss_mib();

    out.check(store_digests.len() == 1, || {
        format!("scan stores differ between rounds: {store_digests:?}")
    });
    out.check(report_digests.len() == 1, || {
        format!("reports differ between rounds: {report_digests:?}")
    });
    out.check(stats::supports_percentile(smallest, 0.99), || {
        format!("open-loop slices of {smallest} samples cannot support p99")
    });
    let store_digest = store_digests.into_iter().next().unwrap_or_default();
    let report_digest = report_digests.into_iter().next().unwrap_or_default();
    verify_scan(cfg, workload, &fx, work, &store_digest, warc_store.as_ref(), &mut out)?;
    if let Some(p) = pin(cfg, workload, seed) {
        out.check(store_digest == p.store, || {
            format!("store sha256 {store_digest} differs from the pinned {}", p.store)
        });
        out.check(report_digest == p.report, || {
            format!("report sha256 {report_digest} differs from the pinned {}", p.report)
        });
    }

    latencies.sort_by(f64::total_cmp);
    // A request at the fixed rate spends about half its time in wake-ups
    // and the loopback path, which do not keep step with the pace kernel:
    // over eight sets of five to ten runs its p50 went as the kernel time
    // to the power 0.5, and scaling it by the whole slowdown, lap by lap or
    // per run, widened its spread instead. So the p50 is scaled by the
    // square root of the run's slowdown.
    let p50 = stats::median(&slice_p50);
    let p50_at_pace = p50 / pace.slowdown().sqrt();
    out.metrics = vec![
        ("setup_s", stats::median(&setup_s.at_pace), "s"),
        ("scan_pages_per_s", stats::median(&scan_rates.at_pace), "1/s"),
        ("report_s", stats::median(&report_s.at_pace), "s"),
        ("check_p50_ms", p50_at_pace, "ms"),
        ("check_sat_rps", stats::median(&sat_rps.at_pace), "1/s"),
        ("adversarial_s", stats::median(&adversarial_s.at_pace), "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    let measured = [
        ("setup_s", stats::median(&setup_s.measured)),
        ("scan_pages_per_s", stats::median(&scan_rates.measured)),
        ("report_s", stats::median(&report_s.measured)),
        ("check_p50_ms", p50),
        ("check_sat_rps", stats::median(&sat_rps.measured)),
        ("adversarial_s", stats::median(&adversarial_s.measured)),
    ];
    let measured: Vec<String> = measured.iter().map(|(name, v)| format!("{name} {v}")).collect();
    out.facts.push(("as_measured", measured.join(", ")));
    out.facts.extend([
        ("pace_kernel_s", format!("{} (median of {} passes)", pace.kernel_s(), pace.passes())),
        ("pace_nominal_s", calibrate::NOMINAL_S.to_string()),
        ("rounds", rounds.to_string()),
        ("setup_reps", setup_s.measured.len().to_string()),
        ("check_pages", fx.bodies.len().to_string()),
        ("check_open_rate_rps", cfg.open_rate.to_string()),
        ("check_open_samples", latencies.len().to_string()),
        (
            "check_p50",
            format!(
                "median of {rounds} slices' p50 from the send time, each of >= {smallest} samples"
            ),
        ),
        ("check_p50_from_due_ms", stats::percentile(&latencies, 0.5).to_string()),
        ("check_p99_from_due_ms", stats::percentile(&latencies, 0.99).to_string()),
        ("check_open_lag_p99_ms", stats::percentile(&sorted(&lags), 0.99).to_string()),
        ("check_closed_requests", closed_requests.to_string()),
        ("store_sha256", store_digest),
        ("report_sha256", report_digest),
    ]);
    for (name, samples) in [
        ("rounds_scan_pages_per_s", &scan_rates.measured),
        ("rounds_scan_pages_per_s_at_pace", &scan_rates.at_pace),
        ("rounds_report_s", &report_s.measured),
        ("rounds_report_s_at_pace", &report_s.at_pace),
        ("rounds_check_p50_ms", &slice_p50),
        ("rounds_check_sat_rps", &sat_rps.measured),
        ("rounds_check_sat_rps_at_pace", &sat_rps.at_pace),
        ("rounds_adversarial_s", &adversarial_s.measured),
        ("rounds_adversarial_s_at_pace", &adversarial_s.at_pace),
    ] {
        out.facts
            .push((name, samples.iter().map(|v| format!("{v:.6}")).collect::<Vec<_>>().join(",")));
    }
    Ok(out)
}

/// One metric's samples, as measured and at the reference pace.
#[derive(Default)]
struct Samples {
    measured: Vec<f64>,
    at_pace: Vec<f64>,
}

impl Samples {
    /// A time, divided by the host's slowdown over the stretch it was
    /// measured in.
    fn time(&mut self, v: f64, slowdown: f64) {
        self.measured.push(v);
        self.at_pace.push(v / slowdown);
    }

    /// A rate, multiplied by the slowdown.
    fn rate(&mut self, v: f64, slowdown: f64) {
        self.measured.push(v);
        self.at_pace.push(v * slowdown);
    }
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Check the scan's store against a single-threaded reference scan of the
/// same archive: byte-identical for the in-memory engine, and the same
/// per-domain findings for the WARC path. Also reconciles the page
/// accounting: listed = analyzed + rejected + quarantined.
fn verify_scan(
    cfg: &Config,
    workload: Workload,
    fx: &Fixture,
    work: &Path,
    store_digest: &str,
    warc_store: Option<&ResultStore>,
    out: &mut Outcome,
) -> Result<(), String> {
    let opts = ScanOptions::new().threads(1).collect_metrics(true);
    let mut reference = run::scan_snapshots(&fx.archive, &Snapshot::ALL, opts);
    let m = reference.metrics.take().expect("metrics were requested");
    out.check(
        m.pages_analyzed + m.pages_rejected_utf8 + m.faults.quarantined == m.pages_listed,
        || {
            format!(
                "page accounting: {} analyzed + {} rejected + {} quarantined != {} listed",
                m.pages_analyzed, m.pages_rejected_utf8, m.faults.quarantined, m.pages_listed
            )
        },
    );
    match workload {
        Workload::ScanCorpus => {
            let path = work.join("reference.hvs");
            reference.save_v1(&path).map_err(|e| format!("saving the reference: {e}"))?;
            let want = file_digest(&path)?;
            out.check(store_digest == want, || {
                format!(
                    "store at {} threads ({store_digest}) differs from the 1-thread reference ({want})",
                    cfg.threads
                )
            });
        }
        Workload::ScanWarc => {
            let warc = warc_store.expect("the WARC scan ran");
            let listed: u64 = warc.records.iter().map(|r| r.pages_found as u64).sum();
            out.check(listed == m.pages_listed, || {
                format!("WARC scan listed {listed} pages, the archive {}", m.pages_listed)
            });
            for w in &warc.records {
                let same = reference
                    .records
                    .iter()
                    .find(|r| r.domain_name == w.domain_name && r.snapshot == w.snapshot);
                out.check(
                    same.is_some_and(|r| {
                        r.kinds == w.kinds
                            && r.page_counts == w.page_counts
                            && r.pages_analyzed == w.pages_analyzed
                            && r.mitigations == w.mitigations
                            && r.uses_math == w.uses_math
                    }),
                    || {
                        format!(
                            "WARC record {} {} disagrees with the archive scan",
                            w.domain_name, w.snapshot
                        )
                    },
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A configuration whose every stage finishes in about a second.
    pub fn smoke() -> Config {
        Config {
            scale: 0.0005,
            check_pages: 16,
            open_rate: 2000.0,
            threads: 2,
            setup_reps: 1,
            adversarial: Family::ALL.iter().map(|&f| (f, 1500)).collect(),
            traced_requests: 32,
            traced_adversarial_reps: 2,
        }
    }

    pub fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e2ebench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub fn benchmark_json() -> serde_json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    pub fn names(v: &serde_json::Value, key: &str) -> Vec<String> {
        v[key].as_array().unwrap().iter().map(|m| m["name"].as_str().unwrap().to_owned()).collect()
    }

    fn smoke_run(workload: Workload) {
        let dir = scratch(workload.name());
        let out = run(&smoke(), workload, 7, 0.1, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.correct(), "{:?}", out.mismatches);
        assert!(out.attempted > 1000 && out.failed == 0);
        let printed: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(printed, names(&benchmark_json(), "end_to_end"));
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn smoke_scan_corpus() {
        smoke_run(Workload::ScanCorpus);
    }

    #[test]
    fn smoke_scan_warc() {
        smoke_run(Workload::ScanWarc);
    }

    #[test]
    fn every_workload_is_listed_in_the_benchmark() {
        let listed = names(&benchmark_json(), "workloads");
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert!(Workload::ALL.iter().all(|w| Workload::parse(w.name()) == Some(*w)));
    }

    #[test]
    fn samples_are_distinct_utf8_pages_fixed_by_the_seed() {
        let archive = Archive::new(CorpusConfig { seed: 3, scale: 0.0005 });
        let a = sample_bodies(&archive, 3, 20);
        assert_eq!(a, sample_bodies(&archive, 3, 20));
        assert_eq!(a.len(), 20);
        assert!(a.iter().collect::<BTreeSet<_>>().len() > 15);
        assert_ne!(a, sample_bodies(&archive, 4, 20));
    }
}
