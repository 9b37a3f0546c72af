//! The Figure-6 pipeline orchestrator — one page-granular scan engine for
//! every [`PageSource`], run snapshot by snapshot.
//!
//! Steps: (1) the source lists the snapshot's slots and the driver
//! flattens them into one page index (prefix sums over the per-slot page
//! counts). Workers then pull *individual pages* from an atomic cursor —
//! no domain is large enough to straggle — and (2) fetch each through the
//! source. Each worker owns one reusable [`hv_core::Battery`] (3) and
//! accumulates per-domain partials locally; (4) after the join the driver
//! folds the partials into [`DomainYearRecord`]s. Every merge is
//! commutative (set union, count addition, flag OR), so the result is
//! byte-identical at any thread count. [`scan_snapshots`] and
//! [`scan_streamed`] differ only in where a snapshot's records go.
//!
//! With [`ScanOptions::collect_metrics`] the workers additionally time
//! each phase (fetch/decode/parse/check) and every individual rule into a
//! [`ScanMetrics`], merged lock-free at the join and embedded in the
//! store as provenance.

use crate::format::{Resumed, SegmentSummary, StoreHeader, StoreWriter};
use crate::metrics::{PhaseNanos, ScanMetrics};
use crate::outcome::{ErrorClass, QuarantineEntry, FETCH_ATTEMPTS};
use crate::store::{DomainYearRecord, ResultStore};
use hv_core::context::CheckContext;
use hv_core::{Battery, HvError, MitigationFlags, ViolationKind};
use hv_corpus::faults::{FaultClass, FaultPlan, FetchFault, PageKey};
use hv_corpus::warc::WarcError;
use hv_corpus::{Archive, DomainSnapshot, Snapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Scan options. Construct with [`ScanOptions::new`] and chain the
/// builder methods; the struct is `#[non_exhaustive]` so new knobs can be
/// added without breaking callers.
///
/// ```
/// use hv_pipeline::ScanOptions;
/// let opts = ScanOptions::new().threads(8).progress_every(500).collect_metrics(true);
/// assert_eq!(opts.threads, 8);
/// ```
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ScanOptions {
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
    /// Print progress to stderr every this many pages (0 = silent).
    pub progress_every: usize,
    /// Collect [`ScanMetrics`] (per-phase timings, per-check fire counts)
    /// and embed them in the store. Adds two clock reads per page plus one
    /// per rule execution.
    pub collect_metrics: bool,
    /// Deterministic fault injection over the read path (`None` = clean
    /// scan). See [`hv_corpus::faults`].
    pub faults: Option<FaultPlan>,
    /// Record bodies larger than this are quarantined
    /// ([`ErrorClass::OversizedBody`]) instead of parsed.
    pub byte_budget: usize,
    /// Resume a crash-interrupted streamed scan: validate the existing
    /// store's prefix, skip its completed snapshots, and append the rest
    /// (see [`StoreWriter::resume`]). Only meaningful for
    /// [`scan_streamed`].
    pub resume: bool,
    /// Allow [`scan_streamed`] to replace an existing non-empty store
    /// (without it, clobbering is refused with
    /// [`HvError::StoreExists`](hv_core::HvError::StoreExists)).
    pub overwrite: bool,
}

/// Default per-record byte budget: far above any page the generator emits,
/// far below anything that could pressure memory.
pub const DEFAULT_BYTE_BUDGET: usize = 1 << 20;

impl ScanOptions {
    /// The defaults: all cores, silent, no metrics, no faults, 1 MiB byte
    /// budget.
    pub fn new() -> Self {
        ScanOptions {
            threads: 0,
            progress_every: 0,
            collect_metrics: false,
            faults: None,
            byte_budget: DEFAULT_BYTE_BUDGET,
            resume: false,
            overwrite: false,
        }
    }

    /// Worker threads; 0 = one per available core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Print progress to stderr every `every` pages (0 = silent).
    pub fn progress_every(mut self, every: usize) -> Self {
        self.progress_every = every;
        self
    }

    /// Toggle [`ScanMetrics`] collection.
    pub fn collect_metrics(mut self, on: bool) -> Self {
        self.collect_metrics = on;
        self
    }

    /// Inject deterministic faults into the read path.
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override the per-record byte budget.
    pub fn byte_budget(mut self, budget: usize) -> Self {
        self.byte_budget = budget;
        self
    }

    /// Resume a crash-interrupted streamed scan at the target path.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Allow a streamed scan to replace an existing non-empty store.
    pub fn overwrite(mut self, on: bool) -> Self {
        self.overwrite = on;
        self
    }

    /// The worker count `threads` resolves to.
    fn workers(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            n => n,
        }
    }
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions::new()
    }
}

/// Where a scan's pages come from: the synthetic [`Archive`], or WARC+CDXJ
/// files ([`WarcSource`](crate::warcscan::WarcSource)). A source lists one
/// snapshot's (domain, pages) slots and fetches one page body; everything
/// else — workers, retries, fault injection, guards, metrics, streaming and
/// resume — is the engine's, so every source gets all of it.
pub trait PageSource: Sync {
    /// What the source needs to fetch a slot's pages.
    type Locator: Sync;

    /// The provenance a store of this source is stamped with.
    fn header(&self) -> StoreHeader;

    /// One snapshot's slots, plus index entries refused before any fetch.
    fn list(&self, snap: Snapshot) -> Listing<Self::Locator>;

    /// Fetch page `page` of the slot found `at`, or the reason it cannot
    /// be fetched. A source that can tell from its index that a record
    /// cannot hold a body within `budget` bytes may refuse it unread.
    fn fetch(&self, at: &Self::Locator, page: usize, budget: usize) -> Result<Vec<u8>, ErrorClass>;
}

/// One snapshot as a [`PageSource`] lists it.
#[derive(Debug, Clone, Default)]
pub struct Listing<L> {
    pub slots: Vec<Slot<L>>,
    /// Entries refused at listing (malformed CDXJ lines name no page).
    pub quarantine: Vec<QuarantineEntry>,
}

/// One listed (domain, snapshot) — the unit the partials merge back into.
#[derive(Debug, Clone)]
pub struct Slot<L> {
    pub domain_id: u64,
    pub domain_name: String,
    pub rank: u32,
    /// One URL per page, in page-index order.
    pub urls: Vec<String>,
    pub locator: L,
}

impl PageSource for Archive {
    type Locator = DomainSnapshot;

    fn header(&self) -> StoreHeader {
        StoreHeader { seed: self.cfg.seed, scale: self.cfg.scale, universe: self.domains().len() }
    }

    fn list(&self, snap: Snapshot) -> Listing<DomainSnapshot> {
        let slots = self
            .domains()
            .iter()
            .filter_map(|domain| {
                let cdx = self.cdx_lookup(domain, snap)?;
                Some(Slot {
                    domain_id: domain.id,
                    domain_name: domain.name.clone(),
                    rank: domain.rank,
                    urls: cdx.pages.into_iter().map(|entry| entry.url).collect(),
                    locator: cdx.snapshot,
                })
            })
            .collect();
        Listing { slots, quarantine: Vec::new() }
    }

    fn fetch(&self, ds: &DomainSnapshot, page: usize, _: usize) -> Result<Vec<u8>, ErrorClass> {
        Ok(self.fetch_page(ds, page))
    }
}

/// Run the full measurement: every listed domain, every snapshot, up to
/// 100 pages each — the paper's §4.1 study execution.
pub fn scan<S: PageSource>(source: &S, opts: ScanOptions) -> ResultStore {
    scan_snapshots(source, &Snapshot::ALL, opts)
}

/// Run the measurement for a subset of snapshots, into memory.
pub fn scan_snapshots<S: PageSource>(
    source: &S,
    snapshots: &[Snapshot],
    opts: ScanOptions,
) -> ResultStore {
    let start = Instant::now();
    let StoreHeader { seed, scale, universe } = source.header();
    let mut store = ResultStore::new(seed, scale, universe);
    let mut metrics = ScanMetrics::default();
    for &snap in snapshots {
        let (records, quarantine) = scan_snapshot(source, snap, opts, &mut metrics);
        store.records.extend(records);
        store.quarantine.extend(quarantine);
    }
    store.finalize();
    store.metrics = opts.collect_metrics.then(|| metrics.finish(opts.workers(), start));
    store
}

/// What a streamed scan produced: everything except the records, which
/// went straight to disk.
#[derive(Debug, Clone)]
pub struct ScanSummary {
    /// Records written across all segments.
    pub records: u64,
    /// Pages set aside with a structured reason.
    pub quarantined: usize,
    /// Per-segment summaries, in snapshot order (matches the footers).
    pub segments: Vec<SegmentSummary>,
    /// The merged metrics, when [`ScanOptions::collect_metrics`] was on.
    pub metrics: Option<ScanMetrics>,
    /// Segments recovered from an existing store by [`ScanOptions::resume`]
    /// (0 on fresh scans).
    pub resumed_segments: usize,
    /// Torn-tail bytes a resume truncated before appending (0 on fresh
    /// scans and clean prefixes).
    pub truncated_bytes: u64,
}

/// Run the measurement snapshot by snapshot, streaming each snapshot's
/// records to a v1 store segment at `path` as it completes — peak memory
/// holds one snapshot's records, not the whole run. Each segment embeds
/// its snapshot's quarantine entries and is fsynced as it lands, so a
/// crash at any point leaves a valid prefix that
/// [`ScanOptions::resume`] can continue — and because every source is
/// deterministic, the resumed store is byte-identical to an uninterrupted
/// run. Scanned-but-empty snapshots get an (empty) segment too, so the
/// completed set on disk is exact.
///
/// The per-snapshot call is the one [`scan_snapshots`] makes, so the store
/// on disk is byte-identical to `scan_snapshots` +
/// [`ResultStore::save_v1`] (modulo metric timings, and modulo empty
/// segments, which `save_v1` cannot distinguish from unscanned ones) at
/// any thread count.
pub fn scan_streamed<S: PageSource>(
    source: &S,
    snapshots: &[Snapshot],
    opts: ScanOptions,
    path: &std::path::Path,
) -> Result<ScanSummary, HvError> {
    let start = Instant::now();
    let mut snaps: Vec<Snapshot> = snapshots.to_vec();
    snaps.sort();
    snaps.dedup();

    let StoreHeader { seed, scale, universe } = source.header();
    let (mut writer, truncated_bytes) = if opts.resume {
        match StoreWriter::resume(path, seed, scale, universe)? {
            Resumed::Complete { segments } => {
                // Nothing to append — report what the finished store holds.
                let store = ResultStore::load(path)?;
                return Ok(ScanSummary {
                    records: segments.iter().map(|s| u64::from(s.records)).sum(),
                    quarantined: store.quarantine.len(),
                    resumed_segments: segments.len(),
                    truncated_bytes: 0,
                    segments,
                    metrics: store.metrics,
                });
            }
            Resumed::Partial { writer, truncated } => (writer, truncated),
        }
    } else if opts.overwrite {
        (StoreWriter::create_overwrite(path, seed, scale, universe)?, 0)
    } else {
        (StoreWriter::create(path, seed, scale, universe)?, 0)
    };
    let resumed_segments = writer.completed().len();
    let completed: BTreeSet<Snapshot> = writer.completed().iter().map(|s| s.snapshot).collect();

    let mut metrics = ScanMetrics::default();
    for &snap in snaps.iter().filter(|s| !completed.contains(s)) {
        let (records, quarantine) = scan_snapshot(source, snap, opts, &mut metrics);
        // Empty segments are written too: on disk, "scanned and found
        // nothing" must stay distinguishable from "never scanned", or a
        // resume would re-scan (and a reader under-count) the snapshot.
        writer.write_segment(snap, &records, &quarantine)?;
    }

    let metrics = opts.collect_metrics.then(|| metrics.finish(opts.workers(), start));
    if let Some(m) = &metrics {
        writer.write_metrics(m)?;
    }
    let segments = writer.finish()?;
    let records = segments.iter().map(|s| u64::from(s.records)).sum();
    let quarantined = segments.iter().map(|s| s.pages_quarantined as usize).sum();
    Ok(ScanSummary { records, quarantined, segments, metrics, resumed_segments, truncated_bytes })
}

/// A worker's running totals for one slot. All fields merge commutatively.
#[derive(Default)]
struct Partial {
    analyzed: usize,
    kinds: BTreeSet<hv_core::ViolationKind>,
    page_counts: BTreeMap<hv_core::ViolationKind, u32>,
    mitigations: MitigationFlags,
    uses_math: bool,
    /// Pages with an injected fault (any class).
    faulted: usize,
    /// Pages analyzed only after transient-error retries.
    degraded: usize,
    /// Pages set aside with a structured reason.
    quarantined: usize,
}

impl Partial {
    fn absorb(&mut self, other: Partial) {
        self.analyzed += other.analyzed;
        self.kinds.extend(other.kinds);
        for (k, n) in other.page_counts {
            *self.page_counts.entry(k).or_insert(0) += n;
        }
        self.mitigations.merge(other.mitigations);
        self.uses_math |= other.uses_math;
        self.faulted += other.faulted;
        self.degraded += other.degraded;
        self.quarantined += other.quarantined;
    }
}

/// What every worker of one snapshot's pool shares.
struct Job<'a, S: PageSource> {
    source: &'a S,
    snap: Snapshot,
    slots: &'a [Slot<S::Locator>],
    /// Prefix sums: global page index g lives in slot
    /// `partition_point(starts, <= g) - 1` at local offset `g - starts[slot]`.
    starts: Vec<usize>,
    total: usize,
    cursor: AtomicUsize,
    done: AtomicUsize,
    opts: ScanOptions,
}

impl<S: PageSource> Job<'_, S> {
    fn bump_progress(&self) {
        let d = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.opts.progress_every > 0 && d.is_multiple_of(self.opts.progress_every) {
            eprintln!("  {}: scanned {d}/{} pages", self.snap, self.total);
        }
    }
}

/// One snapshot through the engine: list it, fetch and check every page
/// on the worker pool, and fold the partials into records. Returns the
/// snapshot's records and its quarantine entries in canonical order; the
/// workers' metrics fold into `metrics`.
fn scan_snapshot<S: PageSource>(
    source: &S,
    snap: Snapshot,
    opts: ScanOptions,
    metrics: &mut ScanMetrics,
) -> (Vec<DomainYearRecord>, Vec<QuarantineEntry>) {
    // Phase (1): the listing, driver-side. Cheap relative to parsing, and
    // doing it up front yields the flat page index the workers need.
    let cdx_start = Instant::now();
    let Listing { slots, mut quarantine } = source.list(snap);
    let cdx_nanos = cdx_start.elapsed().as_nanos() as u64;

    let mut starts = Vec::with_capacity(slots.len());
    let mut total = 0usize;
    for slot in &slots {
        starts.push(total);
        total += slot.urls.len();
    }
    let (cursor, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let job = Job { source, snap, slots: &slots, starts, total, cursor, done, opts };

    let worker_out: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.workers()).map(|_| s.spawn(|| scan_worker(&job))).collect();
        // Per-page panics are caught *inside* the worker (quarantined as
        // [`ErrorClass::ParserPanic`]); a worker dying here would be an
        // engine bug, not an input problem.
        handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect()
    });

    // Listing refusals count as listed and quarantined, so the page
    // accounting (listed = analyzed + rejected + quarantined) closes.
    metrics.phases.cdx += cdx_nanos;
    metrics.domain_snapshots += slots.len() as u64;
    metrics.pages_listed += (total + quarantine.len()) as u64;
    for q in &quarantine {
        metrics.faults.bump_quarantine(q.class);
    }

    // Fold worker partials per slot. Each merge is commutative, and the
    // quarantine union is sorted below, so the worker order cannot show
    // through.
    let mut merged: Vec<Partial> = (0..slots.len()).map(|_| Partial::default()).collect();
    for out in worker_out {
        for (slot_idx, partial) in out.partials {
            merged[slot_idx].absorb(partial);
        }
        metrics.merge(&out.metrics);
        quarantine.extend(out.quarantine);
    }
    // Records need no sort: both the store and the segment writer order them.
    quarantine.sort_by_key(|q| (q.domain_id, q.page_index));
    let records = slots.into_iter().zip(merged).map(|(slot, p)| make_record(snap, slot, p));
    (records.collect(), quarantine)
}

/// Everything one worker hands back at the join.
struct WorkerOut {
    partials: BTreeMap<usize, Partial>,
    quarantine: Vec<QuarantineEntry>,
    metrics: ScanMetrics,
}

/// One fetch through the (optionally fault-injected) read path.
struct Fetched {
    body: Result<Vec<u8>, ErrorClass>,
    /// A fault was planned for this page (any class).
    faulted: bool,
    /// The planned fault was invalid UTF-8 (handled by the §4.1 filter).
    invalid_utf8: bool,
    /// Transient-error retries performed.
    retries: u32,
}

/// What the guarded per-page analysis concluded. Produced *inside* the
/// panic isolation boundary; all partial/metric updates happen outside it,
/// so a caught panic cannot leave half-applied state.
enum PageAnalysis {
    RejectedUtf8,
    Analyzed {
        decoded_len: u64,
        kinds: BTreeSet<ViolationKind>,
        mitigations: MitigationFlags,
        uses_math: bool,
    },
}

/// The worker loop: pull global page indices until the cursor runs dry.
/// Returns the per-slot partials, quarantined pages, and this worker's
/// metrics share. No page input can kill the worker: fetch errors are
/// retried then quarantined, oversized/undecodable bodies are classified,
/// and parse/check panics are caught at the page boundary.
fn scan_worker<S: PageSource>(job: &Job<'_, S>) -> WorkerOut {
    let opts = job.opts;
    let mut battery = Battery::full();
    let mut stats = opts.collect_metrics.then(|| battery.new_stats());
    let mut partials: BTreeMap<usize, Partial> = BTreeMap::new();
    let mut quarantine = Vec::new();
    let mut wm = ScanMetrics::default();
    let mut phases = PhaseNanos::default();

    loop {
        let g = job.cursor.fetch_add(1, Ordering::Relaxed);
        if g >= job.total {
            break;
        }
        // starts is sorted and starts[0] == 0 <= g, so the subtraction is
        // safe.
        let slot_idx = job.starts.partition_point(|&s| s <= g) - 1;
        let slot = &job.slots[slot_idx];
        let page = g - job.starts[slot_idx];
        let partial = partials.entry(slot_idx).or_default();
        let mut set_aside = |class: ErrorClass, partial: &mut Partial, wm: &mut ScanMetrics| {
            partial.quarantined += 1;
            wm.faults.bump_quarantine(class);
            quarantine.push(QuarantineEntry {
                domain_id: slot.domain_id,
                snapshot: job.snap,
                page_index: page,
                url: slot.urls[page].clone(),
                class,
            });
        };

        // Phase (2): fetch the record body (fault-injected when asked,
        // with bounded retry for transient errors).
        let t = opts.collect_metrics.then(Instant::now);
        let fetched = fetch_page(job, slot, page);
        lap(t, &mut phases.fetch);
        partial.faulted += fetched.faulted as usize;
        wm.faults.injected += fetched.faulted as u64;
        wm.faults.invalid_utf8_injected += fetched.invalid_utf8 as u64;
        wm.faults.retries += u64::from(fetched.retries);

        let body = match fetched.body {
            Ok(body) => body,
            Err(class) => {
                set_aside(class, partial, &mut wm);
                job.bump_progress();
                continue;
            }
        };
        wm.bytes_fetched += body.len() as u64;

        // Guards that refuse a body before any expensive work: the byte
        // budget, and bodies that are (corrupt) compressed streams rather
        // than HTML.
        if let Some(class) = body_guard(&body, opts.byte_budget) {
            set_aside(class, partial, &mut wm);
            job.bump_progress();
            continue;
        }

        // Decode + parse + check run inside a panic isolation boundary:
        // whatever a poisoned page does to the parser, the worker (and the
        // other pages' partials) survive.
        let analysis = catch_unwind(AssertUnwindSafe(|| {
            // §4.1: documents that are not UTF-8 decodable are filtered out.
            let t = opts.collect_metrics.then(Instant::now);
            let decoded = decode(&body);
            let t = lap(t, &mut phases.decode);
            let Some(text) = decoded else {
                return PageAnalysis::RejectedUtf8;
            };

            // Phase (3): parse once, then run the battery over the context.
            let cx = CheckContext::new(text);
            let t = lap(t, &mut phases.parse);
            let report = match &mut stats {
                Some(stats) => battery.run_instrumented(&cx, stats),
                None => battery.run_ref(&cx),
            };
            lap(t, &mut phases.check);
            PageAnalysis::Analyzed {
                decoded_len: text.len() as u64,
                kinds: report.kinds(),
                mitigations: report.mitigations,
                uses_math: report.uses_math,
            }
        }));

        match analysis {
            Err(_panic) => {
                wm.faults.panics_caught += 1;
                set_aside(ErrorClass::ParserPanic, partial, &mut wm);
            }
            Ok(PageAnalysis::RejectedUtf8) => {
                wm.pages_rejected_utf8 += 1;
            }
            Ok(PageAnalysis::Analyzed { decoded_len, kinds, mitigations, uses_math }) => {
                partial.analyzed += 1;
                if fetched.retries > 0 {
                    partial.degraded += 1;
                    wm.faults.degraded += 1;
                }
                wm.pages_analyzed += 1;
                wm.bytes_decoded += decoded_len;
                for k in kinds {
                    partial.kinds.insert(k);
                    *partial.page_counts.entry(k).or_insert(0) += 1;
                }
                partial.mitigations.merge(mitigations);
                partial.uses_math |= uses_math;
            }
        }

        job.bump_progress();
    }

    if let Some(stats) = stats {
        wm.battery = stats;
    }
    wm.phases = phases;
    WorkerOut { partials, quarantine, metrics: wm }
}

/// Fetch one record body, applying the fault plan (when configured) and
/// up to [`FETCH_ATTEMPTS`] attempts for transient errors. Pure
/// bookkeeping comes back in [`Fetched`]; the caller applies it to
/// partials and metrics.
fn fetch_page<S: PageSource>(job: &Job<'_, S>, slot: &Slot<S::Locator>, page: usize) -> Fetched {
    let opts = job.opts;
    let fetch = || job.source.fetch(&slot.locator, page, opts.byte_budget);
    let mut out = Fetched { body: Ok(Vec::new()), faulted: false, invalid_utf8: false, retries: 0 };
    let Some(plan) = opts.faults else {
        out.body = fetch();
        return out;
    };

    let key = PageKey {
        domain_id: slot.domain_id,
        snapshot_index: job.snap.index() as u64,
        page_index: page as u64,
    };
    if let Some(fault) = plan.fault_for(key) {
        out.faulted = true;
        out.invalid_utf8 = fault.class == FaultClass::InvalidUtf8;
    }

    let mut attempt = 1u32;
    out.body = loop {
        // The plan corrupts the bytes the source delivers; it cannot
        // deliver bytes the source could not, so a real read failure
        // outranks the planned fault.
        let mut read_failure = None;
        let applied = plan.apply(key, attempt, opts.byte_budget, || {
            fetch().unwrap_or_else(|class| {
                read_failure = Some(class);
                Vec::new()
            })
        });
        if let Some(class) = read_failure {
            break Err(class);
        }
        match applied {
            Ok(body) => break Ok(body),
            Err(FetchFault::Transient) => {
                if attempt >= FETCH_ATTEMPTS {
                    break Err(ErrorClass::TransientIo);
                }
                out.retries += 1;
                attempt += 1;
            }
            // Deterministic corruption: retrying cannot help.
            Err(FetchFault::MalformedCdx) => break Err(ErrorClass::MalformedCdx),
            // Refused by its length, unread, as `WarcSource::fetch` refuses
            // an over-budget record.
            Err(FetchFault::Warc(WarcError::OversizedRecord { .. })) => {
                break Err(ErrorClass::OversizedBody)
            }
            Err(FetchFault::Warc(_)) => break Err(ErrorClass::TruncatedRecord),
        }
    };
    out
}

/// Pre-parse guards: refuse bodies the parser should never see.
fn body_guard(body: &[u8], byte_budget: usize) -> Option<ErrorClass> {
    if body.len() > byte_budget {
        return Some(ErrorClass::OversizedBody);
    }
    // Gzip magic: the record is a (possibly corrupt) compressed member,
    // not HTML — decompression is out of scope for the measurement.
    if body.starts_with(&[0x1f, 0x8b]) {
        return Some(ErrorClass::CorruptCompression);
    }
    None
}

/// Advance the phase clock: add the time since `t` to `acc` and restart.
/// `None` (metrics off) stays `None` at zero cost.
fn lap(t: Option<Instant>, acc: &mut u64) -> Option<Instant> {
    t.map(|t0| {
        let now = Instant::now();
        *acc += (now - t0).as_nanos() as u64;
        now
    })
}

/// Fold one slot's merged partial into the final record.
fn make_record<L>(snap: Snapshot, slot: Slot<L>, partial: Partial) -> DomainYearRecord {
    // §4.4's projection: the automatic pass removes the Automatic kinds;
    // Manual kinds remain.
    let kinds_after_autofix = partial
        .kinds
        .iter()
        .copied()
        .filter(|k| k.fixability() == hv_core::Fixability::Manual)
        .collect();
    DomainYearRecord {
        domain_id: slot.domain_id,
        domain_name: slot.domain_name,
        rank: slot.rank,
        snapshot: snap,
        pages_found: slot.urls.len(),
        pages_analyzed: partial.analyzed,
        kinds: partial.kinds,
        page_counts: partial.page_counts,
        mitigations: partial.mitigations,
        kinds_after_autofix,
        uses_math: partial.uses_math,
        pages_faulted: partial.faulted,
        pages_degraded: partial.degraded,
        pages_quarantined: partial.quarantined,
    }
}

/// Borrowing decode: validation only, no copy — the parse reads straight
/// from the fetched body.
fn decode(bytes: &[u8]) -> Option<&str> {
    match spec_html::decoder::decode_utf8(bytes) {
        spec_html::decoder::Decoded::Utf8(s) => Some(s),
        spec_html::decoder::Decoded::NotUtf8 { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_core::autofix;
    use hv_corpus::CorpusConfig;

    fn tiny_archive() -> Archive {
        Archive::new(CorpusConfig { seed: 1234, scale: 0.002 })
    }

    #[test]
    fn scan_produces_records_for_present_domains() {
        let archive = tiny_archive();
        let store = scan_snapshots(&archive, &[Snapshot::ALL[7]], ScanOptions::new().threads(2));
        assert!(!store.records.is_empty());
        for r in &store.records {
            assert!(r.pages_found >= 1 && r.pages_found <= 100);
            assert!(r.pages_analyzed <= r.pages_found);
        }
    }

    #[test]
    fn scan_is_thread_count_invariant() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[0]];
        let a = scan_snapshots(&archive, &snaps, ScanOptions::new().threads(1));
        let b = scan_snapshots(&archive, &snaps, ScanOptions::new().threads(8));
        // Byte-for-byte: same records, same order, same serialization.
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        // And with a third, adversarial thread count.
        let c = scan_snapshots(&archive, &snaps, ScanOptions::new().threads(3));
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&c).unwrap());
    }

    /// The streaming path writes byte-for-byte the same v1 store as a
    /// full in-memory scan followed by `save_v1` (without metrics, whose
    /// timings legitimately differ run to run).
    #[test]
    fn scan_streamed_equals_scan_then_save_v1() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[1], Snapshot::ALL[6]];
        let opts = ScanOptions::new().threads(2);
        let dir = std::env::temp_dir().join("hv_scan_streamed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let batch_path = dir.join("batch.hvs");
        let stream_path = dir.join("stream.hvs");
        // A leftover from an interrupted previous run would trip the
        // clobber guard.
        std::fs::remove_file(&stream_path).ok();

        let store = scan_snapshots(&archive, &snaps, opts);
        store.save_v1(&batch_path).unwrap();
        let summary = scan_streamed(&archive, &snaps, opts, &stream_path).unwrap();

        assert_eq!(summary.records, store.records.len() as u64);
        assert_eq!(summary.segments.len(), 2);
        let batch = std::fs::read(&batch_path).unwrap();
        let streamed = std::fs::read(&stream_path).unwrap();
        assert_eq!(batch, streamed, "streamed store must be byte-identical");

        let back = ResultStore::load(&stream_path).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&store).unwrap());
        std::fs::remove_file(&batch_path).ok();
        std::fs::remove_file(&stream_path).ok();
    }

    /// Truncating a streamed (faulted!) store at a segment boundary and
    /// resuming reproduces the uninterrupted bytes — the embedded
    /// quarantine travels with its segment through the crash.
    #[test]
    fn resumed_scan_is_byte_identical_after_truncation() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[0], Snapshot::ALL[4], Snapshot::ALL[7]];
        let plan = FaultPlan::new(11, 0.3).unwrap();
        let opts = ScanOptions::new().threads(2).inject_faults(plan);
        let dir = std::env::temp_dir().join("hv_scan_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let full_path = dir.join("full.hvs");
        let crash_path = dir.join("crash.hvs");

        let summary = scan_streamed(&archive, &snaps, opts.overwrite(true), &full_path).unwrap();
        assert!(summary.quarantined > 0, "30% faults must quarantine pages");
        let full = std::fs::read(&full_path).unwrap();
        let prefix = crate::format::scan_prefix(&full, &full_path).unwrap();
        assert!(prefix.complete);
        assert_eq!(prefix.segment_ends.len(), 3);

        // Cut mid-segment-1 (torn tail) and resume.
        let cut = (prefix.segment_ends[0] + prefix.segment_ends[1]) as usize / 2;
        std::fs::write(&crash_path, &full[..cut]).unwrap();
        let resumed = scan_streamed(&archive, &snaps, opts.resume(true), &crash_path).unwrap();
        assert_eq!(resumed.resumed_segments, 1, "segment 0 survives the cut");
        assert!(resumed.truncated_bytes > 0, "the torn tail was truncated");
        assert_eq!(std::fs::read(&crash_path).unwrap(), full, "resume reproduces the bytes");

        // Resuming a complete store is a no-op with the same summary shape.
        let again = scan_streamed(&archive, &snaps, opts.resume(true), &crash_path).unwrap();
        assert_eq!(again.records, resumed.records);
        assert_eq!(again.quarantined, resumed.quarantined);
        assert_eq!(again.resumed_segments, 3);
        assert_eq!(std::fs::read(&crash_path).unwrap(), full);

        // A fresh scan at the same path now refuses to clobber.
        let err = scan_streamed(&archive, &snaps, opts, &crash_path).unwrap_err();
        assert!(matches!(err, HvError::StoreExists { .. }), "got: {err}");
        // And a resume under different provenance refuses too.
        let other = Archive::new(CorpusConfig { seed: 4321, scale: 0.002 });
        let err = scan_streamed(&other, &snaps, opts.resume(true), &crash_path).unwrap_err();
        assert!(err.to_string().contains("refusing to resume"), "got: {err}");

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&crash_path).ok();
    }

    #[test]
    fn metrics_do_not_change_records() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[7]];
        let plain = scan_snapshots(&archive, &snaps, ScanOptions::new().threads(2));
        let metered =
            scan_snapshots(&archive, &snaps, ScanOptions::new().threads(5).collect_metrics(true));
        assert!(plain.metrics.is_none());
        assert!(metered.metrics.is_some());
        assert_eq!(plain.records.len(), metered.records.len());
        for (x, y) in plain.records.iter().zip(&metered.records) {
            assert_eq!(x.domain_id, y.domain_id);
            assert_eq!(x.kinds, y.kinds);
            assert_eq!(x.page_counts, y.page_counts);
            assert_eq!(x.pages_analyzed, y.pages_analyzed);
            assert_eq!(x.mitigations, y.mitigations);
        }
    }

    #[test]
    fn metrics_reconcile_with_records() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[0], Snapshot::ALL[7]];
        let store =
            scan_snapshots(&archive, &snaps, ScanOptions::new().threads(4).collect_metrics(true));
        let m = store.metrics.as_ref().expect("metrics collected");

        // Page accounting: listed = analyzed + rejected + quarantined, and
        // the totals match the records exactly.
        assert_eq!(m.pages_analyzed + m.pages_rejected_utf8 + m.faults.quarantined, m.pages_listed);
        let rec_analyzed: u64 = store.records.iter().map(|r| r.pages_analyzed as u64).sum();
        let rec_found: u64 = store.records.iter().map(|r| r.pages_found as u64).sum();
        assert_eq!(m.pages_analyzed, rec_analyzed);
        assert_eq!(m.pages_listed, rec_found);
        assert_eq!(m.domain_snapshots, store.records.len() as u64);

        // Per-check accounting: a rule "fires on a page" exactly when the
        // page counts that kind, so the battery stats must reproduce the
        // per-record page counts kind by kind.
        for &kind in hv_core::ViolationKind::ALL.iter() {
            let fired = m.battery.get(kind).map_or(0, |s| s.pages_fired);
            let counted: u64 = store
                .records
                .iter()
                .map(|r| u64::from(r.page_counts.get(&kind).copied().unwrap_or(0)))
                .sum();
            assert_eq!(fired, counted, "pages_fired mismatch for {kind}");
        }

        // Every analyzed page ran every rule once.
        for (kind, st) in &m.battery.per_check {
            assert_eq!(st.nanos.count, m.pages_analyzed, "execution count for {kind}");
        }
        // DE1 is finish-only: the fused engine dispatches to it exactly
        // once per analyzed page.
        let de1 = m.battery.get(hv_core::ViolationKind::DE1).unwrap();
        assert_eq!(de1.dispatches, m.pages_analyzed);
        assert!(m.wall_nanos > 0);
        assert_eq!(m.threads, 4);
        assert!(m.phases.check > 0);
    }

    #[test]
    fn faulted_scan_accounts_for_every_listed_page() {
        let archive = tiny_archive();
        let plan = FaultPlan::new(5, 0.1).unwrap();
        let opts = ScanOptions::new().threads(3).collect_metrics(true).inject_faults(plan);
        let store = scan_snapshots(&archive, &[Snapshot::ALL[2], Snapshot::ALL[6]], opts);
        let m = store.metrics.as_ref().unwrap();

        // Nothing slips: every listed page is analyzed, filtered, or
        // quarantined with a reason.
        assert_eq!(m.pages_analyzed + m.pages_rejected_utf8 + m.faults.quarantined, m.pages_listed);
        assert!(m.faults.injected > 0, "a 10% rate must fault something");
        assert_eq!(
            m.faults.quarantined,
            m.faults.malformed_cdx
                + m.faults.transient_io
                + m.faults.truncated_record
                + m.faults.corrupt_compression
                + m.faults.oversized_body
                + m.faults.parser_panic
        );
        // Counters and audit entries reconcile with the records.
        let rec_faulted: u64 = store.records.iter().map(|r| r.pages_faulted as u64).sum();
        let rec_degraded: u64 = store.records.iter().map(|r| r.pages_degraded as u64).sum();
        let rec_quarantined: u64 = store.records.iter().map(|r| r.pages_quarantined as u64).sum();
        assert_eq!(rec_faulted, m.faults.injected);
        assert_eq!(rec_degraded, m.faults.degraded);
        assert_eq!(rec_quarantined, m.faults.quarantined);
        assert_eq!(store.quarantine.len() as u64, m.faults.quarantined);
        // Three attempts against 1–4 planned failures exercise both the
        // recovery and the exhaustion path.
        assert!(m.faults.degraded > 0, "some transient faults must recover");
        assert!(m.faults.transient_io > 0, "some transient faults must exhaust");
        assert_eq!(m.faults.parser_panic, 0, "no input may panic the parser");
        // An oversized record is refused unread: the fetched bytes are the
        // pages' own (about 2 KiB each), not a budget's worth per oversized
        // fault (which made them 18 KiB a page).
        assert!(m.faults.oversized_body > 0, "a 10% rate must draw oversized records");
        assert!(
            m.bytes_fetched < m.pages_listed * 4 * 1024,
            "{} bytes fetched for {} pages",
            m.bytes_fetched,
            m.pages_listed
        );
    }

    #[test]
    fn faulted_scan_is_thread_count_invariant() {
        let archive = tiny_archive();
        let plan = FaultPlan::new(11, 0.3).unwrap();
        let snaps = [Snapshot::ALL[4]];
        let opts = ScanOptions::new().inject_faults(plan);
        let a = scan_snapshots(&archive, &snaps, opts.threads(1));
        let b = scan_snapshots(&archive, &snaps, opts.threads(7));
        assert!(!a.quarantine.is_empty(), "30% faults must quarantine pages");
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn byte_budget_quarantines_instead_of_parsing() {
        let archive = tiny_archive();
        let snaps = [Snapshot::ALL[7]];
        // A 10-byte budget refuses every page — a blunt way to prove the
        // guard sits in front of the parser.
        let store = scan_snapshots(&archive, &snaps, ScanOptions::new().threads(2).byte_budget(10));
        assert!(store.records.iter().all(|r| r.pages_analyzed == 0));
        assert!(store
            .quarantine
            .iter()
            .all(|q| q.class == crate::outcome::ErrorClass::OversizedBody));
        assert_eq!(
            store.quarantine.len(),
            store.records.iter().map(|r| r.pages_found).sum::<usize>()
        );
    }

    #[test]
    fn utf8_filter_reduces_analyzed_pages() {
        let archive = tiny_archive();
        let store = scan(&archive, ScanOptions::new().threads(4));
        // Some domain-snapshots fail the UTF-8 filter entirely.
        let failed = store.records.iter().filter(|r| r.pages_analyzed == 0).count();
        assert!(failed > 0, "expected some non-UTF-8 domain-snapshots");
        // But the overwhelming majority decode.
        let analyzed = store.records.iter().filter(|r| r.analyzed()).count();
        assert!(analyzed * 100 / store.records.len() >= 95);
    }

    #[test]
    fn autofix_projection_is_subset_of_kinds() {
        let archive = tiny_archive();
        let store = scan_snapshots(&archive, &[Snapshot::ALL[7]], ScanOptions::default());
        for r in &store.records {
            assert!(r.kinds_after_autofix.is_subset(&r.kinds));
            for k in &r.kinds_after_autofix {
                assert_eq!(k.fixability(), hv_core::Fixability::Manual);
            }
        }
    }

    /// End-to-end spot check: re-running the actual auto-fixer over a
    /// violating page removes exactly the Automatic kinds (the projection
    /// used by the aggregate is faithful to the real fixer).
    #[test]
    fn autofix_projection_matches_real_fixer() {
        let archive = tiny_archive();
        let snap = Snapshot::ALL[7];
        let mut checked = 0;
        for d in archive.domains() {
            let Some(cdx) = archive.cdx_lookup(d, snap) else { continue };
            if !cdx.snapshot.utf8_ok {
                continue;
            }
            for entry in cdx.pages.iter().take(2) {
                let body = archive.fetch_page(&cdx.snapshot, entry.page_index);
                let text = String::from_utf8(body).unwrap();
                let outcome = autofix::auto_fix(&text);
                for k in &outcome.after {
                    // Everything surviving the real fixer is Manual.
                    assert_eq!(
                        k.fixability(),
                        hv_core::Fixability::Manual,
                        "auto-fix left {k} behind on {}",
                        entry.url
                    );
                }
                checked += 1;
            }
            if checked > 40 {
                break;
            }
        }
        assert!(checked > 20);
    }
}
