//! # hv-pipeline — the paper's Figure-6 measurement pipeline
//!
//! ```text
//!  PageSource ─▶ (1) list a snapshot's (domain, pages) slots
//!  (Archive,          │
//!   WarcSource)       ▼
//!              (2) fetch page bodies ─▶ UTF-8 filter (§4.1)
//!                                               │
//!            (4) ResultStore ◀─ (3) checker battery (hv_core)
//! ```
//!
//! * [`run`] — the page-granular scan engine, one for every [`PageSource`]
//!   (a source lists a snapshot's slots and fetches page bodies): workers
//!   pull individual pages from an atomic cursor, each running one reusable
//!   [`hv_core::Battery`]; per-domain partials merge commutatively, so the
//!   result is byte-identical at any thread count.
//! * [`warcscan`] — WARC+CDXJ files on disk as a [`PageSource`], with the
//!   same workers, failure model, metrics, streaming and resume.
//! * [`metrics`] — scan observability: throughput, per-phase timings and
//!   per-check fire counts, collected lock-free and embedded in the store.
//! * [`store`] — the embedded result database (the paper used Postgres; a
//!   typed in-memory table serves the same queries). Persistence sniffs
//!   two formats: v0 JSON (export/interchange) and the [`format`] v1
//!   segmented binary layout with per-segment checksums and summaries.
//! * [`aggregate`] — the one-pass [`AggregateIndex`]: every number behind
//!   Tables 1–2, Figures 8–10 and 16–21 folded in a single O(records)
//!   sweep (the original per-query scans are the equivalence oracle, kept
//!   in `hv_fuzz::reference::aggregate`).
//! * [`outcome`] — the failure model: every listed page ends analyzed,
//!   degraded (analyzed after retries), or quarantined with a structured
//!   [`ErrorClass`]; never a dead worker, never a silent skip.
//! * [`chaos`] — the deterministic fault-injection harness (`hva chaos`):
//!   scans any source under `hv_corpus::faults` injection and asserts that
//!   workers survive, quarantine is thread-count-invariant, fault-free
//!   pages are untouched, and a crashed streamed scan resumes identically.
//!
//! ```no_run
//! use hv_corpus::{Archive, CorpusConfig};
//! use hv_pipeline::{run, IndexedStore, ScanOptions};
//!
//! let archive = Archive::new(CorpusConfig { seed: 7, scale: 0.01 });
//! let store = run::scan(&archive, ScanOptions::new().threads(8).collect_metrics(true));
//! if let Some(m) = &store.metrics {
//!     eprintln!("{}", m.render());
//! }
//! let indexed = IndexedStore::new(store);
//! let fig9 = indexed.index.violating_domains_by_year();
//! println!("violating domains 2022: {:.2}%", fig9[7]);
//! ```

pub mod aggregate;
pub mod auxstudies;
pub mod chaos;
pub mod format;
pub mod metrics;
pub mod outcome;
pub mod run;
pub mod store;
pub mod warcscan;

pub use aggregate::{AggregateIndex, IndexedStore};
pub use chaos::{run_chaos, ChaosReport};
pub use format::{
    scan_prefix, DroppedSegment, FailingWriter, FileSink, LoadOptions, PrefixState, Resumed,
    SegmentSummary, StoreHeader, StoreSink, StoreWriter,
};
pub use metrics::{FaultMetrics, PhaseNanos, ScanMetrics};
pub use outcome::{ErrorClass, QuarantineEntry, FETCH_ATTEMPTS};
pub use run::{scan, scan_snapshots, scan_streamed, PageSource, ScanOptions, ScanSummary};
pub use store::{DomainYearRecord, LoadedStore, ResultStore, StoreFormat};
