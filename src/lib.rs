//! # html-violations — reproduction of *HTML Violations and Where to Find
//! Them* (IMC '22)
//!
//! This facade crate re-exports the workspace's public API in one place:
//!
//! * [`spec_html`] — the WHATWG HTML parsing substrate with parse-error
//!   reporting (tokenizer, tree builder, DOM, serializer).
//! * [`hv_core`] — the paper's contribution: the 20-check violation
//!   taxonomy, the checker battery, the §4.4 auto-fixer, and the §4.5
//!   mitigation analyzers.
//! * [`hv_corpus`] — the deterministic synthetic web archive standing in
//!   for Tranco + Common Crawl, calibrated to the paper's published rates.
//! * [`hv_pipeline`] — the Figure-6 measurement pipeline, the segmented
//!   result store (v0 JSON + checksummed v1 binary), and the one-pass
//!   aggregate index behind every table and figure.
//! * [`hv_report`] — text renderers regenerating Tables 1–2, Figures 8–10
//!   and 16–21, and the §4.2/§4.4/§4.5 statistics.
//! * [`hv_server`] — `hva serve`: the HTTP service layer with the stable
//!   `/v1` wire API over the battery, auto-fixer, and report renderers.
//! * [`hv_fuzz`] — `hva fuzz`: deterministic differential fuzzing — a
//!   seeded structure-aware HTML generator, an oracle registry of
//!   cross-implementation invariants, and ddmin shrinking into replayable
//!   regression fixtures.
//!
//! ## Thirty-second tour
//!
//! ```
//! use html_violations::prelude::*;
//!
//! // Check one document: build a battery once, run it many times.
//! let mut battery = Battery::full();
//! let report = battery.run_str(r#"<img src="logo.png"onerror="alert(1)">"#);
//! assert!(report.has(ViolationKind::FB2));
//!
//! // Fix what can be fixed automatically (§4.4).
//! let fixed = auto_fix(r#"<img src="logo.png"onerror="alert(1)">"#);
//! assert!(fixed.after.is_empty());
//!
//! // Run a miniature version of the eight-year study. The one-pass
//! // AggregateIndex answers every table/figure query without re-folding
//! // the record set.
//! let archive = Archive::new(CorpusConfig { seed: 7, scale: 0.002 });
//! let store = IndexedStore::new(scan(&archive, ScanOptions::default()));
//! let any_2022 = store.index.violating_domains_by_year()[7];
//! assert!(any_2022 > 30.0, "most of the web violates the spec");
//! ```
//!
//! ## Serving the API
//!
//! ```no_run
//! use html_violations::prelude::*;
//!
//! let server = hv_server::serve(ServeOptions::new().addr("127.0.0.1:8077")).unwrap();
//! println!("serving http://{}", server.addr());
//! // POST /v1/check with {"html": "..."} returns a CheckResponse.
//! server.shutdown();
//! ```

pub use hv_core;
pub use hv_corpus;
pub use hv_fuzz;
pub use hv_pipeline;
pub use hv_report;
pub use hv_server;
pub use spec_html;

/// Everything needed for the common workflows.
pub mod prelude {
    pub use hv_core::autofix::{auto_fix, FixOutcome};
    pub use hv_core::{
        Battery, Finding, HvError, MitigationFlags, PageReport, ProblemGroup, ViolationKind,
    };
    pub use hv_corpus::{Archive, CorpusConfig, Snapshot};
    pub use hv_pipeline::{scan, IndexedStore, LoadOptions, ResultStore, ScanOptions, StoreFormat};
    pub use hv_server::api::v1::{
        CheckRequest, CheckResponse, ErrorBody, ExplainResponse, FindingDto, FixResponse,
        MitigationsDto, StoreSummary,
    };
    pub use hv_server::{serve, ServeOptions};
    pub use spec_html::{parse_document, serializer::serialize};
}
