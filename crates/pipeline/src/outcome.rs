//! The scan's failure model: how a page that cannot be analyzed is
//! classified, retried, and quarantined.
//!
//! Every page the CDX index lists ends in exactly one of three outcomes:
//! analyzed (or rejected by the §4.1 UTF-8 filter, a measurement decision,
//! not a failure), analyzed only after transient-error retries (degraded,
//! counted so flaky inputs are visible), or set aside with a structured
//! reason (quarantined) — never a dead worker and never a silent skip. The
//! quarantine reasons ([`ErrorClass`]) mirror what a real Common Crawl
//! measurement meets: records that cannot be located, read, decompressed,
//! or bounded, plus the backstop nobody plans for — a parser panic caught
//! at the page boundary. Quarantined pages are excluded from the §4
//! aggregates *and accounted for*, so the denominator of every rate is
//! explicit.
//!
//! A transient read error is retried up to [`FETCH_ATTEMPTS`] attempts in
//! all, without waiting between them. The bound is part of the failure
//! model, not a tuning knob — with a deterministic fault schedule
//! (`hv_corpus::faults`), the same bound yields the same outcomes on every
//! run at every thread count.

use hv_corpus::Snapshot;
use serde::{Deserialize, Serialize};

/// Why a page was quarantined. The order (and the serialized variant
/// name) is stable, so quarantine sets compare byte-for-byte across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorClass {
    /// The CDX metadata for the page could not be parsed.
    MalformedCdx,
    /// Transient I/O errors persisted through every retry attempt.
    TransientIo,
    /// The WARC record was truncated or otherwise unparseable.
    TruncatedRecord,
    /// The record body is a (corrupt) compressed stream, not HTML.
    CorruptCompression,
    /// The record body exceeds the scan's byte budget.
    OversizedBody,
    /// The parser or a checker panicked; the page was contained at the
    /// isolation boundary.
    ParserPanic,
}

impl ErrorClass {
    pub const ALL: [ErrorClass; 6] = [
        ErrorClass::MalformedCdx,
        ErrorClass::TransientIo,
        ErrorClass::TruncatedRecord,
        ErrorClass::CorruptCompression,
        ErrorClass::OversizedBody,
        ErrorClass::ParserPanic,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorClass::MalformedCdx => "malformed-cdx",
            ErrorClass::TransientIo => "transient-io",
            ErrorClass::TruncatedRecord => "truncated-record",
            ErrorClass::CorruptCompression => "corrupt-compression",
            ErrorClass::OversizedBody => "oversized-body",
            ErrorClass::ParserPanic => "parser-panic",
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fetch attempts per page, the first included. The fault injector draws
/// 1–4 transient failures per transient-faulted page, so with three
/// attempts roughly half recover (degraded) and half exhaust into
/// quarantine: both paths stay exercised.
pub const FETCH_ATTEMPTS: u32 = 3;

/// One quarantined page, persisted in the [`crate::ResultStore`] so a scan
/// is auditable: which pages are missing from the aggregates, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    pub domain_id: u64,
    pub snapshot: Snapshot,
    pub page_index: usize,
    pub url: String,
    pub class: ErrorClass,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_class_names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<_> =
            ErrorClass::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names.len(), ErrorClass::ALL.len());
        assert_eq!(ErrorClass::ParserPanic.to_string(), "parser-panic");
    }

    #[test]
    fn error_class_serde_roundtrip() {
        for class in ErrorClass::ALL {
            let json = serde_json::to_string(&class).unwrap();
            let back: ErrorClass = serde_json::from_str(&json).unwrap();
            assert_eq!(back, class);
        }
    }

    #[test]
    fn quarantine_entry_roundtrips() {
        let e = QuarantineEntry {
            domain_id: 42,
            snapshot: Snapshot::ALL[3],
            page_index: 17,
            url: "https://example.com/page/17.html".into(),
            class: ErrorClass::TruncatedRecord,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: QuarantineEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
