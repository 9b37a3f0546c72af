//! Golden fixture pinning fault-injection *classification*.
//!
//! Every fault is a pure function of `(seed, page)`, so the quarantine set
//! and the fault counters for a fixed corpus + plan are exact constants —
//! any drift means the injector's keyed draws, the retry policy, or the
//! outcome classification changed, all of which silently invalidate stored
//! chaos baselines. The expected list was captured from the implementation
//! that introduced fault injection and must only change deliberately (run
//! the `dump_golden` test below and review the diff).

use html_violations::hv_corpus::{Archive, CorpusConfig, FaultPlan, Snapshot};
use html_violations::hv_pipeline::{run, ErrorClass, ResultStore};

const CORPUS_SEED: u64 = 41;
const SCALE: f64 = 0.0005;
const FAULT_SEED: u64 = 9;
const RATE: f64 = 0.05;

fn scan() -> ResultStore {
    let archive = Archive::new(CorpusConfig { seed: CORPUS_SEED, scale: SCALE });
    let opts = run::ScanOptions::new()
        .threads(4)
        .collect_metrics(true)
        .inject_faults(FaultPlan::new(FAULT_SEED, RATE).unwrap());
    run::scan_snapshots(&archive, &[Snapshot::ALL[5]], opts)
}

/// (domain_id, page_index, class) for every quarantined page, in the
/// store's canonical order.
fn expected_quarantine() -> Vec<(u64, usize, ErrorClass)> {
    use ErrorClass::*;
    vec![
        (0, 29, TruncatedRecord),
        (0, 47, TransientIo),
        (1, 0, TruncatedRecord),
        (2, 24, TransientIo),
        (3, 5, OversizedBody),
        (3, 11, MalformedCdx),
        (3, 45, MalformedCdx),
        (4, 19, OversizedBody),
        (4, 39, CorruptCompression),
        (4, 42, TruncatedRecord),
        (5, 31, TransientIo),
        (5, 42, TruncatedRecord),
        (5, 60, CorruptCompression),
        (6, 42, CorruptCompression),
        (6, 65, TruncatedRecord),
        (6, 83, TruncatedRecord),
        (6, 89, TruncatedRecord),
        (7, 37, TransientIo),
        (7, 88, CorruptCompression),
        (7, 98, TruncatedRecord),
        (9, 22, TruncatedRecord),
        (9, 70, TruncatedRecord),
        (10, 1, CorruptCompression),
        (10, 52, MalformedCdx),
        (10, 57, TruncatedRecord),
        (10, 74, TruncatedRecord),
        (11, 5, MalformedCdx),
        (11, 16, TruncatedRecord),
        (11, 25, TruncatedRecord),
        (11, 46, CorruptCompression),
        (11, 61, CorruptCompression),
        (11, 66, TruncatedRecord),
        (11, 71, OversizedBody),
    ]
}

#[test]
fn golden_quarantine_classification_is_pinned() {
    let store = scan();
    let got: Vec<(u64, usize, ErrorClass)> =
        store.quarantine.iter().map(|q| (q.domain_id, q.page_index, q.class)).collect();
    assert_eq!(got, expected_quarantine(), "fault classification moved");

    // URLs stay attached: spot-check the first entry end to end.
    let first = &store.quarantine[0];
    assert_eq!(first.url, "https://alphalabs.com/page/29.html");
    assert_eq!(first.snapshot, Snapshot::ALL[5]);
}

#[test]
fn golden_fault_counters_are_pinned() {
    let store = scan();
    let f = store.metrics.as_ref().expect("metrics collected").faults;
    assert_eq!(f.injected, 43, "faults injected");
    assert_eq!(f.retries, 16, "transient retries");
    assert_eq!(f.degraded, 5, "pages degraded");
    assert_eq!(f.quarantined, 33, "pages quarantined");
    assert_eq!(f.panics_caught, 0, "injected faults never panic the parser");
    assert_eq!(f.invalid_utf8_injected, 5, "utf-8 faults flow to the §4.1 filter");
    assert_eq!(f.malformed_cdx, 4);
    assert_eq!(f.transient_io, 4);
    assert_eq!(f.truncated_record, 15);
    assert_eq!(f.corrupt_compression, 7);
    assert_eq!(f.oversized_body, 3);
    assert_eq!(f.parser_panic, 0);

    // The per-class counters partition the quarantine count.
    let by_class = f.malformed_cdx
        + f.transient_io
        + f.truncated_record
        + f.corrupt_compression
        + f.oversized_body
        + f.parser_panic;
    assert_eq!(by_class, f.quarantined);
}

#[test]
#[ignore = "dev tool: run with --ignored --nocapture to regenerate the expected list"]
fn dump_golden() {
    let store = scan();
    for q in &store.quarantine {
        println!("({}, {}, {:?}),", q.domain_id, q.page_index, q.class);
    }
    println!("faults: {:#?}", store.metrics.as_ref().unwrap().faults);
}
