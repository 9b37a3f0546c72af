//! Compact JSON written straight to text equals the text of the value
//! tree, for every type the workspace serializes compactly.
//!
//! `serde_json::to_string` calls `Serialize::write_json`, which derived
//! impls write field by field; `serde_json::to_string(&to_value(x))`
//! prints the tree `x` builds. The `/v1` responses, the v1 store's frames
//! and the v0 JSON store all come out of `to_string`, so the two must
//! agree byte for byte.

use html_violations::hv_core::{
    Battery, BatteryStats, CheckStats, DurationHistogram, Finding, MitigationFlags, PageReport,
    ViolationKind,
};
use html_violations::hv_corpus::{Archive, CorpusConfig, FaultPlan, Snapshot};
use html_violations::hv_pipeline::{
    run, DomainYearRecord, ErrorClass, FaultMetrics, IndexedStore, QuarantineEntry, ResultStore,
    ScanMetrics, SegmentSummary, StoreHeader,
};
use html_violations::hv_server::api::v1::*;
use html_violations::hv_server::metrics::{Metrics, MetricsSnapshot};
use serde::Serialize;
use std::time::Duration;

/// Assert both paths print the same text, and return it.
fn same<T: Serialize>(x: &T) -> String {
    let direct = serde_json::to_string(x).unwrap();
    let tree = serde_json::to_string(&serde_json::to_value(x)).unwrap();
    assert_eq!(direct, tree);
    direct
}

/// A report of `n` findings cycling through every kind, with evidence that
/// needs escaping.
fn report_with(n: usize) -> PageReport {
    let findings = (0..n)
        .map(|i| {
            let kind = ViolationKind::ALL[i % ViolationKind::ALL.len()];
            Finding::new(kind, i * 7, format!("near \u{201c}<a title=\"{i}\"\\\t\u{1}\u{201d}"))
        })
        .collect();
    PageReport {
        findings,
        mitigations: MitigationFlags { newline_in_url: n % 2 == 1, ..MitigationFlags::default() },
        uses_math: n > 1,
    }
}

#[test]
fn v1_dtos_match_the_tree() {
    same(&CheckRequest { html: "<p title=\"x\">\u{0}\r\n</p>".into() });
    for n in [0, 1, 10_000] {
        let report = report_with(n);
        let response = CheckResponse::from(&report);
        assert_eq!(response.findings.len(), n);
        same(&response);
        same(&report);
    }
    let mut battery = Battery::full();
    let report = battery.run_str(r#"<img src=a src=b><p/ class=c><a href="u"title=t>"#);
    same(&CheckResponse::from(&report));
    same(&FixResponse::from(&html_violations::hv_core::autofix::auto_fix("<img src=a src=b>")));
    for kind in ViolationKind::ALL {
        same(&ExplainResponse::from(kind));
    }
    same(&ErrorBody::new("bad_request", "malformed request line: \"GET\\x\""));
    let store = ResultStore::new(0x48_56_31, 0.05, 1234);
    same(&StoreSummary::from(&IndexedStore::new(store)));
    same(&StoreSummary {
        seed: u64::MAX,
        scale: 0.002,
        universe: 50,
        records: 2,
        quarantined: 1,
        has_metrics: true,
        experiments: vec!["table1".into(), "all".into()],
        format: Some("v1-binary".into()),
        segments: vec![SegmentDto {
            snapshot: "CC-MAIN-2015-14".into(),
            records: 2,
            domains_analyzed: 2,
            domains_violating: 1,
            pages_found: 30,
            pages_analyzed: 29,
            pages_quarantined: 1,
        }],
        dropped: vec![DroppedDto { segment: 1, offset: 4096, detail: "crc \"mismatch\"".into() }],
    });
}

#[test]
fn metrics_and_stats_match_the_tree() {
    let metrics = Metrics::new();
    same(&metrics.snapshot());
    metrics.accepted();
    metrics.shed();
    metrics.served("POST /v1/check", 200, Duration::from_micros(30), false);
    metrics.served("POST /v1/check", 413, Duration::from_nanos(1), false);
    metrics.served("GET /v1/explain/{kind}", 500, Duration::from_secs(3), true);
    same(&metrics.snapshot());
    same(&MetricsSnapshot::default());

    let mut stats = CheckStats::default();
    same(&stats);
    stats.record_page(2, 1_500);
    stats.dispatches = 9;
    same(&stats);
    same(&BatteryStats {
        per_check: vec![(ViolationKind::FB2, stats), (ViolationKind::DE1, CheckStats::default())],
    });
    let mut histogram = DurationHistogram::default();
    histogram.record(u64::MAX / 2);
    same(&histogram);
}

#[test]
fn store_frames_match_the_tree() {
    same(&StoreHeader { seed: 4_740_657, scale: 0.002, universe: 24_915 });
    same(&StoreHeader { seed: 0, scale: 1e21, universe: 0 });
    for class in ErrorClass::ALL {
        same(&class);
        same(&QuarantineEntry {
            domain_id: u64::MAX - 1,
            snapshot: Snapshot(5),
            page_index: 17,
            url: "http://d.example/p?q=\"1\"&r=\\".into(),
            class,
        });
    }
    let mut metrics = ScanMetrics { threads: 2, wall_nanos: 123, ..ScanMetrics::default() };
    assert!(!same(&metrics).contains("faults"));
    metrics.faults = FaultMetrics { injected: 3, retries: 2, ..FaultMetrics::default() };
    metrics.faults.bump_quarantine(ErrorClass::OversizedBody);
    assert!(same(&metrics).contains("\"faults\":{"));
}

/// A record with the given fault counters and a `page_counts` map whose
/// `ViolationKind` order (DE1, HF5_1, FB2) is not its key-string order
/// (DE1, FB2, HF5_1).
fn record(faulted: usize, degraded: usize, quarantined: usize) -> DomainYearRecord {
    DomainYearRecord {
        domain_id: 3,
        domain_name: "d\"3\".com".into(),
        rank: 3,
        snapshot: Snapshot(0),
        pages_found: 5,
        pages_analyzed: 4,
        kinds: [ViolationKind::FB2, ViolationKind::HF5_1, ViolationKind::DE1].into_iter().collect(),
        page_counts: [(ViolationKind::FB2, 1), (ViolationKind::HF5_1, 2), (ViolationKind::DE1, 3)]
            .into_iter()
            .collect(),
        mitigations: MitigationFlags { script_in_attribute: true, ..MitigationFlags::default() },
        kinds_after_autofix: [ViolationKind::HF5_1].into_iter().collect(),
        uses_math: quarantined > 0,
        pages_faulted: faulted,
        pages_degraded: degraded,
        pages_quarantined: quarantined,
    }
}

#[test]
fn records_and_stores_match_the_tree() {
    let mut store = ResultStore::new(1, 0.05, 10);
    for bits in 0..8usize {
        let r = record(bits & 1, (bits >> 1) & 1, (bits >> 2) & 1);
        let text = same(&r);
        assert!(text.contains(r#""page_counts":{"DE1":3,"FB2":1,"HF5_1":2}"#), "{text}");
        store.records.push(r);
    }
    same(&SegmentSummary::derive(&store));
    same(&store);

    // A real scan under fault injection, with metrics: quarantine entries,
    // fault counters and per-check histograms, as stores hold them.
    let archive = Archive::new(CorpusConfig { seed: 41, scale: 0.002 });
    let opts = run::ScanOptions::new()
        .threads(2)
        .collect_metrics(true)
        .inject_faults(FaultPlan::new(9, 0.1).unwrap());
    let scanned = run::scan_snapshots(&archive, &[Snapshot::ALL[3]], opts);
    assert!(!scanned.quarantine.is_empty());
    assert!(scanned.metrics.as_ref().is_some_and(|m| !m.faults.is_empty()));
    same(&scanned);
    same(&SegmentSummary::derive(&scanned));
}
