//! Golden fixtures for the `/v1` wire contract.
//!
//! These tests pin the exact serialized JSON of every v1 DTO. If a
//! refactor of the library types (or of the DTOs themselves) changes the
//! wire shape, a fixture here fails — that is the moment to either revert
//! the break or ship `/v2`. The vendored serde emits object keys in
//! alphabetical order, so renames *and* additions show up as diffs here.

use hv_server::api::v1::*;

#[test]
fn check_request_golden() {
    let req = CheckRequest { html: "<p>x</p>".into() };
    assert_eq!(serde_json::to_string(&req).unwrap(), r#"{"html":"<p>x</p>"}"#);
    // And the reverse direction accepts exactly this shape.
    let back: CheckRequest = serde_json::from_str(r#"{"html":"<p>x</p>"}"#).unwrap();
    assert_eq!(back, req);
}

#[test]
fn check_response_golden() {
    let mut battery = hv_core::Battery::full();
    let report = battery.run_str(
        r#"<!DOCTYPE html><html><head><title>t</title></head><body><img src=a src=b></body></html>"#,
    );
    let dto = CheckResponse::from(&report);
    let json = serde_json::to_string(&dto).unwrap();
    assert_eq!(
        json,
        "{\"clean\":false,\"findings\":[{\"category\":\"parsing_error\",\"evidence\":\"duplicate attribute near \u{201c}src=b></body></html>\u{201d}\",\"fixability\":\"automatic\",\"group\":\"DM\",\"kind\":\"DM3\",\"offset\":67}],\"mitigations\":{\"newline_and_lt_in_url\":false,\"newline_in_url\":false,\"script_in_attribute\":false,\"script_in_nonced_script\":false}}"
    );
    let back: CheckResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dto);
}

#[test]
fn clean_check_response_golden() {
    let mut battery = hv_core::Battery::full();
    let report = battery.run_str(
        "<!DOCTYPE html><html><head><title>t</title></head><body><p>fine</p></body></html>",
    );
    let dto = CheckResponse::from(&report);
    assert_eq!(
        serde_json::to_string(&dto).unwrap(),
        r#"{"clean":true,"findings":[],"mitigations":{"newline_and_lt_in_url":false,"newline_in_url":false,"script_in_attribute":false,"script_in_nonced_script":false}}"#
    );
}

#[test]
fn error_body_golden() {
    let e = ErrorBody::new("body_too_large", "declared body of 9 bytes exceeds the 1-byte limit");
    assert_eq!(
        serde_json::to_string(&e).unwrap(),
        r#"{"code":"body_too_large","message":"declared body of 9 bytes exceeds the 1-byte limit"}"#
    );
}

#[test]
fn explain_response_golden() {
    let dto = ExplainResponse::from(hv_core::ViolationKind::DM3);
    let json = serde_json::to_string(&dto).unwrap();
    // Pin the skeleton (field names + the enum-like strings), not the
    // prose: explanation text may be refined without a wire break.
    assert!(json.contains(r#""kind":"DM3""#), "{json}");
    assert!(json.contains(r#""group":"Data Manipulation""#), "{json}");
    assert!(json.contains(r#""group_code":"DM""#), "{json}");
    assert!(json.contains(r#""category":"parsing_error""#), "{json}");
    assert!(json.contains(r#""fixability":"automatic""#), "{json}");
    for field in ["behaviour", "attack", "fix"] {
        assert!(json.contains(&format!("\"{field}\":\"")), "missing {field}: {json}");
    }
    let back: ExplainResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dto);
}

#[test]
fn fix_response_golden() {
    let outcome = hv_core::autofix::auto_fix("<img src=a src=b>");
    let dto = FixResponse::from(&outcome);
    let json = serde_json::to_string(&dto).unwrap();
    assert_eq!(
        json,
        r#"{"after":[],"before":["DM3","HF1"],"eliminated":["DM3","HF1"],"fixed_html":"<html><head></head><body><img src=\"a\"></body></html>"}"#
    );
}

#[test]
fn store_summary_golden() {
    // An empty in-memory store has no format, segments, or dropped list,
    // so the new optional fields are skipped and the pre-v1 wire shape is
    // preserved byte for byte.
    let store =
        hv_pipeline::IndexedStore::new(hv_pipeline::ResultStore::new(0x48_56_31, 0.05, 1234));
    let dto = StoreSummary::from(&store);
    let json = serde_json::to_string(&dto).unwrap();
    assert_eq!(
        json,
        r#"{"experiments":["table1","table2","fig8","fig9","fig10","fig16","fig17","fig18","fig19","fig20","fig21","stats","autofix","mitigations","rollout","churn","aux","all"],"has_metrics":false,"quarantined":0,"records":0,"scale":0.05,"seed":4740657,"universe":1234}"#
    );
    // And the old shape still deserializes: the added fields default.
    let back: StoreSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dto);
}

#[test]
fn store_summary_segments_golden() {
    let mut store = hv_pipeline::ResultStore::new(1, 0.05, 10);
    store.records.push(hv_pipeline::DomainYearRecord {
        domain_id: 3,
        domain_name: "d3.com".into(),
        rank: 3,
        snapshot: hv_corpus::Snapshot(0),
        pages_found: 5,
        pages_analyzed: 4,
        kinds: [hv_core::ViolationKind::DM3].into_iter().collect(),
        page_counts: [(hv_core::ViolationKind::DM3, 2)].into_iter().collect(),
        mitigations: Default::default(),
        kinds_after_autofix: Default::default(),
        uses_math: false,
        pages_faulted: 0,
        pages_degraded: 0,
        pages_quarantined: 1,
    });
    let dto = StoreSummary::from(&hv_pipeline::IndexedStore::new(store));
    let json = serde_json::to_string(&dto).unwrap();
    assert!(
        json.contains(
            r#""segments":[{"domains_analyzed":1,"domains_violating":1,"pages_analyzed":4,"pages_found":5,"pages_quarantined":1,"records":1,"snapshot":"CC-MAIN-2015-14"}]"#
        ),
        "{json}"
    );
}

#[test]
fn unknown_fields_are_ignored_on_requests() {
    // Compatibility promise: clients may see new fields from newer
    // servers, and servers must tolerate extra fields from newer clients.
    let req: CheckRequest =
        serde_json::from_str(r#"{"html":"<p>x</p>","future_option":true}"#).unwrap();
    assert_eq!(req.html, "<p>x</p>");
}

#[test]
fn missing_required_field_is_an_error() {
    assert!(serde_json::from_str::<CheckRequest>(r#"{"htlm":"typo"}"#).is_err());
}

#[test]
fn check_response_escapes_golden() {
    // Evidence holding a quote, a backslash, a tab and U+0001 reaches every
    // escape the compact writer has: the two-character forms and `\u00XX`.
    let finding = |kind: &str, offset: usize, evidence: &str| FindingDto {
        kind: kind.into(),
        group: "DM".into(),
        category: "parsing_error".into(),
        fixability: "automatic".into(),
        offset,
        evidence: evidence.into(),
    };
    let dto = CheckResponse {
        clean: false,
        findings: vec![
            finding("DM3", 12, "duplicate attribute near \u{201c}title=\"a\\b\"\u{201d}"),
            finding("DM2_3", 40, "tab\there, \u{1} control \\\" end"),
        ],
        mitigations: MitigationsDto {
            script_in_attribute: true,
            newline_in_url: true,
            ..MitigationsDto::default()
        },
    };
    let json = serde_json::to_string(&dto).unwrap();
    assert_eq!(
        json,
        r#"{"clean":false,"findings":[{"category":"parsing_error","evidence":"duplicate attribute near “title=\"a\\b\"”","fixability":"automatic","group":"DM","kind":"DM3","offset":12},{"category":"parsing_error","evidence":"tab\there, \u0001 control \\\" end","fixability":"automatic","group":"DM","kind":"DM2_3","offset":40}],"mitigations":{"newline_and_lt_in_url":false,"newline_in_url":true,"script_in_attribute":true,"script_in_nonced_script":false}}"#
    );
    let back: CheckResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dto);
}

#[test]
fn metricsz_golden() {
    use hv_server::metrics::{EndpointStats, MetricsSnapshot};
    let stats = |served: u64, client_errors: u64, samples: &[u64]| {
        let mut latency = hv_core::DurationHistogram::default();
        for &nanos in samples {
            latency.record(nanos);
        }
        EndpointStats { served, client_errors, server_errors: 0, panics: 0, latency }
    };
    let snapshot = MetricsSnapshot {
        accepted: 4,
        shed: 1,
        timeouts: 0,
        served: 3,
        panics: 0,
        endpoints: [
            ("POST /v1/check".to_owned(), stats(2, 1, &[30_000, 1_500])),
            ("GET /healthz".to_owned(), stats(1, 0, &[0])),
        ]
        .into_iter()
        .collect(),
    };
    assert_eq!(
        serde_json::to_string(&snapshot).unwrap(),
        concat!(
            r#"{"accepted":4,"endpoints":{"GET /healthz":{"client_errors":0,"latency":{"buckets":"#,
            r#"[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
            r#""count":1,"sum_nanos":0},"panics":0,"served":1,"server_errors":0},"#,
            r#""POST /v1/check":{"client_errors":1,"latency":{"buckets":"#,
            r#"[0,0,0,0,0,0,0,0,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
            r#""count":2,"sum_nanos":31500},"panics":0,"served":2,"server_errors":0}},"#,
            r#""panics":0,"served":3,"shed":1,"timeouts":0}"#,
        )
    );
}
