//! Scan observability: what the engine did, how fast, and where the time
//! went.
//!
//! Each worker accumulates its own [`ScanMetrics`] lock-free (plain
//! counters on the worker's stack); the driver merges them after the join
//! — every field is additive or shape-aligned, so the merge is
//! order-independent. The merged metrics are embedded in the
//! [`crate::ResultStore`] as provenance and rendered by `hv scan
//! --metrics` / `hv repro`.

use crate::outcome::ErrorClass;
use hv_core::BatteryStats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Failure-handling telemetry: what the robustness layer did. All
/// counters are plain worker-side sums. The struct is all-zero on a clean
/// scan and is then omitted from the serialized metrics entirely, keeping
/// clean-run stores byte-identical to ones written before the failure
/// model existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// Pages whose fetch path had a fault injected (any class).
    #[serde(default)]
    pub injected: u64,
    /// Fetch retries performed (each transient failure that was retried).
    #[serde(default)]
    pub retries: u64,
    /// Pages analyzed only after ≥ 1 retry (degraded).
    #[serde(default)]
    pub degraded: u64,
    /// Pages quarantined, all classes (== the per-class counters' sum).
    #[serde(default)]
    pub quarantined: u64,
    /// Panics caught at the per-page isolation boundary.
    #[serde(default)]
    pub panics_caught: u64,
    /// Injected invalid-UTF-8 faults. These pages land in
    /// [`ScanMetrics::pages_rejected_utf8`] — the §4.1 filter is the
    /// correct handler for mojibake — so they are counted here but never
    /// quarantined.
    #[serde(default)]
    pub invalid_utf8_injected: u64,
    /// Quarantines by class.
    #[serde(default)]
    pub malformed_cdx: u64,
    #[serde(default)]
    pub transient_io: u64,
    #[serde(default)]
    pub truncated_record: u64,
    #[serde(default)]
    pub corrupt_compression: u64,
    #[serde(default)]
    pub oversized_body: u64,
    #[serde(default)]
    pub parser_panic: u64,
}

impl FaultMetrics {
    /// All-zero — the serializer omits the struct in this state.
    pub fn is_empty(&self) -> bool {
        *self == FaultMetrics::default()
    }

    /// Record one quarantine under its class.
    pub fn bump_quarantine(&mut self, class: ErrorClass) {
        self.quarantined += 1;
        match class {
            ErrorClass::MalformedCdx => self.malformed_cdx += 1,
            ErrorClass::TransientIo => self.transient_io += 1,
            ErrorClass::TruncatedRecord => self.truncated_record += 1,
            ErrorClass::CorruptCompression => self.corrupt_compression += 1,
            ErrorClass::OversizedBody => self.oversized_body += 1,
            ErrorClass::ParserPanic => self.parser_panic += 1,
        }
    }

    pub fn merge(&mut self, other: &FaultMetrics) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.degraded += other.degraded;
        self.quarantined += other.quarantined;
        self.panics_caught += other.panics_caught;
        self.invalid_utf8_injected += other.invalid_utf8_injected;
        self.malformed_cdx += other.malformed_cdx;
        self.transient_io += other.transient_io;
        self.truncated_record += other.truncated_record;
        self.corrupt_compression += other.corrupt_compression;
        self.oversized_body += other.oversized_body;
        self.parser_panic += other.parser_panic;
    }
}

/// Worker-side wall time per pipeline phase (Figure 6 steps), summed over
/// all workers — on an N-thread scan the phase total can exceed the scan's
/// wall clock by up to a factor of N.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseNanos {
    /// (1) CDX index lookups (driver-side, single-threaded).
    #[serde(default)]
    pub cdx: u64,
    /// (2) WARC record fetch (page generation / disk read).
    #[serde(default)]
    pub fetch: u64,
    /// §4.1 UTF-8 validation of the fetched bytes.
    #[serde(default)]
    pub decode: u64,
    /// Building the [`hv_core::CheckContext`] (tokenize + tree build).
    #[serde(default)]
    pub parse: u64,
    /// (3) running the checker battery over the parsed page.
    #[serde(default)]
    pub check: u64,
}

impl PhaseNanos {
    pub fn merge(&mut self, other: &PhaseNanos) {
        self.cdx += other.cdx;
        self.fetch += other.fetch;
        self.decode += other.decode;
        self.parse += other.parse;
        self.check += other.check;
    }

    /// Total attributed worker time.
    pub fn total(&self) -> u64 {
        self.cdx + self.fetch + self.decode + self.parse + self.check
    }
}

/// Aggregated scan telemetry. Every counter is a plain sum over workers,
/// so partial metrics from any number of workers merge into the same
/// totals regardless of thread count or merge order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScanMetrics {
    /// Worker threads the scan ran with.
    #[serde(default)]
    pub threads: usize,
    /// Driver-side wall clock for the whole scan, nanoseconds.
    #[serde(default)]
    pub wall_nanos: u64,
    /// (domain, snapshot) pairs that had a CDX entry.
    #[serde(default)]
    pub domain_snapshots: u64,
    /// Pages listed in the CDX indices (before the UTF-8 filter).
    #[serde(default)]
    pub pages_listed: u64,
    /// Pages that decoded as UTF-8 and went through the battery.
    #[serde(default)]
    pub pages_analyzed: u64,
    /// Pages rejected by the §4.1 UTF-8 filter.
    #[serde(default)]
    pub pages_rejected_utf8: u64,
    /// Bytes fetched from the archive (all listed pages).
    #[serde(default)]
    pub bytes_fetched: u64,
    /// Bytes of the pages that passed the filter (== bytes parsed).
    #[serde(default)]
    pub bytes_decoded: u64,
    /// Where worker time went, per phase.
    #[serde(default)]
    pub phases: PhaseNanos,
    /// Per-check fire counts and wall-time histograms.
    #[serde(default)]
    pub battery: BatteryStats,
    /// Failure-handling counters (retries, quarantines, caught panics).
    /// All-zero on a clean scan and then omitted from the JSON, so stores
    /// from before the failure model stay byte-identical.
    #[serde(default, skip_serializing_if = "FaultMetrics::is_empty")]
    pub faults: FaultMetrics,
}

impl ScanMetrics {
    /// Fold one worker's partial metrics into the aggregate.
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.domain_snapshots += other.domain_snapshots;
        self.pages_listed += other.pages_listed;
        self.pages_analyzed += other.pages_analyzed;
        self.pages_rejected_utf8 += other.pages_rejected_utf8;
        self.bytes_fetched += other.bytes_fetched;
        self.bytes_decoded += other.bytes_decoded;
        self.phases.merge(&other.phases);
        self.faults.merge(&other.faults);
        if self.battery.per_check.is_empty() {
            self.battery = other.battery.clone();
        } else if !other.battery.per_check.is_empty() {
            self.battery.merge(&other.battery);
        }
        // threads / wall_nanos are driver-owned, not summed.
    }

    /// Stamp the driver-owned fields: the worker count, and the wall clock
    /// since `start`.
    pub(crate) fn finish(mut self, threads: usize, start: Instant) -> ScanMetrics {
        self.threads = threads;
        self.wall_nanos = start.elapsed().as_nanos() as u64;
        self
    }

    /// Throughput over the scan's wall clock.
    pub fn pages_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.pages_analyzed as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// Fraction of listed pages the §4.1 filter rejected.
    pub fn utf8_reject_rate(&self) -> f64 {
        if self.pages_listed == 0 {
            return 0.0;
        }
        self.pages_rejected_utf8 as f64 / self.pages_listed as f64
    }

    /// Human-readable multi-line summary (what `hv scan --metrics` prints).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("scan metrics\n");
        s.push_str(&format!(
            "  threads {:>3}   wall {:>8.2}s   throughput {:>9.0} pages/s\n",
            self.threads,
            self.wall_nanos as f64 / 1e9,
            self.pages_per_sec()
        ));
        s.push_str(&format!(
            "  domain-snapshots {}   pages listed {}   analyzed {}   utf-8 rejected {} ({:.2}%)\n",
            self.domain_snapshots,
            self.pages_listed,
            self.pages_analyzed,
            self.pages_rejected_utf8,
            100.0 * self.utf8_reject_rate()
        ));
        s.push_str(&format!(
            "  bytes fetched {:.1} MiB   decoded {:.1} MiB\n",
            self.bytes_fetched as f64 / (1024.0 * 1024.0),
            self.bytes_decoded as f64 / (1024.0 * 1024.0)
        ));
        let t = self.phases.total().max(1);
        s.push_str(&format!(
            "  worker time: cdx {:.1}% fetch {:.1}% decode {:.1}% parse {:.1}% check {:.1}%\n",
            100.0 * self.phases.cdx as f64 / t as f64,
            100.0 * self.phases.fetch as f64 / t as f64,
            100.0 * self.phases.decode as f64 / t as f64,
            100.0 * self.phases.parse as f64 / t as f64,
            100.0 * self.phases.check as f64 / t as f64
        ));
        if !self.faults.is_empty() {
            let f = &self.faults;
            s.push_str(&format!(
                "  faults: injected {}   retries {}   degraded {}   quarantined {}   panics caught {}\n",
                f.injected, f.retries, f.degraded, f.quarantined, f.panics_caught
            ));
            s.push_str(&format!(
                "  quarantine by class: cdx {} transient {} truncated {} gzip {} oversized {} panic {}   (utf-8 faults → filter: {})\n",
                f.malformed_cdx,
                f.transient_io,
                f.truncated_record,
                f.corrupt_compression,
                f.oversized_body,
                f.parser_panic,
                f.invalid_utf8_injected
            ));
        }
        if !self.battery.per_check.is_empty() {
            s.push_str("  per-check: pages fired / findings / dispatches / mean ns\n");
            for (kind, st) in &self.battery.per_check {
                s.push_str(&format!(
                    "    {:<6} {:>8} {:>9} {:>10} {:>9.0}\n",
                    kind.to_string(),
                    st.pages_fired,
                    st.findings_total,
                    st.dispatches,
                    st.nanos.mean_nanos()
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(pages: u64, bytes: u64) -> ScanMetrics {
        ScanMetrics {
            domain_snapshots: 2,
            pages_listed: pages + 1,
            pages_analyzed: pages,
            pages_rejected_utf8: 1,
            bytes_fetched: bytes + 100,
            bytes_decoded: bytes,
            phases: PhaseNanos { cdx: 0, fetch: 10, decode: 20, parse: 300, check: 400 },
            ..ScanMetrics::default()
        }
    }

    #[test]
    fn merge_is_additive_and_order_independent() {
        let (a, b) = (worker(10, 1000), worker(7, 500));
        let mut ab = ScanMetrics::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = ScanMetrics::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.pages_analyzed, 17);
        assert_eq!(ab.pages_listed, 19);
        assert_eq!(ab.bytes_decoded, 1500);
        assert_eq!(ab.phases, ba.phases);
        assert_eq!(ab.pages_analyzed, ba.pages_analyzed);
    }

    #[test]
    fn rates_guard_division_by_zero() {
        let m = ScanMetrics::default();
        assert_eq!(m.pages_per_sec(), 0.0);
        assert_eq!(m.utf8_reject_rate(), 0.0);
    }

    #[test]
    fn render_mentions_throughput_and_phases() {
        let mut m = worker(100, 10_000);
        m.threads = 4;
        m.wall_nanos = 2_000_000_000;
        let out = m.render();
        assert!(out.contains("threads"));
        assert!(out.contains("pages/s"));
        assert!(out.contains("parse"));
        assert!(out.contains("utf-8 rejected 1"));
    }

    #[test]
    fn fault_metrics_merge_and_classify() {
        let mut a = FaultMetrics::default();
        assert!(a.is_empty());
        a.injected = 3;
        a.retries = 2;
        a.bump_quarantine(ErrorClass::TruncatedRecord);
        a.bump_quarantine(ErrorClass::TransientIo);
        let mut b = FaultMetrics { injected: 1, degraded: 1, ..FaultMetrics::default() };
        b.bump_quarantine(ErrorClass::TruncatedRecord);
        a.merge(&b);
        assert_eq!(a.injected, 4);
        assert_eq!(a.quarantined, 3);
        assert_eq!(a.truncated_record, 2);
        assert_eq!(a.transient_io, 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_faults_are_omitted_from_json() {
        let clean = worker(3, 64);
        let json = serde_json::to_string(&clean).unwrap();
        assert!(!json.contains("faults"), "clean metrics must not serialize faults: {json}");
        let mut chaotic = worker(3, 64);
        chaotic.faults.injected = 1;
        let json = serde_json::to_string(&chaotic).unwrap();
        assert!(json.contains("faults"));
        let back: ScanMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults.injected, 1);
    }

    #[test]
    fn render_mentions_faults_only_when_present() {
        let mut m = worker(10, 100);
        assert!(!m.render().contains("quarantine"));
        m.faults.injected = 5;
        m.faults.bump_quarantine(ErrorClass::OversizedBody);
        let out = m.render();
        assert!(out.contains("injected 5"));
        assert!(out.contains("oversized 1"));
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = worker(3, 64);
        m.threads = 2;
        m.wall_nanos = 5;
        let json = serde_json::to_string(&m).unwrap();
        let back: ScanMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pages_analyzed, m.pages_analyzed);
        assert_eq!(back.phases, m.phases);
        assert_eq!(back.threads, 2);

        // Stores written while retries still accounted a backoff carry a
        // `backoff_nanos` fault counter; it is ignored on load.
        let old = r#"{"threads":2,"pages_analyzed":3,"faults":{"injected":4,"retries":2,"backoff_nanos":0,"degraded":1}}"#;
        let back: ScanMetrics = serde_json::from_str(old).unwrap();
        assert_eq!(back.pages_analyzed, 3);
        assert_eq!(
            back.faults,
            FaultMetrics { injected: 4, retries: 2, degraded: 1, ..FaultMetrics::default() }
        );
    }
}
