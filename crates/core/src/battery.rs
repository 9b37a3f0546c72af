//! A reusable checker battery with a fused dispatch engine.
//!
//! [`Battery`] packages the rule set ([`checkers::all_checks`]) together
//! with a reusable output buffer, so a scan constructs the battery **once
//! per worker** and then runs it over every page with zero per-page setup:
//! no re-boxing of the twenty checkers and, via [`Battery::run_ref`], no
//! per-page findings allocation either.
//!
//! Running a page is **one fused pass**, not twenty scans: the battery
//! precomputes from each rule's [`checkers::Interest`] mask which rules
//! want parse errors, tree events, start tags, DOM nodes, or a finish
//! call, then walks each source exactly once — errors → events → start
//! tags → pre-order DOM → finish — dispatching every item only to the
//! rules that asked for it. Whole passes are skipped when no rule in the
//! battery wants them, except two that always run: the tag pass also feeds
//! the §4.5 mitigation flags, and the element pass counts §4.2's math
//! usage ([`PageReport::uses_math`]). Findings are sorted by `(kind, offset)` at the end;
//! since every kind belongs to exactly one rule and each rule sees its
//! items in the same source order the pre-fusion per-rule scans used, the
//! output is byte-identical to theirs (kept as `hv_fuzz::reference::checkers`).
//!
//! The battery also carries the observability hooks of the page-granular
//! scan engine: [`Battery::run_instrumented`] times each rule and feeds
//! per-check [`CheckStats`] (fire counts, dispatch counts, and
//! log₂-bucketed wall-time histograms) that merge losslessly across
//! workers. Timing accumulates per handler dispatch but is recorded once
//! per page per rule, so histogram counts still equal pages analyzed.
//!
//! ```
//! use hv_core::{Battery, ViolationKind};
//!
//! let mut battery = Battery::full();
//! let report = battery.run_str(r#"<img src="x.png"onerror="alert(1)">"#);
//! assert!(report.has(ViolationKind::FB2));
//!
//! // Restrict the rule set; everything else never runs.
//! let mut fb_only = Battery::only(&[ViolationKind::FB1, ViolationKind::FB2]);
//! assert_eq!(fb_only.kinds().len(), 2);
//! ```

use crate::checkers::{self, Check, Interest, MitigationAccumulator};
use crate::context::CheckContext;
use crate::report::PageReport;
use crate::taxonomy::ViolationKind;
use serde::{Deserialize, Serialize};
use spec_html::Atom;
use std::time::Instant;

const MATH: Atom = Atom::known("math");

/// Why a raw byte body could not be analyzed. Returned by
/// [`Battery::try_run_bytes`] so callers classify the page instead of
/// silently dropping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// Not valid UTF-8 — excluded by the study's §4.1 inclusion filter.
    NotUtf8 {
        /// Byte offset of the first invalid sequence.
        valid_up_to: usize,
    },
    /// The body exceeds the caller's byte budget; refused before decoding.
    TooLarge { len: usize, budget: usize },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::NotUtf8 { valid_up_to } => {
                write!(f, "body is not valid UTF-8 (first invalid byte at {valid_up_to})")
            }
            InputError::TooLarge { len, budget } => {
                write!(f, "body of {len} bytes exceeds the {budget}-byte budget")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// A constructed-once, run-many checker battery with a reusable scratch
/// report. See the [module docs](self) for the design.
pub struct Battery {
    checks: Vec<Box<dyn Check>>,
    kinds: Vec<ViolationKind>,
    /// Dispatch tables: indices into `checks` per source, precomputed from
    /// each rule's [`Interest`] mask at construction.
    errors_idx: Vec<usize>,
    events_idx: Vec<usize>,
    tags_idx: Vec<usize>,
    dom_idx: Vec<usize>,
    finish_idx: Vec<usize>,
    /// Per-rule instrumentation scratch for one page (zeroed after use).
    scratch: Vec<Scratch>,
    /// Reused output buffer for [`Battery::run_ref`]; findings capacity is
    /// retained across pages.
    report: PageReport,
}

/// Per-page, per-rule instrumentation accumulator: handler time and
/// findings are summed across a rule's dispatches, then folded into
/// [`CheckStats`] once per page.
#[derive(Clone, Copy, Default)]
struct Scratch {
    nanos: u64,
    fired: u64,
    dispatches: u64,
}

impl Battery {
    /// The full rule set, in taxonomy order — one checker per Figure-8 bar.
    pub fn full() -> Self {
        Battery::from_checks(checkers::all_checks())
    }

    /// A battery restricted to the given kinds (order and duplicates in
    /// `kinds` are irrelevant; the taxonomy order is kept).
    pub fn only(kinds: &[ViolationKind]) -> Self {
        let checks =
            checkers::all_checks().into_iter().filter(|c| kinds.contains(&c.kind())).collect();
        Battery::from_checks(checks)
    }

    fn from_checks(checks: Vec<Box<dyn Check>>) -> Self {
        let kinds = checks.iter().map(|c| c.kind()).collect();
        let table = |want: Interest| -> Vec<usize> {
            checks
                .iter()
                .enumerate()
                .filter(|(_, c)| c.interest().contains(want))
                .map(|(i, _)| i)
                .collect()
        };
        let scratch = vec![Scratch::default(); checks.len()];
        Battery {
            errors_idx: table(Interest::ERRORS),
            events_idx: table(Interest::EVENTS),
            tags_idx: table(Interest::START_TAGS),
            dom_idx: table(Interest::DOM),
            finish_idx: table(Interest::FINISH),
            scratch,
            checks,
            kinds,
            report: PageReport::default(),
        }
    }

    /// The kinds this battery runs, in execution (taxonomy) order.
    pub fn kinds(&self) -> &[ViolationKind] {
        &self.kinds
    }

    /// Number of rules in the battery.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// The fused pass: one walk per dispatch source, every item handed
    /// only to the rules whose [`Interest`] asked for it. `instrument`
    /// accumulates per-dispatch time and fire counts into the scratch
    /// table; the caller folds scratch into [`CheckStats`] afterwards.
    fn run_fused(&mut self, cx: &CheckContext<'_>, instrument: bool) {
        let Battery {
            checks,
            errors_idx,
            events_idx,
            tags_idx,
            dom_idx,
            finish_idx,
            scratch,
            report,
            ..
        } = self;
        for c in checks.iter_mut() {
            c.reset();
        }
        let out = &mut report.findings;
        out.clear();

        /// One handler call, optionally timed into the rule's scratch slot.
        macro_rules! dispatch {
            ($i:expr, $call:expr) => {{
                if instrument {
                    let before = out.len();
                    let t0 = Instant::now();
                    $call;
                    let s = &mut scratch[$i];
                    s.nanos += t0.elapsed().as_nanos() as u64;
                    s.fired += (out.len() - before) as u64;
                    s.dispatches += 1;
                } else {
                    $call;
                }
            }};
        }

        if !errors_idx.is_empty() {
            for err in &cx.parse.errors {
                for &i in errors_idx.iter() {
                    dispatch!(i, checks[i].on_parse_error(cx, err, out));
                }
            }
        }

        if !events_idx.is_empty() {
            for ev in &cx.parse.events {
                for &i in events_idx.iter() {
                    dispatch!(i, checks[i].on_tree_event(cx, ev, out));
                }
            }
        }

        // The tag pass always runs: the §4.5 mitigation flags fold over
        // the same stream even when no rule wants tags.
        let mut mitigations = MitigationAccumulator::default();
        for tag in cx.start_tags() {
            mitigations.observe(tag, cx.parse.dom.attrs(tag.attrs));
            for &i in tags_idx.iter() {
                dispatch!(i, checks[i].on_start_tag(cx, tag, out));
            }
        }

        // The element pass always runs too: it counts §4.2's math usage.
        let dom = &cx.parse.dom;
        let mut uses_math = false;
        for id in dom.all_elements() {
            uses_math = uses_math || dom.element(id).is_some_and(|e| e.name == MATH);
            for &i in dom_idx.iter() {
                dispatch!(i, checks[i].on_node(cx, id, out));
            }
        }

        for &i in finish_idx.iter() {
            dispatch!(i, checks[i].finish(cx, out));
        }

        out.sort_by_key(|f| (f.kind, f.offset));
        report.mitigations = mitigations.finish();
        report.uses_math = uses_math;
    }

    /// Run the battery, reusing the internal report buffer. The returned
    /// reference is valid until the next `run_*` call; use this in hot
    /// loops that only *read* the per-page result.
    pub fn run_ref(&mut self, cx: &CheckContext<'_>) -> &PageReport {
        self.run_fused(cx, false);
        &self.report
    }

    /// Run the battery and return an owned [`PageReport`].
    pub fn run(&mut self, cx: &CheckContext<'_>) -> PageReport {
        self.run_ref(cx).clone()
    }

    /// Parse `raw` as a full document and run the battery over it.
    pub fn run_str(&mut self, raw: &str) -> PageReport {
        let cx = CheckContext::new(raw);
        self.run(&cx)
    }

    /// Parse `raw` as a dynamically loaded HTML *fragment* (innerHTML
    /// semantics in the given context element) and run the battery over
    /// it — the §5.1 pre-study's unit of analysis.
    pub fn run_fragment(&mut self, raw: &str, context_element: &str) -> PageReport {
        let cx = CheckContext::fragment(raw, context_element);
        self.run(&cx)
    }

    /// Run the battery over a raw byte body, applying the study's UTF-8
    /// inclusion filter. Validation borrows — no decode-time copy is made.
    /// Returns `None` when the bytes are not valid UTF-8 (the document is
    /// excluded from measurement); the returned reference is valid until
    /// the next `run_*` call.
    pub fn run_bytes(&mut self, bytes: &[u8]) -> Option<&PageReport> {
        self.try_run_bytes(bytes, usize::MAX).ok()
    }

    /// Like [`Battery::run_bytes`], but with a structured verdict instead
    /// of trusting the input: says *why* a body was not analyzed
    /// ([`InputError`]) and refuses bodies over `byte_budget` **before**
    /// decoding — the guard a fault-tolerant scan needs against oversized
    /// records. Pass `usize::MAX` for no budget.
    pub fn try_run_bytes(
        &mut self,
        bytes: &[u8],
        byte_budget: usize,
    ) -> Result<&PageReport, InputError> {
        if bytes.len() > byte_budget {
            return Err(InputError::TooLarge { len: bytes.len(), budget: byte_budget });
        }
        match spec_html::decoder::decode_utf8(bytes) {
            spec_html::decoder::Decoded::Utf8(text) => {
                let cx = CheckContext::new(text);
                Ok(self.run_ref(&cx))
            }
            spec_html::decoder::Decoded::NotUtf8 { valid_up_to } => {
                Err(InputError::NotUtf8 { valid_up_to })
            }
        }
    }

    /// A stats accumulator shaped to this battery (one slot per rule).
    pub fn new_stats(&self) -> BatteryStats {
        BatteryStats { per_check: self.kinds.iter().map(|&k| (k, CheckStats::default())).collect() }
    }

    /// Like [`Battery::run_ref`], additionally timing every rule into
    /// `stats` (which must come from [`Battery::new_stats`] on a battery
    /// with the same rule set). A rule's time and findings accumulate
    /// across its handler dispatches within the page and are recorded
    /// **once** per page, so `nanos.count` equals pages analyzed;
    /// [`CheckStats::dispatches`] additionally counts the individual
    /// handler calls.
    pub fn run_instrumented(
        &mut self,
        cx: &CheckContext<'_>,
        stats: &mut BatteryStats,
    ) -> &PageReport {
        assert_eq!(stats.per_check.len(), self.checks.len(), "stats shape mismatch");
        self.run_fused(cx, true);
        for (slot, s) in stats.per_check.iter_mut().zip(self.scratch.iter_mut()) {
            slot.1.record_page(s.fired, s.nanos);
            slot.1.dispatches += s.dispatches;
            *s = Scratch::default();
        }
        &self.report
    }
}

/// Per-rule observability counters. All fields merge by addition, so
/// worker-local stats combine into scan totals without locks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckStats {
    /// Pages on which the rule produced at least one finding.
    pub pages_fired: u64,
    /// Total findings across all pages.
    pub findings_total: u64,
    /// Handler dispatches the fused engine made to this rule (one per
    /// error/event/tag/node/finish item routed to it). Zero is omitted
    /// from the JSON, keeping stores from older builds byte-identical.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub dispatches: u64,
    /// Wall-time distribution of per-page rule executions (a page's
    /// dispatches to one rule are summed into one sample).
    pub nanos: DurationHistogram,
}

/// `skip_serializing_if` predicate for [`CheckStats::dispatches`].
fn u64_is_zero(n: &u64) -> bool {
    *n == 0
}

impl CheckStats {
    /// Account one page execution: `fired` findings produced in `nanos` ns.
    pub fn record_page(&mut self, fired: u64, nanos: u64) {
        if fired > 0 {
            self.pages_fired += 1;
        }
        self.findings_total += fired;
        self.nanos.record(nanos);
    }

    pub fn merge(&mut self, other: &CheckStats) {
        self.pages_fired += other.pages_fired;
        self.findings_total += other.findings_total;
        self.dispatches += other.dispatches;
        self.nanos.merge(&other.nanos);
    }
}

/// Log₂-bucketed histogram of nanosecond durations: bucket *i* counts
/// samples in `[2^i, 2^(i+1))` (bucket 0 additionally holds 0 ns). Exact
/// count and sum ride along, so means stay precise while the buckets give
/// the shape. Addition-only, hence mergeable across workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationHistogram {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum_nanos: u64,
}

/// 2^47 ns ≈ 39 hours — no single rule execution exceeds this.
const HISTOGRAM_BUCKETS: usize = 48;

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram { buckets: vec![0; HISTOGRAM_BUCKETS], count: 0, sum_nanos: 0 }
    }
}

impl DurationHistogram {
    pub fn record(&mut self, nanos: u64) {
        let bucket = if nanos < 2 {
            0
        } else {
            ((63 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_nanos += nanos;
    }

    pub fn merge(&mut self, other: &DurationHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Upper edge (exclusive) of the highest non-empty bucket, in ns.
    pub fn max_bucket_nanos(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => 1u64 << (i as u32 + 1).min(63),
            None => 0,
        }
    }
}

/// Per-battery stats: one [`CheckStats`] per rule, in execution order.
/// Produced by [`Battery::new_stats`], filled by
/// [`Battery::run_instrumented`], merged across workers with
/// [`BatteryStats::merge`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatteryStats {
    pub per_check: Vec<(ViolationKind, CheckStats)>,
}

impl BatteryStats {
    /// Fold another worker's stats into this one. Both must describe the
    /// same battery shape.
    pub fn merge(&mut self, other: &BatteryStats) {
        assert_eq!(
            self.per_check.len(),
            other.per_check.len(),
            "cannot merge stats of different batteries"
        );
        for ((k, s), (ok, os)) in self.per_check.iter_mut().zip(&other.per_check) {
            assert_eq!(*k, *ok, "battery kind order mismatch");
            s.merge(os);
        }
    }

    /// Stats for one kind, if the battery ran it.
    pub fn get(&self, kind: ViolationKind) -> Option<&CheckStats> {
        self.per_check.iter().find(|(k, _)| *k == kind).map(|(_, s)| s)
    }

    /// Total findings across all rules.
    pub fn findings_total(&self) -> u64 {
        self.per_check.iter().map(|(_, s)| s.findings_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIRTY: &str = "<img src=a src=b><div id=x id=y><p/ class=c><a href=\"u\"title=t>";

    #[test]
    fn battery_reuse_is_stateless_across_pages() {
        let mut battery = Battery::full();
        let first = battery.run_str(DIRTY);
        // A clean page in between must not leak findings…
        let clean = battery.run_str("<!DOCTYPE html><html lang=en><head><meta charset=utf-8><title>t</title></head><body><p>ok</p></body></html>");
        assert!(clean.is_clean(), "leaked: {:?}", clean.findings);
        // …and re-running the dirty page reproduces the first result.
        let again = battery.run_str(DIRTY);
        assert_eq!(first.findings, again.findings);
    }

    #[test]
    fn run_bytes_filters_and_matches_run_str() {
        let mut battery = Battery::full();
        let via_str = battery.run_str(DIRTY);
        let via_bytes = battery.run_bytes(DIRTY.as_bytes()).expect("clean UTF-8").clone();
        assert_eq!(via_str.findings, via_bytes.findings);
        // Non-UTF-8 bodies are excluded, mirroring the paper's filter.
        assert!(battery.run_bytes(b"<p>gr\xFC\xDFe</p>").is_none());
        // A UTF-8 BOM is stripped before parsing.
        let bom = [b"\xEF\xBB\xBF".as_slice(), DIRTY.as_bytes()].concat();
        assert_eq!(battery.run_bytes(&bom).unwrap().findings, via_str.findings);
    }

    #[test]
    fn try_run_bytes_classifies_instead_of_trusting() {
        let mut battery = Battery::full();
        let ok = battery.try_run_bytes(DIRTY.as_bytes(), usize::MAX).unwrap().clone();
        assert_eq!(ok.findings, battery.run_str(DIRTY).findings);
        assert_eq!(
            battery.try_run_bytes(b"<p>gr\xFC\xDFe</p>", usize::MAX).err(),
            Some(InputError::NotUtf8 { valid_up_to: 5 })
        );
        // Budget is enforced on raw length, before any decode work.
        assert_eq!(
            battery.try_run_bytes(DIRTY.as_bytes(), 4).err(),
            Some(InputError::TooLarge { len: DIRTY.len(), budget: 4 })
        );
    }

    #[test]
    fn only_restricts_the_rule_set() {
        let mut fb = Battery::only(&[ViolationKind::FB1, ViolationKind::FB2]);
        assert_eq!(fb.kinds(), &[ViolationKind::FB1, ViolationKind::FB2]);
        let report = fb.run_str(DIRTY);
        assert!(report
            .findings
            .iter()
            .all(|f| matches!(f.kind, ViolationKind::FB1 | ViolationKind::FB2)));
    }

    /// Math usage is counted by every battery, with or without DOM rules,
    /// in either namespace, and reset between pages.
    #[test]
    fn math_usage_is_counted_without_dom_rules() {
        let mut empty = Battery::only(&[]);
        let mut full = Battery::full();
        for (page, math) in [
            ("<p>x<math><mi>y</mi></math>", true),
            ("<svg><p><math></math>", true),
            ("<table><math>", true),
            ("<p>math</p><svg><mi>", false),
            (DIRTY, false),
        ] {
            for battery in [&mut empty, &mut full] {
                assert_eq!(battery.run_str(page).uses_math, math, "{page}");
            }
        }
    }

    #[test]
    fn only_preserves_taxonomy_order_regardless_of_input_order() {
        let battery = Battery::only(&[ViolationKind::FB2, ViolationKind::DE1]);
        assert_eq!(battery.kinds(), &[ViolationKind::DE1, ViolationKind::FB2]);
    }

    #[test]
    fn run_ref_avoids_realloc_after_first_page() {
        let mut battery = Battery::full();
        battery.run_ref(&CheckContext::new(DIRTY));
        let cap = battery.report.findings.capacity();
        for _ in 0..3 {
            battery.run_ref(&CheckContext::new(DIRTY));
            assert_eq!(battery.report.findings.capacity(), cap);
        }
    }

    #[test]
    fn instrumented_run_counts_every_rule_once_per_page() {
        let mut battery = Battery::full();
        let mut stats = battery.new_stats();
        let cx = CheckContext::new(DIRTY);
        battery.run_instrumented(&cx, &mut stats);
        battery.run_instrumented(&cx, &mut stats);
        for (kind, s) in &stats.per_check {
            assert_eq!(s.nanos.count, 2, "rule {kind} not timed on both pages");
        }
        // The instrumented findings agree with the plain run.
        let plain = battery.run(&cx);
        assert_eq!(stats.findings_total(), 2 * plain.findings.len() as u64);
    }

    #[test]
    fn dispatch_counts_reflect_interest_masks() {
        let mut battery = Battery::full();
        let mut stats = battery.new_stats();
        let cx = CheckContext::new(DIRTY);
        battery.run_instrumented(&cx, &mut stats);
        battery.run_instrumented(&cx, &mut stats);
        // DE1 is finish-only: exactly one dispatch per page.
        assert_eq!(stats.get(ViolationKind::DE1).unwrap().dispatches, 2);
        // FB2 sees every parse error on both pages.
        let errors = cx.parse.errors.len() as u64;
        assert!(errors > 0);
        assert_eq!(stats.get(ViolationKind::FB2).unwrap().dispatches, 2 * errors);
        // DM1 walks every DOM element.
        let elements = cx.parse.dom.all_elements().count() as u64;
        assert_eq!(stats.get(ViolationKind::DM1).unwrap().dispatches, 2 * elements);
    }

    #[test]
    fn dispatch_scratch_resets_between_pages() {
        let mut battery = Battery::full();
        let mut stats = battery.new_stats();
        let cx = CheckContext::new(DIRTY);
        battery.run_instrumented(&cx, &mut stats);
        let after_one = stats.clone();
        battery.run_instrumented(&cx, &mut stats);
        for ((_, one), (_, two)) in after_one.per_check.iter().zip(&stats.per_check) {
            assert_eq!(2 * one.dispatches, two.dispatches);
            assert_eq!(2 * one.findings_total, two.findings_total);
        }
        // An uninstrumented run in between must not pollute the next
        // instrumented one.
        battery.run_ref(&cx);
        battery.run_instrumented(&cx, &mut stats);
        for ((_, one), (_, three)) in after_one.per_check.iter().zip(&stats.per_check) {
            assert_eq!(3 * one.dispatches, three.dispatches);
        }
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut battery = Battery::full();
        let cx = CheckContext::new(DIRTY);
        let mut a = battery.new_stats();
        battery.run_instrumented(&cx, &mut a);
        let mut b = battery.new_stats();
        battery.run_instrumented(&cx, &mut b);
        battery.run_instrumented(&cx, &mut b);

        let mut merged = battery.new_stats();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.findings_total(), a.findings_total() + b.findings_total());
        for ((_, m), (_, x)) in merged.per_check.iter().zip(&a.per_check) {
            assert!(m.nanos.count == x.nanos.count * 3);
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = DurationHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_nanos, 1030);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.max_bucket_nanos(), 2048);
        assert!((h.mean_nanos() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn stats_serialize_roundtrip() {
        let mut battery = Battery::full();
        let mut stats = battery.new_stats();
        battery.run_instrumented(&CheckContext::new(DIRTY), &mut stats);
        let v = serde::Serialize::to_value(&stats);
        let back: BatteryStats = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, stats);
    }
}
