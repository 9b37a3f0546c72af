//! The checker battery: one independent rule per [`ViolationKind`].
//!
//! Mirroring the paper's framework (§3.3), each rule is logically
//! independent — rules never read each other's results. *Mechanically*,
//! though, the rules are visitors: each declares an [`Interest`] mask and
//! implements the matching [`Check`] handlers, and [`crate::Battery`]
//! makes one fused pass over the page (parse errors → tree events → start
//! tags → DOM pre-order walk → finish), dispatching every item only to the
//! rules that asked for it. A DOM rule also names the elements it can
//! report at ([`Check::report_names`]), so the walk hands it only those
//! and runs only on pages whose start tags name one. Rules that need
//! cross-event state (DE1/DE2's EOF stack, HF2's head-close correlation,
//! HF3's body counting) keep it in small per-check accumulators, reset per
//! page.
//!
//! The pre-fusion implementation — twenty independent full-context scans —
//! lives on outside the production crates, as `hv_fuzz::reference::checkers`:
//! the reference the `battery-equivalence` oracle, the equivalence tests
//! and the fused-vs-legacy bench run against.
//!
//! The module split follows the problem groups.

pub mod de;
pub mod dm;
pub mod fb;
pub mod hf;

use crate::context::CheckContext;
use crate::report::{Finding, MitigationFlags};
use crate::taxonomy::ViolationKind;
use spec_html::dom::NodeId;
use spec_html::errors::ParseError;
use spec_html::tags;
use spec_html::tokenizer::{Attr, Tag};
use spec_html::TreeEvent;
use spec_html::{Atom, StaticAtomSet};

/// Bitmask of the dispatch sources a rule wants to see. The battery skips
/// a rule entirely for every source it did not ask for — and skips whole
/// passes (e.g. the DOM walk) when no rule in the battery asked for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest(u8);

impl Interest {
    /// Nothing (useful as a fold seed).
    pub const NONE: Interest = Interest(0);
    /// Tokenizer/preprocessing [`ParseError`]s, in source order.
    pub const ERRORS: Interest = Interest(1);
    /// Tree-construction [`TreeEvent`]s, in source order.
    pub const EVENTS: Interest = Interest(1 << 1);
    /// Checker-relevant start tags, in source order.
    pub const START_TAGS: Interest = Interest(1 << 2);
    /// The shared pre-order DOM element walk, for the elements named in
    /// [`Check::report_names`].
    pub const DOM: Interest = Interest(1 << 3);
    /// One [`Check::finish`] call after all passes.
    pub const FINISH: Interest = Interest(1 << 4);

    /// Set union.
    pub const fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether every bit of `other` is set in `self`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.union(rhs)
    }
}

/// A single violation rule, written as an event visitor.
///
/// The battery calls [`Check::reset`] before each page, then only the
/// handlers named in [`Check::interest`], in a fixed pass order (errors,
/// events, start tags, DOM nodes, finish). Within one pass, items arrive
/// in source order — exactly the order the pre-fusion per-check scans
/// iterated — so the sorted findings are byte-identical to the pre-fusion
/// engine's.
pub trait Check: Send + Sync {
    /// Which check this is.
    fn kind(&self) -> ViolationKind;

    /// Which dispatch sources this rule consumes.
    fn interest(&self) -> Interest;

    /// Clear per-page accumulator state. Stateless rules do nothing.
    fn reset(&mut self) {}

    /// One tokenizer/preprocessing parse error.
    fn on_parse_error(&mut self, cx: &CheckContext<'_>, err: &ParseError, out: &mut Vec<Finding>) {
        let _ = (cx, err, out);
    }

    /// One tree-construction recovery event.
    fn on_tree_event(&mut self, cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        let _ = (cx, ev, out);
    }

    /// One checker-relevant start tag.
    fn on_start_tag(&mut self, cx: &CheckContext<'_>, tag: &Tag, out: &mut Vec<Finding>) {
        let _ = (cx, tag, out);
    }

    /// One element of the shared pre-order DOM walk.
    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, out: &mut Vec<Finding>) {
        let _ = (cx, id, out);
    }

    /// For a rule with [`Interest::DOM`]: the element names it can report
    /// at. The walk hands the rule the elements of these names, and the
    /// battery runs the rule's walk only on pages whose start tags name
    /// one ([`CheckContext::tag_names`]). Read once, when the battery is
    /// built.
    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::new()
    }

    /// For a rule with [`Interest::DOM`]: whether it still reads every
    /// element of the walk, not only those it reports at. The battery
    /// asks before the walk and after each element it hands over; once
    /// the answer is false, the rule gets only its own names for the rest
    /// of the page.
    fn reads_every_element(&self) -> bool {
        false
    }

    /// Called once after all passes; rules that accumulate (or read
    /// whole-page parse facts like the EOF stack) emit here.
    fn finish(&mut self, cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
        let _ = (cx, out);
    }
}

/// The full battery, in taxonomy order — one checker per Figure-8 bar.
pub fn all_checks() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(de::De1),
        Box::new(de::De2),
        Box::new(de::De3_1),
        Box::new(de::De3_2),
        Box::new(de::De3_3),
        Box::new(de::De4),
        Box::new(dm::Dm1),
        Box::new(dm::Dm2_1),
        Box::new(dm::Dm2_2::default()),
        Box::new(dm::Dm2_3::default()),
        Box::new(dm::Dm3),
        Box::new(hf::Hf1),
        Box::new(hf::Hf2::default()),
        Box::new(hf::Hf3::default()),
        Box::new(hf::Hf4),
        Box::new(hf::Hf5_1),
        Box::new(hf::Hf5_2),
        Box::new(hf::Hf5_3),
        Box::new(fb::Fb1),
        Box::new(fb::Fb2),
    ]
}

/// Allocation-free ASCII-case-insensitive substring search. `needle` must
/// already be lowercase.
fn contains_ascii_ci(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    debug_assert!(n.iter().all(|b| !b.is_ascii_uppercase()));
    if n.is_empty() {
        return true;
    }
    if h.len() < n.len() {
        return false;
    }
    let first = n[0];
    h[..=h.len() - n.len()].iter().enumerate().any(|(i, &b)| {
        b.eq_ignore_ascii_case(&first)
            && h[i + 1..i + n.len()].iter().zip(&n[1..]).all(|(a, c)| a.eq_ignore_ascii_case(c))
    })
}

/// Streaming accumulator behind [`mitigation_flags`]: folds one start tag
/// at a time, so the battery computes the flags inside the same fused tag
/// pass that feeds the tag-interested checks.
#[derive(Default)]
pub(crate) struct MitigationAccumulator {
    flags: MitigationFlags,
}

const NONCE: Atom = Atom::known("nonce");
const SCRIPT: Atom = Atom::known("script");

impl MitigationAccumulator {
    /// Fold in `tag`, whose attributes are `attrs`.
    pub(crate) fn observe(&mut self, tag: &Tag, attrs: &[Attr]) {
        let is_script = tag.name == SCRIPT;
        let has_nonce = attrs.iter().any(|a| a.name == NONCE);
        for attr in attrs {
            if contains_ascii_ci(&attr.value, "<script") {
                self.flags.script_in_attribute = true;
                if is_script && has_nonce {
                    self.flags.script_in_nonced_script = true;
                }
            }
            if tags::is_url_attribute_atom(&attr.name) && attr.raw_value().contains('\n') {
                self.flags.newline_in_url = true;
                if attr.raw_value().contains('<') {
                    self.flags.newline_and_lt_in_url = true;
                }
            }
        }
    }

    pub(crate) fn finish(self) -> MitigationFlags {
        self.flags
    }
}

/// §4.5: per-page flags for the two deployed browser mitigations.
pub fn mitigation_flags(cx: &CheckContext<'_>) -> MitigationFlags {
    let mut acc = MitigationAccumulator::default();
    for tag in cx.start_tags() {
        acc.observe(tag, cx.parse.dom.attrs(tag.attrs));
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PageReport;

    fn check_page(raw: &str) -> PageReport {
        crate::Battery::full().run_str(raw)
    }

    #[test]
    fn battery_covers_all_twenty_kinds() {
        let mut kinds: Vec<_> = all_checks().iter().map(|c| c.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ViolationKind::ALL.len());
    }

    #[test]
    fn clean_page_is_clean() {
        let report = check_page(
            "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
             <title>ok</title></head><body><p>fine</p></body></html>",
        );
        assert!(report.is_clean(), "unexpected findings: {:?}", report.findings);
    }

    #[test]
    fn findings_are_sorted() {
        let report =
            check_page("<img src=a src=b><div id=x id=y><p/ class=c><a href=\"u\"title=t>");
        let mut sorted = report.findings.clone();
        sorted.sort_by_key(|f| (f.kind, f.offset));
        assert_eq!(report.findings, sorted);
    }

    #[test]
    fn mitigation_flags_detect_mixed_case_script() {
        // The tokenizer lowercases tag/attribute *names* but leaves attribute
        // *values* as written; the `<script` probe must be case-insensitive
        // over the value without allocating a lowered copy.
        let cx = crate::context::CheckContext::new(
            r#"<iframe srcdoc="<ScRiPt>alert(1)</ScRiPt>"></iframe>"#,
        );
        let flags = mitigation_flags(&cx);
        assert!(flags.script_in_attribute);
    }

    #[test]
    fn contains_ascii_ci_edges() {
        assert!(contains_ascii_ci("x<SCRIPT y", "<script"));
        assert!(contains_ascii_ci("<script", "<script"));
        assert!(!contains_ascii_ci("<scrip", "<script"));
        assert!(!contains_ascii_ci("", "<script"));
        assert!(contains_ascii_ci("anything", ""));
        // Case-insensitivity is ASCII-only: no Unicode case folding.
        assert!(!contains_ascii_ci("<ſcript>", "<script"));
    }

    #[test]
    fn mitigation_flags_detect_script_string() {
        let cx = crate::context::CheckContext::new(
            r#"<iframe srcdoc="<script>alert(1)</script>"></iframe>"#,
        );
        let flags = mitigation_flags(&cx);
        assert!(flags.script_in_attribute);
        assert!(!flags.script_in_nonced_script);
    }

    #[test]
    fn mitigation_flags_nonced_script() {
        let cx = crate::context::CheckContext::new(
            "<script nonce=\"r4nd0m\" data-x=\"<script\">var x;</script>",
        );
        let flags = mitigation_flags(&cx);
        assert!(flags.script_in_nonced_script);
    }

    #[test]
    fn mitigation_flags_newline_urls() {
        let cx = crate::context::CheckContext::new("<a href=\"/x\n/y\">l</a>");
        let flags = mitigation_flags(&cx);
        assert!(flags.newline_in_url);
        assert!(!flags.newline_and_lt_in_url);

        let cx = crate::context::CheckContext::new("<img src='http://e/?q=\n<p>secret'>");
        let flags = mitigation_flags(&cx);
        assert!(flags.newline_and_lt_in_url);
    }

    #[test]
    fn encoded_newline_does_not_count() {
        // `&#10;` decodes to \n in the value but is not a raw newline in the
        // source; the mitigation (and DE3_1) key on the raw bytes.
        let cx = crate::context::CheckContext::new("<a href=\"/x&#10;<\">l</a>");
        let flags = mitigation_flags(&cx);
        assert!(!flags.newline_in_url);
    }
}
