//! HTML Formatting checks (HF1–HF5, §3.2) — the mXSS enablers.

use super::{Check, Interest};
use crate::context::CheckContext;
use crate::report::Finding;
use crate::taxonomy::ViolationKind;
use spec_html::dom::{Namespace, NodeId};
use spec_html::tokenizer::Tag;
use spec_html::{tags, Atom, StaticAtomSet, TreeEvent, TreeEventKind};

const BODY: Atom = Atom::known("body");

/// HF1 — broken head section: head tags omitted, or non-head content inside
/// the head forcing the parser to relocate everything that follows. The
/// paper treats *any* implicit head handling as a violation ("Instead of
/// handling such omitted head tags implicitly, the parser should only
/// arrange elements explicitly").
pub struct Hf1;

impl Check for Hf1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF1
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        match &ev.kind {
            TreeEventKind::ImplicitHead => {
                out.push(Finding::new(ViolationKind::HF1, ev.offset, "head tag omitted"));
            }
            TreeEventKind::HeadClosedBy { by } => {
                out.push(Finding::new(
                    ViolationKind::HF1,
                    ev.offset,
                    format!("head implicitly closed by <{by}>"),
                ));
            }
            TreeEventKind::LateHeadContent { tag } => {
                out.push(Finding::new(
                    ViolationKind::HF1,
                    ev.offset,
                    format!("head content <{tag}> after head was closed"),
                ));
            }
            _ => {}
        }
    }
}

/// HF2 — content before `body`: the body element was opened implicitly by a
/// token that should not have been there (enables the Figure-4 attack where
/// a dangling tag absorbs `<body onload=check()>`).
#[derive(Default)]
pub struct Hf2 {
    /// Offset of the most recent `HeadClosedBy` event. Event offsets are
    /// non-decreasing and all events of one token are contiguous, so "is
    /// there a `HeadClosedBy` at this `ImplicitBody`'s offset" reduces to
    /// comparing against the last one seen — the O(events²) rescan the
    /// pre-fusion checker did is equivalent to this one-flag accumulator.
    head_closed_at: Option<usize>,
}

impl Check for Hf2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF2
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn reset(&mut self) {
        self.head_closed_at = None;
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        match &ev.kind {
            TreeEventKind::HeadClosedBy { .. } => self.head_closed_at = Some(ev.offset),
            // When a misplaced element *inside the head* forces the head
            // closed, the spec reprocesses that same token and implies a
            // body — a consequence of the HF1 violation, not an independent
            // "content before body". Only bodies implied by content after a
            // regularly closed head count as HF2.
            TreeEventKind::ImplicitBody { by } if self.head_closed_at != Some(ev.offset) => {
                out.push(Finding::new(
                    ViolationKind::HF2,
                    ev.offset,
                    format!("body implicitly opened by {by}"),
                ));
            }
            _ => {}
        }
    }
}

/// HF3 — multiple `body` elements: the parser merges attributes of later
/// bodies into the first (§13.2.6.4.7), so injections can add or be blocked
/// by attributes.
///
/// "Multiple body elements" means the *markup* contains more than one
/// `<body>` start tag (the parser merge can also fire against an implied
/// body, which is HF1/HF2 territory, not HF3) — so this rule correlates
/// the tag stream with the merge event, accumulating across both passes
/// and emitting in `finish`.
#[derive(Default)]
pub struct Hf3 {
    body_tags: usize,
    second_body_offset: usize,
    /// (new, ignored) attr counts of the first `SecondBodyMerged` event.
    merged_attrs: Option<(usize, usize)>,
}

impl Check for Hf3 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF3
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS | Interest::START_TAGS | Interest::FINISH
    }

    fn reset(&mut self) {
        self.body_tags = 0;
        self.second_body_offset = 0;
        self.merged_attrs = None;
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, _out: &mut Vec<Finding>) {
        if self.merged_attrs.is_none() {
            if let TreeEventKind::SecondBodyMerged { new_attrs, ignored_attrs } = &ev.kind {
                self.merged_attrs = Some((new_attrs.len(), ignored_attrs.len()));
            }
        }
    }

    fn on_start_tag(&mut self, _cx: &CheckContext<'_>, tag: &Tag, _out: &mut Vec<Finding>) {
        if tag.name == BODY {
            self.body_tags += 1;
            if self.body_tags == 2 {
                self.second_body_offset = tag.offset;
            }
        }
    }

    fn finish(&mut self, _cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
        if self.body_tags >= 2 {
            // Attach the merge evidence when the parser recorded it.
            let detail = match self.merged_attrs {
                Some((new, ignored)) => format!(
                    "{} body tags; merge added {new} and ignored {ignored} attrs",
                    self.body_tags
                ),
                None => format!("{} body start tags in markup", self.body_tags),
            };
            out.push(Finding::new(ViolationKind::HF3, self.second_body_offset, detail));
        }
    }
}

/// HF4 — broken table: content that is not allowed in table structure gets
/// foster-parented in front of the table (the Figure-1/Figure-11 mechanism).
/// Note that *omitted* `tbody` tags are legal and do not count.
pub struct Hf4;

impl Check for Hf4 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF4
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        if let TreeEventKind::FosterParented { tag } = &ev.kind {
            let what = tag.as_deref().unwrap_or("#text");
            out.push(Finding::new(
                ViolationKind::HF4,
                ev.offset,
                format!("{what} foster-parented out of table"),
            ));
        }
    }
}

/// HF5_1 — wrong namespace, HTML side: an element that only exists in SVG or
/// MathML parsed in the HTML namespace (an SVG fragment pasted without its
/// `<svg>` root, or left behind after a premature close).
pub struct Hf5_1;

/// Whether `name` exists only in SVG or only in MathML.
fn is_foreign_only(name: &Atom) -> bool {
    tags::is_svg_only_atom(name) || tags::is_mathml_only_atom(name)
}

impl Check for Hf5_1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF5_1
    }

    fn interest(&self) -> Interest {
        Interest::DOM
    }

    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::build(is_foreign_only)
    }

    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, out: &mut Vec<Finding>) {
        let Some(e) = cx.parse.dom.element(id) else { return };
        if e.ns == Namespace::Html && is_foreign_only(&e.name) {
            out.push(Finding::new(
                ViolationKind::HF5_1,
                e.src_offset,
                format!("foreign-only element <{}> in HTML namespace", e.name),
            ));
        }
    }
}

/// HF5_2 — wrong namespace, SVG side: an HTML breakout element inside SVG
/// content forced the parser back to HTML (§13.2.6.5's breakout list).
pub struct Hf5_2;

impl Check for Hf5_2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF5_2
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        if let TreeEventKind::ForeignBreakout { tag, root_ns: Namespace::Svg } = &ev.kind {
            out.push(Finding::new(
                ViolationKind::HF5_2,
                ev.offset,
                format!("<{tag}> broke out of SVG content"),
            ));
        }
    }
}

/// HF5_3 — wrong namespace, MathML side: breakout from `<math>` content —
/// the namespace dance the Figure-1 DOMPurify bypass rides on. The paper
/// found only 3 occurrences in eight years.
pub struct Hf5_3;

impl Check for Hf5_3 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::HF5_3
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        if let TreeEventKind::ForeignBreakout { tag, root_ns: Namespace::MathMl } = &ev.kind {
            out.push(Finding::new(
                ViolationKind::HF5_3,
                ev.offset,
                format!("<{tag}> broke out of MathML content"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    /// Test-local one-shot over the new Battery API (the deprecated
    /// free-function shim delegates to exactly this).
    fn check_page(raw: &str) -> crate::report::PageReport {
        crate::Battery::full().run_str(raw)
    }
    use crate::taxonomy::ViolationKind::*;

    const CLEAN_PREFIX: &str = "<!DOCTYPE html><html><head><title>t</title></head><body>";
    const CLEAN_SUFFIX: &str = "</body></html>";

    fn in_body(content: &str) -> String {
        format!("{CLEAN_PREFIX}{content}{CLEAN_SUFFIX}")
    }

    #[test]
    fn hf1_div_in_head() {
        let r = check_page(
            "<!DOCTYPE html><head><div class=modal>x</div><meta charset=utf-8></head><body></body>",
        );
        assert!(r.has(HF1));
    }

    #[test]
    fn hf1_missing_head_tags() {
        // Google's 404 page (Figure 12): no head, no body.
        let r = check_page(
            "<!DOCTYPE html><html lang=en><meta charset=utf-8><title>Error 404</title>\
             <style>body{}</style><a href=//www.google.com/><span id=logo></span></a>\
             <p><b>404.</b> <ins>That’s an error.</ins>",
        );
        assert!(r.has(HF1));
        // The implied body here is the fallout of the broken head (the same
        // <a> token closed the head and opened the body) — counted as HF1,
        // not double-counted as HF2.
        assert!(!r.has(HF2), "{:?}", r.findings);
    }

    #[test]
    fn hf1_clean_explicit_head() {
        let r = check_page(&in_body("<p>x</p>"));
        assert!(!r.has(HF1), "{:?}", r.findings);
        assert!(!r.has(HF2));
    }

    #[test]
    fn hf2_figure4_body_absorbed() {
        let r = check_page(
            "<!DOCTYPE html><html><head></head><p\n<body onload=\"checkSecurity()\">content",
        );
        assert!(r.has(HF2));
    }

    #[test]
    fn hf3_double_body() {
        let r = check_page(
            "<!DOCTYPE html><head></head><body class=a><p>x</p><body onload=evil()></body>",
        );
        assert!(r.has(HF3));
    }

    #[test]
    fn hf4_figure11_table() {
        let r = check_page(&in_body(
            "<table>\n<tr><strong>Cozi Organizer</strong></tr>\n<tr>\n\
             <td>The #1 organizing app</td>\n<td> <img src=\"x.png\" align=\"right\"></td>\n</tr>\n</table>",
        ));
        assert!(r.has(HF4));
    }

    #[test]
    fn hf4_not_triggered_by_omitted_tbody() {
        // tbody omission is legal; only fostered content counts.
        let r = check_page(&in_body("<table><tr><td>x</td></tr></table>"));
        assert!(!r.has(HF4), "{:?}", r.findings);
    }

    #[test]
    fn hf5_1_pasted_svg_fragment() {
        // A <path> with no <svg> root is an HTML-namespace foreign orphan.
        let r = check_page(&in_body("<path d=\"M0 0L10 10\"></path>"));
        assert!(r.has(HF5_1));
    }

    #[test]
    fn hf5_1_proper_svg_ok() {
        let r = check_page(&in_body("<svg viewBox=\"0 0 10 10\"><path d=\"M0 0\"></path></svg>"));
        assert!(!r.has(HF5_1), "{:?}", r.findings);
    }

    #[test]
    fn hf5_2_div_inside_svg() {
        let r = check_page(&in_body("<svg><rect width=1></rect><div>broke</div></svg>"));
        assert!(r.has(HF5_2));
        assert!(!r.has(HF5_3));
    }

    #[test]
    fn hf5_3_breakout_from_math() {
        let r = check_page(&in_body("<math><mrow><img src=x></mrow></math>"));
        assert!(r.has(HF5_3));
        assert!(!r.has(HF5_2));
    }

    #[test]
    fn hf5_3_figure1_payload() {
        let payload = "<math><mtext><table><mglyph><style><!--</style>\
                       <img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">";
        let r = check_page(&in_body(payload));
        // The table hop means fostering (HF4) fires; the img inside foreign
        // content breaks out of math (HF5_3).
        assert!(r.has(HF4), "{:?}", r.findings);
    }

    #[test]
    fn hf5_none_on_plain_html() {
        let r = check_page(&in_body("<div><p>plain</p></div>"));
        assert!(!r.has(HF5_1));
        assert!(!r.has(HF5_2));
        assert!(!r.has(HF5_3));
    }
}
