//! The pre-fusion battery: twenty independent full-context scans.
//!
//! These are the original `Check::check` bodies, kept verbatim (including
//! HF2's quadratic event rescan and HF3's intermediate `Vec`) as the
//! reference implementation. The `battery-equivalence` oracle and the
//! equivalence tests assert the fused visitor engine produces
//! byte-identical reports, and the fused-vs-legacy bench measures what the
//! fusion bought.

use hv_core::checkers::mitigation_flags;
use hv_core::{CheckContext, Finding, PageReport, ViolationKind};
use spec_html::dom::Namespace;
use spec_html::{tags, ErrorCode, TreeEventKind};

fn de1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    if cx.parse.open_at_eof.iter().any(|n| n == "textarea") {
        out.push(Finding::new(
            ViolationKind::DE1,
            cx.raw.chars().count(),
            "textarea still open at end of file",
        ));
    }
}

fn de2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    if cx.parse.open_at_eof.iter().any(|n| n == "select" || n == "option") {
        out.push(Finding::new(
            ViolationKind::DE2,
            cx.raw.chars().count(),
            "select/option still open at end of file",
        ));
    }
}

fn de3_1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for tag in cx.start_tags() {
        for attr in cx.parse.dom.attrs(tag.attrs) {
            if tags::is_url_attribute(&attr.name)
                && attr.raw_value().contains('\n')
                && attr.raw_value().contains('<')
            {
                out.push(Finding::new(
                    ViolationKind::DE3_1,
                    tag.offset,
                    format!("<{} {}=…newline+'<'…>", tag.name, attr.name),
                ));
            }
        }
    }
}

fn de3_2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for tag in cx.start_tags() {
        for attr in cx.parse.dom.attrs(tag.attrs) {
            if attr.value.to_ascii_lowercase().contains("<script") {
                out.push(Finding::new(
                    ViolationKind::DE3_2,
                    tag.offset,
                    format!("<{} {}=…<script…>", tag.name, attr.name),
                ));
            }
        }
    }
}

fn de3_3(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for tag in cx.start_tags() {
        for attr in cx.parse.dom.attrs(tag.attrs) {
            if attr.name == "target" && attr.raw_value().contains('\n') {
                out.push(Finding::new(
                    ViolationKind::DE3_3,
                    tag.offset,
                    format!("<{} target=…newline…>", tag.name),
                ));
            }
        }
    }
}

fn de4(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in cx.parse.events_where(|k| matches!(k, TreeEventKind::NestedFormIgnored)) {
        out.push(Finding::new(
            ViolationKind::DE4,
            ev.offset,
            "nested <form> start tag ignored by parser",
        ));
    }
}

fn inside_head(cx: &CheckContext<'_>, id: spec_html::dom::NodeId) -> bool {
    cx.parse.dom.ancestors(id).any(|a| cx.parse.dom.is_html(a, "head"))
}

fn dm1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let dom = &cx.parse.dom;
    for id in dom.all_elements() {
        if dom.is_html(id, "meta") && dom.attr(id, "http-equiv").is_some() && !inside_head(cx, id) {
            let what = dom.attr(id, "http-equiv").unwrap_or_default().to_owned();
            out.push(Finding::new(
                ViolationKind::DM1,
                dom.element(id).map(|e| e.src_offset).unwrap_or(0),
                format!("meta http-equiv=\"{what}\" outside head"),
            ));
        }
    }
}

fn dm2_1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let dom = &cx.parse.dom;
    for id in dom.all_elements() {
        if dom.is_html(id, "base") && !inside_head(cx, id) {
            let off = dom.element(id).map(|e| e.src_offset).unwrap_or(0);
            out.push(Finding::new(ViolationKind::DM2_1, off, "base element outside head"));
        }
    }
}

fn dm2_2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let dom = &cx.parse.dom;
    let bases = dom.all_elements().filter(|&id| dom.is_html(id, "base")).count();
    if bases > 1 {
        out.push(Finding::new(
            ViolationKind::DM2_2,
            0,
            format!("{bases} base elements in one document"),
        ));
    }
}

fn dm2_3(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let dom = &cx.parse.dom;
    let mut seen_url_element: Option<String> = None;
    for id in dom.all_elements() {
        let Some(e) = dom.element(id) else { continue };
        if dom.is_html(id, "base") {
            if let Some(prev) = &seen_url_element {
                out.push(Finding::new(
                    ViolationKind::DM2_3,
                    e.src_offset,
                    format!("base element after URL-using <{prev}>"),
                ));
            }
            continue;
        }
        // §4.2.3 exempts the html element itself ("except the html
        // element"), and head is base's own container; see the fused
        // Dm2_3 for the rationale.
        if seen_url_element.is_none()
            && !dom.is_html(id, "html")
            && !dom.is_html(id, "head")
            && dom.attrs(e.attrs).iter().any(|a| tags::is_url_attribute(&a.name))
        {
            seen_url_element = Some(e.name.to_string());
        }
    }
}

fn dm3(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for err in cx.parse.errors.iter().filter(|e| e.code == ErrorCode::DuplicateAttribute) {
        out.push(Finding::new(
            ViolationKind::DM3,
            err.offset,
            format!("duplicate attribute near “{}”", cx.excerpt(err.offset, 24)),
        ));
    }
}

fn hf1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in &cx.parse.events {
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

fn hf2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in &cx.parse.events {
        if let TreeEventKind::ImplicitBody { by } = &ev.kind {
            // The O(events²) correlation the fused Hf2 replaces with a
            // one-flag accumulator.
            let caused_by_head_close = cx.parse.events.iter().any(|e| {
                e.offset == ev.offset && matches!(e.kind, TreeEventKind::HeadClosedBy { .. })
            });
            if !caused_by_head_close {
                out.push(Finding::new(
                    ViolationKind::HF2,
                    ev.offset,
                    format!("body implicitly opened by {by}"),
                ));
            }
        }
    }
}

fn hf3(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let body_tags: Vec<_> =
        cx.start_tags().filter(|t| t.name == "body").map(|t| t.offset).collect();
    if body_tags.len() >= 2 {
        let merged = cx
            .parse
            .events
            .iter()
            .find(|e| matches!(e.kind, TreeEventKind::SecondBodyMerged { .. }));
        let detail = match merged.map(|e| &e.kind) {
            Some(TreeEventKind::SecondBodyMerged { new_attrs, ignored_attrs }) => format!(
                "{} body tags; merge added {} and ignored {} attrs",
                body_tags.len(),
                new_attrs.len(),
                ignored_attrs.len()
            ),
            _ => format!("{} body start tags in markup", body_tags.len()),
        };
        out.push(Finding::new(ViolationKind::HF3, body_tags[1], detail));
    }
}

fn hf4(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in &cx.parse.events {
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

fn hf5_1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    let dom = &cx.parse.dom;
    for id in dom.all_elements() {
        let Some(e) = dom.element(id) else { continue };
        if e.ns == Namespace::Html && (tags::is_svg_only(&e.name) || tags::is_mathml_only(&e.name))
        {
            out.push(Finding::new(
                ViolationKind::HF5_1,
                e.src_offset,
                format!("foreign-only element <{}> in HTML namespace", e.name),
            ));
        }
    }
}

fn hf5_2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in &cx.parse.events {
        if let TreeEventKind::ForeignBreakout { tag, root_ns: Namespace::Svg } = &ev.kind {
            out.push(Finding::new(
                ViolationKind::HF5_2,
                ev.offset,
                format!("<{tag}> broke out of SVG content"),
            ));
        }
    }
}

fn hf5_3(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for ev in &cx.parse.events {
        if let TreeEventKind::ForeignBreakout { tag, root_ns: Namespace::MathMl } = &ev.kind {
            out.push(Finding::new(
                ViolationKind::HF5_3,
                ev.offset,
                format!("<{tag}> broke out of MathML content"),
            ));
        }
    }
}

fn fb1(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for err in cx.parse.errors.iter().filter(|e| e.code == ErrorCode::UnexpectedSolidusInTag) {
        out.push(Finding::new(
            ViolationKind::FB1,
            err.offset,
            format!("solidus treated as whitespace near “{}”", cx.excerpt(err.offset, 24)),
        ));
    }
}

fn fb2(cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
    for err in
        cx.parse.errors.iter().filter(|e| e.code == ErrorCode::MissingWhitespaceBetweenAttributes)
    {
        out.push(Finding::new(
            ViolationKind::FB2,
            err.offset,
            format!("attributes not separated near “{}”", cx.excerpt(err.offset, 24)),
        ));
    }
}

/// One pre-fusion scan: reads the whole context, appends its findings.
pub type LegacyCheck = fn(&CheckContext<'_>, &mut Vec<Finding>);

/// The twenty pre-fusion scans, in taxonomy order.
pub const ALL: &[(ViolationKind, LegacyCheck)] = &[
    (ViolationKind::DE1, de1),
    (ViolationKind::DE2, de2),
    (ViolationKind::DE3_1, de3_1),
    (ViolationKind::DE3_2, de3_2),
    (ViolationKind::DE3_3, de3_3),
    (ViolationKind::DE4, de4),
    (ViolationKind::DM1, dm1),
    (ViolationKind::DM2_1, dm2_1),
    (ViolationKind::DM2_2, dm2_2),
    (ViolationKind::DM2_3, dm2_3),
    (ViolationKind::DM3, dm3),
    (ViolationKind::HF1, hf1),
    (ViolationKind::HF2, hf2),
    (ViolationKind::HF3, hf3),
    (ViolationKind::HF4, hf4),
    (ViolationKind::HF5_1, hf5_1),
    (ViolationKind::HF5_2, hf5_2),
    (ViolationKind::HF5_3, hf5_3),
    (ViolationKind::FB1, fb1),
    (ViolationKind::FB2, fb2),
];

/// Pre-fusion equivalent of `Battery::run_ref`: run all twenty scans into
/// an existing report, reusing its buffers.
pub fn run_into(cx: &CheckContext<'_>, report: &mut PageReport) {
    report.findings.clear();
    for (_, check) in ALL {
        check(cx, &mut report.findings);
    }
    report.findings.sort_by_key(|f| (f.kind, f.offset));
    report.mitigations = mitigation_flags(cx);
    // §4.2's math usage, as the scan worker counted it in a walk of its own.
    let dom = &cx.parse.dom;
    report.uses_math =
        dom.all_elements().any(|id| dom.element(id).is_some_and(|e| e.name == "math"));
}

/// Pre-fusion equivalent of `Battery::run`.
pub fn run(cx: &CheckContext<'_>) -> PageReport {
    let mut report = PageReport::default();
    run_into(cx, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_core::Battery;
    use spec_html::{Atom, TreeEvent, Trigger};

    /// HF2's one-flag accumulator vs the reference whole-vec rescan, on an
    /// adversarial synthetic event stream with many implicit bodies: same
    /// findings, but linear instead of O(events²).
    #[test]
    fn hf2_accumulator_matches_reference_on_many_implicit_bodies() {
        let mut cx = CheckContext::new("");
        let mut events = Vec::new();
        for i in 0..500 {
            let offset = i * 10;
            if i % 3 == 0 {
                // Head closed by the same token that implies the body:
                // HF1 fallout, not HF2.
                events.push(TreeEvent {
                    kind: TreeEventKind::HeadClosedBy {
                        by: Trigger::StartTag(Atom::from_name("p")),
                    },
                    offset,
                });
            }
            events.push(TreeEvent {
                kind: TreeEventKind::ImplicitBody { by: Trigger::Text(format!("<p#{i}>")) },
                offset,
            });
        }
        cx.parse.events = events;

        let mut rescan = Vec::new();
        hf2(&cx, &mut rescan);
        let fused = Battery::only(&[ViolationKind::HF2]).run(&cx);
        assert!(!rescan.is_empty());
        assert_eq!(fused.findings, rescan);
    }
}
