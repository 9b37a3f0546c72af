//! Data Manipulation checks (DM1–DM3, §3.2).

use super::{Check, Interest};
use crate::context::CheckContext;
use crate::report::Finding;
use crate::taxonomy::ViolationKind;
use spec_html::dom::{Element, NodeId};
use spec_html::errors::ParseError;
use spec_html::{tags, Atom, ErrorCode, Namespace, StaticAtomSet};

// Names compare as static atoms (an integer compare), not as strings.
const BASE: Atom = Atom::known("base");
const HEAD: Atom = Atom::known("head");
const HTML: Atom = Atom::known("html");
const HTTP_EQUIV: Atom = Atom::known("http-equiv");
const META: Atom = Atom::known("meta");

/// Whether `e` is the HTML-namespace element `name`.
fn is_html(e: &Element, name: &Atom) -> bool {
    e.ns == Namespace::Html && e.name == *name
}

/// Element `id`, if it is the HTML-namespace element `name`.
fn html_element<'d>(cx: &'d CheckContext<'_>, id: NodeId, name: &Atom) -> Option<&'d Element> {
    cx.parse.dom.element(id).filter(|e| is_html(e, name))
}

/// DM1 — `meta[http-equiv]` outside `head`.
///
/// `http-equiv` metas can set cookies, redirect, or declare a CSP, and are
/// only defined for the head section (§4.2.5); the parsing process happily
/// applies them in the body (§13.2.6.4.7). Detection is structural: a meta
/// element with an `http-equiv` attribute whose ancestors do not include
/// `head`.
pub struct Dm1;

impl Check for Dm1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DM1
    }

    fn interest(&self) -> Interest {
        Interest::DOM
    }

    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::of(&[META])
    }

    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, out: &mut Vec<Finding>) {
        let Some(e) = html_element(cx, id, &META) else { return };
        let Some(what) = cx.parse.dom.attrs(e.attrs).iter().find(|a| a.name == HTTP_EQUIV) else {
            return;
        };
        if !cx.inside_head(id) {
            out.push(Finding::new(
                ViolationKind::DM1,
                e.src_offset,
                format!("meta http-equiv=\"{}\" outside head", what.value),
            ));
        }
    }
}

/// DM2_1 — `base` outside `head` (§4.2.3): the parser accepts it anywhere,
/// letting injected content retarget every relative URL (CVE-2020-29653).
pub struct Dm2_1;

impl Check for Dm2_1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DM2_1
    }

    fn interest(&self) -> Interest {
        Interest::DOM
    }

    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::of(&[BASE])
    }

    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, out: &mut Vec<Finding>) {
        let Some(e) = html_element(cx, id, &BASE) else { return };
        if !cx.inside_head(id) {
            out.push(Finding::new(ViolationKind::DM2_1, e.src_offset, "base element outside head"));
        }
    }
}

/// DM2_2 — more than one `base` element: only the first wins, so a second
/// (injected) one is either inert or, if first, hijacking.
#[derive(Default)]
pub struct Dm2_2 {
    bases: usize,
}

impl Check for Dm2_2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DM2_2
    }

    fn interest(&self) -> Interest {
        Interest::DOM | Interest::FINISH
    }

    fn reset(&mut self) {
        self.bases = 0;
    }

    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::of(&[BASE])
    }

    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, _out: &mut Vec<Finding>) {
        if html_element(cx, id, &BASE).is_some() {
            self.bases += 1;
        }
    }

    fn finish(&mut self, _cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
        if self.bases > 1 {
            out.push(Finding::new(
                ViolationKind::DM2_2,
                0,
                format!("{} base elements in one document", self.bases),
            ));
        }
    }
}

/// DM2_3 — `base` after an element that uses a URL: the spec requires base
/// to "appear before any other element that uses a URL" (§4.2.3), otherwise
/// earlier URLs resolved against a different base than later ones.
#[derive(Default)]
pub struct Dm2_3 {
    /// Name of the first URL-using element seen on the DOM walk.
    seen_url_element: Option<Atom>,
}

impl Check for Dm2_3 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DM2_3
    }

    fn interest(&self) -> Interest {
        Interest::DOM
    }

    fn reset(&mut self) {
        self.seen_url_element = None;
    }

    fn report_names(&self) -> StaticAtomSet {
        StaticAtomSet::of(&[BASE])
    }

    /// Until the first URL-using element, any element may be it.
    fn reads_every_element(&self) -> bool {
        self.seen_url_element.is_none()
    }

    fn on_node(&mut self, cx: &CheckContext<'_>, id: NodeId, out: &mut Vec<Finding>) {
        let Some(e) = cx.parse.dom.element(id) else { return };
        if is_html(e, &BASE) {
            if let Some(prev) = &self.seen_url_element {
                out.push(Finding::new(
                    ViolationKind::DM2_3,
                    e.src_offset,
                    format!("base element after URL-using <{prev}>"),
                ));
            }
            // Later URL-using elements are measured against this base;
            // one finding per offending base is enough.
            return;
        }
        // §4.2.3 exempts the html element itself ("except the html
        // element"): no element can precede the root, so URL attributes
        // landing there (e.g. via a merged duplicate <html> tag) don't
        // put later base elements in violation. The same applies to the
        // head element — it is base's own container, nothing inside it
        // can precede it, and no UA resolves a URL attribute on head.
        if self.seen_url_element.is_none()
            && !is_html(e, &HTML)
            && !is_html(e, &HEAD)
            && cx.parse.dom.attrs(e.attrs).iter().any(|a| tags::is_url_attribute_atom(&a.name))
        {
            self.seen_url_element = Some(e.name.clone());
        }
    }
}

/// DM3 — duplicate attributes: the tokenizer's `duplicate-attribute` error.
/// The first occurrence wins and everything after is ignored — so injecting
/// an attribute early invalidates the legitimate one (§3.2.2).
pub struct Dm3;

impl Check for Dm3 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DM3
    }

    fn interest(&self) -> Interest {
        Interest::ERRORS
    }

    fn on_parse_error(&mut self, cx: &CheckContext<'_>, err: &ParseError, out: &mut Vec<Finding>) {
        if err.code == ErrorCode::DuplicateAttribute {
            out.push(Finding::new(
                ViolationKind::DM3,
                err.offset,
                format!("duplicate attribute near “{}”", cx.excerpt(err.offset, 24)),
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

    #[test]
    fn dm1_meta_refresh_in_body() {
        // Figure 15's meta redirect ends up outside head.
        let r = check_page(
            "<html><head>Redirection</head>\n\
             <META HTTP-EQUIV=\"Refresh\" CONTENT=\"0; URL=HTTP://wds.iea.org/wds\">\n\
             <body>Page has moved <a href=\"http://wds.iea.org/wds\">here</a></body></html>",
        );
        assert!(r.has(DM1));
    }

    #[test]
    fn dm1_meta_in_head_is_fine() {
        let r = check_page(
            "<!DOCTYPE html><head><meta http-equiv=\"refresh\" content=\"0\"><title>t</title></head><body></body>",
        );
        assert!(!r.has(DM1));
    }

    #[test]
    fn dm1_charset_meta_in_body_not_flagged() {
        // Only http-equiv metas are DM1; a (misplaced) charset meta is HF
        // territory, not DM1.
        let r = check_page("<!DOCTYPE html><head></head><body><meta charset=utf-8></body>");
        assert!(!r.has(DM1));
    }

    #[test]
    fn dm2_1_base_in_body() {
        let r = check_page(
            "<!DOCTYPE html><head><title>t</title></head><body><base href=\"https://evil.com/\"><img src=\"logo.png\"></body>",
        );
        assert!(r.has(DM2_1));
    }

    #[test]
    fn dm2_2_two_bases() {
        let r = check_page(
            "<!DOCTYPE html><head><base href=\"/a/\"><base href=\"/b/\"><title>t</title></head><body></body>",
        );
        assert!(r.has(DM2_2));
    }

    #[test]
    fn dm2_3_base_after_stylesheet_link() {
        let r = check_page(
            "<!DOCTYPE html><head><link rel=\"stylesheet\" href=\"s.css\"><base href=\"/b/\"></head><body></body>",
        );
        assert!(r.has(DM2_3));
        assert!(!r.has(DM2_1));
        assert!(!r.has(DM2_2));
    }

    #[test]
    fn dm2_clean_base_first() {
        let r = check_page(
            "<!DOCTYPE html><head><base href=\"/b/\" target=\"_self\"><link rel=\"stylesheet\" href=\"s.css\"></head><body><a href=\"x\">l</a></body>",
        );
        assert!(!r.has(DM2_1));
        assert!(!r.has(DM2_2));
        assert!(!r.has(DM2_3));
    }

    #[test]
    fn dm3_duplicate_onclick() {
        // §3.2.2's example: the injected onclick invalidates the benign one.
        let r = check_page(r#"<div id="injection" onclick="evil()" onclick="benign()">x</div>"#);
        assert!(r.has(DM3));
    }

    #[test]
    fn dm3_figure14_duplicate_alt() {
        // Figure 14: an alt attribute added in a refactor although one
        // already existed.
        let r = check_page(r#"<img src="p.jpg" alt="" width="100" alt="Product photo">"#);
        assert!(r.has(DM3));
    }

    #[test]
    fn dm3_distinct_attributes_fine() {
        let r = check_page(r#"<img src="p.jpg" alt="a" title="b">"#);
        assert!(!r.has(DM3));
    }
}
