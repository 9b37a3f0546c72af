//! A string-to-string HTML sanitizer built on fragment parsing — the class
//! of defense the paper's §2.2 shows being bypassed by mutation XSS.
//!
//! Two configurations are provided:
//!
//! * [`Sanitizer::permissive`] mimics the pre-2.1 DOMPurify posture the
//!   paper's Figure 1 bypassed: MathML/SVG elements are allowed, and the
//!   output is serialized once. Its output *re-parses differently* for
//!   namespace-confusion payloads — the mXSS gap.
//! * [`Sanitizer::hardened`] closes that gap the way post-bypass sanitizers
//!   did: foreign-content elements are dropped entirely **and** the output
//!   is re-sanitized until it is a parse/serialize fixpoint, so what the
//!   sanitizer returns is exactly what the browser will build.
//!
//! This module exists to make the paper's argument concrete in code: the
//! vulnerability lives in the *parser's error tolerance*, and every
//! string-level defense has to out-guess it.

use spec_html::dom::{Document, NodeData, NodeId};
use spec_html::{parse_fragment, serializer, Namespace};
use std::collections::BTreeSet;

/// Maximum re-sanitize rounds before giving up and returning empty output
/// (defense-in-depth against non-converging inputs; in practice one extra
/// round suffices).
const MAX_ROUNDS: usize = 5;

/// An allowlist-based HTML sanitizer.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    allowed_elements: BTreeSet<&'static str>,
    allowed_attributes: BTreeSet<&'static str>,
    /// Allow MathML/SVG subtrees (the permissive posture Figure 1 abuses).
    allow_foreign: bool,
    /// Re-sanitize until the output is a parse/serialize fixpoint.
    stabilize: bool,
}

const SAFE_ELEMENTS: &[&str] = &[
    "a",
    "abbr",
    "article",
    "b",
    "blockquote",
    "br",
    "caption",
    "code",
    "dd",
    "div",
    "dl",
    "dt",
    "em",
    "figcaption",
    "figure",
    "h1",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "hr",
    "i",
    "img",
    "li",
    "main",
    "nav",
    "ol",
    "p",
    "pre",
    "s",
    "section",
    "small",
    "span",
    "strike",
    "strong",
    "sub",
    "sup",
    "table",
    "tbody",
    "td",
    "tfoot",
    "th",
    "thead",
    "tr",
    "u",
    "ul",
];

const FOREIGN_ELEMENTS: &[&str] = &[
    "math",
    "mtext",
    "mi",
    "mo",
    "mn",
    "ms",
    "mglyph",
    "mrow",
    "annotation-xml",
    "svg",
    "title",
    "desc",
    "path",
    "circle",
    "rect",
    "g",
    "style",
];

const SAFE_ATTRIBUTES: &[&str] = &[
    "alt", "class", "colspan", "dir", "height", "href", "id", "lang", "rowspan", "src", "title",
    "width",
];

impl Sanitizer {
    /// The permissive, Figure-1-vulnerable configuration.
    pub fn permissive() -> Self {
        Sanitizer {
            allowed_elements: SAFE_ELEMENTS.iter().chain(FOREIGN_ELEMENTS).copied().collect(),
            allowed_attributes: SAFE_ATTRIBUTES.iter().copied().collect(),
            allow_foreign: true,
            stabilize: false,
        }
    }

    /// The hardened configuration: no foreign content, output stabilized to
    /// a parse fixpoint.
    pub fn hardened() -> Self {
        Sanitizer {
            allowed_elements: SAFE_ELEMENTS.iter().copied().collect(),
            allowed_attributes: SAFE_ATTRIBUTES.iter().copied().collect(),
            allow_foreign: false,
            stabilize: true,
        }
    }

    /// Sanitize an HTML string in a `div` context (innerHTML semantics).
    pub fn sanitize(&self, html: &str) -> String {
        let mut out = self.sanitize_once(html);
        if self.stabilize {
            for _ in 0..MAX_ROUNDS {
                let again = self.sanitize_once(&out);
                if again == out {
                    return out;
                }
                out = again;
            }
            // Did not converge: fail closed.
            return String::new();
        }
        out
    }

    fn sanitize_once(&self, html: &str) -> String {
        let mut parsed = parse_fragment(html, "div");
        let dom = &mut parsed.dom;
        let root = dom.children(dom.root()).next().expect("fragment parse always yields a root");
        self.clean(dom, root);
        serializer::serialize_children(dom, root)
    }

    /// Walk the subtree, removing disallowed elements (with their content:
    /// fail closed) and disallowed or dangerous attributes.
    fn clean(&self, dom: &mut Document, node: NodeId) {
        let children: Vec<NodeId> = dom.children(node).collect();
        for child in children {
            let remove = match dom.data(child) {
                NodeData::Element(e) => {
                    let foreign = e.ns != Namespace::Html;
                    let name = e.name.to_ascii_lowercase();
                    !self.allowed_elements.contains(name.as_str())
                        || (foreign && !self.allow_foreign)
                }
                NodeData::Comment(_) => true, // comments hide payload halves
                NodeData::Doctype(_) => true,
                NodeData::Text(_) | NodeData::Document => false,
            };
            if remove {
                dom.detach(child);
                continue;
            }
            dom.retain_attrs(child, |a| {
                let name = a.name.to_ascii_lowercase();
                if !self.allowed_attributes.contains(name.as_str()) {
                    return false;
                }
                if name == "href" || name == "src" {
                    let v = a.value.trim().to_ascii_lowercase();
                    if v.starts_with("javascript:") || v.starts_with("data:") {
                        return false;
                    }
                }
                true
            });
            self.clean(dom, child);
        }
    }
}

/// Whether markup would execute script when parsed by a browser: an
/// element with an event-handler attribute, a script element, or a
/// javascript: URL. Used by tests and demos as the "did the XSS fire"
/// oracle.
pub fn is_executable(html: &str) -> bool {
    let out = spec_html::parse_document(html);
    for id in out.dom.all_elements() {
        let e = out.dom.element(id).unwrap();
        if e.name.eq_ignore_ascii_case("script") && e.ns == Namespace::Html {
            return true;
        }
        for a in out.dom.attrs(e.attrs) {
            if a.name.starts_with("on") {
                return true;
            }
            if (a.name == "href" || a.name == "src")
                && a.value.trim().to_ascii_lowercase().starts_with("javascript:")
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = concat!(
        "<math><mtext><table><mglyph><style><!--</style>",
        "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
    );

    #[test]
    fn benign_markup_passes_through() {
        for s in [Sanitizer::permissive(), Sanitizer::hardened()] {
            let out = s.sanitize("<p>hello <b>world</b></p>");
            assert_eq!(out, "<p>hello <b>world</b></p>");
        }
    }

    #[test]
    fn script_elements_removed() {
        let out = Sanitizer::permissive().sanitize("<p>a</p><script>alert(1)</script>");
        assert_eq!(out, "<p>a</p>");
        assert!(!is_executable(&out));
    }

    #[test]
    fn event_handlers_stripped() {
        let out = Sanitizer::permissive().sanitize(r#"<img src="x.png" onerror="alert(1)">"#);
        assert_eq!(out, r#"<img src="x.png">"#);
    }

    #[test]
    fn handlers_are_stripped_from_every_recreated_copy() {
        // Each later paragraph re-creates the <b>, holding one attribute
        // range; stripping the handler from one copy must reach them all.
        let out = Sanitizer::permissive().sanitize("<p><b onclick=go() class=x>1<p>2<p>3");
        assert_eq!(
            out,
            r#"<p><b class="x">1</b></p><p><b class="x">2</b></p><p><b class="x">3</b></p>"#
        );
        assert!(!is_executable(&out));
    }

    #[test]
    fn javascript_urls_stripped() {
        let out = Sanitizer::hardened().sanitize(r#"<a href="javascript:alert(1)">x</a>"#);
        assert_eq!(out, "<a>x</a>");
    }

    #[test]
    fn filter_bypass_payloads_are_neutralized_syntactically() {
        // FB1/FB2 style payloads: parsing normalizes them, the attribute
        // allowlist strips the handler.
        for payload in [r#"<img/src="x"/onerror="alert(1)">"#, r#"<img src="x"onerror="alert(1)">"#]
        {
            let out = Sanitizer::hardened().sanitize(payload);
            assert_eq!(out, r#"<img src="x">"#);
        }
    }

    /// The paper's Figure 1: the permissive sanitizer APPROVES the payload
    /// (no script, no handler visible to it), yet its output becomes
    /// executable when the browser parses it again — mutation XSS.
    #[test]
    fn permissive_sanitizer_is_bypassed_by_figure1() {
        let sanitizer = Sanitizer::permissive();
        let out = sanitizer.sanitize(FIGURE1);
        // The payload itself is inert (the alert hides in a title
        // attribute), which is why the sanitizer approves it…
        assert!(!is_executable(FIGURE1));
        // …but the serialized output, REPARSED, contains a live handler.
        assert!(
            is_executable(&out),
            "Figure-1 mXSS must bypass the permissive sanitizer; output was:\n{out}"
        );
    }

    #[test]
    fn hardened_sanitizer_stops_figure1() {
        let out = Sanitizer::hardened().sanitize(FIGURE1);
        assert!(!is_executable(&out), "hardened output must stay inert:\n{out}");
        // And the output is stable under re-parsing (the fixpoint
        // guarantee).
        let re = Sanitizer::hardened().sanitize(&out);
        assert_eq!(re, out);
    }

    #[test]
    fn hardened_output_is_always_a_fixpoint() {
        let tricky = [
            FIGURE1,
            "<table><a href='x'>1<div>2<div>3</a></table>",
            "<b><i>x</b></i><table><td><b>y",
            "<svg><desc><b>z</b></desc></svg>",
        ];
        let s = Sanitizer::hardened();
        for t in tricky {
            let out = s.sanitize(t);
            assert_eq!(s.sanitize(&out), out, "not a fixpoint for {t}");
            assert!(!is_executable(&out), "{t}");
        }
    }

    #[test]
    fn executability_oracle() {
        assert!(is_executable("<script>x</script>"));
        assert!(is_executable("<img src=1 onerror=a()>"));
        assert!(is_executable("<a href='javascript:x()'>l</a>"));
        assert!(!is_executable("<p>hi</p>"));
        // A script inside an attribute value is NOT executable (that is
        // the point of the mXSS mutation step).
        assert!(!is_executable(r#"<img title="<img src=1 onerror=alert(1)>">"#));
    }
}
