//! Integration: the Figure-1 mutation-XSS round trip across parser,
//! serializer and checkers — the experiment DESIGN.md's index points here.

use html_violations::prelude::*;
use html_violations::spec_html::{serializer, Namespace};

const PAYLOAD: &str = concat!(
    "<math><mtext><table><mglyph><style><!--</style>",
    "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
);

/// One sanitizer pass: parse, serialize the body contents (innerHTML).
fn sanitize_pass(input: &str) -> String {
    let doc = parse_document(input);
    let body = doc.dom.find_html("body").expect("body");
    serializer::serialize_children(&doc.dom, body)
}

#[test]
fn first_parse_keeps_payload_inert() {
    let doc = parse_document(PAYLOAD);
    // After the first parse the alert lives only inside a title attribute;
    // no img carries an onerror handler.
    let live = doc
        .dom
        .all_elements()
        .filter(|&id| {
            let e = doc.dom.element(id).unwrap();
            e.name == "img" && doc.dom.attr(id, "onerror").is_some()
        })
        .count();
    assert_eq!(live, 0, "payload must be inert on first parse");
}

#[test]
fn serialization_mutates_the_payload() {
    let out = sanitize_pass(PAYLOAD);
    // Mutation 1: entity decoding in the attribute.
    assert!(out.contains("--><img src=1 onerror=alert(1)>"), "{out}");
    // Mutation 2: table content reordering.
    let mglyph = out.find("<mglyph>").expect("mglyph");
    let table = out.find("<table>").expect("table");
    assert!(mglyph < table, "{out}");
}

#[test]
fn second_parse_arms_the_payload() {
    let mutated = sanitize_pass(PAYLOAD);
    let doc = parse_document(&mutated);
    // Now an <img onerror=alert(1)> exists in the tree: XSS.
    let live = doc
        .dom
        .all_elements()
        .filter(|&id| {
            let e = doc.dom.element(id).unwrap();
            e.name == "img" && doc.dom.attr(id, "onerror") == Some("alert(1)")
        })
        .count();
    assert!(live >= 1, "payload must be armed after the round trip:\n{mutated}");
}

#[test]
fn style_is_foreign_inside_math() {
    // The root cause: in MathML the <style> content is markup, not CSS
    // text, so its `<!--` opens a real comment on the second parse.
    let doc = parse_document("<math><mglyph><style><!--</style>x");
    let style = doc
        .dom
        .all_elements()
        .find(|&id| doc.dom.element(id).unwrap().name == "style")
        .expect("style");
    assert_eq!(doc.dom.element(style).unwrap().ns, Namespace::MathMl);
}

#[test]
fn plain_html_survives_round_trips_unchanged() {
    // Sanitizer round trips must be fixpoints for benign markup — this is
    // what makes serialize-reparse auto-fixing (§4.4) safe.
    for benign in [
        "<p>hello <b>world</b></p>",
        "<table><tr><td>a</td><td>b</td></tr></table>",
        "<svg viewBox=\"0 0 1 1\"><path d=\"M0 0\"></path></svg>",
        "<ul><li>one<li>two</ul>",
        "<form action=\"/s\"><input name=\"q\"></form>",
    ] {
        let once = sanitize_pass(benign);
        let twice = sanitize_pass(&once);
        assert_eq!(once, twice, "round trip must converge for {benign}");
    }
}

#[test]
fn mutated_output_reports_namespace_violation() {
    // After mutation, re-checking the document surfaces the MathML
    // breakout (HF5_3): exactly what a strict parser would reject.
    let mutated = sanitize_pass(PAYLOAD);
    let report = Battery::full().run_str(&mutated);
    assert!(
        report.has(ViolationKind::HF5_3) || report.has(ViolationKind::HF5_1),
        "expected a namespace violation on the mutated markup: {:?}",
        report.findings
    );
}
