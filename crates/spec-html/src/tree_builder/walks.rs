//! Reference answers for the stack-of-open-elements queries, by walking the
//! stack from the top the way the tree builder did before [`OpenElements`]
//! indexed it, and tests that every indexed answer equals its walk.
//!
//! [`OpenElements`]: super::open::OpenElements

use super::*;

fn in_scope_with(b: &Builder, name: &str, extra: &[&str]) -> bool {
    for id in b.open.iter().rev() {
        if let Some(e) = b.doc.element(id) {
            match e.ns {
                Namespace::Html => {
                    if e.name == name {
                        return true;
                    }
                    if matches!(
                        e.name.as_str(),
                        "applet"
                            | "caption"
                            | "html"
                            | "table"
                            | "td"
                            | "th"
                            | "marquee"
                            | "object"
                            | "template"
                    ) || extra.contains(&e.name.as_str())
                    {
                        return false;
                    }
                }
                Namespace::MathMl => {
                    if matches!(
                        e.name.as_str(),
                        "mi" | "mo" | "mn" | "ms" | "mtext" | "annotation-xml"
                    ) {
                        return false;
                    }
                }
                Namespace::Svg => {
                    if matches!(e.name.as_str(), "foreignObject" | "desc" | "title") {
                        return false;
                    }
                }
            }
        }
    }
    false
}

fn in_table_scope(b: &Builder, name: &str) -> bool {
    for id in b.open.iter().rev() {
        if let Some(e) = b.doc.element(id) {
            if e.ns == Namespace::Html {
                if e.name == name {
                    return true;
                }
                if matches!(e.name.as_str(), "html" | "table" | "template") {
                    return false;
                }
            }
        }
    }
    false
}

fn in_select_scope(b: &Builder, name: &str) -> bool {
    for id in b.open.iter().rev() {
        if let Some(e) = b.doc.element(id) {
            if e.ns == Namespace::Html {
                if e.name == name {
                    return true;
                }
                if !matches!(e.name.as_str(), "optgroup" | "option") {
                    return false;
                }
            }
        }
    }
    false
}

fn stack_has(b: &Builder, name: &str) -> bool {
    b.open.iter().any(|id| b.doc.is_html(id, name))
}

fn contains(b: &Builder, node: NodeId) -> bool {
    b.open.iter().any(|id| id == node)
}

/// The last table on the stack (foster parenting's anchor).
fn last_table(b: &Builder) -> Option<usize> {
    b.open.iter().rposition(|id| b.doc.is_html(id, "table"))
}

fn any_other_end_tag_target(b: &Builder, name: &str) -> Option<usize> {
    let mut i = b.open.len();
    while i > 0 {
        i -= 1;
        let e = b.doc.element(b.open[i])?;
        if e.ns == Namespace::Html && e.name == name {
            return Some(i);
        }
        if e.ns == Namespace::Html && tags::is_special(&e.name) {
            return None;
        }
    }
    None
}

fn list_item_to_close(b: &Builder, names: &[&str]) -> Option<String> {
    let mut i = b.open.len();
    while i > 0 {
        i -= 1;
        let name = b.doc.html_name(b.open[i])?.to_owned();
        if names.contains(&name.as_str()) {
            return Some(name);
        }
        if tags::is_special(&name) && !matches!(name.as_str(), "address" | "div" | "p") {
            return None;
        }
    }
    None
}

fn appropriate_mode(b: &Builder) -> InsertionMode {
    for (i, id) in b.open.iter().enumerate().rev() {
        let last = i == 0;
        let Some(e) = b.doc.element(id) else { continue };
        if e.ns != Namespace::Html {
            continue;
        }
        let name: &str =
            if last { b.fragment_context.as_deref().unwrap_or(&e.name) } else { &e.name };
        match name {
            "select" => {
                for anc in b.open.iter().take(i).rev() {
                    match b.doc.html_name(anc) {
                        Some("template") => break,
                        Some("table") => return InsertionMode::InSelectInTable,
                        _ => {}
                    }
                }
                return InsertionMode::InSelect;
            }
            "td" | "th" if !last => return InsertionMode::InCell,
            "tr" => return InsertionMode::InRow,
            "tbody" | "thead" | "tfoot" => return InsertionMode::InTableBody,
            "caption" => return InsertionMode::InCaption,
            "colgroup" => return InsertionMode::InColumnGroup,
            "table" => return InsertionMode::InTable,
            "head" if !last => return InsertionMode::InHead,
            "body" => return InsertionMode::InBody,
            "frameset" => return InsertionMode::InFrameset,
            "html" => {
                return if b.head.is_none() {
                    InsertionMode::BeforeHead
                } else {
                    InsertionMode::AfterHead
                };
            }
            _ => {}
        }
        if last {
            return InsertionMode::InBody;
        }
    }
    InsertionMode::InBody
}

fn foreign_root_ns(b: &Builder) -> Namespace {
    for id in b.open.iter() {
        if let Some(e) = b.doc.element(id) {
            if e.ns != Namespace::Html {
                return e.ns;
            }
        }
    }
    b.current().and_then(|id| b.doc.element(id)).map(|e| e.ns).unwrap_or(Namespace::Html)
}

/// Stack index of the topmost HTML element.
fn topmost_html(b: &Builder) -> Option<usize> {
    b.open.iter().rposition(|id| b.doc.element(id).is_some_and(|e| e.ns == Namespace::Html))
}

/// Stack index of the topmost foreign element whose name matches `name`
/// in any ASCII case (what a foreign end tag closes).
fn topmost_foreign(b: &Builder, name: &str) -> Option<usize> {
    b.open.iter().rposition(|id| {
        b.doc
            .element(id)
            .is_some_and(|e| e.ns != Namespace::Html && e.name.eq_ignore_ascii_case(name))
    })
}

/// Names the queries are asked about: everything the tree builder asks
/// about by name, plus names outside the static table.
const NAMES: &[&str] = &[
    "a",
    "address",
    "applet",
    "b",
    "body",
    "button",
    "caption",
    "dd",
    "div",
    "dt",
    "em",
    "form",
    "h1",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "html",
    "i",
    "li",
    "marquee",
    "nobr",
    "object",
    "ol",
    "optgroup",
    "option",
    "p",
    "ruby",
    "select",
    "span",
    "table",
    "tbody",
    "td",
    "template",
    "tfoot",
    "th",
    "thead",
    "tr",
    "ul",
    "svg",
    "math",
    "desc",
    "title",
    "x",
    "x-widget",
    "g",
    "mi",
    "foreignobject",
    "clippath",
    "lineargradient",
];

/// Ask every indexed query and compare it with its walk.
fn assert_index_matches_walks(b: &Builder, input: &str) {
    b.open.assert_consistent(&b.doc);
    for &name in NAMES {
        let atom = Atom::from_name(name);
        let at = |what: &str| format!("{what}({name}) after {:?} in {input:?}", b.token_offset);
        assert_eq!(b.open.in_scope(&atom), in_scope_with(b, name, &[]), "{}", at("in_scope"));
        assert_eq!(
            b.open.in_button_scope(&atom),
            in_scope_with(b, name, &["button"]),
            "{}",
            at("in_button_scope")
        );
        assert_eq!(
            b.open.in_list_item_scope(&atom),
            in_scope_with(b, name, &["ol", "ul"]),
            "{}",
            at("in_list_item_scope")
        );
        assert_eq!(
            b.open.in_table_scope(&atom),
            in_table_scope(b, name),
            "{}",
            at("in_table_scope")
        );
        assert_eq!(
            b.open.in_select_scope(&atom),
            in_select_scope(b, name),
            "{}",
            at("select_scope")
        );
        assert_eq!(b.open.has_element(&atom), stack_has(b, name), "{}", at("stack_has"));
        assert_eq!(
            b.any_other_end_tag_target(&atom),
            any_other_end_tag_target(b, name),
            "{}",
            at("any_other_end_tag")
        );
        assert_eq!(
            b.open.topmost_foreign(&atom),
            topmost_foreign(b, name),
            "{}",
            at("topmost_foreign")
        );
    }
    assert_eq!(b.open.topmost_html(), topmost_html(b), "topmost HTML element in {input:?}");
    let li = b.list_item_to_close(&[atom!("li")]).map(|a| a.to_string());
    assert_eq!(li, list_item_to_close(b, &["li"]), "li search in {input:?}");
    let dd = b.list_item_to_close(&[atom!("dd"), atom!("dt")]).map(|a| a.to_string());
    assert_eq!(dd, list_item_to_close(b, &["dd", "dt"]), "dd/dt search in {input:?}");
    assert_eq!(b.appropriate_mode(), appropriate_mode(b), "reset mode in {input:?}");
    assert_eq!(b.foreign_root_ns(), foreign_root_ns(b), "foreign root in {input:?}");
    assert_eq!(b.open.topmost(&atom!("table")), last_table(b), "last table in {input:?}");
    for id in 0..b.doc.len() {
        let node = NodeId::from_index(id);
        assert_eq!(b.open.contains(node), contains(b, node), "on-stack {id} in {input:?}");
    }
}

/// Run the parse loop of [`run_to_completion`], checking after every token.
fn check_parse(mut b: Builder, mut tok: Tokenizer<'_>, input: &str) {
    loop {
        b.token_offset = tok.position();
        let t = tok.next_token(&mut b.doc.attrs);
        let done = b.process(t, &mut tok);
        tok.set_allow_cdata(b.current_is_foreign());
        assert_index_matches_walks(&b, input);
        if done {
            break;
        }
    }
}

fn check_document(input: &str) {
    check_parse(Builder::new(), Tokenizer::new(input), input);
}

fn check_fragment(input: &str, context: &str) {
    let mut tok = Tokenizer::new(input);
    tok.apply_default_feedback(context);
    check_parse(Builder::new_fragment(context), tok, input);
}

/// Inputs that reach every query path: implied end tags, lists, scope
/// boundaries, tables and foster parenting, select, templates, foreign
/// content and its integration points, the adoption agency (including its
/// mid-stack edits), late head content, custom elements, and the
/// pathological families at small sizes.
const CASES: &[&str] = &[
    "<p>a<p>b<div>c<ul><li>d<li>e<ol><li>f</ol></ul><dl><dt>g<dd>h<dt>i</dl>",
    "<p><button><div><p>x</button><li>y<dd>z",
    "<b>1<i>2</b>3</i><a>x<a>y</a><nobr>q<nobr>r</nobr>",
    "<em>a<div>b</em>c</div><b><p><i><u><s>x</b>y",
    "<b><span><span><span><div><span>z</b>tail",
    "<a><div><style></style><address><a>x</a></address></div></a>",
    "<table><tr><td>a<td>b<table><tr><td>c</table></table><table>text<div>d</div><tr>",
    "<table><caption><b>c</caption><colgroup><col><tbody><tr><th>h</th></table>",
    "<table><b><tr><td>x</b>y</td></tr></table><table><i>k<tr><td>w</table>",
    "<select><option>a<optgroup><option>b</optgroup><select><option>c",
    "<table><tr><td><select><option>x<table><td>y</select></table>",
    "<table><template><select><option>q</select></template></table>",
    "<template><li>a<template><dd>b</template></template><form><form></form>",
    "<form><div></form><p>after</p></div><form><template><form></template>",
    "<svg><g><foreignObject><div>x<p>y</div></foreignObject><desc><li>d</desc><p>out",
    "<math><mi><b>x</b></mi><mtext><li>q</mtext><annotation-xml encoding=text/html><div>z",
    "<svg><title><dd>t</title></svg><math><mo><select><option>o</select></mo></math>",
    "<svg><g><clipPath><g></clippath></G><x-widget><g></x></x-widget><linearGradient></g>",
    "<select><option><svg><g><foreignObject><optgroup><svg><g></g></optgroup></foreignobject>",
    "<math><mi><svg><desc><math><mo></mi></desc></mo><ms><mtext></ms></math>",
    "<ruby>a<rb>b<rt>c<rp>d<rtc>e</ruby><h1>a<h2>b</h1>c</h3>",
    "<head><title>t</title></head><meta http-equiv=x><title>late</title><template>t",
    "<x-widget><x-widget><p></x-widget>q</x-widget><span><em></x><span></em>",
    "<applet><marquee><object><p>x</object></marquee></applet>",
    "<body><frameset><frame></frameset><li><button><li>",
    "<div><div><div><li></li><dd></dd><table></table><select></select><form></form>",
    "<i class=c><p>x<i class=c><p>x<i class=c><p>x<i class=c><p>x<i class=c><p>x",
    "<p><b class=x><b class=x><b><b class=x><b class=x><b>X<p>X<p><b><b class=x><b>X<p></b></b></b></b></b></b>X",
    "<address><template><nobr><applet><table class=c><select></template><tr><x-widget><div class=c><nobr class=c>",
];

#[test]
fn indexed_queries_equal_the_walks_on_tricky_inputs() {
    for &case in CASES {
        check_document(case);
    }
}

#[test]
fn indexed_queries_equal_the_walks_on_fragments() {
    for context in [
        "body", "div", "select", "table", "tbody", "tr", "td", "th", "caption", "colgroup",
        "template", "html", "head", "form", "frameset", "li",
    ] {
        for &case in CASES.iter().take(20) {
            check_fragment(case, context);
        }
    }
}

/// Deterministic tag soup: random start tags, end tags and text over the
/// vocabulary the queries care about.
#[test]
fn indexed_queries_equal_the_walks_on_generated_soup() {
    const VOCAB: &[&str] = &[
        "a",
        "b",
        "i",
        "em",
        "nobr",
        "p",
        "div",
        "span",
        "li",
        "ul",
        "ol",
        "dd",
        "dt",
        "dl",
        "button",
        "table",
        "tr",
        "td",
        "th",
        "tbody",
        "caption",
        "colgroup",
        "col",
        "select",
        "option",
        "optgroup",
        "template",
        "form",
        "svg",
        "math",
        "mi",
        "mtext",
        "foreignobject",
        "desc",
        "g",
        "clippath",
        "h1",
        "h3",
        "address",
        "applet",
        "object",
        "ruby",
        "rt",
        "x",
        "x-widget",
        "head",
        "body",
        "html",
        "title",
        "style",
        "meta",
        "input",
        "img",
        "textarea",
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for _ in 0..300 {
        let mut doc = String::new();
        for _ in 0..120 {
            let tag = VOCAB[next(VOCAB.len())];
            match next(10) {
                0..=5 => {
                    doc.push('<');
                    doc.push_str(tag);
                    if next(4) == 0 {
                        doc.push_str(" class=c");
                    }
                    doc.push('>');
                }
                6..=8 => {
                    doc.push_str("</");
                    doc.push_str(tag);
                    doc.push('>');
                }
                _ => doc.push_str("t "),
            }
        }
        check_document(&doc);
    }
}
