//! Tree-builder tests: structural construction, every recovery event the
//! checkers depend on, and the paper's concrete payloads (Figures 1–5).

use super::*;
use crate::dom::NodeData;
use crate::parse_document as parse_doc;
use crate::serializer::serialize;

fn body_html(input: &str) -> String {
    let out = parse_doc(input);
    let body = out.dom.find_html("body").expect("body exists");
    crate::serializer::serialize_children(&out.dom, body)
}

fn has_event(out: &ParseOutput, pred: impl Fn(&TreeEventKind) -> bool) -> bool {
    out.events.iter().any(|e| pred(&e.kind))
}

// ----- basic structure -----

#[test]
fn minimal_document_gets_html_head_body() {
    let out = parse_doc("hello");
    let dom = &out.dom;
    assert!(dom.find_html("html").is_some());
    assert!(dom.find_html("head").is_some());
    let body = dom.find_html("body").unwrap();
    assert_eq!(dom.text_content(body), "hello");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitHtml)));
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitHead)));
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitBody { .. })));
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::MissingDoctype)));
    out.dom.check_invariants().unwrap();
}

#[test]
fn explicit_document_has_no_structure_events() {
    let out =
        parse_doc("<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>");
    assert!(!has_event(&out, |k| matches!(
        k,
        TreeEventKind::ImplicitHtml
            | TreeEventKind::ImplicitHead
            | TreeEventKind::ImplicitBody { .. }
            | TreeEventKind::HeadClosedBy { .. }
            | TreeEventKind::MissingDoctype
    )));
    assert_eq!(out.quirks, QuirksMode::NoQuirks);
}

#[test]
fn missing_doctype_is_quirks() {
    let out = parse_doc("<html><body></body></html>");
    assert_eq!(out.quirks, QuirksMode::Quirks);
}

#[test]
fn implied_p_close() {
    assert_eq!(body_html("<p>one<p>two"), "<p>one</p><p>two</p>");
}

#[test]
fn nested_divs() {
    assert_eq!(body_html("<div><div>x</div></div>"), "<div><div>x</div></div>");
}

#[test]
fn list_items_imply_close() {
    assert_eq!(body_html("<ul><li>a<li>b</ul>"), "<ul><li>a</li><li>b</li></ul>");
}

#[test]
fn dd_dt_imply_close() {
    assert_eq!(body_html("<dl><dt>t<dd>d<dd>e</dl>"), "<dl><dt>t</dt><dd>d</dd><dd>e</dd></dl>");
}

#[test]
fn formatting_misnesting_adoption_agency() {
    // The classic <b><i></b></i> case.
    let html = body_html("<b>1<i>2</b>3</i>");
    assert_eq!(html, "<b>1<i>2</i></b><i>3</i>");
}

#[test]
fn adoption_agency_with_block() {
    let html = body_html("<a>1<div>2<div>3</a>4</div></div>");
    // html5lib-tests expected shape: the <a> is cloned into the divs.
    assert_eq!(html, "<a>1</a><div><a>2</a><div><a>3</a>4</div></div>");
}

#[test]
fn active_formatting_reconstructed_across_blocks() {
    // <p> does not close <b>: the paragraph nests inside it.
    let html = body_html("<b>bold<p>still bold</p>");
    assert_eq!(html, "<b>bold<p>still bold</p></b>");
    // But across a table-fostered boundary, reconstruction re-creates it.
    let html2 = body_html("<table><b>styled</table>plain");
    assert!(html2.starts_with("<b>styled</b>"), "{html2}");
    assert!(html2.contains("<table></table>"));
    assert!(html2.contains("<b>plain</b>"), "{html2}");
}

#[test]
fn recreated_formatting_elements_hold_their_attribute_range() {
    // Each <p> closes the one before it and the <b> inside, so every later
    // paragraph reconstructs the <b>. The end tag makes the adoption agency
    // clone <i> (inner loop) and <b> (outer loop) around the <div>.
    let misnested = "<b class=x><i class=y>1<div>2</b>";
    for (input, name, count) in
        [("<p><b class=x>1<p>2<p>3", "b", 3), (misnested, "b", 2), (misnested, "i", 2)]
    {
        let out = parse_doc(input);
        let copies: Vec<AttrRange> = out
            .dom
            .all_elements()
            .filter(|&id| out.dom.is_html(id, name))
            .map(|id| out.dom.element(id).unwrap().attrs)
            .collect();
        assert_eq!(copies.len(), count, "{name} in {input}");
        for copy in &copies {
            assert!(!copy.is_empty() && *copy == copies[0], "{name} in {input}");
        }
    }
    assert_eq!(
        body_html(misnested),
        r#"<b class="x"><i class="y">1</i></b><i class="y"><div><b class="x">2</b></div></i>"#
    );

    // Writers give the one element they change a range of its own.
    let mut out = parse_doc("<p><b class=x>1<p>2<p>3");
    let bs: Vec<NodeId> = out.dom.all_elements().filter(|&id| out.dom.is_html(id, "b")).collect();
    assert_eq!(bs.len(), 3);
    let id = crate::tokenizer::Attr::new("id", "z");
    let grown: Vec<_> = out.dom.element_attrs(bs[1]).iter().cloned().chain([id]).collect();
    let grown = out.dom.push_attrs(grown);
    out.dom.set_attrs(bs[1], grown);
    out.dom.retain_attrs(bs[2], |a| a.name != "class");
    let ranges: Vec<AttrRange> = bs.iter().map(|&b| out.dom.element(b).unwrap().attrs).collect();
    assert!(ranges[0] != ranges[1] && ranges[0] != ranges[2] && ranges[1] != ranges[2]);
    let body = out.dom.find_html("body").unwrap();
    assert_eq!(
        crate::serializer::serialize_children(&out.dom, body),
        r#"<p><b class="x">1</b></p><p><b class="x" id="z">2</b></p><p><b>3</b></p>"#
    );
}

#[test]
fn elements_hold_their_start_tag_attribute_range() {
    // An element, and a kept tag, hold the tag's range as is, unless a
    // foreign attribute adjustment renames one of the element's attributes.
    let input = "<div id=a><svg class=b><rect viewbox=c /></svg>";
    let mut tags = KeptTags::new();
    let out = parse_with_sink(input, &mut |tag| tags.push(tag.clone()));
    assert_eq!(tags.len(), 3);
    for (tag, shared) in tags.iter().zip([true, true, false]) {
        let element = out
            .dom
            .all_elements()
            .find_map(|id| out.dom.element(id).filter(|e| e.name == tag.name));
        let element = element.unwrap();
        assert_eq!(tag.attrs == element.attrs, shared, "<{}>", tag.name);
        assert_eq!(out.dom.attrs(tag.attrs).len(), 1, "<{}>", tag.name);
    }
    let rect = out.dom.all_elements().last().unwrap();
    assert_eq!(out.dom.attr(rect, "viewBox"), Some("c"));
    assert_eq!(out.dom.attrs(tags[2].attrs)[0].name, "viewbox");
}

// ----- head / body events (HF1, HF2, HF3) -----

#[test]
fn hf1_div_in_head_closes_head() {
    let out = parse_doc("<html><head><div>oops</div><meta charset=x></head><body></body></html>");
    assert!(has_event(
        &out,
        |k| matches!(k, TreeEventKind::HeadClosedBy { by: Trigger::StartTag(t) } if *t == "div")
    ));
    // The meta after the div ends up in the body, not the head.
    let head = out.dom.find_html("head").unwrap();
    let metas_in_head = out.dom.descendants(head).filter(|&id| out.dom.is_html(id, "meta")).count();
    assert_eq!(metas_in_head, 0);
}

#[test]
fn hf1_h1_around_title_google_style() {
    // Figure 12-like: content that belongs in head arriving via body.
    let out = parse_doc("<head><h1><title>t</title></h1></head>");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::HeadClosedBy { .. })));
}

#[test]
fn head_omitted_tags_are_events() {
    let out = parse_doc("<!DOCTYPE html><meta charset=utf-8><title>x</title><p>hi");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitHead)));
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitBody { .. })));
    // The meta and title still land inside the implied head.
    let head = out.dom.find_html("head").unwrap();
    assert!(out.dom.descendants(head).any(|id| out.dom.is_html(id, "meta")));
    assert!(out.dom.descendants(head).any(|id| out.dom.is_html(id, "title")));
}

#[test]
fn hf2_content_before_body() {
    let out = parse_doc("<!DOCTYPE html><html><head></head><p<body onload=\"check()\">x");
    // `<p<body ...>` lexes as a p tag with weird attrs; body is absorbed.
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::ImplicitBody { .. })));
    let body = out.dom.find_html("body").unwrap();
    // The onload security check is gone.
    assert!(out.dom.attr(body, "onload").is_none());
}

#[test]
fn hf3_second_body_merges_attributes() {
    let out = parse_doc(
        "<!DOCTYPE html><body class=a onload=first()><p>x</p><body onload=second() id=late>",
    );
    let body = out.dom.find_html("body").unwrap();
    // Existing attribute wins; new one is added.
    assert_eq!(out.dom.attr(body, "onload"), Some("first()"));
    assert_eq!(out.dom.attr(body, "id"), Some("late"));
    assert!(has_event(&out, |k| matches!(
        k,
        TreeEventKind::SecondBodyMerged { new_attrs, ignored_attrs }
            if new_attrs.contains(&atom!("id"))
                && ignored_attrs.contains(&atom!("onload"))
    )));
}

#[test]
fn late_head_content_reenters_head() {
    let out = parse_doc("<!DOCTYPE html><head></head><meta charset=utf-8><body>x</body>");
    assert!(has_event(
        &out,
        |k| matches!(k, TreeEventKind::LateHeadContent { tag } if tag == "meta")
    ));
    let head = out.dom.find_html("head").unwrap();
    assert!(out.dom.descendants(head).any(|id| out.dom.is_html(id, "meta")));
}

/// Every exit from "in head" (a token that does not belong there, `</head>`,
/// EOF) closes the head, and with it any template still open inside it:
/// the body becomes html's second child, never a template's.
#[test]
fn head_exit_closes_templates_open_in_head() {
    for (input, expected) in [
        (
            "<template><template><body>",
            "<html><head><template><template></template></template></head><body></body></html>",
        ),
        (
            "<head><template></head><p>x",
            "<html><head><template></template></head><body><p>x</p></body></html>",
        ),
        (
            "<template><template>",
            "<html><head><template><template></template></template></head><body></body></html>",
        ),
    ] {
        let out = parse_doc(input);
        assert_eq!(serialize(&out.dom), expected, "input: {input}");
        let html = out.dom.find_html("html").unwrap();
        let kids: Vec<_> = out.dom.children(html).filter_map(|id| out.dom.html_name(id)).collect();
        assert_eq!(kids, ["head", "body"], "input: {input}");
        out.dom.check_invariants().unwrap();
        // A fixed point: the serialization parses back to itself.
        assert_eq!(serialize(&parse_doc(expected).dom), expected, "input: {input}");
    }
}

#[test]
fn meta_in_body_stays_in_body() {
    // DM1's DOM shape: meta inside body is NOT relocated.
    let out =
        parse_doc("<!DOCTYPE html><head></head><body><meta http-equiv=refresh content=0></body>");
    let body = out.dom.find_html("body").unwrap();
    assert!(out.dom.descendants(body).any(|id| out.dom.is_html(id, "meta")));
}

// ----- tables (HF4) -----

#[test]
fn table_with_proper_structure() {
    let html = body_html("<table><tr><td>x</td></tr></table>");
    assert_eq!(html, "<table><tbody><tr><td>x</td></tr></tbody></table>");
}

#[test]
fn hf4_strong_in_tr_is_foster_parented() {
    // Figure 11: a <strong> directly inside <tr> hops out of the table.
    let out = parse_doc(
        "<body><table><tr><strong>Cozi Organizer</strong></tr><tr><td>x</td></tr></table>",
    );
    assert!(has_event(&out, |k| matches!(
        k,
        TreeEventKind::FosterParented { tag: Some(t) } if t == "strong"
    )));
    let body = out.dom.find_html("body").unwrap();
    let html = crate::serializer::serialize_children(&out.dom, body);
    // The strong lands before the table.
    let strong_pos = html.find("<strong>").unwrap();
    let table_pos = html.find("<table>").unwrap();
    assert!(strong_pos < table_pos, "strong must be foster-parented before table: {html}");
}

#[test]
fn hf4_text_in_table_is_foster_parented() {
    let out = parse_doc("<body><table>loose text<tr><td>x</td></tr></table>");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::FosterParented { tag: None })));
    let body = out.dom.find_html("body").unwrap();
    let html = crate::serializer::serialize_children(&out.dom, body);
    assert!(html.starts_with("loose text<table>"));
}

#[test]
fn whitespace_in_table_is_not_fostered() {
    let out = parse_doc("<body><table> <tr><td>x</td></tr> </table>");
    assert!(!has_event(&out, |k| matches!(k, TreeEventKind::FosterParented { .. })));
}

#[test]
fn implied_tbody_and_tr() {
    let out = parse_doc("<table><td>x</td></table>");
    assert!(has_event(&out, |k| matches!(
        k,
        TreeEventKind::TableStructureImplied { tag } if tag == "tbody" || tag == "tr"
    )));
    let html = serialize(&out.dom);
    assert!(html.contains("<tbody><tr><td>x</td></tr></tbody>"));
}

#[test]
fn td_outside_table_is_stray() {
    let out = parse_doc("<body><td>x</td></body>");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::StrayStartTag { tag } if tag == "td")));
}

// ----- forms (DE4) -----

#[test]
fn de4_nested_form_ignored() {
    let out = parse_doc(
        r#"<body><form action="https://evil.com"><form id=real action="/search"><input name=q></form></body>"#,
    );
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::NestedFormIgnored)));
    // Only one form element exists, and it is the evil one.
    let forms: Vec<_> = out.dom.all_elements().filter(|&id| out.dom.is_html(id, "form")).collect();
    assert_eq!(forms.len(), 1);
    assert_eq!(out.dom.attr(forms[0], "action"), Some("https://evil.com"));
}

#[test]
fn sequential_forms_are_fine() {
    let out = parse_doc("<body><form action=/a></form><form action=/b></form></body>");
    assert!(!has_event(&out, |k| matches!(k, TreeEventKind::NestedFormIgnored)));
    let forms = out.dom.all_elements().filter(|&id| out.dom.is_html(id, "form")).count();
    assert_eq!(forms, 2);
}

// ----- text content models at EOF (DE1, DE2) -----

#[test]
fn de1_unterminated_textarea_swallows_rest() {
    let out = parse_doc(
        "<body><form action=https://evil.com><input type=submit><textarea>\n<p>My little secret</p>",
    );
    assert!(out.open_at_eof.contains(&atom!("textarea")));
    assert!(has_event(&out, |k| matches!(
        k,
        TreeEventKind::EofInTextContent { tag } if tag == "textarea"
    )));
    // The "secret" became the textarea's text.
    let ta = out.dom.find_html("textarea").unwrap();
    assert!(out.dom.text_content(ta).contains("My little secret"));
}

#[test]
fn de2_unterminated_select_swallows_content() {
    let out = parse_doc("<body><select><option>a<p id=private>secret</p>");
    assert!(out.open_at_eof.contains(&atom!("select")));
    // Tags inside select are dropped but their text kept.
    let sel = out.dom.find_html("select").unwrap();
    assert!(out.dom.text_content(sel).contains("secret"));
    assert!(out.dom.descendants(sel).all(|id| !out.dom.is_html(id, "p")));
}

#[test]
fn closed_textarea_is_clean() {
    let out = parse_doc("<body><textarea>x</textarea><p>after</p></body>");
    assert!(!out.open_at_eof.contains(&atom!("textarea")));
    assert!(!has_event(&out, |k| matches!(k, TreeEventKind::EofInTextContent { .. })));
}

// ----- select behaviour -----

#[test]
fn select_drops_non_option_tags() {
    let out = parse_doc("<body><select><option>a</option><div>b</div></select></body>");
    let sel = out.dom.find_html("select").unwrap();
    assert!(out.dom.descendants(sel).all(|id| !out.dom.is_html(id, "div")));
    assert!(out.dom.text_content(sel).contains('b'));
}

#[test]
fn option_closed_by_next_option() {
    let html = body_html("<select><option>a<option>b</select>");
    assert_eq!(html, "<select><option>a</option><option>b</option></select>");
}

#[test]
fn select_in_table_closed_by_cell_tags() {
    let out = parse_doc("<table><tr><td><select><option>x<td>next</table>");
    let html = serialize(&out.dom);
    assert!(html.contains("</select></td><td>next</td>"));
}

// ----- foreign content (HF5, Figure 1) -----

#[test]
fn svg_elements_get_svg_namespace() {
    let out = parse_doc("<body><svg><circle r=5></circle></svg></body>");
    let circle =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "circle").unwrap();
    assert_eq!(out.dom.element(circle).unwrap().ns, Namespace::Svg);
}

#[test]
fn svg_camel_case_fixups() {
    let out = parse_doc("<svg><foreignobject><div>html here</div></foreignobject></svg>");
    let fo =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "foreignObject");
    assert!(fo.is_some(), "lowercased tag must be restored to foreignObject");
    // The div inside the integration point is HTML.
    let div = out.dom.find_html("div").unwrap();
    assert_eq!(out.dom.element(div).unwrap().ns, Namespace::Html);
}

#[test]
fn hf5_breakout_pops_foreign_elements() {
    let out = parse_doc("<body><svg><rect></rect><div>break</div></svg></body>");
    assert!(has_event(&out, |k| matches!(
        k,
        TreeEventKind::ForeignBreakout { tag, root_ns: Namespace::Svg } if tag == "div"
    )));
    let div = out.dom.find_html("div").unwrap();
    assert_eq!(out.dom.element(div).unwrap().ns, Namespace::Html);
    // The div is a sibling of the svg, not inside it.
    let svg =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "svg").unwrap();
    assert!(!out.dom.is_inclusive_ancestor(svg, div));
}

#[test]
fn math_text_integration_point_parses_html() {
    let out = parse_doc("<body><math><mtext><b>bold</b></mtext></math></body>");
    let b = out.dom.find_html("b").unwrap();
    assert_eq!(out.dom.element(b).unwrap().ns, Namespace::Html);
    // And it stays inside mtext.
    let mtext =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "mtext").unwrap();
    assert!(out.dom.is_inclusive_ancestor(mtext, b));
}

#[test]
fn mglyph_at_integration_point_stays_mathml() {
    let out = parse_doc("<body><math><mtext><mglyph></mglyph></mtext></math></body>");
    let mglyph =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "mglyph").unwrap();
    assert_eq!(out.dom.element(mglyph).unwrap().ns, Namespace::MathMl);
}

#[test]
fn style_in_foreign_content_is_not_rawtext() {
    // In MathML, <style> content parses as markup: a comment is a comment.
    let out = parse_doc("<body><math><mglyph><style><!--x--></style></mglyph></math></body>");
    let style =
        out.dom.all_elements().find(|&id| out.dom.element(id).unwrap().name == "style").unwrap();
    assert_eq!(out.dom.element(style).unwrap().ns, Namespace::MathMl);
    let has_comment =
        out.dom.descendants(style).any(|id| matches!(out.dom.data(id), NodeData::Comment(_)));
    assert!(has_comment, "comment inside foreign <style> must be a real comment node");
}

#[test]
fn figure1_mxss_mutation() {
    // The DOMPurify bypass: after one parse+serialize, the payload mutates.
    let payload = concat!(
        "<math><mtext><table><mglyph><style><!--</style>",
        "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
    );
    let out = parse_doc(payload);
    let html = serialize(&out.dom);
    // Mutation 1: the entities in the title decoded.
    assert!(html.contains("--><img src=1 onerror=alert(1)>"), "entities must decode: {html}");
    // Mutation 2: mglyph/style moved in front of the table.
    let mglyph = html.find("<mglyph>").expect("mglyph survives");
    let table = html.find("<table>").expect("table survives");
    assert!(mglyph < table, "mglyph must be foster-parented before the table: {html}");
    // Mutation 3: inside <style> (MathML) the `<!--` stayed *text/comment*,
    // so the serialized form re-parses differently — the essence of mXSS.
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::FosterParented { .. })));
}

// ----- stray end tags & misc -----

#[test]
fn stray_end_tag_event() {
    let out = parse_doc("<body><p>x</p></div></body>");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::StrayEndTag { tag } if tag == "div")));
}

#[test]
fn second_head_ignored() {
    let out = parse_doc("<head></head><head></head><body></body>");
    assert!(has_event(&out, |k| matches!(k, TreeEventKind::SecondHeadIgnored)));
}

#[test]
fn br_end_tag_becomes_br() {
    let html = body_html("a</br>b");
    assert_eq!(html, "a<br>b");
}

#[test]
fn plaintext_swallows_everything() {
    let out = parse_doc("<body><plaintext><div>not a tag");
    let pt = out.dom.find_html("plaintext").unwrap();
    assert_eq!(out.dom.text_content(pt), "<div>not a tag");
}

#[test]
fn script_content_preserved() {
    let out = parse_doc("<head><script>var a = '<div>';</script></head>");
    let script = out.dom.find_html("script").unwrap();
    assert_eq!(out.dom.text_content(script), "var a = '<div>';");
}

#[test]
fn comments_attach_in_place() {
    let out = parse_doc("<!-- top --><!DOCTYPE html><body><!-- inner --></body><!-- trail -->");
    let html = serialize(&out.dom);
    assert!(html.starts_with("<!-- top -->"));
    assert!(html.contains("<body><!-- inner -->"));
    // A comment after </body> attaches to the html element.
    assert!(html.ends_with("<!-- trail --></html>"), "{html}");
}

#[test]
fn pre_strips_first_newline() {
    let html = body_html("<pre>\nkeep</pre>");
    assert_eq!(html, "<pre>keep</pre>");
}

#[test]
fn textarea_strips_first_newline() {
    let html = body_html("<textarea>\nkeep</textarea>");
    assert_eq!(html, "<textarea>keep</textarea>");
}

#[test]
fn invariants_hold_on_pathological_inputs() {
    for input in [
        "<table><table><table>x",
        "<b><i><u><b><i><u>deep</b></i>",
        "<select><select><option><select>",
        "<svg><math><svg><div><math>",
        "</a></b></c><p></p></p></p>",
        "<head><head><body><body><html>",
        "<form><table><form><tr><form>",
    ] {
        let out = parse_doc(input);
        out.dom.check_invariants().unwrap_or_else(|e| panic!("{input}: {e}"));
    }
}

// ----- fragment parsing (§13.2.4) -----

mod fragments {
    use super::*;
    use crate::serializer::serialize_children;
    use crate::tree_builder::{fragment_children, parse_fragment};

    fn frag(input: &str, context: &str) -> String {
        let out = parse_fragment(input, context);
        let root = out.dom.children(out.dom.root()).next().expect("synthetic root");
        serialize_children(&out.dom, root)
    }

    #[test]
    fn div_context_plain() {
        assert_eq!(frag("<p>a<p>b", "div"), "<p>a</p><p>b</p>");
    }

    #[test]
    fn no_implied_html_head_body() {
        let out = parse_fragment("<b>x</b>", "div");
        assert!(out.events.is_empty(), "{:?}", out.events);
        assert_eq!(fragment_children(&out).len(), 1);
    }

    #[test]
    fn td_context_keeps_table_rules() {
        // In a td context the insertion mode resets to "in cell"-ish
        // behaviour: a <tr> is stray table structure.
        let out = parse_fragment("<tr><td>x</td></tr>", "table");
        let root = out.dom.children(out.dom.root()).next().unwrap();
        let html = serialize_children(&out.dom, root);
        assert!(html.contains("<tbody><tr><td>x</td></tr></tbody>"), "{html}");
    }

    #[test]
    fn select_context_strips_tags() {
        assert_eq!(frag("<option>a</option><div>b</div>", "select"), "<option>a</option>b");
    }

    #[test]
    fn textarea_context_is_rcdata() {
        // The context element's content model applies to the whole input.
        assert_eq!(frag("<p>not markup</p>", "textarea"), "&lt;p&gt;not markup&lt;/p&gt;");
    }

    #[test]
    fn script_context_is_script_data() {
        // The `<` must survive as text (script data state), not become a
        // tag. (Serialization escapes it because the synthetic fragment
        // root is not itself a script element.)
        let out = parse_fragment("if (a < b) { x(\"</div>\"); }", "script");
        let root = out.dom.children(out.dom.root()).next().unwrap();
        assert_eq!(out.dom.text_content(root), "if (a < b) { x(\"</div>\"); }");
        assert_eq!(out.dom.descendants(root).count(), 1, "one text node, no elements");
    }

    #[test]
    fn form_context_suppresses_nested_form() {
        let out = parse_fragment("<form action=/x><input name=q>", "form");
        assert!(out.events.iter().any(|e| matches!(e.kind, TreeEventKind::NestedFormIgnored)));
    }

    #[test]
    fn body_and_html_end_tags_are_stray_in_fragment() {
        let out = parse_fragment("a</body></html>b", "div");
        let root = out.dom.children(out.dom.root()).next().unwrap();
        assert_eq!(serialize_children(&out.dom, root), "ab");
    }

    #[test]
    fn fragment_errors_still_reported() {
        let out = parse_fragment(r#"<img src="a"alt="b">"#, "div");
        assert!(out.has_error(crate::ErrorCode::MissingWhitespaceBetweenAttributes));
    }

    #[test]
    fn fragment_dom_invariants() {
        for (input, cx) in [
            ("<table><td>x", "div"),
            ("<b><i>x</b>", "p"),
            ("</td>text<td>y", "tr"),
            ("<svg><div>z", "div"),
        ] {
            let out = parse_fragment(input, cx);
            out.dom.check_invariants().unwrap_or_else(|e| panic!("{input} in {cx}: {e}"));
        }
    }
}

// ----- thin-coverage modes: caption, colgroup, frameset -----

mod table_modes {
    use super::*;

    #[test]
    fn caption_closed_by_row() {
        // A <tr> inside caption closes the caption first.
        let html = body_html("<table><caption>c<tr><td>x</td></table>");
        assert_eq!(html, "<table><caption>c</caption><tbody><tr><td>x</td></tr></tbody></table>");
    }

    #[test]
    fn caption_formatting_cleared_at_close() {
        // Formatting opened inside the caption must not leak out (marker).
        let html = body_html("<table><caption><b>c</caption><tr><td>x</td></table>after");
        assert!(html.contains("<b>c</b></caption>"), "{html}");
        assert!(html.ends_with("after"), "bold must not leak: {html}");
    }

    #[test]
    fn colgroup_implicit_close_by_row() {
        let html = body_html("<table><colgroup><col><tr><td>x</td></table>");
        assert_eq!(
            html,
            "<table><colgroup><col></colgroup><tbody><tr><td>x</td></tr></tbody></table>"
        );
    }

    #[test]
    fn colgroup_whitespace_kept_content_deferred() {
        let out = parse_doc("<table><colgroup> <col> </colgroup><tr><td>x</td></tr></table>");
        out.dom.check_invariants().unwrap();
    }

    #[test]
    fn stray_caption_end_ignored() {
        let out = parse_doc("<body></caption><p>x</p>");
        assert!(has_event(&out, |k| matches!(k, TreeEventKind::StrayEndTag { .. })));
        assert_eq!(body_html("</caption><p>x</p>"), "<p>x</p>");
    }

    #[test]
    fn td_end_in_row_is_stray() {
        let html = body_html("<table><tr></td><td>x</td></tr></table>");
        assert_eq!(html, "<table><tbody><tr><td>x</td></tr></tbody></table>");
    }
}

mod framesets {
    use super::*;

    #[test]
    fn frameset_document_structure() {
        let out = parse_doc(
            "<!DOCTYPE html><html><head></head><frameset cols=\"50%,50%\"><frame src=\"a\"><frame src=\"b\"></frameset></html>",
        );
        out.dom.check_invariants().unwrap();
        let html = serialize(&out.dom);
        assert!(
            html.contains(
                "<frameset cols=\"50%,50%\"><frame src=\"a\"><frame src=\"b\"></frameset>"
            ),
            "{html}"
        );
        // No body in a frameset document.
        assert!(out.dom.find_html("body").is_none());
    }

    #[test]
    fn nested_framesets() {
        let out = parse_doc(
            "<head></head><frameset><frameset rows=\"*\"><frame></frameset><frame></frameset>",
        );
        let html = serialize(&out.dom);
        assert!(
            html.contains("<frameset><frameset rows=\"*\"><frame></frameset><frame></frameset>"),
            "{html}"
        );
    }

    #[test]
    fn frameset_after_body_content_ignored() {
        // Once real content exists, a frameset start tag is a stray.
        let out = parse_doc("<body><p>content</p><frameset><frame></frameset>");
        assert!(has_event(
            &out,
            |k| matches!(k, TreeEventKind::StrayStartTag { tag } if tag == "frameset")
        ));
        assert!(out.dom.find_html("body").is_some());
    }

    #[test]
    fn noframes_content_is_rawtext() {
        let out = parse_doc("<head><noframes><p>fallback</p></noframes></head>");
        let nf = out.dom.find_html("noframes").unwrap();
        assert_eq!(out.dom.text_content(nf), "<p>fallback</p>");
    }
}
