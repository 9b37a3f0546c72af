//! Tree-construction conformance cases in the style of the html5lib test
//! suite: input markup → expected serialized body, covering the recovery
//! behaviours the violation checkers depend on.
//!
//! Expected values were derived from the WHATWG algorithm (and
//! cross-checked against browser `innerHTML` behaviour where the spec
//! leaves room).

use html_violations::prelude::*;
use html_violations::spec_html::serializer;

/// Parse and serialize the body's children (innerHTML).
fn body_of(input: &str) -> String {
    let doc = parse_document(input);
    let body = doc.dom.find_html("body").expect("body");
    serializer::serialize_children(&doc.dom, body)
}

macro_rules! cases {
    ($( $name:ident : $input:expr => $expected:expr ; )+) => {
        $(
            #[test]
            fn $name() {
                assert_eq!(body_of($input), $expected, "input: {}", $input);
            }
        )+
    };
}

cases! {
    // --- implied end tags ---
    implied_p: "<p>a<p>b" => "<p>a</p><p>b</p>";
    implied_li: "<ul><li>a<li>b</ul>" => "<ul><li>a</li><li>b</li></ul>";
    implied_dt_dd: "<dl><dt>a<dd>b</dl>" => "<dl><dt>a</dt><dd>b</dd></dl>";
    implied_option: "<select><option>a<option>b</select>"
        => "<select><option>a</option><option>b</option></select>";
    p_closed_by_div: "<p>a<div>b</div>" => "<p>a</p><div>b</div>";
    p_not_closed_by_span: "<p>a<span>b</span>" => "<p>a<span>b</span></p>";
    heading_closes_p: "<p>a<h1>b</h1>" => "<p>a</p><h1>b</h1>";
    heading_pops_heading: "<h1>a<h2>b</h2>" => "<h1>a</h1><h2>b</h2>";

    // --- formatting / adoption agency ---
    b_i_misnest: "<b>1<i>2</b>3</i>" => "<b>1<i>2</i></b><i>3</i>";
    reconstruct_after_p: "<p><b>x<p>y" => "<p><b>x</b></p><p><b>y</b></p>";
    nested_a_splits: "<a>1<a>2</a>" => "<a>1</a><a>2</a>";
    // A well-nested block inside formatting stays nested (no adoption
    // agency without misnesting).
    em_across_block: "<em>a<div>b</div>c</em>" => "<em>a<div>b</div>c</em>";
    // Misnesting does split: the </em> inside the div triggers adoption.
    em_misnested_block: "<em>a<div>b</em>c</div>" => "<em>a</em><div><em>b</em>c</div>";
    font_preserved: "<font color=red>x</font>" => "<font color=\"red\">x</font>";
    // html5lib's Noah's Ark case: at most three entries with the same
    // name and attributes (paired by name and value, in any order) since
    // the last marker; a fourth evicts the earliest.
    noahs_ark: "<p><b class=x><b class=x><b><b class=x><b class=x><b>X<p>X<p><b><b class=x><b>X<p></b></b></b></b></b></b>X"
        => "<p><b class=\"x\"><b class=\"x\"><b><b class=\"x\"><b class=\"x\"><b>X</b></b></b></b></b></b></p>\
            <p><b class=\"x\"><b><b class=\"x\"><b class=\"x\"><b>X</b></b></b></b></b></p>\
            <p><b class=\"x\"><b><b class=\"x\"><b class=\"x\"><b><b><b class=\"x\"><b>X</b></b></b></b></b></b></b></b></p>\
            <p>X</p>";

    // --- tables / foster parenting ---
    table_text_fostered: "<table>text<tr><td>x</td></tr></table>"
        => "text<table><tbody><tr><td>x</td></tr></tbody></table>";
    table_element_fostered: "<table><div>d</div><tr><td>x</td></tr></table>"
        => "<div>d</div><table><tbody><tr><td>x</td></tr></tbody></table>";
    implied_tbody: "<table><tr><td>x</td></tr></table>"
        => "<table><tbody><tr><td>x</td></tr></tbody></table>";
    implied_tr_cell_close: "<table><tr><td>a<td>b</table>"
        => "<table><tbody><tr><td>a</td><td>b</td></tr></tbody></table>";
    caption_kept: "<table><caption>c</caption><tr><td>x</td></tr></table>"
        => "<table><caption>c</caption><tbody><tr><td>x</td></tr></tbody></table>";
    colgroup_and_col: "<table><colgroup><col><col></colgroup><tr><td>x</td></tr></table>"
        => "<table><colgroup><col><col></colgroup><tbody><tr><td>x</td></tr></tbody></table>";
    bare_col_implies_colgroup: "<table><col><tr><td>x</td></tr></table>"
        => "<table><colgroup><col></colgroup><tbody><tr><td>x</td></tr></tbody></table>";
    nested_table_closes: "<table><tr><td>a<table><tr><td>b</td></tr></table></td></tr></table>"
        => "<table><tbody><tr><td>a<table><tbody><tr><td>b</td></tr></tbody></table></td></tr></tbody></table>";
    input_hidden_stays_in_table: "<table><input type=hidden><tr><td>x</td></tr></table>"
        => "<table><input type=\"hidden\"><tbody><tr><td>x</td></tr></tbody></table>";
    input_text_fostered: "<table><input type=text><tr><td>x</td></tr></table>"
        => "<input type=\"text\"><table><tbody><tr><td>x</td></tr></tbody></table>";
    thead_tfoot: "<table><thead><tr><th>h</th></tr><tbody><tr><td>b</td></tr><tfoot><tr><td>f</td></tr></table>"
        => "<table><thead><tr><th>h</th></tr></thead><tbody><tr><td>b</td></tr></tbody><tfoot><tr><td>f</td></tr></tfoot></table>";

    // --- select ---
    select_strips_div: "<select><div>x</div><option>a</option></select>"
        => "<select>x<option>a</option></select>";
    select_inner_select_closes: "<select><option>a<select><option>b"
        => "<select><option>a</option></select><option>b</option>";
    optgroup_closes_option: "<select><option>a<optgroup label=g><option>b</select>"
        => "<select><option>a</option><optgroup label=\"g\"><option>b</option></optgroup></select>";

    // --- void elements / self-closing ---
    void_elements: "<br><img src=x><hr>" => "<br><img src=\"x\"><hr>";
    self_closing_div_ignored: "<div/>text" => "<div>text</div>";
    end_br_becomes_br: "a</br>b" => "a<br>b";

    // --- foreign content ---
    svg_roundtrip: "<svg viewBox=\"0 0 1 1\"><circle r=\"1\"></circle></svg>"
        => "<svg viewBox=\"0 0 1 1\"><circle r=\"1\"></circle></svg>";
    // The spec's "adjust SVG attributes" table has the first four and
    // lacks `clippath` (only the element name is adjusted).
    svg_attribute_case_table:
        "<svg filterunits=a glyphref=b kernelunitlength=c preservealpha=d clippath=e></svg>"
        => "<svg filterUnits=\"a\" glyphRef=\"b\" kernelUnitLength=\"c\" preserveAlpha=\"d\" \
            clippath=\"e\"></svg>";
    svg_self_closing: "<svg><path d=\"M0 0\"/></svg>x"
        => "<svg><path d=\"M0 0\"></path></svg>x";
    svg_breakout: "<svg><rect></rect><p>out</p>" => "<svg><rect></rect></svg><p>out</p>";
    math_mtext_html: "<math><mtext><b>x</b></mtext></math>"
        => "<math><mtext><b>x</b></mtext></math>";
    foreign_object_html: "<svg><foreignobject><div>d</div></foreignobject></svg>"
        => "<svg><foreignObject><div>d</div></foreignObject></svg>";
    math_img_breakout: "<math><mrow><img src=x></mrow></math>"
        => "<math><mrow></mrow></math><img src=\"x\">";
    font_with_color_breaks_out: "<svg><font color=red>x</font></svg>"
        => "<svg></svg><font color=\"red\">x</font>";
    font_plain_stays_foreign: "<svg><font>x</font></svg>"
        => "<svg><font>x</font></svg>";

    // --- raw text models ---
    // (Bare leading <script>/<style> would land in the implied head, so
    // these anchor themselves in the body first.)
    script_keeps_markup: "<body>x<script>var x = '<div>';</script>after"
        => "x<script>var x = '<div>';</script>after";
    style_keeps_markup: "<body>x<style>a > b {}</style>y" => "x<style>a > b {}</style>y";
    textarea_entity_decoded: "<textarea>&amp;</textarea>" => "<textarea>&amp;</textarea>";
    xmp_raw: "<xmp><b>not bold</b></xmp>" => "<xmp><b>not bold</b></xmp>";

    // --- misc error recovery ---
    stray_end_tags_dropped: "a</div></span>b" => "ab";
    unclosed_elements_at_eof: "<div><span>x" => "<div><span>x</span></div>";
    comment_preserved: "a<!-- c -->b" => "a<!-- c -->b";
    null_dropped_in_body: "a\0b" => "ab";
    button_closes_button: "<button>a<button>b</button>" => "<button>a</button><button>b</button>";
    nobr_reopens: "<nobr>a<nobr>b</nobr>" => "<nobr>a</nobr><nobr>b</nobr>";
    plaintext_swallows: "<plaintext><div>" => "<plaintext><div></plaintext>";
}

#[test]
fn doctype_quirks_modes() {
    use html_violations::spec_html::tree_builder::QuirksMode;
    let cases = [
        ("<!DOCTYPE html><p>x", QuirksMode::NoQuirks),
        ("<p>x", QuirksMode::Quirks),
        ("<!DOCTYPE html PUBLIC \"-//W3C//DTD HTML 4.01 Transitional//EN\"><p>x", QuirksMode::Quirks),
        (
            "<!DOCTYPE html PUBLIC \"-//W3C//DTD XHTML 1.0 Transitional//EN\" \"http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd\"><p>x",
            QuirksMode::LimitedQuirks,
        ),
    ];
    for (input, expected) in cases {
        assert_eq!(parse_document(input).quirks, expected, "{input}");
    }
}

#[test]
fn quirks_mode_table_in_p() {
    // In quirks mode, <table> does NOT close an open <p>.
    let quirks = body_of("<p>a<table><tr><td>x</td></tr></table>");
    assert_eq!(quirks, "<p>a<table><tbody><tr><td>x</td></tr></tbody></table></p>");
    let standards = {
        let doc = parse_document("<!DOCTYPE html><p>a<table><tr><td>x</td></tr></table>");
        let body = doc.dom.find_html("body").unwrap();
        serializer::serialize_children(&doc.dom, body)
    };
    assert_eq!(standards, "<p>a</p><table><tbody><tr><td>x</td></tr></tbody></table>");
}

#[test]
fn whole_document_structure() {
    let doc = parse_document(
        "<!DOCTYPE html><html lang=en><head><title>t</title></head><body>x</body></html>",
    );
    let whole = serializer::serialize(&doc.dom);
    assert_eq!(
        whole,
        "<!DOCTYPE html><html lang=\"en\"><head><title>t</title></head><body>x</body></html>"
    );
}
