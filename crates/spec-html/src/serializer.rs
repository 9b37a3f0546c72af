//! HTML serialization (§13.3 "Serializing HTML fragments").
//!
//! The serializer is half of the paper's proposed automatic fix for the FB
//! violations (§4.4): *"repairing these issues could be automated by
//! serializing the entire document with the current HTML parser and
//! deserializing it again. The syntax would be fixed, but the semantics
//! would still be broken."* It is also half of every mXSS attack: a document
//! that serializes to markup which re-parses *differently* is exactly what
//! Figure 1 exploits. [`serialize`] therefore follows the spec's algorithm
//! precisely — including the places where the spec's output is known not to
//! round-trip.

use crate::dom::{Document, Namespace, NodeData, NodeId};
use crate::tags;

/// Serialize a whole document, including any DOCTYPE.
pub fn serialize(doc: &Document) -> String {
    let mut out = String::new();
    for child in doc.children(doc.root()) {
        serialize_node(doc, child, &mut out);
    }
    out
}

/// Serialize the subtree rooted at `id` (the node itself plus its contents).
pub fn serialize_subtree(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    serialize_node(doc, id, &mut out);
    out
}

/// Serialize only the children of `id` (the spec's "fragment serialization"
/// of an element — what `innerHTML` returns).
pub fn serialize_children(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    for child in doc.children(id) {
        serialize_node(doc, child, &mut out);
    }
    out
}

/// Serialize the subtree rooted at `root`. The walk is iterative (first
/// child, next sibling, parent links), so nesting depth costs no call
/// stack: a document nested 200,000 deep serializes on a 2 MiB thread.
fn serialize_node(doc: &Document, root: NodeId, out: &mut String) {
    let mut id = root;
    'walk: loop {
        if open_node(doc, id, out) {
            if let Some(child) = doc.node(id).first_child {
                id = child;
                continue;
            }
            close_node(doc, id, out);
        }
        // `id` is finished: go to its next sibling, closing every ancestor
        // whose last child this was.
        while id != root {
            if let Some(next) = doc.node(id).next_sibling {
                id = next;
                continue 'walk;
            }
            id = doc.node(id).parent.expect("nodes below the root have a parent");
            close_node(doc, id, out);
        }
        return;
    }
}

/// Write what precedes a node's children (all of a leaf), and say whether
/// its children are serialized and followed by [`close_node`].
fn open_node(doc: &Document, id: NodeId, out: &mut String) -> bool {
    match doc.data(id) {
        NodeData::Document => true,
        NodeData::Doctype(d) => {
            out.push_str("<!DOCTYPE ");
            out.push_str(&d.name);
            out.push('>');
            false
        }
        NodeData::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
            false
        }
        NodeData::Text(t) => {
            // Text inside the spec's "literal text" elements is emitted
            // verbatim; everything else is escaped. `noscript` is NOT in
            // this set: §13.2 only exempts it "if the scripting flag is
            // enabled", and this parser runs scripting-disabled (noscript
            // children are real markup, so their text must re-escape or
            // `&lt` inside noscript round-trips into a bogus tag).
            let parent_name = doc
                .node(id)
                .parent
                .and_then(|p| doc.element(p))
                .filter(|e| e.ns == Namespace::Html)
                .map(|e| e.name.clone());
            let literal = matches!(
                parent_name.as_deref(),
                Some("style" | "script" | "xmp" | "iframe" | "noembed" | "noframes" | "plaintext")
            );
            if literal {
                out.push_str(t);
            } else {
                escape_text(t, out);
            }
            false
        }
        NodeData::Element(e) => {
            out.push('<');
            out.push_str(&e.name);
            for a in doc.attrs(e.attrs) {
                out.push(' ');
                out.push_str(&a.name);
                out.push_str("=\"");
                escape_attr(&a.value, out);
                out.push('"');
            }
            out.push('>');
            // §13.3's "skip the end tag" list is the void elements plus the
            // legacy quartet basefont/bgsound/frame/keygen. Foreign elements
            // with no children serialize with an explicit end tag too (we
            // never keep the self-closing flag in the DOM).
            let no_end_tag = e.ns == Namespace::Html
                && (tags::is_void(&e.name)
                    || matches!(e.name.as_str(), "basefont" | "bgsound" | "frame" | "keygen"));
            !no_end_tag
        }
    }
}

/// Write what follows a node's children: an element's end tag.
fn close_node(doc: &Document, id: NodeId, out: &mut String) {
    if let Some(e) = doc.element(id) {
        out.push_str("</");
        out.push_str(&e.name);
        out.push('>');
    }
}

/// Escape text content: `&`, `<`, `>`, and non-breaking space.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\u{A0}' => out.push_str("&nbsp;"),
            c => out.push(c),
        }
    }
}

/// Escape attribute values: `&`, `"`, and non-breaking space (the spec's
/// attribute mode; note `<` is *not* escaped — one of the reasons mXSS
/// round-trips exist).
pub fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\u{A0}' => out.push_str("&nbsp;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    fn roundtrip(input: &str) -> String {
        serialize(&parse_document(input).dom)
    }

    #[test]
    fn basic_document() {
        let out = roundtrip("<!DOCTYPE html><html><head></head><body><p>x</p></body></html>");
        assert_eq!(out, "<!DOCTYPE html><html><head></head><body><p>x</p></body></html>");
    }

    #[test]
    fn void_elements_have_no_end_tag() {
        let out = roundtrip("<p><img src=x><br></p>");
        assert!(out.contains("<img src=\"x\"><br>"));
        assert!(!out.contains("</img>"));
        assert!(!out.contains("</br>"));
    }

    #[test]
    fn attributes_are_double_quoted_and_escaped() {
        let out = roundtrip(r#"<div title='a "b" & c'></div>"#);
        assert!(out.contains(r#"title="a &quot;b&quot; &amp; c""#));
    }

    #[test]
    fn text_is_escaped() {
        let out = roundtrip("<p>a &lt; b &amp; c</p>");
        assert!(out.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn style_content_is_literal() {
        let out = roundtrip("<style>a > b { color: red }</style>");
        assert!(out.contains("<style>a > b { color: red }</style>"));
    }

    #[test]
    fn script_content_is_literal() {
        let out = roundtrip("<script>if (a < b) x();</script>");
        assert!(out.contains("<script>if (a < b) x();</script>"));
    }

    #[test]
    fn comments_preserved() {
        let out = roundtrip("<p><!-- note --></p>");
        assert!(out.contains("<!-- note -->"));
    }

    #[test]
    fn serialization_is_idempotent_on_messy_input() {
        // One serialize → parse → serialize round must be a fixpoint for
        // ordinary (non-mXSS) markup: this is what makes the §4.4 auto-fix
        // safe.
        let messy = r#"<div id=a class='b'><p>one<p>two<table><tr><td>x</table><img src=1>"#;
        let once = roundtrip(messy);
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }

    /// A 200,000-deep `<div>` chain (about 1 MB of markup, inside the
    /// server's default body limit) serializes on a 2 MiB thread stack, the
    /// size of the server's worker threads.
    #[test]
    fn deep_nesting_serializes_on_a_small_stack() {
        const DEPTH: usize = 200_000;
        let out = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| serialize(&parse_document(&"<div>".repeat(DEPTH)).dom))
            .expect("spawn")
            .join()
            .expect("serializing a deep document must not overflow the stack");
        let expected = format!(
            "<html><head></head><body>{}{}</body></html>",
            "<div>".repeat(DEPTH),
            "</div>".repeat(DEPTH)
        );
        assert!(out == expected, "deep serialization differs ({} bytes)", out.len());
    }

    #[test]
    fn subtree_stops_at_its_root() {
        let doc = parse_document("<p>a<b>b</b></p><p>c</p>");
        let p = doc.dom.find_html("p").unwrap();
        assert_eq!(serialize_subtree(&doc.dom, p), "<p>a<b>b</b></p>");
        let body = doc.dom.find_html("body").unwrap();
        assert_eq!(serialize_children(&doc.dom, body), "<p>a<b>b</b></p><p>c</p>");
        let img = parse_document("<img src=x>");
        let img_id = img.dom.find_html("img").unwrap();
        assert_eq!(serialize_subtree(&img.dom, img_id), "<img src=\"x\">");
    }

    #[test]
    fn attr_lt_not_escaped() {
        // The spec does not escape `<` in attribute values — load-bearing
        // for mXSS demonstrations.
        let out = roundtrip(r#"<img title="--&gt;&lt;img src=1&gt;">"#);
        assert!(out.contains(r#"title="--><img src=1>""#));
    }
}
