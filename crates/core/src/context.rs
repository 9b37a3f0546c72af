//! Shared per-page analysis context.
//!
//! The paper's framework "runs the rules independently of each other"
//! (§3.3); to do that without parsing the page twenty times, a
//! [`CheckContext`] is built once (one full parse) and every checker reads
//! from it.

use spec_html::dom::{Document, NodeId};
use spec_html::tokenizer::Tag;
use spec_html::{Atom, KeptTags, ParseOutput};
use std::cell::{Cell, OnceCell};

const BODY: Atom = Atom::known("body");

/// Which start tags the checkers can ever act on: tags carrying at least
/// one attribute (DE3_1/DE3_2/DE3_3 and the §4.5 mitigation flags inspect
/// attribute values) plus every `<body>` tag (HF3 counts them). Everything
/// else streams past without being kept. A kept tag holds its attribute
/// range of the DOM's arena, so keeping it copies no attribute.
fn checker_relevant(tag: &Tag) -> bool {
    !tag.attrs.is_empty() || tag.name == BODY
}

/// Everything a checker may inspect about one page.
pub struct CheckContext<'a> {
    /// The raw document text as crawled (after UTF-8 decoding).
    pub raw: &'a str,
    /// Full parse: DOM, tokenizer errors, tree events.
    pub parse: ParseOutput,
    /// Checker-relevant start tags, collected streaming from the parse via
    /// the tag sink (the parser itself no longer retains tags). Their
    /// attributes are read through `parse.dom.attrs`.
    start_tags: KeptTags,
    /// Resumable char→byte cursor for [`CheckContext::excerpt`]: findings
    /// arrive in source order, so successive excerpt offsets are monotone
    /// and each call advances from where the last one stopped instead of
    /// re-walking the document head.
    cursor: Cell<(usize, usize)>,
    /// [`head_members`] of the DOM, collected on first use.
    head_members: OnceCell<Vec<bool>>,
}

/// Per node id: whether the node has the HTML `head` element among its
/// ancestors. One walk of the head's subtree, so asking it for every
/// `meta` and `base` on a page costs O(page) rather than O(page × depth).
/// The parser creates at most one head element, the first in document
/// order, which sits near the start of the walk.
pub(crate) fn head_members(dom: &Document) -> Vec<bool> {
    let mut inside = vec![false; dom.len()];
    if let Some(head) = dom.find_html("head") {
        for id in dom.descendants(head) {
            inside[id.index()] = true;
        }
    }
    inside
}

impl<'a> CheckContext<'a> {
    /// Parse `raw` and build the context.
    pub fn new(raw: &'a str) -> Self {
        let mut start_tags = KeptTags::new();
        let parse = spec_html::parse_document_with(raw, &mut |tag| {
            if checker_relevant(tag) {
                start_tags.push(tag.clone());
            }
        });
        CheckContext {
            raw,
            parse,
            start_tags,
            cursor: Cell::new((0, 0)),
            head_members: OnceCell::new(),
        }
    }

    /// Build the context from an HTML *fragment* (innerHTML semantics in
    /// the given context element) — how dynamically loaded content is
    /// parsed at runtime. Used by the §5.1 dynamic-content pre-study:
    /// structural checks that need a document head/body (HF1–HF3) cannot
    /// fire here, exactly as in the paper's fragment analysis.
    pub fn fragment(raw: &'a str, context: &str) -> Self {
        let mut start_tags = KeptTags::new();
        let parse = spec_html::parse_fragment_with_sink(raw, context, &mut |tag| {
            if checker_relevant(tag) {
                start_tags.push(tag.clone());
            }
        });
        CheckContext {
            raw,
            parse,
            start_tags,
            cursor: Cell::new((0, 0)),
            head_members: OnceCell::new(),
        }
    }

    /// Whether `id` sits inside the document's `head` element. The head
    /// subtrees are collected once per document, on the first call.
    pub fn inside_head(&self, id: NodeId) -> bool {
        self.head_members.get_or_init(|| head_members(&self.parse.dom))[id.index()]
    }

    /// The checker-relevant start tags of the token stream, in source
    /// order: every tag with at least one attribute, plus every `<body>`
    /// tag. (Attribute-less non-body tags cannot trigger any rule or
    /// mitigation flag and are not collected.)
    pub fn start_tags(&self) -> impl Iterator<Item = &Tag> {
        self.start_tags.iter()
    }

    /// A short excerpt of the source around a character offset, for
    /// evidence strings. Amortized O(excerpt) per call over a page's
    /// findings: the char→byte cursor resumes from the previous offset
    /// (offsets within a page arrive sorted); a backwards offset restarts
    /// from the beginning.
    pub fn excerpt(&self, offset: usize, len: usize) -> String {
        let (mut chars, mut bytes) = self.cursor.get();
        if offset < chars {
            chars = 0;
            bytes = 0;
        }
        for c in self.raw[bytes..].chars() {
            if chars == offset {
                break;
            }
            bytes += c.len_utf8();
            chars += 1;
        }
        self.cursor.set((chars, bytes));
        let mut iter = self.raw[bytes..].chars();
        if chars < offset {
            // Offset past end of document.
            return String::new();
        }
        let mut s = String::with_capacity(len + 4);
        for _ in 0..len {
            match iter.next() {
                Some('\n') => s.push_str("\\n"),
                Some(c) => s.push(c),
                None => return s,
            }
        }
        if iter.next().is_some() {
            s.push('…');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_checker_relevant_tags() {
        // <p> carries no attributes and is not body — streamed past.
        let cx = CheckContext::new("<p><img src=x alt=y></p><body class=c>");
        let tags: Vec<&str> = cx.start_tags().map(|t| t.name.as_str()).collect();
        assert_eq!(tags, vec!["img", "body"]);
    }

    #[test]
    fn bare_body_tag_is_still_collected() {
        let cx = CheckContext::new("<body><body><p>x</p>");
        assert_eq!(cx.start_tags().filter(|t| t.name == "body").count(), 2);
    }

    /// The head subtree answers exactly what an ancestor walk answers.
    #[test]
    fn inside_head_matches_the_ancestor_walk() {
        for page in [
            "<head><meta http-equiv=a><base href=x><title>t</title></head><body><meta http-equiv=b>",
            "<meta http-equiv=a><div><base href=y><p><meta http-equiv=c>",
            "<html><head><noscript><meta http-equiv=d></noscript></head><svg><base>",
            "<title>t</title><template><meta http-equiv=e></template><body><base>",
        ] {
            let cx = CheckContext::new(page);
            let dom = &cx.parse.dom;
            for id in dom.descendants(dom.root()) {
                let walk = dom.ancestors(id).any(|a| dom.is_html(a, "head"));
                assert_eq!(cx.inside_head(id), walk, "node {id:?} of {page:?}");
            }
        }
        let cx = CheckContext::fragment("<meta http-equiv=a><base>", "div");
        let dom = &cx.parse.dom;
        assert!(dom.descendants(dom.root()).all(|id| !cx.inside_head(id)));
    }

    #[test]
    fn excerpt_clamps_and_escapes() {
        let cx = CheckContext::new("ab\ncd");
        assert_eq!(cx.excerpt(0, 10), "ab\\ncd");
        assert_eq!(cx.excerpt(3, 1), "c…");
        assert_eq!(cx.excerpt(99, 5), "");
    }

    /// The resumable cursor must be invisible: monotone, repeated, and
    /// backwards offsets (and multi-byte chars) all produce exactly what
    /// the old `chars().skip(offset)` formula produced.
    #[test]
    fn excerpt_cursor_matches_naive_skip_in_any_order() {
        let doc = "å<p>\nüñî\ncode</p>🦀 tail";
        let cx = CheckContext::new(doc);
        let naive = |offset: usize, len: usize| {
            let mut iter = doc.chars().skip(offset);
            let mut s = String::new();
            for _ in 0..len {
                match iter.next() {
                    Some('\n') => s.push_str("\\n"),
                    Some(c) => s.push(c),
                    None => return s,
                }
            }
            if iter.next().is_some() {
                s.push('…');
            }
            s
        };
        // Forward, repeated, backwards, at-end, past-end.
        for (off, len) in [(0, 4), (2, 3), (2, 3), (7, 5), (1, 2), (16, 10), (18, 1), (40, 3)] {
            assert_eq!(cx.excerpt(off, len), naive(off, len), "offset {off} len {len}");
        }
    }
}
