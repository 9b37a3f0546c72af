//! Arena-based DOM.
//!
//! Nodes live in a flat `Vec` indexed by [`NodeId`]; tree structure is
//! expressed with parent/child/sibling links. This keeps the tree builder's
//! frequent structural edits (foster parenting moves nodes *mid-stream*,
//! the adoption agency re-parents whole ranges) cheap and safe without
//! reference counting.
//!
//! A node is 64 bytes: four-byte links, a boxed doctype (rare, and large
//! unboxed), and an element's attributes as an eight-byte range
//! ([`AttrRange`]) of the document's one attribute arena. The tokenizer
//! writes each start tag's list into the arena once, and the element, the
//! copies formatting reconstruction re-creates from the tag and a kept tag
//! all hold its range, so none of them costs an allocation or a reference
//! count. Text nodes take the tokenizer's character runs the same way.
//! When a document drops, its node vector, text strings and attribute
//! arena go back to its thread's store of spare parse buffers
//! (`crate::recycle`), for the next parse to reuse.

use crate::atoms::Atom;
use crate::recycle;
use crate::tokenizer::Attr;
use std::fmt;
use std::num::NonZeroU32;

// Every byte is paid per element, and reconstruction can build Θ(k²) of them.
const _: () = assert!(size_of::<Node>() <= 64);

/// Index of a node in a [`Document`] arena. Stored as index + 1, so
/// `Option<NodeId>` is four bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// The id of the node at `index`. Panics past `u32::MAX - 1` nodes.
    pub(crate) fn from_index(index: usize) -> NodeId {
        u32::try_from(index)
            .ok()
            .and_then(|i| NonZeroU32::MIN.checked_add(i))
            .map(NodeId)
            .expect("DOM node index fits in u32")
    }

    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NodeId").field(&self.index()).finish()
    }
}

/// Element namespaces relevant to HTML parsing (§13.2.6.5): HTML, and the
/// two foreign content namespaces whose integration-point rules power the
/// paper's HF5 violations and mXSS payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Namespace {
    Html,
    Svg,
    MathMl,
}

impl fmt::Display for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Namespace::Html => "html",
            Namespace::Svg => "svg",
            Namespace::MathMl => "math",
        })
    }
}

/// An element's or a start tag's attributes: a range of its document's
/// attribute arena (see [`Document::attrs`]). The tokenizer writes each
/// start tag's list into the arena once; the element built from the tag,
/// every copy formatting reconstruction re-creates and whoever keeps the
/// tag hold the same eight-byte range. A writer that changes one element's
/// list writes a new range for it, so the others keep theirs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AttrRange {
    start: u32,
    len: u32,
}

impl AttrRange {
    /// The `len` attributes from `start`. Panics past `u32::MAX`.
    pub(crate) fn new(start: usize, len: usize) -> AttrRange {
        let fit = |n: usize| u32::try_from(n).expect("attribute arena index fits in u32");
        AttrRange { start: fit(start), len: fit(len) }
    }

    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    pub(crate) fn span(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// The first attribute of `list` named `name`.
pub(crate) fn find_attr<'a>(list: &'a [Attr], name: &str) -> Option<&'a Attr> {
    list.iter().find(|a| a.name == name)
}

/// Element payload.
#[derive(Debug, Clone)]
pub struct Element {
    /// Tag name. Lowercase for HTML; foreign elements keep their adjusted
    /// case (`foreignObject`, `clipPath`, …).
    pub name: Atom,
    pub ns: Namespace,
    /// Read through [`Document::attrs`].
    pub attrs: AttrRange,
    /// Character offset of the `<` of the start tag that created this
    /// element (0 for implied elements).
    pub src_offset: usize,
}

/// A DOCTYPE node's payload.
#[derive(Debug, Clone)]
pub struct Doctype {
    pub name: String,
    pub public_id: String,
    pub system_id: String,
}

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeData {
    Document,
    Doctype(Box<Doctype>),
    Element(Element),
    Text(String),
    Comment(String),
}

/// A node: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    pub data: NodeData,
    pub parent: Option<NodeId>,
    pub first_child: Option<NodeId>,
    pub last_child: Option<NodeId>,
    pub prev_sibling: Option<NodeId>,
    pub next_sibling: Option<NodeId>,
}

/// The DOM tree arena. `Document::default()` starts with the document node
/// at [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Every attribute list of the document, each an [`AttrRange`]. Lists
    /// are only appended: a list that changes is written again at the end.
    pub(crate) attrs: Vec<Attr>,
}

/// Starts from the thread's spare node vector and attribute arena (see
/// [`crate::recycle`]).
impl Default for Document {
    fn default() -> Self {
        let mut doc = Document { nodes: recycle::take_nodes(), attrs: recycle::take_attrs() };
        doc.create(NodeData::Document);
        doc
    }
}

/// The node vector, the text strings and the attribute arena go back to
/// the thread's store.
impl Drop for Document {
    fn drop(&mut self) {
        recycle::give_nodes(std::mem::take(&mut self.nodes));
        recycle::give_attrs(std::mem::take(&mut self.attrs));
    }
}

impl Document {
    pub fn new() -> Self {
        Self::default()
    }

    /// The document node.
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        // There is always a document node.
        false
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Create a detached node.
    pub fn create(&mut self, data: NodeData) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            data,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
        });
        id
    }

    pub fn create_element(
        &mut self,
        name: impl Into<Atom>,
        ns: Namespace,
        attrs: AttrRange,
    ) -> NodeId {
        self.create_element_at(name, ns, attrs, 0)
    }

    /// Create a detached element carrying its source offset.
    pub fn create_element_at(
        &mut self,
        name: impl Into<Atom>,
        ns: Namespace,
        attrs: AttrRange,
        src_offset: usize,
    ) -> NodeId {
        self.create(NodeData::Element(Element { name: name.into(), ns, attrs, src_offset }))
    }

    // ----- attributes -----

    /// The attributes `range` names: an element's list, or a start tag's
    /// from this document's parse.
    pub fn attrs(&self, range: AttrRange) -> &[Attr] {
        &self.attrs[range.span()]
    }

    /// The attributes of `id` (none unless it is an element).
    pub(crate) fn element_attrs(&self, id: NodeId) -> &[Attr] {
        self.element(id).map_or(&[], |e| self.attrs(e.attrs))
    }

    /// The value of attribute `name` on `id`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        find_attr(self.element_attrs(id), name).map(|a| a.value.as_str())
    }

    /// Write `list` as a new range at the end of the arena.
    pub(crate) fn push_attrs(&mut self, list: impl IntoIterator<Item = Attr>) -> AttrRange {
        let start = self.attrs.len();
        self.attrs.extend(list);
        AttrRange::new(start, self.attrs.len() - start)
    }

    /// A new range holding a copy of `range`, each attribute passed
    /// through `edit`.
    pub(crate) fn copy_attrs(
        &mut self,
        range: AttrRange,
        edit: impl FnMut(&mut Attr),
    ) -> AttrRange {
        let start = self.attrs.len();
        self.attrs.extend_from_within(range.span());
        self.attrs[start..].iter_mut().for_each(edit);
        AttrRange::new(start, range.len())
    }

    /// Keep the attributes of element `id` that `keep` accepts. A list
    /// that loses one is written as a new range; one that loses none keeps
    /// its range.
    pub fn retain_attrs(&mut self, id: NodeId, mut keep: impl FnMut(&Attr) -> bool) {
        let Some(range) = self.element(id).map(|e| e.attrs) else { return };
        let kept: Vec<Attr> = self.attrs(range).iter().filter(|a| keep(a)).cloned().collect();
        if kept.len() < range.len() {
            let range = self.push_attrs(kept);
            if let Some(e) = self.element_mut(id) {
                e.attrs = range;
            }
        }
    }

    /// Element payload of `id`, if it is an element.
    pub fn element(&self, id: NodeId) -> Option<&Element> {
        match &self.node(id).data {
            NodeData::Element(e) => Some(e),
            _ => None,
        }
    }

    pub fn element_mut(&mut self, id: NodeId) -> Option<&mut Element> {
        match &mut self.node_mut(id).data {
            NodeData::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Tag name of `id` if it is an HTML-namespace element.
    pub fn html_name(&self, id: NodeId) -> Option<&str> {
        self.element(id).filter(|e| e.ns == Namespace::Html).map(|e| e.name.as_str())
    }

    /// Whether `id` is an element with the given HTML-namespace name.
    pub fn is_html(&self, id: NodeId, name: &str) -> bool {
        self.html_name(id) == Some(name)
    }

    // ----- structural edits -----

    /// Detach `id` from its parent (no-op if already detached).
    pub fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let n = self.node(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if let Some(p) = prev {
            self.node_mut(p).next_sibling = next;
        } else if let Some(par) = parent {
            self.node_mut(par).first_child = next;
        }
        if let Some(nx) = next {
            self.node_mut(nx).prev_sibling = prev;
        } else if let Some(par) = parent {
            self.node_mut(par).last_child = prev;
        }
        let n = self.node_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
    }

    /// Append `child` as the last child of `parent`, detaching it first.
    pub fn append(&mut self, parent: NodeId, child: NodeId) {
        debug_assert_ne!(parent, child);
        self.detach(child);
        let last = self.node(parent).last_child;
        match last {
            Some(l) => {
                self.node_mut(l).next_sibling = Some(child);
                self.node_mut(child).prev_sibling = Some(l);
            }
            None => self.node_mut(parent).first_child = Some(child),
        }
        self.node_mut(parent).last_child = Some(child);
        self.node_mut(child).parent = Some(parent);
    }

    /// Insert `child` immediately before `sibling` (which must have a parent).
    pub fn insert_before(&mut self, sibling: NodeId, child: NodeId) {
        self.detach(child);
        let parent = self.node(sibling).parent.expect("insert_before target must be attached");
        let prev = self.node(sibling).prev_sibling;
        match prev {
            Some(p) => {
                self.node_mut(p).next_sibling = Some(child);
                self.node_mut(child).prev_sibling = Some(p);
            }
            None => self.node_mut(parent).first_child = Some(child),
        }
        self.node_mut(child).next_sibling = Some(sibling);
        self.node_mut(sibling).prev_sibling = Some(child);
        self.node_mut(child).parent = Some(parent);
    }

    /// Move all children of `from` onto the end of `to`.
    pub fn reparent_children(&mut self, from: NodeId, to: NodeId) {
        while let Some(c) = self.node(from).first_child {
            self.append(to, c);
        }
    }

    /// Append text, merging into a trailing text node if present (the spec's
    /// "insert a character" behaviour). A new text node owns `text`.
    pub fn append_text(&mut self, parent: NodeId, text: String) {
        if let Some(last) = self.node(parent).last_child {
            if let NodeData::Text(s) = &mut self.node_mut(last).data {
                s.push_str(&text);
                return;
            }
        }
        let t = self.create(NodeData::Text(text));
        self.append(parent, t);
    }

    /// Insert text immediately before `sibling`, merging with the previous
    /// text node when possible (used by foster parenting).
    pub fn insert_text_before(&mut self, sibling: NodeId, text: String) {
        if let Some(prev) = self.node(sibling).prev_sibling {
            if let NodeData::Text(s) = &mut self.node_mut(prev).data {
                s.push_str(&text);
                return;
            }
        }
        let t = self.create(NodeData::Text(text));
        self.insert_before(sibling, t);
    }

    // ----- queries -----

    /// Children of `id`, in order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, next: self.node(id).first_child }
    }

    /// All nodes under `id` in document (pre-)order, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, root: id, next: self.node(id).first_child }
    }

    /// Ancestor chain of `id`, nearest first, excluding `id` itself.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, next: self.node(id).parent }
    }

    /// All elements in the document, in document order.
    pub fn all_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(self.root())
            .filter(move |id| matches!(self.node(*id).data, NodeData::Element(_)))
    }

    /// First element with the given HTML name, in document order.
    pub fn find_html(&self, name: &str) -> Option<NodeId> {
        self.all_elements().find(|&id| self.is_html(id, name))
    }

    /// Concatenated text content under `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.text_content_into(id, &mut out);
        out
    }

    /// Concatenated text content under `id`, written into a caller-owned
    /// buffer (cleared first). Sizes the buffer in one cheap pre-pass, so a
    /// buffer reused across many nodes settles at the largest size seen and
    /// stops allocating.
    pub fn text_content_into(&self, id: NodeId, out: &mut String) {
        out.clear();
        let mut total = 0usize;
        for d in self.descendants(id) {
            if let NodeData::Text(s) = &self.node(d).data {
                total += s.len();
            }
        }
        if total == 0 {
            return;
        }
        out.reserve(total);
        for d in self.descendants(id) {
            if let NodeData::Text(s) = &self.node(d).data {
                out.push_str(s);
            }
        }
    }

    /// Whether `anc` is an ancestor of `id` (or equal to it).
    pub fn is_inclusive_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        if anc == id {
            return true;
        }
        self.ancestors(id).any(|a| a == anc)
    }

    /// Sanity-check structural invariants (used by property tests): sibling
    /// links are mutually consistent, parent links match child lists, and
    /// the tree is acyclic.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::from_index(i);
            let mut prev = None;
            let mut child = node.first_child;
            let mut seen = 0usize;
            while let Some(c) = child {
                let cn = self.node(c);
                if cn.parent != Some(id) {
                    return Err(format!("child {c:?} of {id:?} has wrong parent {:?}", cn.parent));
                }
                if cn.prev_sibling != prev {
                    return Err(format!("child {c:?} has inconsistent prev_sibling"));
                }
                prev = Some(c);
                child = cn.next_sibling;
                seen += 1;
                if seen > self.nodes.len() {
                    return Err("sibling cycle detected".into());
                }
            }
            if node.last_child != prev {
                return Err(format!("{id:?} last_child mismatch"));
            }
            // Acyclicity via ancestor walk.
            let mut hops = 0usize;
            let mut a = node.parent;
            while let Some(p) = a {
                hops += 1;
                if hops > self.nodes.len() {
                    return Err("parent cycle detected".into());
                }
                a = self.node(p).parent;
            }
        }
        Ok(())
    }
}

/// Iterator over a node's children.
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Pre-order descendant iterator.
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        // Compute successor: first child, else next sibling walking up, but
        // never escaping the subtree root.
        let node = self.doc.node(id);
        self.next = if let Some(c) = node.first_child {
            Some(c)
        } else {
            let mut cur = id;
            loop {
                if cur == self.root {
                    break None;
                }
                let n = self.doc.node(cur);
                if let Some(s) = n.next_sibling {
                    break Some(s);
                }
                match n.parent {
                    Some(p) => cur = p,
                    None => break None,
                }
            }
        };
        Some(id)
    }
}

/// Ancestor iterator (nearest first).
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).parent;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(doc: &mut Document, name: &str) -> NodeId {
        doc.create_element(name, Namespace::Html, AttrRange::default())
    }

    #[test]
    fn append_and_children() {
        let mut d = Document::new();
        let root = d.root();
        let a = elem(&mut d, "a");
        let b = elem(&mut d, "b");
        d.append(root, a);
        d.append(root, b);
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids, vec![a, b]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn insert_before_front_and_middle() {
        let mut d = Document::new();
        let root = d.root();
        let a = elem(&mut d, "a");
        let c = elem(&mut d, "c");
        d.append(root, a);
        d.append(root, c);
        let b = elem(&mut d, "b");
        d.insert_before(c, b);
        let front = elem(&mut d, "z");
        d.insert_before(a, front);
        let names: Vec<_> =
            d.children(root).map(|id| d.element(id).unwrap().name.clone()).collect();
        assert_eq!(names, vec!["z", "a", "b", "c"]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn detach_relinks_siblings() {
        let mut d = Document::new();
        let root = d.root();
        let a = elem(&mut d, "a");
        let b = elem(&mut d, "b");
        let c = elem(&mut d, "c");
        for id in [a, b, c] {
            d.append(root, id);
        }
        d.detach(b);
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids, vec![a, c]);
        assert!(d.node(b).parent.is_none());
        d.check_invariants().unwrap();
    }

    #[test]
    fn reparent_children_moves_all() {
        let mut d = Document::new();
        let root = d.root();
        let from = elem(&mut d, "from");
        let to = elem(&mut d, "to");
        d.append(root, from);
        d.append(root, to);
        for name in ["x", "y"] {
            let n = elem(&mut d, name);
            d.append(from, n);
        }
        d.reparent_children(from, to);
        assert_eq!(d.children(from).count(), 0);
        assert_eq!(d.children(to).count(), 2);
        d.check_invariants().unwrap();
    }

    #[test]
    fn append_text_merges() {
        let mut d = Document::new();
        let root = d.root();
        d.append_text(root, "foo".into());
        d.append_text(root, "bar".into());
        assert_eq!(d.children(root).count(), 1);
        assert_eq!(d.text_content(root), "foobar");
    }

    #[test]
    fn descendants_preorder() {
        let mut d = Document::new();
        let root = d.root();
        let a = elem(&mut d, "a");
        let b = elem(&mut d, "b");
        let c = elem(&mut d, "c");
        d.append(root, a);
        d.append(a, b);
        d.append(root, c);
        let order: Vec<_> = d.descendants(root).collect();
        assert_eq!(order, vec![a, b, c]);
        // Subtree iteration must not escape the root.
        let sub: Vec<_> = d.descendants(a).collect();
        assert_eq!(sub, vec![b]);
    }

    #[test]
    fn ancestors_walk() {
        let mut d = Document::new();
        let root = d.root();
        let a = elem(&mut d, "a");
        let b = elem(&mut d, "b");
        d.append(root, a);
        d.append(a, b);
        let anc: Vec<_> = d.ancestors(b).collect();
        assert_eq!(anc, vec![a, root]);
        assert!(d.is_inclusive_ancestor(a, b));
        assert!(!d.is_inclusive_ancestor(b, a));
    }

    #[test]
    fn find_html_by_name() {
        let mut d = Document::new();
        let root = d.root();
        let s = d.create_element("svg", Namespace::Svg, AttrRange::default());
        d.append(root, s);
        let p = elem(&mut d, "p");
        d.append(root, p);
        // The SVG element is not an HTML-namespace "svg".
        assert_eq!(d.find_html("svg"), None);
        assert_eq!(d.find_html("p"), Some(p));
    }
}
