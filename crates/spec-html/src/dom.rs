//! Arena-based DOM.
//!
//! Nodes live in a flat `Vec` indexed by [`NodeId`]; tree structure is
//! expressed with parent/child/sibling links. This keeps the tree builder's
//! frequent structural edits (foster parenting moves nodes *mid-stream*,
//! the adoption agency re-parents whole ranges) cheap and safe without
//! reference counting.
//!
//! A [`Node`] is 28 bytes and owns nothing: five four-byte links, its
//! kind and the index of its payload in one of the document's side
//! vectors. An element's payload ([`Element`]: name, namespace, attribute
//! range, source offset) sits in the element vector, a text or comment
//! node's string in the text vector (one `String` per node, so merging
//! text into a node is still one `push_str`), a doctype in its own vector.
//! Payloads are only appended: a writer that changes one element's
//! attributes appends a new payload for that element, so several elements
//! can share one. Formatting reconstruction relies on that: a re-created
//! copy has exactly the name, attributes and source offset of its entry's
//! element, so it points at that element's payload instead of repeating
//! it, and the Θ(k²) copies of `<i class=cN><p>x` cost one node each.
//!
//! Attribute lists sit in the document's one attribute arena, each an
//! [`AttrRange`]: the tokenizer writes each start tag's list there once,
//! and the element and whoever keeps the tag hold its range. When a
//! document drops, its node vector, element payloads, text strings and
//! attribute arena go back to its thread's store of spare parse buffers
//! (`crate::recycle`), a node vector too large for that store to the one
//! large spare all threads share; the nodes need no walk to be freed.

use crate::atoms::Atom;
use crate::recycle;
use crate::tokenizer::Attr;
use std::fmt;
use std::num::NonZeroU32;

// Every byte is paid per element, and reconstruction can build Θ(k²) of them.
const _: () = assert!(size_of::<Node>() <= 28);

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
/// start tag's list into the arena once; the element built from the tag
/// and whoever keeps the tag hold the same eight-byte range. A writer that
/// changes one element's list writes a new range for it, so the others
/// keep theirs.
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

/// Element payload. Several elements can share one (see the module docs).
#[derive(Debug, Clone)]
pub struct Element {
    /// Tag name. Lowercase for HTML; foreign elements keep their adjusted
    /// case (`foreignObject`, `clipPath`, …).
    pub name: Atom,
    pub ns: Namespace,
    /// Read through [`Document::attrs`].
    pub attrs: AttrRange,
    /// Character offset of the `<` of the start tag that created this
    /// element (0 for implied elements and adoption-agency clones).
    pub src_offset: usize,
}

/// Index of an element payload in its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Payload(u32);

/// A DOCTYPE node's payload.
#[derive(Debug, Clone)]
pub struct Doctype {
    pub name: String,
    pub public_id: String,
    pub system_id: String,
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    Document,
    Doctype,
    Element,
    Text,
    Comment,
}

/// A node's payload, borrowed from its document ([`Document::data`]).
#[derive(Debug, Clone, Copy)]
pub enum NodeData<'a> {
    Document,
    Doctype(&'a Doctype),
    Element(&'a Element),
    Text(&'a str),
    Comment(&'a str),
}

/// A node: tree links, plus its kind and the index of its payload in the
/// document's side vector for that kind.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub parent: Option<NodeId>,
    pub first_child: Option<NodeId>,
    pub last_child: Option<NodeId>,
    pub prev_sibling: Option<NodeId>,
    pub next_sibling: Option<NodeId>,
    kind: NodeKind,
    payload: u32,
}

/// The DOM tree arena. `Document::default()` starts with the document node
/// at [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Element payloads, only appended.
    elements: Vec<Element>,
    /// One string per text or comment node.
    texts: Vec<String>,
    doctypes: Vec<Doctype>,
    /// Every attribute list of the document, each an [`AttrRange`]. Lists
    /// are only appended: a list that changes is written again at the end.
    pub(crate) attrs: Vec<Attr>,
}

/// Starts from the thread's spare vectors (see [`crate::recycle`]).
impl Default for Document {
    fn default() -> Self {
        let mut doc = Document {
            nodes: recycle::take_nodes(),
            elements: recycle::take_elements(),
            texts: recycle::take_text_nodes(),
            doctypes: Vec::new(),
            attrs: recycle::take_attrs(),
        };
        doc.push_node(NodeKind::Document, 0);
        doc
    }
}

/// The vectors go back to the thread's store, the text strings as spare
/// text-run buffers.
impl Drop for Document {
    fn drop(&mut self) {
        recycle::give_nodes(std::mem::take(&mut self.nodes));
        recycle::give_elements(std::mem::take(&mut self.elements));
        recycle::give_text_nodes(std::mem::take(&mut self.texts));
        recycle::give_attrs(std::mem::take(&mut self.attrs));
    }
}

/// The index `len` of a side vector, as a node's payload.
fn payload_index(len: usize) -> u32 {
    u32::try_from(len).expect("DOM payload index fits in u32")
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

    /// What `id` is, with its payload.
    pub fn data(&self, id: NodeId) -> NodeData<'_> {
        let node = self.node(id);
        let i = node.payload as usize;
        match node.kind {
            NodeKind::Document => NodeData::Document,
            NodeKind::Doctype => NodeData::Doctype(&self.doctypes[i]),
            NodeKind::Element => NodeData::Element(&self.elements[i]),
            NodeKind::Text => NodeData::Text(&self.texts[i]),
            NodeKind::Comment => NodeData::Comment(&self.texts[i]),
        }
    }

    /// Create a detached node.
    fn push_node(&mut self, kind: NodeKind, payload: u32) -> NodeId {
        if self.nodes.len() == self.nodes.capacity() {
            self.grow_nodes();
        }
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            kind,
            payload,
        });
        id
    }

    /// Make room for one more node: past the size a thread keeps, in the
    /// process's large spare vector when that is larger, the smaller
    /// vector going back to the thread's store.
    #[cold]
    fn grow_nodes(&mut self) {
        match recycle::take_large_nodes(self.nodes.capacity()) {
            Some(mut large) => {
                large.extend_from_slice(&self.nodes);
                recycle::give_nodes(std::mem::replace(&mut self.nodes, large));
            }
            None => self.nodes.reserve(1),
        }
    }

    /// Create a detached text node owning `text`.
    fn create_text(&mut self, text: String) -> NodeId {
        self.push_text(NodeKind::Text, text)
    }

    /// Create a detached comment node owning `text`.
    pub(crate) fn create_comment(&mut self, text: String) -> NodeId {
        self.push_text(NodeKind::Comment, text)
    }

    fn push_text(&mut self, kind: NodeKind, text: String) -> NodeId {
        let payload = payload_index(self.texts.len());
        self.texts.push(text);
        self.push_node(kind, payload)
    }

    /// Create a detached doctype node.
    pub(crate) fn create_doctype(&mut self, doctype: Doctype) -> NodeId {
        let payload = payload_index(self.doctypes.len());
        self.doctypes.push(doctype);
        self.push_node(NodeKind::Doctype, payload)
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
        let payload = self.push_payload(Element { name: name.into(), ns, attrs, src_offset });
        self.push_node(NodeKind::Element, payload.0)
    }

    fn push_payload(&mut self, element: Element) -> Payload {
        let payload = Payload(payload_index(self.elements.len()));
        self.elements.push(element);
        payload
    }

    /// Create a detached element sharing `payload`: the same name,
    /// namespace, attributes and source offset.
    pub(crate) fn create_sharing(&mut self, payload: Payload) -> NodeId {
        self.push_node(NodeKind::Element, payload.0)
    }

    /// The payload element `id` reads, if it is an element.
    pub(crate) fn payload_of(&self, id: NodeId) -> Option<Payload> {
        let node = self.node(id);
        (node.kind == NodeKind::Element).then_some(Payload(node.payload))
    }

    /// The element payload at `payload`.
    pub(crate) fn payload(&self, payload: Payload) -> &Element {
        &self.elements[payload.0 as usize]
    }

    /// Give element `id` the attributes `range`, in a payload of its own,
    /// so the elements that shared its payload keep their list.
    pub(crate) fn set_attrs(&mut self, id: NodeId, range: AttrRange) {
        let Some(e) = self.element(id) else { return };
        let element = Element { attrs: range, ..e.clone() };
        let payload = self.push_payload(element);
        self.node_mut(id).payload = payload.0;
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
    /// that loses one is written as a new range, in a new payload for `id`
    /// alone; one that loses none keeps its range.
    pub fn retain_attrs(&mut self, id: NodeId, mut keep: impl FnMut(&Attr) -> bool) {
        let Some(range) = self.element(id).map(|e| e.attrs) else { return };
        let kept: Vec<Attr> = self.attrs(range).iter().filter(|a| keep(a)).cloned().collect();
        if kept.len() < range.len() {
            let range = self.push_attrs(kept);
            self.set_attrs(id, range);
        }
    }

    /// Element payload of `id`, if it is an element.
    pub fn element(&self, id: NodeId) -> Option<&Element> {
        self.payload_of(id).map(|p| self.payload(p))
    }

    /// The string of text node `id`, if it is one.
    fn text(&self, id: NodeId) -> Option<&str> {
        let node = self.node(id);
        (node.kind == NodeKind::Text).then(|| self.texts[node.payload as usize].as_str())
    }

    fn text_mut(&mut self, id: NodeId) -> Option<&mut String> {
        let node = *self.node(id);
        (node.kind == NodeKind::Text).then(|| &mut self.texts[node.payload as usize])
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
            if let Some(s) = self.text_mut(last) {
                s.push_str(&text);
                return;
            }
        }
        let t = self.create_text(text);
        self.append(parent, t);
    }

    /// Insert text immediately before `sibling`, merging with the previous
    /// text node when possible (used by foster parenting).
    pub fn insert_text_before(&mut self, sibling: NodeId, text: String) {
        if let Some(prev) = self.node(sibling).prev_sibling {
            if let Some(s) = self.text_mut(prev) {
                s.push_str(&text);
                return;
            }
        }
        let t = self.create_text(text);
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
        self.descendants(self.root()).filter(move |&id| self.node(id).kind == NodeKind::Element)
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
            total += self.text(d).map_or(0, str::len);
        }
        if total == 0 {
            return;
        }
        out.reserve(total);
        for d in self.descendants(id) {
            if let Some(s) = self.text(d) {
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

    /// Sanity-check structural invariants (used by property tests): every
    /// payload index is in range, sibling links are mutually consistent,
    /// parent links match child lists, and the tree is acyclic.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::from_index(i);
            let payloads = match node.kind {
                NodeKind::Document => usize::MAX,
                NodeKind::Doctype => self.doctypes.len(),
                NodeKind::Element => self.elements.len(),
                NodeKind::Text | NodeKind::Comment => self.texts.len(),
            };
            if node.payload as usize >= payloads {
                return Err(format!("{id:?} has payload {} of {payloads}", node.payload));
            }
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

    /// The end-to-end benchmark's formatting member of `bytes` bytes.
    fn formatting_page(bytes: usize) -> String {
        let mut s = String::from("<!DOCTYPE html><html><head><title>x</title></head><body>");
        let mut i = 0;
        while s.len() < bytes {
            s.push_str(&format!("<i class=c{i}><p>x"));
            i += 1;
        }
        s
    }

    /// The `<b>` or `<i>` elements of `dom`, in document order.
    fn named(dom: &Document, name: &str) -> Vec<NodeId> {
        dom.all_elements().filter(|&id| dom.is_html(id, name)).collect()
    }

    #[test]
    fn reconstructed_copies_share_their_entry_payload() {
        let out = crate::parse_document(&formatting_page(16_000));
        let dom = &out.dom;
        assert_eq!(dom.len(), 400_069);
        assert!(dom.elements.len() < 2_000, "{} payloads", dom.elements.len());
        // One payload per start tag and implied element: the copies add none.
        let elements = dom.all_elements().count();
        assert_eq!(elements, 399_174);
        let is = named(dom, "i");
        let offsets: std::collections::HashSet<_> =
            is.iter().map(|&id| dom.element(id).unwrap().src_offset).collect();
        assert_eq!(offsets.len(), dom.elements.iter().filter(|e| e.name == "i").count());
        dom.check_invariants().unwrap();
    }

    #[test]
    fn copies_carry_their_entry_offset_and_adoption_clones_zero() {
        // The second <p> closes the <b>, so "2" reconstructs it; </b> then
        // runs the adoption agency around the <button>.
        let out = crate::parse_document("<p><b class=x>1<p>2<button>3</b>4");
        let bs = named(&out.dom, "b");
        let offsets: Vec<_> = bs.iter().map(|&b| out.dom.element(b).unwrap().src_offset).collect();
        assert_eq!(offsets, [3, 3, 0]);
        assert_eq!(out.dom.payload_of(bs[0]), out.dom.payload_of(bs[1]));
        assert_ne!(out.dom.payload_of(bs[0]), out.dom.payload_of(bs[2]));
        assert!(bs.iter().all(|&b| out.dom.attr(b, "class") == Some("x")));

        // The inner loop clones <i> (offset 0); after </div></div> closes
        // the clone, "5" reconstructs the entry from the start tag's payload.
        let out = crate::parse_document("<div><b>1<i class=y>2<div>3</b>4</div></div>5");
        let is = named(&out.dom, "i");
        let offsets: Vec<_> = is.iter().map(|&i| out.dom.element(i).unwrap().src_offset).collect();
        assert_eq!(offsets, [9, 0, 9]);
        assert_eq!(out.dom.payload_of(is[0]), out.dom.payload_of(is[2]));
    }

    #[test]
    fn retain_attrs_on_one_copy_leaves_its_siblings_alone() {
        let mut out = crate::parse_document("<p><b class=x id=y>1<p>2<p>3");
        let bs = named(&out.dom, "b");
        assert_eq!(bs.len(), 3);
        let shared = out.dom.payload_of(bs[0]);
        assert!(bs.iter().all(|&b| out.dom.payload_of(b) == shared));
        out.dom.retain_attrs(bs[1], |a| a.name != "class");
        let names = |b: NodeId| -> Vec<String> {
            out.dom.element_attrs(b).iter().map(|a| a.name.to_string()).collect()
        };
        assert_eq!(names(bs[0]), ["class", "id"]);
        assert_eq!(names(bs[1]), ["id"]);
        assert_eq!(names(bs[2]), ["class", "id"]);
        assert_eq!(out.dom.payload_of(bs[2]), shared);
        assert_eq!(out.dom.element(bs[1]).unwrap().src_offset, 3);
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
