//! The stack of open elements (§13.2.4.3), indexed.
//!
//! The tree builder asks the stack the same few questions for almost every
//! token: is an element in (button, list-item, table, select) scope, is a
//! node on the stack, where does the `li`/`dd`/`dt` search stop, which
//! element decides the insertion mode. Answered by walking down from the
//! top, those questions made parsing quadratic on exactly the pages the
//! paper counts — markup that never closes its elements keeps the stack
//! deep. [`OpenElements`] owns every push, pop and mid-stack edit and keeps
//! four things current, so that each question compares a few indices:
//!
//! * the class bits of each entry ([`Class`]), computed once per name from
//!   a table over the static atoms;
//! * the topmost stack index of each HTML element name — static names in a
//!   table indexed by atom id, dynamic names through a map — with a link
//!   from every entry to the next lower entry of the same name;
//! * the same for SVG and MathML elements, keyed by the ASCII-lowercase
//!   spelling of their names (what a foreign end tag matches against), in
//!   a table of their own, so that the HTML scope questions never see
//!   them;
//! * per class, the stack of its entries, kept as links: every entry
//!   records, per class, the nearest entry of that class at or below it,
//!   so the top entry holds the topmost one of each class and a pop
//!   uncovers the one beneath;
//! * an on-stack flag per node.
//!
//! "`x` is in scope" is then "the topmost `x` sits at or above the topmost
//! scope boundary", and a foreign end tag closes the topmost foreign
//! element of its name if that sits above the topmost HTML element.
//! Boundaries the spec defines by a few names (button,
//! list-item and table scope add `button`, `ol`/`ul` and
//! `html`/`table`/`template`; the mode-setting elements of "reset the
//! insertion mode") come from the name index, so only four classes carry
//! links. A push copies the links of the entry below it and a pop restores
//! one name slot; typical pages, whose stacks stay shallow, do not pay for
//! the index. An edit in the middle of the stack (the adoption agency, a
//! misplaced `</form>`, late head content) lifts the entries above the
//! edit point and pushes them back, which costs what shifting them in a
//! plain `Vec` cost before.

use crate::atoms::{atom, known_id, Atom, STATIC_ATOMS};
use crate::dom::{Document, Namespace, NodeId};
use crate::recycle::{self, StackTables};
use crate::tags;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A class of stack entries. The first [`LINKED`] classes carry links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Boundary of the default scope: HTML applet, caption, html, table,
    /// td, th, marquee, object, template; MathML mi, mo, mn, ms, mtext,
    /// annotation-xml; SVG foreignObject, desc, title.
    Scope,
    /// Boundary of select scope: every HTML element except optgroup and
    /// option (foreign elements are transparent).
    SelectScope,
    /// An HTML element in the spec's special category.
    Special,
    /// Where the `li`/`dd`/`dt` start-tag search stops: an HTML special
    /// element other than address, div and p, or any foreign element.
    ListSearchStop,
    /// An SVG or MathML element.
    Foreign,
}

/// Classes with a per-entry link to their nearest member.
const LINKED: usize = 4;

impl Class {
    #[inline]
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// Class bits of an element, from the spec's lists.
fn classify(ns: Namespace, name: &str) -> u8 {
    use Class::*;
    match ns {
        Namespace::Html => {
            let mut bits = 0;
            if matches!(
                name,
                "applet"
                    | "caption"
                    | "html"
                    | "table"
                    | "td"
                    | "th"
                    | "marquee"
                    | "object"
                    | "template"
            ) {
                bits |= Scope.bit();
            }
            if !matches!(name, "optgroup" | "option") {
                bits |= SelectScope.bit();
            }
            if tags::is_special(name) {
                bits |= Special.bit();
                if !matches!(name, "address" | "div" | "p") {
                    bits |= ListSearchStop.bit();
                }
            }
            bits
        }
        Namespace::MathMl => {
            let boundary = matches!(name, "mi" | "mo" | "mn" | "ms" | "mtext" | "annotation-xml");
            Foreign.bit() | ListSearchStop.bit() | if boundary { Scope.bit() } else { 0 }
        }
        Namespace::Svg => {
            let boundary = matches!(name, "foreignObject" | "desc" | "title");
            Foreign.bit() | ListSearchStop.bit() | if boundary { Scope.bit() } else { 0 }
        }
    }
}

/// Class bits per static atom id, per namespace (see [`ns_index`]).
type ClassTable = [[u8; 3]];

/// [`classify`] over every static atom, computed once.
fn class_table() -> &'static ClassTable {
    static TABLE: OnceLock<Box<ClassTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let spaces = [Namespace::Html, Namespace::Svg, Namespace::MathMl];
        STATIC_ATOMS.iter().map(|name| spaces.map(|ns| classify(ns, name))).collect()
    })
}

#[inline]
fn ns_index(ns: Namespace) -> usize {
    match ns {
        Namespace::Html => 0,
        Namespace::Svg => 1,
        Namespace::MathMl => 2,
    }
}

/// Per static atom id, the id of the atom's ASCII-lowercase spelling, or
/// `u16::MAX` when that spelling is not a static atom; computed once.
fn lowercase_ids() -> &'static [u16] {
    static TABLE: OnceLock<Box<[u16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let id = |name: &str| Atom::from_name(&name.to_ascii_lowercase()).static_id();
        STATIC_ATOMS.iter().map(|name| id(name).map_or(u16::MAX, |i| i as u16)).collect()
    })
}

/// Name keys the name table starts out with: the HTML element names,
/// which open the static atom table (`xmp` is the last of them). Other
/// keys grow the table on first push.
const HTML_KEYS: usize = known_id("xmp") as usize + 1;

/// One stack entry: the node, its classes and its links.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    node: NodeId,
    /// Name key (static atom id, or a dynamic slot): of the name for an
    /// HTML element, of its ASCII-lowercase spelling for a foreign one.
    key: u32,
    /// 1 + index of the next lower entry with the same key, 0 if none.
    below: u32,
    /// Per linked class: 1 + index of the nearest entry of that class at
    /// or below this one, 0 if none.
    nearest: [u32; LINKED],
    class: u8,
}

/// The stack of open elements with its index (see the module docs).
pub(crate) struct OpenElements {
    entries: Vec<Entry>,
    /// Per name key: 1 + index of the topmost HTML element of that name,
    /// 0 if none is open (keys past the end: none). Static atom ids come
    /// first, dynamic slots after; it grows to the largest key pushed.
    top: Vec<u32>,
    /// Per name key: 1 + index of the topmost SVG or MathML element whose
    /// lowercased name has that key, 0 if none is open. Grows on push.
    foreign_top: Vec<u32>,
    /// Name keys of names outside the static table, by first push (both
    /// tables number them alike). The names come from the page, so the
    /// map keeps the default (collision-resistant) hasher.
    dynamic: HashMap<Atom, u32>,
    /// 1 + index of the bottom-most foreign entry, 0 if none.
    outermost_foreign: u32,
    /// Per node id, one bit: whether the node is on the stack.
    on_stack: Vec<u64>,
    /// Entries lifted off during a mid-stack edit (a reused buffer).
    lifted: Vec<Entry>,
    classes: &'static ClassTable,
    lowercase: &'static [u16],
}

impl OpenElements {
    /// An empty stack, on the thread's spare tables (see
    /// [`crate::recycle`]).
    pub(crate) fn new() -> Self {
        let StackTables { entries, mut top, foreign_top, on_stack } = recycle::take_stack();
        top.resize(HTML_KEYS, 0);
        OpenElements {
            entries,
            top,
            foreign_top,
            dynamic: HashMap::new(),
            outermost_foreign: 0,
            on_stack,
            lifted: Vec::new(),
            classes: class_table(),
            lowercase: lowercase_ids(),
        }
    }

    // ----- reading -----

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The node at stack index `i` (0 is the bottom).
    pub(crate) fn get(&self, i: usize) -> Option<NodeId> {
        self.entries.get(i).map(|e| e.node)
    }

    /// The current node.
    pub(crate) fn last(&self) -> Option<NodeId> {
        self.entries.last().map(|e| e.node)
    }

    /// The bottom-most node (the `html` element).
    pub(crate) fn first(&self) -> Option<NodeId> {
        self.entries.first().map(|e| e.node)
    }

    /// The nodes, bottom to top.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.entries.iter().map(|e| e.node)
    }

    /// Whether the current node belongs to `class`.
    #[inline]
    pub(crate) fn top_is(&self, class: Class) -> bool {
        self.entries.last().is_some_and(|e| e.class & class.bit() != 0)
    }

    /// Whether the entry at stack index `i` belongs to `class`.
    pub(crate) fn is(&self, i: usize, class: Class) -> bool {
        self.entries[i].class & class.bit() != 0
    }

    /// Whether `node` is on the stack.
    #[inline]
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        self.on_stack.get(i >> 6).is_some_and(|w| w & (1 << (i & 63)) != 0)
    }

    /// Stack index of `node`, searching down from the top (O(1) when the
    /// node is not on the stack).
    pub(crate) fn rposition(&self, node: NodeId) -> Option<usize> {
        if !self.contains(node) {
            return None;
        }
        self.entries.iter().rposition(|e| e.node == node)
    }

    /// Stack index of the topmost entry in `class` (a linked class).
    #[inline]
    pub(crate) fn top_of(&self, class: Class) -> Option<usize> {
        debug_assert!((class as usize) < LINKED, "{class:?} carries no links");
        let nearest = self.entries.last()?.nearest[class as usize];
        nearest.checked_sub(1).map(|i| i as usize)
    }

    /// Stack index of the bottom-most SVG or MathML element.
    pub(crate) fn outermost_foreign(&self) -> Option<usize> {
        self.outermost_foreign.checked_sub(1).map(|i| i as usize)
    }

    fn key_of(&self, name: &Atom) -> Option<u32> {
        match name.static_id() {
            Some(id) => Some(id as u32),
            None => self.dynamic.get(name).copied(),
        }
    }

    /// Stack index of the topmost HTML element named `name`.
    #[inline]
    pub(crate) fn topmost(&self, name: &Atom) -> Option<usize> {
        let key = self.key_of(name)?;
        self.top.get(key as usize)?.checked_sub(1).map(|i| i as usize)
    }

    /// Stack index of the topmost HTML element: the topmost boundary of
    /// select scope (every HTML element but `optgroup` and `option`) or
    /// one of those two.
    pub(crate) fn topmost_html(&self) -> Option<usize> {
        let options = self.topmost(&atom!("optgroup")).max(self.topmost(&atom!("option")));
        self.top_of(Class::SelectScope).max(options)
    }

    /// Stack index of the topmost SVG or MathML element whose name matches
    /// `name` ASCII case-insensitively.
    pub(crate) fn topmost_foreign(&self, name: &Atom) -> Option<usize> {
        let key = self.key_of(&self.lowercased(name))?;
        self.foreign_top.get(key as usize)?.checked_sub(1).map(|i| i as usize)
    }

    /// `name` spelled in ASCII lowercase.
    fn lowercased(&self, name: &Atom) -> Atom {
        let lower = match name.static_id() {
            Some(id) => self.lowercase[id],
            None if !name.bytes().any(|b| b.is_ascii_uppercase()) => return name.clone(),
            None => u16::MAX,
        };
        match lower {
            u16::MAX => Atom::from_name(&name.to_ascii_lowercase()),
            id => Atom::from_static_id(id),
        }
    }

    /// Whether an HTML element named `name` is on the stack.
    pub(crate) fn has_element(&self, name: &Atom) -> bool {
        self.topmost(name).is_some()
    }

    /// Stack index of the topmost HTML element named `name` below stack
    /// index `limit`. Follows the same-name links down from the topmost
    /// one, so it costs one step per such element at or above `limit`.
    pub(crate) fn topmost_below(&self, name: &Atom, limit: usize) -> Option<usize> {
        let mut i = self.topmost(name)?;
        while i >= limit {
            i = (self.entries[i].below as usize).checked_sub(1)?;
        }
        Some(i)
    }

    /// Stack index of the topmost element that decides the mode in "reset
    /// the insertion mode appropriately".
    pub(crate) fn top_mode_setter(&self) -> Option<usize> {
        [
            atom!("select"),
            atom!("td"),
            atom!("th"),
            atom!("tr"),
            atom!("tbody"),
            atom!("thead"),
            atom!("tfoot"),
            atom!("caption"),
            atom!("colgroup"),
            atom!("table"),
            atom!("head"),
            atom!("body"),
            atom!("frameset"),
            atom!("html"),
        ]
        .iter()
        .filter_map(|name| self.topmost(name))
        .max()
    }

    /// Whether the topmost HTML element named `name` sits at or above the
    /// topmost scope boundary that `boundary` finds (an element that is its
    /// own boundary is in scope, as in the spec's walk, which tests the
    /// name first). The boundary is only looked up when `name` is open.
    /// Boundaries combine with `Option::max`, where `None` (no such
    /// element open) is below every position.
    #[inline]
    fn in_scope_under(&self, name: &Atom, boundary: impl FnOnce() -> Option<usize>) -> bool {
        match self.topmost(name) {
            Some(t) => match boundary() {
                Some(b) => t >= b,
                None => true,
            },
            None => false,
        }
    }

    /// "Has an element in scope" (§13.2.4.2).
    pub(crate) fn in_scope(&self, name: &Atom) -> bool {
        self.in_scope_under(name, || self.top_of(Class::Scope))
    }

    /// "In button scope": the default boundaries plus `button`.
    pub(crate) fn in_button_scope(&self, name: &Atom) -> bool {
        self.in_scope_under(name, || self.top_of(Class::Scope).max(self.topmost(&atom!("button"))))
    }

    /// "In list item scope": the default boundaries plus `ol` and `ul`.
    pub(crate) fn in_list_item_scope(&self, name: &Atom) -> bool {
        self.in_scope_under(name, || {
            let lists = self.topmost(&atom!("ol")).max(self.topmost(&atom!("ul")));
            self.top_of(Class::Scope).max(lists)
        })
    }

    /// "In table scope": `html`, `table` and `template` are the boundaries.
    pub(crate) fn in_table_scope(&self, name: &Atom) -> bool {
        self.in_scope_under(name, || {
            let tables = self.topmost(&atom!("table")).max(self.topmost(&atom!("template")));
            self.topmost(&atom!("html")).max(tables)
        })
    }

    /// "In select scope": everything but `optgroup` and `option` bounds it.
    pub(crate) fn in_select_scope(&self, name: &Atom) -> bool {
        self.in_scope_under(name, || self.top_of(Class::SelectScope))
    }

    // ----- pushing and popping -----

    /// Push `node`, an element of `doc`.
    #[inline(always)]
    pub(crate) fn push(&mut self, doc: &Document, node: NodeId) {
        let e = doc.element(node).expect("only elements go on the stack of open elements");
        let class = match e.name.static_id() {
            Some(id) => self.classes[id][ns_index(e.ns)],
            None => classify(e.ns, &e.name),
        };
        let key = match e.ns {
            Namespace::Html => self.key(&e.name),
            _ => self.key(&self.lowercased(&e.name)),
        };
        self.push_entry(node, key, class);
    }

    /// The key of `name`, numbering it on first use.
    fn key(&mut self, name: &Atom) -> u32 {
        match name.static_id() {
            Some(id) => id as u32,
            None => self.dynamic_key(name),
        }
    }

    fn dynamic_key(&mut self, name: &Atom) -> u32 {
        if let Some(&key) = self.dynamic.get(name) {
            return key;
        }
        let key = (STATIC_ATOMS.len() + self.dynamic.len()) as u32;
        self.dynamic.insert(name.clone(), key);
        key
    }

    #[inline(always)]
    fn push_entry(&mut self, node: NodeId, key: u32, class: u8) {
        let i = self.entries.len() as u32;
        debug_assert!(!self.contains(node), "a node is on the stack at most once");
        let top = self.top_table(class);
        if key as usize >= top.len() {
            top.resize(key as usize + 1, 0);
        }
        let below = std::mem::replace(&mut top[key as usize], i + 1);
        let mut nearest = self.entries.last().map_or([0; LINKED], |e| e.nearest);
        for (c, link) in nearest.iter_mut().enumerate() {
            if class & (1 << c) != 0 {
                *link = i + 1;
            }
        }
        if class & Class::Foreign.bit() != 0 && self.outermost_foreign == 0 {
            self.outermost_foreign = i + 1;
        }
        let (word, bit) = (node.index() >> 6, 1u64 << (node.index() & 63));
        if word >= self.on_stack.len() {
            self.on_stack.resize(word + 1, 0);
        }
        self.on_stack[word] |= bit;
        self.entries.push(Entry { node, key, below, nearest, class });
    }

    /// The topmost-entry table an entry of `class` is indexed in.
    #[inline(always)]
    fn top_table(&mut self, class: u8) -> &mut Vec<u32> {
        if class & Class::Foreign.bit() != 0 {
            &mut self.foreign_top
        } else {
            &mut self.top
        }
    }

    /// Pop the current node.
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<NodeId> {
        let e = self.entries.pop()?;
        self.top_table(e.class)[e.key as usize] = e.below;
        if self.outermost_foreign as usize > self.entries.len() {
            self.outermost_foreign = 0;
        }
        self.on_stack[e.node.index() >> 6] &= !(1u64 << (e.node.index() & 63));
        Some(e.node)
    }

    /// Pop through (and including) the topmost HTML element named `name`
    /// (the whole stack when there is none).
    pub(crate) fn pop_through(&mut self, name: &Atom) {
        self.truncate(self.topmost(name).unwrap_or(0));
    }

    /// Pop until `len` entries remain.
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.entries.len() > len {
            self.pop();
        }
    }

    // ----- mid-stack edits -----

    /// Pop the entries at `at` and above into the lift buffer.
    fn lift(&mut self, at: usize) {
        while self.entries.len() > at {
            let e = *self.entries.last().expect("len checked");
            self.pop();
            self.lifted.push(e);
        }
    }

    /// Push back everything [`Self::lift`] took, re-deriving its indices.
    fn restore(&mut self) {
        while let Some(e) = self.lifted.pop() {
            self.push_entry(e.node, e.key, e.class);
        }
    }

    /// Remove the entry at stack index `i`.
    pub(crate) fn remove(&mut self, i: usize) -> NodeId {
        self.lift(i + 1);
        let node = self.pop().expect("index in bounds");
        self.restore();
        node
    }

    /// Remove `node` if it is on the stack; returns whether it was.
    pub(crate) fn remove_node(&mut self, node: NodeId) -> bool {
        match self.rposition(node) {
            Some(i) => {
                self.remove(i);
                true
            }
            None => false,
        }
    }

    /// Insert `node`, an element of `doc`, at stack index `i`.
    pub(crate) fn insert(&mut self, doc: &Document, i: usize, node: NodeId) {
        self.lift(i);
        self.push(doc, node);
        self.restore();
    }

    /// Replace the entry at stack index `i` with `node`, an element of `doc`.
    pub(crate) fn replace(&mut self, doc: &Document, i: usize, node: NodeId) {
        self.lift(i + 1);
        self.pop();
        self.push(doc, node);
        self.restore();
    }
}

impl Drop for OpenElements {
    fn drop(&mut self) {
        recycle::give_stack(StackTables {
            entries: std::mem::take(&mut self.entries),
            top: std::mem::take(&mut self.top),
            foreign_top: std::mem::take(&mut self.foreign_top),
            on_stack: std::mem::take(&mut self.on_stack),
        });
    }
}

impl std::ops::Index<usize> for OpenElements {
    type Output = NodeId;

    fn index(&self, i: usize) -> &NodeId {
        &self.entries[i].node
    }
}

#[cfg(test)]
impl OpenElements {
    /// Recompute the whole index from the entries and compare.
    pub(crate) fn assert_consistent(&self, doc: &Document) {
        let mut top = vec![0u32; self.top.len()];
        let mut foreign_top = vec![0u32; self.foreign_top.len()];
        let mut nearest = [0u32; LINKED];
        let mut outermost_foreign = 0;
        for (i, e) in self.entries.iter().enumerate() {
            let el = doc.element(e.node).expect("stack entries are elements");
            assert_eq!(e.class, classify(el.ns, &el.name), "class bits of entry {i}");
            let (name, top) = if el.ns == Namespace::Html {
                (el.name.clone(), &mut top)
            } else {
                if outermost_foreign == 0 {
                    outermost_foreign = i as u32 + 1;
                }
                (Atom::from_name(&el.name.to_ascii_lowercase()), &mut foreign_top)
            };
            assert_eq!(Some(e.key), self.key_of(&name), "name key of entry {i}");
            assert_eq!(e.below, top[e.key as usize], "same-name link of entry {i}");
            top[e.key as usize] = i as u32 + 1;
            for (c, link) in nearest.iter_mut().enumerate() {
                if e.class & (1 << c) != 0 {
                    *link = i as u32 + 1;
                }
            }
            assert_eq!(e.nearest, nearest, "class links of entry {i}");
        }
        assert_eq!(top, self.top, "topmost index per name");
        assert_eq!(foreign_top, self.foreign_top, "topmost foreign index per lowercased name");
        assert_eq!(outermost_foreign, self.outermost_foreign, "outermost foreign entry");
        for (word_index, &word) in self.on_stack.iter().enumerate() {
            for bit in 0..64 {
                let node = word_index * 64 + bit;
                let on = self.entries.iter().any(|e| e.node.index() == node);
                assert_eq!(word & (1 << bit) != 0, on, "on-stack flag of node {node}");
            }
        }
        assert!(self.lifted.is_empty(), "a mid-stack edit left entries lifted");
    }
}
