//! The in-body `<html>` rule and the second-`<body>` merge (HF3): a
//! repeated tag adds the attributes its element lacks.
//!
//! A page can repeat the tag as often as it likes, and the element's list
//! grows with every merge. Rebuilt in the arena on each merge, the list
//! would cost Θ(k²) time and arena space over k merges. So each merge
//! target keeps its grown list outside the arena, with a name set once the
//! list is long, and the list is written to the arena once, when the parse
//! ends.

use super::{Builder, TreeEventKind};
use crate::atoms::Atom;
use crate::dom::{AttrRange, Document, NodeId};
use crate::tokenizer::{Attr, Tag};
use std::collections::HashSet;

/// The element a merge rule writes to: a slot of [`Builder::merged`].
#[derive(Clone, Copy)]
pub(crate) enum Target {
    Html = 0,
    Body = 1,
}

/// Lists longer than this find a name through a set, not a scan.
const INDEXED_FROM: usize = 16;

/// A merge target's attribute list, grown by merges. Until the parse
/// ends, the element's own range is stale: nothing but a merge reads the
/// html and body elements' attributes during the parse.
pub(crate) struct Merged {
    node: NodeId,
    list: Vec<Attr>,
    /// The names in `list`, once it is longer than [`INDEXED_FROM`].
    names: Option<HashSet<Atom>>,
}

impl Merged {
    fn has(&self, name: &Atom) -> bool {
        match &self.names {
            Some(names) => names.contains(name),
            None => self.list.iter().any(|a| a.name == *name),
        }
    }

    fn add(&mut self, attr: &Attr) {
        self.list.push(attr.clone());
        if let Some(names) = &mut self.names {
            names.insert(attr.name.clone());
        } else if self.list.len() > INDEXED_FROM {
            self.names = Some(self.list.iter().map(|a| a.name.clone()).collect());
        }
    }

    /// Write the list to `doc`'s arena as the element's range, if it grew.
    fn write(self, doc: &mut Document) {
        if self.list.len() > doc.element_attrs(self.node).len() {
            let range = doc.push_attrs(self.list);
            doc.set_attrs(self.node, range);
        }
    }
}

impl Builder {
    /// The in-body `<html>` rule: merge attributes the html element lacks.
    pub(crate) fn merge_html_attrs(&mut self, tag: &Tag) {
        if tag.attrs.is_empty() {
            return;
        }
        self.event(TreeEventKind::SecondHtmlMerged);
        if let Some(html) = self.open.first() {
            self.merge_attrs(Target::Html, html, tag.attrs, |_, _| {});
        }
    }

    /// Add the attributes of `attrs` that element `node` lacks to it,
    /// telling `each` of every one whether it was added. Costs what the
    /// tag brings, however often the element was merged into before.
    pub(crate) fn merge_attrs(
        &mut self,
        target: Target,
        node: NodeId,
        attrs: AttrRange,
        mut each: impl FnMut(&Attr, bool),
    ) {
        let slot = &mut self.merged[target as usize];
        // A rule merges into one element per parse; should it meet another,
        // the first keeps what it has.
        if slot.as_ref().is_some_and(|m| m.node != node) {
            slot.take().expect("checked").write(&mut self.doc);
        }
        let merged = slot.get_or_insert_with(|| Merged {
            node,
            list: self.doc.element_attrs(node).to_vec(),
            names: None,
        });
        for a in self.doc.attrs(attrs) {
            let added = !merged.has(&a.name);
            if added {
                merged.add(a);
            }
            each(a, added);
        }
    }

    /// Write each merged list that grew to the arena, as its element's new
    /// range.
    pub(crate) fn write_merged_attrs(&mut self) {
        for merged in self.merged.iter_mut().filter_map(Option::take) {
            merged.write(&mut self.doc);
        }
    }
}
