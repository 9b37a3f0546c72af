//! The list of active formatting elements and the adoption agency algorithm
//! (§13.2.4.3, §13.2.6.4.7).
//!
//! This machinery is what makes misnested formatting markup like
//! `<b><i>x</b>y</i>` render "as intended" — by silently rewriting the tree.
//! The paper counts on it indirectly: serialize-and-reparse auto-fixing
//! (§4.4) only converges because this algorithm is deterministic.

use super::{Builder, Class, TreeEventKind};
use crate::atoms::{atom, Atom};
use crate::dom::{Namespace, NodeId, Payload};
use crate::tokenizer::Attr;

/// An entry in the list of active formatting elements.
#[derive(Debug, Clone)]
pub(crate) enum FormatEntry {
    /// Scope marker (inserted by applet/object/marquee/template/td/th/caption).
    Marker,
    /// A formatting element, and the payload of the element its start tag
    /// made: the name, attributes and source offset that re-creating it
    /// takes. Adoption-agency clones become the entry's node, but the
    /// payload stays the start tag's.
    Element { node: NodeId, payload: Payload },
}

/// Whether two formatting elements were created with the same attributes:
/// §13.2.4.3 pairs attributes by name and value, in any order. (Names are
/// unique within a tag; the tokenizer drops duplicates.) Not `Attr`'s `==`,
/// which also compares source offsets.
fn same_attrs(a: &[Attr], b: &[Attr]) -> bool {
    a.len() == b.len() && a.iter().all(|x| b.iter().any(|y| y.name == x.name && y.value == x.value))
}

/// Drop entries up to and including the last marker.
pub fn clear_to_marker(list: &mut Vec<FormatEntry>) {
    while let Some(entry) = list.pop() {
        if matches!(entry, FormatEntry::Marker) {
            break;
        }
    }
}

impl Builder {
    /// Push onto the list of active formatting elements with the Noah's Ark
    /// clause (at most three identical entries since the last marker).
    pub(crate) fn push_formatting(&mut self, node: NodeId) {
        let payload = self.doc.payload_of(node).expect("formatting entries are elements");
        let e = self.doc.payload(payload);
        let mut same = 0usize;
        let mut drop_idx = None;
        for (i, entry) in self.formatting.iter().enumerate().rev() {
            match entry {
                FormatEntry::Marker => break,
                FormatEntry::Element { payload: p, .. } => {
                    let other = self.doc.payload(*p);
                    if other.name == e.name
                        && same_attrs(self.doc.attrs(other.attrs), self.doc.attrs(e.attrs))
                    {
                        same += 1;
                        drop_idx = Some(i);
                    }
                }
            }
        }
        if same >= 3 {
            if let Some(i) = drop_idx {
                self.formatting.remove(i);
            }
        }
        self.formatting.push(FormatEntry::Element { node, payload });
    }

    /// Make `new` the node of formatting entry `i`.
    fn set_entry_node(&mut self, i: usize, new: NodeId) {
        if let FormatEntry::Element { node, .. } = &mut self.formatting[i] {
            *node = new;
        }
    }

    /// The adoption agency's clone of formatting entry `i`, made the
    /// entry's node: the entry's name and attributes at source offset 0,
    /// in a payload of its own.
    fn clone_for_adoption(&mut self, i: usize) -> NodeId {
        let FormatEntry::Element { payload, .. } = self.formatting[i] else {
            unreachable!("markers are never re-created")
        };
        let e = self.doc.payload(payload);
        let (name, attrs) = (e.name.clone(), e.attrs);
        let new = self.doc.create_element(name, Namespace::Html, attrs);
        self.set_entry_node(i, new);
        new
    }

    /// The name of the element formatting entry `i` was made for.
    fn entry_name(&self, i: usize) -> Option<&Atom> {
        match &self.formatting[i] {
            FormatEntry::Element { payload, .. } => Some(&self.doc.payload(*payload).name),
            FormatEntry::Marker => None,
        }
    }

    /// Index of the last formatting entry named `name`, if no marker
    /// follows it.
    pub(crate) fn last_entry_named(&self, name: &Atom) -> Option<usize> {
        let i = (0..self.formatting.len())
            .rev()
            .find(|&i| self.entry_name(i).is_none_or(|n| n == name))?;
        self.entry_name(i).is_some().then_some(i)
    }

    /// Remove a node from the formatting list, if present.
    pub(crate) fn remove_from_formatting(&mut self, node: NodeId) {
        self.formatting
            .retain(|e| !matches!(e, FormatEntry::Element { node: n, .. } if *n == node));
    }

    /// §13.2.6.1 "reconstruct the active formatting elements".
    pub(crate) fn reconstruct_formatting(&mut self) {
        // 1. Nothing to do if the list is empty.
        let Some(last) = self.formatting.last() else { return };
        // 2-3. …or the last entry is a marker / already open.
        match last {
            FormatEntry::Marker => return,
            FormatEntry::Element { node, .. } => {
                if self.open.contains(*node) {
                    return;
                }
            }
        }
        // 4-6. Rewind to the earliest entry (after a marker / open element)
        // that needs re-creation.
        let mut i = self.formatting.len() - 1;
        loop {
            if i == 0 {
                break;
            }
            let prev = &self.formatting[i - 1];
            match prev {
                FormatEntry::Marker => break,
                FormatEntry::Element { node, .. } => {
                    if self.open.contains(*node) {
                        break;
                    }
                }
            }
            i -= 1;
        }
        // 7-10. Re-create each entry in order and update the list. A copy
        // has exactly the entry's name, attributes and source offset, so it
        // shares the entry's payload.
        while i < self.formatting.len() {
            let FormatEntry::Element { payload, .. } = self.formatting[i] else {
                i += 1;
                continue;
            };
            let name = self.doc.payload(payload).name.clone();
            let foster = self.foster_for_current();
            let new = self.doc.create_sharing(payload);
            self.set_entry_node(i, new);
            self.place_element(new, &name, foster);
            i += 1;
        }
    }

    /// Whether inserting at the current node would need foster parenting
    /// (used when reconstruction happens inside table structure).
    pub(crate) fn foster_for_current(&self) -> bool {
        matches!(
            self.current_name(),
            Some("table") | Some("tbody") | Some("tfoot") | Some("thead") | Some("tr")
        )
    }

    /// §13.2.6.4.7 "adoption agency algorithm" for an end tag named
    /// `subject`. Returns `true` if handled; `false` means the caller should
    /// fall back to the "any other end tag" steps.
    pub(crate) fn adoption_agency(&mut self, subject: &Atom) -> bool {
        // Fast path: current node is the subject and not in the list.
        if let Some(cur) = self.current() {
            if self.doc.is_html(cur, subject)
                && !self
                    .formatting
                    .iter()
                    .any(|e| matches!(e, FormatEntry::Element { node, .. } if *node == cur))
            {
                self.open.pop();
                return true;
            }
        }

        for _outer in 0..8 {
            // Find the formatting element: last entry for subject after the
            // last marker.
            let Some(fmt_idx) = self.last_entry_named(subject) else { return false };
            let fmt_node = match &self.formatting[fmt_idx] {
                FormatEntry::Element { node, .. } => *node,
                FormatEntry::Marker => unreachable!(),
            };

            // Not on the stack of open elements → parse error; remove.
            let Some(stack_idx) = self.open.rposition(fmt_node) else {
                self.event(TreeEventKind::StrayEndTag { tag: subject.clone() });
                self.formatting.remove(fmt_idx);
                return true;
            };

            // Not in scope → parse error; ignore.
            if !self.open.in_scope(subject) {
                self.event(TreeEventKind::StrayEndTag { tag: subject.clone() });
                return true;
            }
            if self.open.last() != Some(fmt_node) {
                self.event(TreeEventKind::AdoptionAgency { tag: subject.clone() });
            }

            // Furthest block: lowest element in the stack below fmt that is
            // "special".
            let furthest =
                (stack_idx + 1..self.open.len()).find(|&i| self.open.is(i, Class::Special));
            let Some(furthest_idx) = furthest else {
                // No furthest block: pop through the formatting element.
                self.open.truncate(stack_idx);
                self.formatting.remove(fmt_idx);
                return true;
            };
            let furthest_block = self.open[furthest_idx];

            let common_ancestor = self.open[stack_idx - 1];
            let mut bookmark = fmt_idx;

            // Inner loop.
            let mut node_stack_idx = furthest_idx;
            let mut node;
            let mut last_node = furthest_block;
            let mut inner = 0;
            loop {
                inner += 1;
                node_stack_idx -= 1;
                node = self.open[node_stack_idx];
                if node == fmt_node {
                    break;
                }
                let in_fmt_list = self
                    .formatting
                    .iter()
                    .position(|e| matches!(e, FormatEntry::Element { node: n, .. } if *n == node));
                if inner > 3 {
                    if let Some(i) = in_fmt_list {
                        self.formatting.remove(i);
                        if i < bookmark {
                            bookmark -= 1;
                        }
                    }
                    self.open.remove(node_stack_idx);
                    continue;
                }
                let Some(fmt_list_idx) = in_fmt_list else {
                    self.open.remove(node_stack_idx);
                    continue;
                };
                // Re-create the element.
                let new = self.clone_for_adoption(fmt_list_idx);
                self.open.replace(&self.doc, node_stack_idx, new);
                node = new;
                if last_node == furthest_block {
                    bookmark = fmt_list_idx + 1;
                }
                self.doc.append(node, last_node);
                last_node = node;
            }
            let _ = node;

            // Place last_node below the common ancestor (with foster
            // parenting if the ancestor is table structure).
            let foster = matches!(
                self.doc.html_name(common_ancestor),
                Some("table") | Some("tbody") | Some("tfoot") | Some("thead") | Some("tr")
            );
            if foster {
                if let Some(table) = self.open.topmost(&atom!("table")).map(|i| self.open[i]) {
                    if self.doc.node(table).parent.is_some() {
                        self.doc.insert_before(table, last_node);
                    } else {
                        self.doc.append(common_ancestor, last_node);
                    }
                } else {
                    self.doc.append(common_ancestor, last_node);
                }
            } else {
                self.doc.append(common_ancestor, last_node);
            }

            // New element: clone of the formatting element, adopting the
            // furthest block's children.
            let new_fmt = self.clone_for_adoption(fmt_idx);
            self.doc.reparent_children(furthest_block, new_fmt);
            self.doc.append(furthest_block, new_fmt);

            // Update the formatting list: move the entry to the bookmark.
            let entry = self.formatting.remove(fmt_idx);
            let bookmark =
                bookmark.min(self.formatting.len()).saturating_sub(usize::from(bookmark > fmt_idx));
            self.formatting.insert(bookmark, entry);

            // Update the stack: remove old fmt element, insert new one right
            // below (after) the furthest block.
            self.open.remove_node(fmt_node);
            let fb_idx = self.open.rposition(furthest_block).expect("furthest block stays open");
            self.open.insert(&self.doc, fb_idx + 1, new_fmt);

            // Loop again in case more instances remain.
            let more = (0..self.formatting.len()).any(|i| self.entry_name(i) == Some(subject));
            if !more {
                return true;
            }
        }
        true
    }
}
