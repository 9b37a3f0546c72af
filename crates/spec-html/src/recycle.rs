//! Spare parse buffers, kept per thread, and one large node vector kept
//! for the whole process.
//!
//! A scan parses one page after another on each worker thread, and every
//! parse needs the same buffers: the DOM's node vector, element payloads,
//! text vector and attribute arena, one `String` per text run, the
//! tokenizer's scratch strings and attribute list, the tables of the stack
//! of open elements, the list of active formatting elements, the lists a
//! parse hands out (errors, tree events, the names open at EOF) and the
//! start tags a caller keeps ([`KeptTags`](crate::KeptTags)). Grown from
//! empty on every page, they cost a few dozen allocations and frees per
//! page. This store
//! keeps them between parses instead: a
//! [`Document`](crate::dom::Document), a
//! [`Tokenizer`](crate::tokenizer::Tokenizer), a stack of open elements, a
//! [`ParseOutput`](crate::ParseOutput) or a tag list gives its buffers back
//! when it drops, and the next parse on the same thread takes them. The
//! text strings of a dropped document become the tokenizer's next text-run
//! buffers. A node owns nothing, so taking back a node vector is clearing
//! it, not walking it; the kept 1 MiB node vector holds 37,449 nodes.
//!
//! The store is bounded, and it keeps only empty buffers:
//!
//! * at most [`MAX_TEXTS`] text strings, none with more than
//!   [`MAX_TEXT_BYTES`] of capacity;
//! * no other buffer with more than [`MAX_BYTES`] of capacity;
//! * every buffer is cleared as it comes in, so no byte of one page can
//!   reach the next.
//!
//! Node vectors past [`MAX_BYTES`] come only from pathological pages, such
//! as the Θ(k²) copies of formatting reconstruction. One of them, up to
//! [`MAX_SHARED_BYTES`], is kept for the whole process rather than per
//! thread: a document whose thread-sized vector is full moves its nodes
//! into that spare when it is larger ([`take_large_nodes`]). Freed instead,
//! such a vector was kept or not by the allocator in the arena of whichever
//! thread freed it, so the memory left resident after a few such pages
//! depended on which threads had parsed them and in what order. Kept once,
//! it is one block whatever thread parses, and it is faulted in once.
//!
//! Buffers come back from `Drop` impls, which also run while a page's
//! panic unwinds. Those must not panic, so the store is reached with
//! `try_with` and `try_borrow_mut`; whatever it cannot take is freed.

use crate::atoms::Atom;
use crate::dom::{Element, Node};
use crate::errors::ParseError;
use crate::tokenizer::{Attr, Tag};
use crate::tree_builder::open::Entry;
use crate::tree_builder::{FormatEntry, TreeEvent};
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

/// Most text strings kept.
pub(crate) const MAX_TEXTS: usize = 256;
/// Largest text string kept, in bytes of capacity.
pub(crate) const MAX_TEXT_BYTES: usize = 4 << 10;
/// Largest other buffer kept per thread, in bytes of capacity.
pub(crate) const MAX_BYTES: usize = 1 << 20;
/// Largest node vector kept for the whole process, in bytes of capacity:
/// 1,198,372 nodes.
pub(crate) const MAX_SHARED_BYTES: usize = 32 << 20;

/// The one node vector over [`MAX_BYTES`] kept, empty, shared by every
/// thread.
static LARGE_NODES: Mutex<Vec<Node>> = Mutex::new(Vec::new());

/// The tokenizer's scratch buffers.
#[derive(Default)]
pub(crate) struct Scratch {
    pub tag_name: String,
    pub attr_name: String,
    pub attr_value: String,
    pub raw_value: String,
    pub attrs: Vec<Attr>,
    pub last_start_tag: String,
    pub doctype_name: String,
    /// The RCDATA/RAWTEXT/script end-tag name buffer.
    pub temp_buffer: String,
}

/// The tables of the stack of open elements.
#[derive(Default)]
pub(crate) struct StackTables {
    pub entries: Vec<Entry>,
    /// Topmost stack index per name key.
    pub top: Vec<u32>,
    /// Topmost foreign stack index per lowercased-name key.
    pub foreign_top: Vec<u32>,
    /// One on-stack bit per node id.
    pub on_stack: Vec<u64>,
}

struct Store {
    nodes: Vec<Node>,
    elements: Vec<Element>,
    /// A document's vector of text and comment strings, empty.
    text_nodes: Vec<String>,
    attrs: Vec<Attr>,
    texts: Vec<String>,
    scratch: Option<Scratch>,
    stack: Option<StackTables>,
    formatting: Vec<FormatEntry>,
    errors: Vec<ParseError>,
    events: Vec<TreeEvent>,
    names: Vec<Atom>,
    tags: Vec<Tag>,
}

thread_local! {
    static STORE: RefCell<Store> = const {
        RefCell::new(Store {
            nodes: Vec::new(),
            elements: Vec::new(),
            text_nodes: Vec::new(),
            attrs: Vec::new(),
            texts: Vec::new(),
            scratch: None,
            stack: None,
            formatting: Vec::new(),
            errors: Vec::new(),
            events: Vec::new(),
            names: Vec::new(),
            tags: Vec::new(),
        })
    };
}

/// Run `f` on this thread's store, unless the store is gone (thread
/// teardown) or already in use.
fn with<R>(f: impl FnOnce(&mut Store) -> R) -> Option<R> {
    STORE.try_with(|store| store.try_borrow_mut().ok().map(|mut s| f(&mut s))).ok().flatten()
}

/// Whether a buffer of `capacity` elements of `T` is small enough to keep.
fn fits<T>(capacity: usize) -> bool {
    capacity.saturating_mul(size_of::<T>()) <= MAX_BYTES
}

/// `v` emptied, or freed (replaced by an empty vector) when too large.
fn emptied<T>(mut v: Vec<T>) -> Vec<T> {
    if !fits::<T>(v.capacity()) {
        return Vec::new();
    }
    v.clear();
    v
}

/// `s` emptied, or freed when too large.
fn emptied_string(mut s: String) -> String {
    if s.capacity() > MAX_BYTES {
        return String::new();
    }
    s.clear();
    s
}

impl Store {
    fn keep_text(&mut self, mut text: String) {
        if self.texts.len() < MAX_TEXTS && (1..=MAX_TEXT_BYTES).contains(&text.capacity()) {
            text.clear();
            self.texts.push(text);
        }
    }
}

/// The spare vector in `slot`, empty.
fn take<T>(slot: fn(&mut Store) -> &mut Vec<T>) -> Vec<T> {
    with(|s| std::mem::take(slot(s))).unwrap_or_default()
}

/// Empty `v` and keep it in `slot` if it fits and is larger than the one
/// kept there.
fn give<T>(v: Vec<T>, slot: fn(&mut Store) -> &mut Vec<T>) {
    let v = emptied(v);
    with(|s| {
        let kept = slot(s);
        if v.capacity() > kept.capacity() {
            *kept = v;
        }
    });
}

/// An empty node vector.
pub(crate) fn take_nodes() -> Vec<Node> {
    take(|s| &mut s.nodes)
}

/// Take back a document's node vector: this thread's store keeps it if it
/// fits, the process's large spare if it is larger than that spare and
/// within [`MAX_SHARED_BYTES`].
pub(crate) fn give_nodes(mut nodes: Vec<Node>) {
    if fits::<Node>(nodes.capacity()) {
        give(nodes, |s| &mut s.nodes);
    } else if nodes.capacity().saturating_mul(size_of::<Node>()) <= MAX_SHARED_BYTES {
        nodes.clear();
        let mut large = LARGE_NODES.lock().unwrap_or_else(PoisonError::into_inner);
        if nodes.capacity() > large.capacity() {
            std::mem::swap(&mut *large, &mut nodes);
        }
        // The smaller vector is freed once the lock is released.
        drop(large);
    }
}

/// The process's large spare node vector, empty, for a document whose
/// `capacity` nodes are full and whose next doubling would not fit
/// [`MAX_BYTES`]; `None` while it would, or while the spare is no larger.
pub(crate) fn take_large_nodes(capacity: usize) -> Option<Vec<Node>> {
    if fits::<Node>(capacity.saturating_mul(2)) {
        return None;
    }
    let mut large = LARGE_NODES.lock().unwrap_or_else(PoisonError::into_inner);
    (large.capacity() > capacity).then(|| std::mem::take(&mut *large))
}

/// An empty element payload vector.
pub(crate) fn take_elements() -> Vec<Element> {
    take(|s| &mut s.elements)
}

/// Take back a document's element payloads.
pub(crate) fn give_elements(elements: Vec<Element>) {
    give(elements, |s| &mut s.elements);
}

/// An empty vector for a document's text and comment strings.
pub(crate) fn take_text_nodes() -> Vec<String> {
    take(|s| &mut s.text_nodes)
}

/// Take back a document's text and comment strings: the strings join the
/// spare texts, and the emptied vector is kept if it is the largest one
/// that fits.
pub(crate) fn give_text_nodes(mut texts: Vec<String>) {
    with(|s| {
        for text in texts.drain(..) {
            s.keep_text(text);
        }
        if fits::<String>(texts.capacity()) && texts.capacity() > s.text_nodes.capacity() {
            s.text_nodes = texts;
        }
    });
}

/// An empty attribute arena.
pub(crate) fn take_attrs() -> Vec<Attr> {
    take(|s| &mut s.attrs)
}

/// Take back a document's attribute arena.
pub(crate) fn give_attrs(attrs: Vec<Attr>) {
    give(attrs, |s| &mut s.attrs);
}

/// An empty list of active formatting elements.
pub(crate) fn take_formatting() -> Vec<FormatEntry> {
    take(|s| &mut s.formatting)
}

/// Take back a parse's list of active formatting elements.
pub(crate) fn give_formatting(list: Vec<FormatEntry>) {
    give(list, |s| &mut s.formatting);
}

/// An empty error list.
pub(crate) fn take_errors() -> Vec<ParseError> {
    take(|s| &mut s.errors)
}

/// Take back a parse's error list.
pub(crate) fn give_errors(errors: Vec<ParseError>) {
    give(errors, |s| &mut s.errors);
}

/// An empty tree-event list.
pub(crate) fn take_events() -> Vec<TreeEvent> {
    take(|s| &mut s.events)
}

/// Take back a parse's tree-event list.
pub(crate) fn give_events(events: Vec<TreeEvent>) {
    give(events, |s| &mut s.events);
}

/// An empty name list.
pub(crate) fn take_names() -> Vec<Atom> {
    take(|s| &mut s.names)
}

/// Take back a parse's list of names open at EOF.
pub(crate) fn give_names(names: Vec<Atom>) {
    give(names, |s| &mut s.names);
}

/// An empty tag list.
pub(crate) fn take_tags() -> Vec<Tag> {
    take(|s| &mut s.tags)
}

/// Take back a list of kept tags.
pub(crate) fn give_tags(tags: Vec<Tag>) {
    give(tags, |s| &mut s.tags);
}

/// All spare text strings (each empty).
pub(crate) fn take_texts() -> Vec<String> {
    with(|s| std::mem::take(&mut s.texts)).unwrap_or_default()
}

/// Take back the spare texts a tokenizer did not use. They are still
/// empty, so when the store has none the list is kept as it is.
pub(crate) fn give_texts(texts: Vec<String>) {
    with(|s| {
        if s.texts.is_empty() && texts.len() <= MAX_TEXTS {
            s.texts = texts;
        } else {
            for text in texts {
                s.keep_text(text);
            }
        }
    });
}

/// Take back one text string, if it fits.
pub(crate) fn give_text(text: String) {
    with(|s| s.keep_text(text));
}

/// The tokenizer's scratch buffers, each empty.
pub(crate) fn take_scratch() -> Scratch {
    with(|s| s.scratch.take()).flatten().unwrap_or_default()
}

/// Take back the tokenizer's scratch buffers.
pub(crate) fn give_scratch(scratch: Scratch) {
    with(|s| {
        let Scratch {
            tag_name,
            attr_name,
            attr_value,
            raw_value,
            attrs,
            last_start_tag,
            doctype_name,
            temp_buffer,
        } = scratch;
        s.scratch = Some(Scratch {
            tag_name: emptied_string(tag_name),
            attr_name: emptied_string(attr_name),
            attr_value: emptied_string(attr_value),
            raw_value: emptied_string(raw_value),
            attrs: emptied(attrs),
            last_start_tag: emptied_string(last_start_tag),
            doctype_name: emptied_string(doctype_name),
            temp_buffer: emptied_string(temp_buffer),
        });
    });
}

/// The stack's tables, each empty.
pub(crate) fn take_stack() -> StackTables {
    with(|s| s.stack.take()).flatten().unwrap_or_default()
}

/// Take back the stack's tables.
pub(crate) fn give_stack(tables: StackTables) {
    with(|s| {
        let StackTables { entries, top, foreign_top, on_stack } = tables;
        s.stack = Some(StackTables {
            entries: emptied(entries),
            top: emptied(top),
            foreign_top: emptied(foreign_top),
            on_stack: emptied(on_stack),
        });
    });
}

/// Capacity of the process's large spare node vector in bytes, for tests.
#[cfg(test)]
pub(crate) fn held_large() -> usize {
    let large = LARGE_NODES.lock().unwrap_or_else(PoisonError::into_inner);
    large.capacity() * size_of::<Node>()
}

/// What this thread's store holds, for tests: (capacity of the spare node
/// vector in bytes, of the spare attribute arena in bytes, the spare texts'
/// capacities, the largest capacity of any other buffer in bytes).
#[cfg(test)]
pub(crate) fn held() -> (usize, usize, Vec<usize>, usize) {
    fn bytes<T>(v: &Vec<T>) -> usize {
        v.capacity() * size_of::<T>()
    }
    with(|s| {
        let mut largest = bytes(&s.errors)
            .max(bytes(&s.elements))
            .max(bytes(&s.text_nodes))
            .max(bytes(&s.events))
            .max(bytes(&s.names))
            .max(bytes(&s.tags))
            .max(bytes(&s.formatting));
        if let Some(sc) = &s.scratch {
            for cap in [
                sc.tag_name.capacity(),
                sc.attr_name.capacity(),
                sc.attr_value.capacity(),
                sc.raw_value.capacity(),
                bytes(&sc.attrs),
                sc.last_start_tag.capacity(),
                sc.doctype_name.capacity(),
                sc.temp_buffer.capacity(),
            ] {
                largest = largest.max(cap);
            }
        }
        if let Some(st) = &s.stack {
            largest =
                largest.max(bytes(&st.top)).max(bytes(&st.foreign_top)).max(bytes(&st.on_stack));
        }
        (bytes(&s.nodes), bytes(&s.attrs), s.texts.iter().map(String::capacity).collect(), largest)
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::serialize;

    fn on_new_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().expect("test thread")
    }

    fn page(lead: &str, unit: impl Fn(usize) -> String, bytes: usize) -> String {
        let mut s = String::from(lead);
        let mut i = 0;
        while s.len() < bytes {
            s.push_str(&unit(i));
            i += 1;
        }
        s
    }

    /// After pages that grow every buffer past its cap, the store holds
    /// none over its cap, and parses still match a fresh thread's.
    #[test]
    fn store_stays_within_its_caps() {
        const HEAD: &str = "<!DOCTYPE html><html><head><title>x</title></head><body>";
        let pages = [
            page(HEAD, |_| "<div>".into(), 1 << 20),
            page(HEAD, |i| format!("<i class=c{i}><p>x"), 16_000),
            page(HEAD, |i| format!("<p title='{}'>{}", "t".repeat(i), "y".repeat(i)), 400_000),
            page(HEAD, |i| format!("<p id=p{i} class=c>\u{1}"), 1 << 20),
            format!("{HEAD}<p>{}", "z".repeat(2 << 20)),
            "<p class=a>a<b>b</b> c<!--d--><table><tr><td>e</table>".to_owned(),
        ];
        let fresh: Vec<String> = pages
            .iter()
            .map(|p| {
                let p = p.clone();
                on_new_thread(move || serialize(&crate::parse_document(&p).dom))
            })
            .collect();
        let (got, (nodes, attrs, texts, largest)) = on_new_thread(move || {
            let got: Vec<String> =
                pages.iter().map(|p| serialize(&crate::parse_document(p).dom)).collect();
            (got, held())
        });
        assert_eq!(got, fresh);
        assert!(nodes > 0 && nodes <= MAX_BYTES, "node vector of {nodes} bytes kept");
        assert!(attrs > 0 && attrs <= MAX_BYTES, "attribute arena of {attrs} bytes kept");
        assert!(!texts.is_empty() && texts.len() <= MAX_TEXTS, "{} texts kept", texts.len());
        assert!(texts.iter().all(|&c| (1..=MAX_TEXT_BYTES).contains(&c)), "{texts:?}");
        assert!(largest <= MAX_BYTES, "a buffer of {largest} bytes kept");
    }

    /// Every buffer the store hands out is empty, also those of a
    /// tokenizer dropped in the middle of a tag.
    #[test]
    fn store_hands_out_empty_buffers() {
        on_new_thread(|| {
            drop(crate::parse_document(
                "<title>secret</title><p title=secret title=x>secret<b>x<table><tr><td>x &amp; y",
            ));
            let mut tok = crate::tokenizer::Tokenizer::new(
                "<!DOCTYPE secret><p>secret<b title=\"sec&amp;ret",
            );
            let mut attrs = Vec::new();
            while !matches!(tok.next_token(&mut attrs), crate::tokenizer::Token::Eof) {}
            drop(tok);
            let nodes = take_nodes();
            assert!(nodes.is_empty() && nodes.capacity() > 0);
            let elements = take_elements();
            assert!(elements.is_empty() && elements.capacity() > 0);
            let text_nodes = take_text_nodes();
            assert!(text_nodes.is_empty() && text_nodes.capacity() > 0);
            let attrs = take_attrs();
            assert!(attrs.is_empty() && attrs.capacity() > 0);
            let (errors, events, names) = (take_errors(), take_events(), take_names());
            assert!(errors.is_empty() && errors.capacity() > 0);
            assert!(events.is_empty() && events.capacity() > 0);
            assert!(names.is_empty() && names.capacity() > 0);
            let texts = take_texts();
            assert!(!texts.is_empty() && texts.iter().all(String::is_empty), "{texts:?}");
            let sc = take_scratch();
            for (name, buf) in [
                ("tag name", &sc.tag_name),
                ("attribute name", &sc.attr_name),
                ("attribute value", &sc.attr_value),
                ("raw value", &sc.raw_value),
                ("last start tag", &sc.last_start_tag),
                ("doctype name", &sc.doctype_name),
                ("temp buffer", &sc.temp_buffer),
            ] {
                assert!(buf.is_empty() && buf.capacity() > 0, "{name}: {buf:?}");
            }
            assert!(sc.attrs.is_empty() && sc.attrs.capacity() > 0);
            let formatting = take_formatting();
            assert!(formatting.is_empty() && formatting.capacity() > 0);
            let st = take_stack();
            assert!(st.entries.is_empty() && st.top.is_empty() && st.on_stack.is_empty());
            assert!(st.top.capacity() > 0);
        });
    }

    /// A node vector past the per-thread cap is kept once for the whole
    /// process: a document on another thread that outgrows its thread's
    /// vector takes it, and one past `MAX_SHARED_BYTES` is freed.
    #[test]
    fn one_large_node_vector_serves_every_thread() {
        let most = MAX_SHARED_BYTES / size_of::<Node>();
        on_new_thread(move || give_nodes(Vec::with_capacity(most)));
        // No vector that fits the cap is larger, but other tests' large
        // pages borrow the spare while they parse, so wait for it.
        let large = on_new_thread(move || {
            let full = MAX_BYTES / size_of::<Node>();
            assert!(take_large_nodes(full / 2).is_none(), "a doubling that fits the thread's cap");
            for _ in 0..10_000 {
                match take_large_nodes(full) {
                    Some(v) if v.capacity() == most => return v,
                    Some(v) => give_nodes(v),
                    None => {}
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("the spare never came back");
        });
        assert!(large.is_empty());
        give_nodes(large);
        give_nodes(Vec::with_capacity(most + 1));
        let held = held_large();
        assert!(held <= MAX_SHARED_BYTES, "a spare of {held} bytes kept");
        let page = page("<body>", |i| format!("<i class=c{i}><p>x"), 8_000);
        let fresh = on_new_thread({
            let page = page.clone();
            move || serialize(&crate::parse_document(&page).dom)
        });
        for _ in 0..2 {
            let page = page.clone();
            assert_eq!(on_new_thread(move || serialize(&crate::parse_document(&page).dom)), fresh);
        }
    }

    /// Buffers given back while a panic unwinds, or after the thread's
    /// store is gone, are freed without a second panic.
    #[test]
    fn drops_never_panic() {
        let unwound = on_new_thread(|| {
            std::panic::catch_unwind(|| {
                let _out = crate::parse_document("<p>x<b>y");
                let _tok = crate::tokenizer::Tokenizer::new("<p>z");
                std::panic::resume_unwind(Box::new("page panic"));
            })
            .is_err()
        });
        assert!(unwound);

        thread_local! {
            static LATE: std::cell::RefCell<Option<crate::ParseOutput>> =
                const { std::cell::RefCell::new(None) };
        }
        on_new_thread(|| {
            LATE.with(|late| *late.borrow_mut() = Some(crate::parse_document("<p>late")));
            // Touch the store after the output, so thread teardown may
            // destroy it first.
            drop(crate::parse_document("<p>x"));
        });
    }
}
