//! HTML tree construction (§13.2.6): the insertion-mode state machine.
//!
//! This is where the "error tolerance" the paper studies actually lives:
//! implied tags, foster parenting, body merging, form-pointer suppression,
//! head relocation, and foreign-content breakout are all implemented here —
//! and each recovery is recorded as a [`TreeEvent`] so the violation
//! checkers can see exactly what the parser had to fix.
//!
//! Known deviations from the full specification, chosen deliberately and
//! safe for the paper's checks (documented in DESIGN.md):
//! * `<template>` parses as an ordinary element (no separate template
//!   contents tree or "in template" insertion mode).
//! * Scripting is always disabled, so `<noscript>` content parses as markup
//!   (this matches the paper's crawler, which never executes scripts).
//! * Frameset handling is minimal (framesets are extinct in the corpus).

mod events;
mod foreign;
mod formatting;
mod in_body;
mod merge;
mod names;
pub(crate) mod open;
mod tables;

pub use events::{TreeEvent, TreeEventKind, Trigger};
pub use formatting::FormatEntry;

use crate::atoms::{atom, Atom};
use crate::dom::{find_attr, AttrRange, Doctype, Document, Namespace, NodeData, NodeId};
use crate::errors::ParseError;
use crate::recycle;
use crate::tags;
use crate::tokenizer::{self, Tag, Token, Tokenizer};
use open::{Class, OpenElements};

/// Document quirks mode, determined by the DOCTYPE (§13.2.6.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuirksMode {
    NoQuirks,
    LimitedQuirks,
    Quirks,
}

/// Insertion modes (§13.2.6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum InsertionMode {
    Initial,
    BeforeHtml,
    BeforeHead,
    InHead,
    InHeadNoscript,
    AfterHead,
    InBody,
    Text,
    InTable,
    InTableText,
    InCaption,
    InColumnGroup,
    InTableBody,
    InRow,
    InCell,
    InSelect,
    InSelectInTable,
    AfterBody,
    InFrameset,
    AfterFrameset,
    AfterAfterBody,
    AfterAfterFrameset,
}

/// Everything the parse produced: the DOM, the token stream, all errors and
/// recovery events, and the end-of-file element stack the DE checkers need.
/// Its lists come from, and go back to, the thread's store of spare parse
/// buffers (see `crate::recycle`).
#[derive(Debug)]
pub struct ParseOutput {
    /// The constructed DOM tree.
    pub dom: Document,
    /// Tokenizer and preprocessing parse errors, in source order.
    pub errors: Vec<ParseError>,
    /// Tree-construction recovery events.
    pub events: Vec<TreeEvent>,
    /// Quirks mode the document ended up in.
    pub quirks: QuirksMode,
    /// Names of the elements still on the stack of open elements when EOF
    /// arrived (bottom-of-stack first). DE1/DE2's raw material.
    pub open_at_eof: Vec<Atom>,
}

impl Drop for ParseOutput {
    fn drop(&mut self) {
        recycle::give_errors(std::mem::take(&mut self.errors));
        recycle::give_events(std::mem::take(&mut self.events));
        recycle::give_names(std::mem::take(&mut self.open_at_eof));
    }
}

impl ParseOutput {
    /// Whether any tokenizer error with the given code was recorded.
    pub fn has_error(&self, code: crate::errors::ErrorCode) -> bool {
        self.errors.iter().any(|e| e.code == code)
    }

    /// Iterate events of a particular shape.
    pub fn events_where<'a>(
        &'a self,
        pred: impl Fn(&TreeEventKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TreeEvent> + 'a {
        self.events.iter().filter(move |e| pred(&e.kind))
    }
}

/// Observer for start tags as the parse loop pulls them off the tokenizer.
///
/// The parser itself retains no token stream; a caller that wants to see
/// start tags (with their raw attribute values, which the DOM no longer
/// shows) taps them here as they stream and decides per tag whether to
/// clone. The sink runs *before* the tree builder consumes the token, so
/// it observes every tag — including ones the builder then drops or merges.
pub type TagSink<'s> = &'s mut dyn FnMut(&Tag);

/// Start tags a caller keeps from a [`TagSink`], in source order. The list
/// takes its vector from the thread's store of spare parse buffers and
/// gives it back, emptied, when it drops. A kept tag's attributes are read
/// through the parse's [`Document::attrs`].
#[derive(Debug)]
pub struct KeptTags(Vec<Tag>);

impl KeptTags {
    pub fn new() -> KeptTags {
        KeptTags(recycle::take_tags())
    }

    pub fn push(&mut self, tag: Tag) {
        self.0.push(tag);
    }
}

impl Default for KeptTags {
    fn default() -> KeptTags {
        KeptTags::new()
    }
}

impl std::ops::Deref for KeptTags {
    type Target = [Tag];
    fn deref(&self) -> &[Tag] {
        &self.0
    }
}

impl Drop for KeptTags {
    fn drop(&mut self) {
        recycle::give_tags(std::mem::take(&mut self.0));
    }
}

/// Parse a document (after preprocessing) into a [`ParseOutput`].
pub fn parse(input: &str) -> ParseOutput {
    parse_with_sink(input, &mut |_| {})
}

/// [`parse`], announcing every start tag to `sink` as it streams.
pub fn parse_with_sink(input: &str, sink: TagSink<'_>) -> ParseOutput {
    let tok = Tokenizer::new(input);
    run_to_completion(Builder::new(), tok, sink)
}

/// Parse an HTML *fragment* in the context of an element named
/// `context` (HTML namespace) — the algorithm behind `innerHTML` and
/// every string-based sanitizer (§13.2.4 "parsing HTML fragments").
///
/// The resulting [`ParseOutput::dom`] holds a synthetic `html` root whose
/// children are the fragment's nodes; use [`fragment_children`] or
/// serialize with [`crate::serializer::serialize_children`] on the root.
pub fn parse_fragment(input: &str, context: &str) -> ParseOutput {
    parse_fragment_with_sink(input, context, &mut |_| {})
}

/// [`parse_fragment`], announcing every start tag to `sink` as it streams.
pub fn parse_fragment_with_sink(input: &str, context: &str, sink: TagSink<'_>) -> ParseOutput {
    let mut tok = Tokenizer::new(input);
    // §13.2.4 step 11: set the tokenizer's initial state from the context
    // element's content model.
    tok.apply_default_feedback(context);
    run_to_completion(Builder::new_fragment(context), tok, sink)
}

/// The shared parse driver: pump tokens through the builder, then collect
/// the errors and assemble the [`ParseOutput`]. Document and fragment
/// parsing differ only in their builder/tokenizer setup, so the tag sink
/// taps the stream in exactly one place.
fn run_to_completion(mut b: Builder, mut tok: Tokenizer<'_>, sink: TagSink<'_>) -> ParseOutput {
    tok.use_error_list(recycle::take_errors());
    loop {
        b.token_offset = tok.position();
        let t = tok.next_token(&mut b.doc.attrs);
        if let Token::StartTag(tag) = &t {
            sink(tag);
        }
        let done = b.process(t, &mut tok);
        // Keep the tokenizer's CDATA rule in sync with the adjusted current
        // node (CDATA sections are only real in foreign content).
        tok.set_allow_cdata(b.current_is_foreign());
        if done {
            break;
        }
    }
    b.write_merged_attrs();
    recycle::give_formatting(std::mem::take(&mut b.formatting));
    // Preprocessing errors first (matching the former eager-preprocessing
    // order), then tokenizer errors; the sort below is stable, so equal
    // offsets keep that order.
    let mut errors = tok.take_errors();
    let preprocess = tok.take_preprocess_errors();
    if !preprocess.is_empty() {
        errors.splice(0..0, preprocess);
    }
    errors.sort_by_key(|e| e.offset);
    ParseOutput {
        dom: b.doc,
        errors,
        events: b.events,
        quirks: b.quirks,
        open_at_eof: b.open_at_eof,
    }
}

/// The fragment nodes of a [`parse_fragment`] output: the children of the
/// synthetic root element.
pub fn fragment_children(out: &ParseOutput) -> Vec<NodeId> {
    let root = out.dom.root();
    match out.dom.children(root).next() {
        Some(html) => out.dom.children(html).collect(),
        None => Vec::new(),
    }
}

/// The tree builder.
pub(crate) struct Builder {
    pub doc: Document,
    pub mode: InsertionMode,
    pub orig_mode: InsertionMode,
    pub open: OpenElements,
    pub formatting: Vec<FormatEntry>,
    pub head: Option<NodeId>,
    pub form: Option<NodeId>,
    pub frameset_ok: bool,
    pub quirks: QuirksMode,
    pub events: Vec<TreeEvent>,
    /// Offset of the token currently being processed.
    pub token_offset: usize,
    /// Pending character data in "in table text" mode.
    pub pending_table_text: String,
    /// Strip one leading LF from the next character token (after `<pre>`,
    /// `<listing>`, `<textarea>`).
    pub ignore_lf: bool,
    /// Names on the open-elements stack when EOF was first seen.
    pub open_at_eof: Vec<Atom>,
    /// The html and body elements' lists as in-body merges grew them, by
    /// [`merge::Target`].
    pub merged: [Option<merge::Merged>; 2],
    /// The spec's foster-parenting flag: set while a token is processed via
    /// the "in table anything else" path.
    pub foster: bool,
    /// Fragment parsing: the context element's (HTML) tag name.
    pub fragment_context: Option<String>,
    /// Set once "stop parsing" has run.
    pub done: bool,
}

/// What a mode handler decided about the current token.
#[derive(Debug, Clone)]
pub(crate) enum Ctl {
    /// Fully handled.
    Done,
    /// Process the token again (the mode usually changed).
    Reprocess(Token),
}

impl Builder {
    fn new() -> Self {
        Builder {
            doc: Document::new(),
            mode: InsertionMode::Initial,
            orig_mode: InsertionMode::InBody,
            open: OpenElements::new(),
            formatting: recycle::take_formatting(),
            head: None,
            form: None,
            frameset_ok: true,
            quirks: QuirksMode::NoQuirks,
            events: recycle::take_events(),
            token_offset: 0,
            pending_table_text: String::new(),
            ignore_lf: false,
            open_at_eof: Vec::new(),
            merged: [None, None],
            foster: false,
            fragment_context: None,
            done: false,
        }
    }

    /// §13.2.4: builder primed for fragment parsing — a synthetic `html`
    /// root on the stack, insertion mode reset against the context element,
    /// and the form pointer set when the context is a form.
    fn new_fragment(context: &str) -> Self {
        let mut b = Builder::new();
        let root = b.doc.create_element("html", Namespace::Html, AttrRange::default());
        let doc_root = b.doc.root();
        b.doc.append(doc_root, root);
        b.open.push(&b.doc, root);
        b.fragment_context = Some(context.to_owned());
        if context == "form" {
            // The spec sets the pointer to the nearest form ancestor; for a
            // string context the context element itself is that form.
            b.form = Some(root);
        }
        b.reset_insertion_mode();
        b
    }

    /// Process one token; returns true when parsing is finished.
    fn process(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> bool {
        if matches!(token, Token::Eof) && self.open_at_eof.is_empty() {
            let mut names = recycle::take_names();
            names.extend(
                self.open.iter().filter_map(|id| self.doc.element(id).map(|e| e.name.clone())),
            );
            self.open_at_eof = names;
        }
        // Handle the post-<pre>/<textarea> LF suppression.
        let token = if self.ignore_lf {
            self.ignore_lf = false;
            match token {
                Token::Characters(mut s) => {
                    if s.starts_with('\n') {
                        s.remove(0);
                    }
                    if s.is_empty() {
                        return false;
                    }
                    Token::Characters(s)
                }
                other => other,
            }
        } else {
            token
        };

        let mut cur = token;
        // Reprocessing loop; bounded to defend against dispatch bugs.
        for _ in 0..200 {
            let ctl = self.dispatch(cur, tok);
            match ctl {
                Ctl::Done => return self.done,
                Ctl::Reprocess(t) => cur = t,
            }
        }
        debug_assert!(false, "reprocess loop did not converge");
        self.done
    }

    /// §13.2.6: tree construction dispatcher — HTML rules or foreign
    /// content rules depending on the adjusted current node.
    fn dispatch(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        if self.use_foreign_rules(&token) {
            self.foreign_content(token, tok)
        } else {
            self.mode_dispatch(token, tok)
        }
    }

    fn mode_dispatch(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match self.mode {
            InsertionMode::Initial => self.initial(token),
            InsertionMode::BeforeHtml => self.before_html(token),
            InsertionMode::BeforeHead => self.before_head(token),
            InsertionMode::InHead => self.in_head(token, tok),
            InsertionMode::InHeadNoscript => self.in_head_noscript(token, tok),
            InsertionMode::AfterHead => self.after_head(token, tok),
            InsertionMode::InBody => self.in_body(token, tok),
            InsertionMode::Text => self.text(token),
            InsertionMode::InTable => self.in_table(token, tok),
            InsertionMode::InTableText => self.in_table_text(token),
            InsertionMode::InCaption => self.in_caption(token, tok),
            InsertionMode::InColumnGroup => self.in_column_group(token, tok),
            InsertionMode::InTableBody => self.in_table_body(token, tok),
            InsertionMode::InRow => self.in_row(token, tok),
            InsertionMode::InCell => self.in_cell(token, tok),
            InsertionMode::InSelect => self.in_select(token, tok),
            InsertionMode::InSelectInTable => self.in_select_in_table(token, tok),
            InsertionMode::AfterBody => self.after_body(token, tok),
            InsertionMode::InFrameset => self.in_frameset(token, tok),
            InsertionMode::AfterFrameset => self.after_frameset(token, tok),
            InsertionMode::AfterAfterBody => self.after_after_body(token, tok),
            InsertionMode::AfterAfterFrameset => self.after_after_frameset(token, tok),
        }
    }

    // ----- events -----

    pub(crate) fn event(&mut self, kind: TreeEventKind) {
        self.events.push(TreeEvent { kind, offset: self.token_offset });
    }

    // ----- stack helpers -----

    pub(crate) fn current(&self) -> Option<NodeId> {
        self.open.last()
    }

    pub(crate) fn current_name(&self) -> Option<&str> {
        self.current().and_then(|id| self.doc.element(id).map(|e| e.name.as_str()))
    }

    pub(crate) fn current_is_html(&self, name: &str) -> bool {
        self.current().map(|id| self.doc.is_html(id, name)).unwrap_or(false)
    }

    pub(crate) fn current_is_foreign(&self) -> bool {
        self.open.top_is(Class::Foreign)
    }

    /// Pop until one of `names` is the current node (not popped).
    pub(crate) fn pop_until_one_of(&mut self, names: &[&str]) {
        while let Some(id) = self.open.last() {
            match self.doc.html_name(id) {
                Some(n) if names.contains(&n) => break,
                // Stop at the root html element regardless.
                _ if self.open.len() == 1 => break,
                _ => {
                    self.open.pop();
                }
            }
        }
    }

    // ----- scope checks (§13.2.4.2); the single ones are on `self.open` -----

    /// Any of `names` is in (default) scope.
    pub(crate) fn any_in_scope(&self, names: &[Atom]) -> bool {
        names.iter().any(|n| self.open.in_scope(n))
    }

    // ----- insertion -----

    /// The "appropriate place for inserting a node": the current node, or a
    /// foster parent position when `foster` is set and we sit in table
    /// structure (§13.2.6.1). Returns (parent, before-sibling).
    pub(crate) fn insertion_place(&self, foster: bool) -> (NodeId, Option<NodeId>) {
        let target = self.current().unwrap_or_else(|| self.doc.root());
        if foster {
            if let Some(name) = self.doc.html_name(target) {
                if matches!(name, "table" | "tbody" | "tfoot" | "thead" | "tr") {
                    // Find the last table on the stack.
                    if let Some(idx) = self.open.topmost(&atom!("table")) {
                        let table = self.open[idx];
                        if let Some(parent) = self.doc.node(table).parent {
                            return (parent, Some(table));
                        }
                        // Table has no parent (fragment case): insert into
                        // the element before the table on the stack.
                        if idx > 0 {
                            return (self.open[idx - 1], None);
                        }
                    }
                }
            }
        }
        (target, None)
    }

    /// Insert an element for `tag` at the appropriate place and push it on
    /// the stack. The element holds the tag's attribute range unless a
    /// foreign attribute adjustment renames one.
    pub(crate) fn insert_element(&mut self, tag: &Tag, ns: Namespace, foster: bool) -> NodeId {
        let name = match ns {
            Namespace::Svg => tags::svg_tag_fixup_atom(&tag.name),
            _ => tag.name.clone(),
        };
        let renames = ns != Namespace::Html
            && self.doc.attrs(tag.attrs).iter().any(|a| adjust_foreign_attr(ns, &a.name) != a.name);
        let attrs = if renames {
            self.doc.copy_attrs(tag.attrs, |a| a.name = adjust_foreign_attr(ns, &a.name))
        } else {
            tag.attrs
        };
        let id = self.doc.create_element_at(name, ns, attrs, tag.offset);
        self.place_element(id, &tag.name, foster);
        id
    }

    /// Insert the detached element `id` at the appropriate place and push
    /// it on the stack; `tag` names it in a foster-parenting event.
    pub(crate) fn place_element(&mut self, id: NodeId, tag: &Atom, foster: bool) {
        let foster = foster || self.foster;
        let (parent, before) = self.insertion_place(foster);
        if foster && before.is_some() {
            self.event(TreeEventKind::FosterParented { tag: Some(tag.clone()) });
        }
        match before {
            Some(b) => self.doc.insert_before(b, id),
            None => self.doc.append(parent, id),
        }
        self.open.push(&self.doc, id);
    }

    /// Insert an HTML element (normal path).
    pub(crate) fn insert_html(&mut self, tag: &Tag) -> NodeId {
        self.insert_element(tag, Namespace::Html, false)
    }

    /// Insert an HTML element and immediately pop it (void elements),
    /// acknowledging the self-closing flag.
    pub(crate) fn insert_void(&mut self, tag: &Tag) -> NodeId {
        let id = self.insert_html(tag);
        self.open.pop();
        id
    }

    /// Record the spec error for self-closing syntax on a non-void HTML
    /// start tag (the flag is never acknowledged for those).
    pub(crate) fn check_self_closing(&mut self, tag: &Tag) {
        if tag.self_closing && !tags::is_void(&tag.name) {
            self.event(TreeEventKind::SelfClosingNonVoid { tag: tag.name.clone() });
        }
    }

    /// Insert character data at the appropriate place (honouring foster
    /// parenting when in table structure).
    pub(crate) fn insert_chars(&mut self, text: String, foster: bool) {
        let foster = foster || self.foster;
        if text.is_empty() {
            return;
        }
        let (parent, before) = self.insertion_place(foster);
        match before {
            Some(b) => {
                self.event(TreeEventKind::FosterParented { tag: None });
                self.doc.insert_text_before(b, text);
            }
            None => self.doc.append_text(parent, text),
        }
    }

    pub(crate) fn insert_comment(&mut self, text: String) {
        let (parent, before) = self.insertion_place(false);
        let id = self.doc.create(NodeData::Comment(text));
        match before {
            Some(b) => self.doc.insert_before(b, id),
            None => self.doc.append(parent, id),
        }
    }

    fn insert_comment_on(&mut self, parent: NodeId, text: String) {
        let id = self.doc.create(NodeData::Comment(text));
        self.doc.append(parent, id);
    }

    // ----- implied end tags -----

    pub(crate) fn generate_implied_end_tags(&mut self, except: Option<&str>) {
        while let Some(e) = self.current().and_then(|id| self.doc.element(id)) {
            if tags::implied_end_tag_atom(&e.name) && Some(e.name.as_str()) != except {
                self.open.pop();
            } else {
                break;
            }
        }
    }

    // ----- generic text-content elements -----

    /// Generic raw text / RCDATA element parsing (§13.2.6.2).
    pub(crate) fn generic_text_element(
        &mut self,
        tag: &Tag,
        tok: &mut Tokenizer<'_>,
        rawtext: bool,
    ) {
        self.insert_html(tag);
        tok.set_state(if rawtext { tokenizer::State::Rawtext } else { tokenizer::State::Rcdata });
        tok.set_last_start_tag(&tag.name);
        self.orig_mode = self.mode;
        self.mode = InsertionMode::Text;
    }

    // ----- reset insertion mode (§13.2.6.4.22 "reset the insertion mode
    // appropriately") -----

    pub(crate) fn reset_insertion_mode(&mut self) {
        self.mode = self.appropriate_mode();
    }

    /// The mode "reset the insertion mode appropriately" selects.
    pub(crate) fn appropriate_mode(&self) -> InsertionMode {
        // Walking down from the top, only the mode-setting elements can
        // decide; the topmost one above the bottom decides.
        if let Some(i) = self.open.top_mode_setter().filter(|&i| i > 0) {
            let name = self.doc.html_name(self.open[i]).expect("mode setters are HTML");
            return self.mode_decided_by(name, i, false).expect("mode setters decide");
        }
        // Otherwise the bottom-most node decides, judged as the context
        // element in the fragment case (§13.2.6.4.22 step 2).
        match self.open.first().and_then(|id| self.doc.html_name(id)) {
            Some(name) => {
                let name = self.fragment_context.as_deref().unwrap_or(name);
                self.mode_decided_by(name, 0, true).unwrap_or(InsertionMode::InBody)
            }
            None => InsertionMode::InBody,
        }
    }

    /// The mode an HTML element named `name` at stack index `i` selects in
    /// "reset the insertion mode appropriately", or `None` if the walk
    /// goes past it. `last` marks the bottom-most node.
    fn mode_decided_by(&self, name: &str, i: usize, last: bool) -> Option<InsertionMode> {
        Some(match name {
            "select" => {
                // In a table unless a template sits between the two.
                let table = self.open.topmost_below(&atom!("table"), i);
                let template = self.open.topmost_below(&atom!("template"), i);
                match (table, template) {
                    (Some(t), Some(tp)) if t > tp => InsertionMode::InSelectInTable,
                    (Some(_), None) => InsertionMode::InSelectInTable,
                    _ => InsertionMode::InSelect,
                }
            }
            "td" | "th" if !last => InsertionMode::InCell,
            "tr" => InsertionMode::InRow,
            "tbody" | "thead" | "tfoot" => InsertionMode::InTableBody,
            "caption" => InsertionMode::InCaption,
            "colgroup" => InsertionMode::InColumnGroup,
            "table" => InsertionMode::InTable,
            "head" if !last => InsertionMode::InHead,
            "body" => InsertionMode::InBody,
            "frameset" => InsertionMode::InFrameset,
            "html" => {
                if self.head.is_none() {
                    InsertionMode::BeforeHead
                } else {
                    InsertionMode::AfterHead
                }
            }
            _ => return None,
        })
    }

    // ----- stop parsing -----

    pub(crate) fn stop_parsing(&mut self) -> Ctl {
        // Report elements whose end tags were genuinely missing at EOF.
        let omittable = [
            "dd", "dt", "li", "optgroup", "option", "p", "rb", "rp", "rt", "rtc", "tbody", "td",
            "tfoot", "th", "thead", "tr", "body", "html",
        ];
        let names: Vec<Atom> = self
            .open
            .iter()
            .filter_map(|id| self.doc.element(id).map(|e| &e.name))
            .filter(|n| !omittable.contains(&n.as_str()))
            .cloned()
            .collect();
        if !names.is_empty() {
            self.event(TreeEventKind::EofWithOpenElements { names });
        }
        self.done = true;
        Ctl::Done
    }

    // =====================================================================
    // Insertion modes: document prologue
    // =====================================================================

    fn initial(&mut self, token: Token) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                skip_leading_whitespace(&mut s);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.event(TreeEventKind::MissingDoctype);
                self.quirks = QuirksMode::Quirks;
                self.mode = InsertionMode::BeforeHtml;
                Ctl::Reprocess(Token::Characters(s))
            }
            Token::Comment(c) => {
                let root = self.doc.root();
                self.insert_comment_on(root, c);
                Ctl::Done
            }
            Token::Doctype(d) => {
                self.quirks = doctype_quirks(&d);
                let node = NodeData::Doctype(Box::new(Doctype {
                    name: d.name.unwrap_or_default(),
                    public_id: d.public_id.unwrap_or_default(),
                    system_id: d.system_id.unwrap_or_default(),
                }));
                let id = self.doc.create(node);
                let root = self.doc.root();
                self.doc.append(root, id);
                self.mode = InsertionMode::BeforeHtml;
                Ctl::Done
            }
            other => {
                self.event(TreeEventKind::MissingDoctype);
                self.quirks = QuirksMode::Quirks;
                self.mode = InsertionMode::BeforeHtml;
                Ctl::Reprocess(other)
            }
        }
    }

    fn before_html(&mut self, token: Token) -> Ctl {
        match token {
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::Comment(c) => {
                let root = self.doc.root();
                self.insert_comment_on(root, c);
                Ctl::Done
            }
            Token::Characters(mut s) => {
                skip_leading_whitespace(&mut s);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.create_html_implied();
                Ctl::Reprocess(Token::Characters(s))
            }
            Token::StartTag(ref tag) if tag.name == "html" => {
                let id = self.doc.create_element_at("html", Namespace::Html, tag.attrs, tag.offset);
                let root = self.doc.root();
                self.doc.append(root, id);
                self.open.push(&self.doc, id);
                self.mode = InsertionMode::BeforeHead;
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if !matches!(
                    tag.name.id(),
                    names::HEAD | names::BODY | names::HTML | names::BR
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                Ctl::Done
            }
            other => {
                self.create_html_implied();
                Ctl::Reprocess(other)
            }
        }
    }

    fn create_html_implied(&mut self) {
        self.event(TreeEventKind::ImplicitHtml);
        let id = self.doc.create_element("html", Namespace::Html, AttrRange::default());
        let root = self.doc.root();
        self.doc.append(root, id);
        self.open.push(&self.doc, id);
        self.mode = InsertionMode::BeforeHead;
    }

    fn before_head(&mut self, token: Token) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                skip_leading_whitespace(&mut s);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.create_head_implied();
                Ctl::Reprocess(Token::Characters(s))
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "html" => {
                // Handled by the in-body rule (attribute merge).
                self.merge_html_attrs(tag);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "head" => {
                let id = self.insert_html(tag);
                self.head = Some(id);
                self.mode = InsertionMode::InHead;
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if !matches!(
                    tag.name.id(),
                    names::HEAD | names::BODY | names::HTML | names::BR
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                Ctl::Done
            }
            other => {
                self.create_head_implied();
                Ctl::Reprocess(other)
            }
        }
    }

    fn create_head_implied(&mut self) {
        self.event(TreeEventKind::ImplicitHead);
        let tag = Tag::named("head");
        let id = self.insert_html(&tag);
        self.head = Some(id);
        self.mode = InsertionMode::InHead;
    }

    fn in_head(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                let ws = split_off_leading_whitespace(&mut s);
                self.insert_chars(ws, false);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.close_head_for(Trigger::text(&s));
                Ctl::Reprocess(Token::Characters(s))
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) => match tag.name.id() {
                names::HTML => {
                    self.merge_html_attrs(tag);
                    Ctl::Done
                }
                names::BASE | names::BASEFONT | names::BGSOUND | names::LINK | names::META => {
                    self.insert_void(tag);
                    Ctl::Done
                }
                names::TITLE => {
                    self.generic_text_element(tag, tok, false);
                    Ctl::Done
                }
                names::NOFRAMES | names::STYLE => {
                    self.generic_text_element(tag, tok, true);
                    Ctl::Done
                }
                names::NOSCRIPT => {
                    // Scripting disabled: parse noscript content as markup.
                    self.insert_html(tag);
                    self.mode = InsertionMode::InHeadNoscript;
                    Ctl::Done
                }
                names::SCRIPT => {
                    self.insert_html(tag);
                    tok.set_state(tokenizer::State::ScriptData);
                    tok.set_last_start_tag("script");
                    self.orig_mode = self.mode;
                    self.mode = InsertionMode::Text;
                    Ctl::Done
                }
                names::TEMPLATE => {
                    // Simplified: ordinary element (see module docs).
                    self.insert_html(tag);
                    self.formatting.push(FormatEntry::Marker);
                    Ctl::Done
                }
                names::HEAD => {
                    self.event(TreeEventKind::SecondHeadIgnored);
                    Ctl::Done
                }
                _ => {
                    self.close_head_for(Trigger::StartTag(tag.name.clone()));
                    Ctl::Reprocess(token)
                }
            },
            Token::EndTag(ref tag) => match tag.name.id() {
                names::HEAD => {
                    self.pop_head();
                    Ctl::Done
                }
                names::TEMPLATE => {
                    if self.open.has_element(&atom!("template")) {
                        self.generate_implied_end_tags(None);
                        self.open.pop_through(&atom!("template"));
                        formatting::clear_to_marker(&mut self.formatting);
                    } else {
                        self.event(TreeEventKind::StrayEndTag { tag: atom!("template") });
                    }
                    Ctl::Done
                }
                names::BODY | names::HTML | names::BR => {
                    self.close_head_for(Trigger::EndTag(tag.name.clone()));
                    Ctl::Reprocess(token)
                }
                _ => {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    Ctl::Done
                }
            },
            Token::Eof => {
                self.close_head_quiet();
                Ctl::Reprocess(Token::Eof)
            }
        }
    }

    /// The "anything else" exit from in-head: the head closes because a
    /// non-head token arrived — the HF1 signal.
    fn close_head_for(&mut self, by: Trigger) {
        self.event(TreeEventKind::HeadClosedBy { by });
        self.pop_head();
    }

    /// Head closes at EOF without an HF1 signal (an empty page is not a
    /// broken head).
    fn close_head_quiet(&mut self) {
        self.pop_head();
    }

    /// Leave "in head": pop through the head element. A `<template>` still
    /// open in head (which parses as an ordinary element, see the module
    /// docs) closes with it and releases its formatting marker, as in
    /// [`Self::unwind_to_html`]; popping only the current node would leave
    /// the head open under the template.
    fn pop_head(&mut self) {
        match self.head.filter(|&h| self.open.contains(h)) {
            Some(head) => {
                while let Some(popped) = self.open.pop() {
                    if popped == head {
                        break;
                    }
                    if self.doc.is_html(popped, "template") {
                        formatting::clear_to_marker(&mut self.formatting);
                    }
                }
            }
            None => {
                self.open.pop();
            }
        }
        self.mode = InsertionMode::AfterHead;
    }

    fn in_head_noscript(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "html" => {
                self.merge_html_attrs(tag);
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "noscript" => {
                self.open.pop();
                self.mode = InsertionMode::InHead;
                Ctl::Done
            }
            Token::Characters(s) if s.chars().all(is_html_whitespace) => {
                self.insert_chars(s, false);
                Ctl::Done
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::StartTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::BASEFONT
                        | names::BGSOUND
                        | names::LINK
                        | names::META
                        | names::NOFRAMES
                        | names::STYLE
                ) =>
            {
                self.in_head(token, tok)
            }
            Token::StartTag(ref tag) if matches!(tag.name.id(), names::HEAD | names::NOSCRIPT) => {
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.clone() });
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name != "br" => {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                Ctl::Done
            }
            other => {
                // Parse error: pop noscript, back to in head.
                self.event(TreeEventKind::HeadClosedBy { by: Trigger::NoscriptContent });
                self.open.pop();
                self.mode = InsertionMode::InHead;
                Ctl::Reprocess(other)
            }
        }
    }

    fn after_head(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                let ws = split_off_leading_whitespace(&mut s);
                self.insert_chars(ws, false);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.create_body_implied(Trigger::text(&s));
                Ctl::Reprocess(Token::Characters(s))
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) => match tag.name.id() {
                names::HTML => {
                    self.merge_html_attrs(tag);
                    Ctl::Done
                }
                names::BODY => {
                    self.insert_html(tag);
                    self.frameset_ok = false;
                    self.mode = InsertionMode::InBody;
                    Ctl::Done
                }
                names::FRAMESET => {
                    self.insert_html(tag);
                    self.mode = InsertionMode::InFrameset;
                    Ctl::Done
                }
                names::BASE
                | names::BASEFONT
                | names::BGSOUND
                | names::LINK
                | names::META
                | names::NOFRAMES
                | names::SCRIPT
                | names::STYLE
                | names::TEMPLATE
                | names::TITLE => {
                    // Parse error: the element is put back inside head.
                    self.event(TreeEventKind::LateHeadContent { tag: tag.name.clone() });
                    if let Some(head) = self.head {
                        self.open.push(&self.doc, head);
                        let ctl = self.in_head(token, tok);
                        // Per spec, remove the head element pointer's node
                        // from the stack (it is "not necessarily the current
                        // node" — e.g. a <title> is now above it).
                        self.open.remove_node(head);
                        ctl
                    } else {
                        self.in_head(token, tok)
                    }
                }
                names::HEAD => {
                    self.event(TreeEventKind::SecondHeadIgnored);
                    Ctl::Done
                }
                _ => {
                    self.create_body_implied(Trigger::StartTag(tag.name.clone()));
                    Ctl::Reprocess(token)
                }
            },
            Token::EndTag(ref tag) => match tag.name.id() {
                names::TEMPLATE => self.in_head(token, tok),
                names::BODY | names::HTML | names::BR => {
                    self.create_body_implied(Trigger::EndTag(tag.name.clone()));
                    Ctl::Reprocess(token)
                }
                _ => {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    Ctl::Done
                }
            },
            Token::Eof => {
                // An empty body is not a "content before body" violation.
                self.unwind_to_html();
                let tag = Tag::named("body");
                self.insert_html(&tag);
                self.mode = InsertionMode::InBody;
                Ctl::Reprocess(Token::Eof)
            }
        }
    }

    pub(crate) fn create_body_implied(&mut self, by: Trigger) {
        self.event(TreeEventKind::ImplicitBody { by });
        self.unwind_to_html();
        let tag = Tag::named("body");
        self.insert_html(&tag);
        self.mode = InsertionMode::InBody;
    }

    /// In "after head" the current node is normally the html element, but
    /// late head content handled through the in-head rules can leave an
    /// element open above it — a `<template>` reopened into head stays on
    /// the stack after the head pointer is removed. The implied body must
    /// still become a child of html, so close anything left above it (and
    /// release the formatting marker a template pushed).
    fn unwind_to_html(&mut self) {
        while self.open.len() > 1 {
            let popped = self.open.pop().expect("len checked");
            if self.doc.is_html(popped, "template") {
                formatting::clear_to_marker(&mut self.formatting);
            }
        }
    }

    /// The value of attribute `name` on `tag`.
    pub(crate) fn tag_attr(&self, tag: &Tag, name: &str) -> Option<&str> {
        find_attr(self.doc.attrs(tag.attrs), name).map(|a| a.value.as_str())
    }

    // ----- Text mode (script / RCDATA / RAWTEXT content) -----

    fn text(&mut self, token: Token) -> Ctl {
        match token {
            Token::Characters(s) => {
                self.insert_chars(s, false);
                Ctl::Done
            }
            Token::EndTag(_) => {
                self.open.pop();
                self.mode = self.orig_mode;
                Ctl::Done
            }
            Token::Eof => {
                let tag = self
                    .current()
                    .and_then(|id| self.doc.element(id).map(|e| e.name.clone()))
                    .unwrap_or(atom!("script"));
                self.event(TreeEventKind::EofInTextContent { tag });
                self.open.pop();
                self.mode = self.orig_mode;
                Ctl::Reprocess(Token::Eof)
            }
            // Start tags / comments / doctypes cannot be tokenized inside
            // text content models.
            _ => Ctl::Done,
        }
    }

    // ----- after body -----

    fn after_body(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(ref s) if s.chars().all(is_html_whitespace) => {
                self.in_body(token, tok)
            }
            Token::Comment(c) => {
                // Comment goes on the html element.
                if let Some(html) = self.open.first() {
                    self.insert_comment_on(html, c);
                }
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "html" => {
                self.merge_html_attrs(tag);
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "html" => {
                self.mode = InsertionMode::AfterAfterBody;
                Ctl::Done
            }
            Token::Eof => self.stop_parsing(),
            other => {
                // Parse error: back into the body.
                self.mode = InsertionMode::InBody;
                Ctl::Reprocess(other)
            }
        }
    }

    fn after_after_body(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Comment(c) => {
                let root = self.doc.root();
                self.insert_comment_on(root, c);
                Ctl::Done
            }
            Token::Doctype(_) => self.in_body(token, tok),
            Token::Characters(ref s) if s.chars().all(is_html_whitespace) => {
                self.in_body(token, tok)
            }
            Token::StartTag(ref tag) if tag.name == "html" => self.in_body(token, tok),
            Token::Eof => self.stop_parsing(),
            other => {
                self.mode = InsertionMode::InBody;
                Ctl::Reprocess(other)
            }
        }
    }

    // ----- framesets (minimal) -----

    fn in_frameset(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                s.retain(is_html_whitespace);
                self.insert_chars(s, false);
                Ctl::Done
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::StartTag(ref tag) => match tag.name.id() {
                names::HTML => {
                    self.merge_html_attrs(tag);
                    Ctl::Done
                }
                names::FRAMESET => {
                    self.insert_html(tag);
                    Ctl::Done
                }
                names::FRAME => {
                    self.insert_void(tag);
                    Ctl::Done
                }
                names::NOFRAMES => self.in_head(token, tok),
                _ => {
                    self.event(TreeEventKind::StrayStartTag { tag: tag.name.clone() });
                    Ctl::Done
                }
            },
            Token::EndTag(ref tag) if tag.name == "frameset" => {
                if !self.current_is_html("html") {
                    self.open.pop();
                }
                if !self.current_is_html("frameset") {
                    self.mode = InsertionMode::AfterFrameset;
                }
                Ctl::Done
            }
            Token::EndTag(ref tag) => {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                Ctl::Done
            }
            Token::Eof => self.stop_parsing(),
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
        }
    }

    fn after_frameset(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::EndTag(ref tag) if tag.name == "html" => {
                self.mode = InsertionMode::AfterAfterFrameset;
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "noframes" => self.in_head(token, tok),
            Token::Eof => self.stop_parsing(),
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            _ => Ctl::Done,
        }
    }

    fn after_after_frameset(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Comment(c) => {
                let root = self.doc.root();
                self.insert_comment_on(root, c);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "noframes" => self.in_head(token, tok),
            Token::Eof => self.stop_parsing(),
            _ => Ctl::Done,
        }
    }
}

// ----- small shared helpers -----

pub(crate) fn is_html_whitespace(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\u{C}' | '\r' | ' ')
}

fn leading_whitespace_len(s: &str) -> usize {
    s.len() - s.trim_start_matches(is_html_whitespace).len()
}

/// Drop the leading HTML whitespace of `s`, in place.
fn skip_leading_whitespace(s: &mut String) {
    s.drain(..leading_whitespace_len(s));
}

/// Split the leading HTML whitespace off `s` and return it; `s` keeps the
/// rest. Only a run with both parts non-empty allocates (for the rest).
pub(crate) fn split_off_leading_whitespace(s: &mut String) -> String {
    match leading_whitespace_len(s) {
        0 => String::new(),
        n if n == s.len() => std::mem::take(s),
        n => {
            let rest = s.split_off(n);
            std::mem::replace(s, rest)
        }
    }
}

/// DOCTYPE → quirks mode (simplified §13.2.6.4.1: the full legacy public-id
/// list is reduced to the prefixes that actually occur).
fn doctype_quirks(d: &tokenizer::Doctype) -> QuirksMode {
    if d.force_quirks || d.name.as_deref() != Some("html") {
        return QuirksMode::Quirks;
    }
    let public = d.public_id.as_deref().unwrap_or("").to_ascii_lowercase();
    if public.starts_with("-//w3c//dtd html 4.01 frameset//")
        || public.starts_with("-//w3c//dtd html 4.01 transitional//")
    {
        return if d.system_id.is_some() { QuirksMode::LimitedQuirks } else { QuirksMode::Quirks };
    }
    if public.starts_with("-//w3c//dtd xhtml 1.0 frameset//")
        || public.starts_with("-//w3c//dtd xhtml 1.0 transitional//")
    {
        return QuirksMode::LimitedQuirks;
    }
    if public.starts_with("-//w3c//dtd html 3.2")
        || public.starts_with("-//ietf//dtd html//")
        || public == "html"
    {
        return QuirksMode::Quirks;
    }
    QuirksMode::NoQuirks
}

/// Foreign attribute adjustments (§13.2.6.5, simplified: the xlink/xml/xmlns
/// prefixes are preserved verbatim). SVG takes the spec's table through a
/// static id map; MathML's definitionURL gets its canonical case. The
/// adjusted spellings are all in the static atom table, so no path through
/// here allocates.
fn adjust_foreign_attr(ns: Namespace, name: &Atom) -> Atom {
    match ns {
        Namespace::Svg => tags::svg_attr_fixup_atom(name),
        Namespace::MathMl if *name == atom!("definitionurl") => atom!("definitionURL"),
        _ => name.clone(),
    }
}

#[cfg(test)]
mod tests;
#[cfg(test)]
mod walks;
