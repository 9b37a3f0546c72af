//! The HTML tokenizer (§13.2.5): a character-driven state machine that turns
//! the preprocessed input stream into [`Token`]s while recording every
//! spec-named parse error it tolerates.
//!
//! Browsers run this exact machine but throw the error states away; the
//! paper's Parsing-Error violations (FB1 `unexpected-solidus-in-tag`, FB2
//! `missing-whitespace-between-attributes`, DM3 `duplicate-attribute`, and
//! the DE3 family's attribute anomalies) *are* those error states, so this
//! implementation keeps them, with offsets, as first-class output.

mod token;

pub use token::{Attr, Doctype, Tag, Token, Tokens};

use crate::atoms::{Atom, Interner, SharedStr};
use crate::dom::AttrRange;
use crate::entities;
use crate::errors::{ErrorCode, ParseError};
use crate::preprocess::InputStream;
use crate::recycle::{self, Scratch};
use crate::scan;

/// Tokenizer states (§13.2.5.1–80). Names mirror the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum State {
    Data,
    Rcdata,
    Rawtext,
    ScriptData,
    Plaintext,
    TagOpen,
    EndTagOpen,
    TagName,
    RcdataLessThan,
    RcdataEndTagOpen,
    RcdataEndTagName,
    RawtextLessThan,
    RawtextEndTagOpen,
    RawtextEndTagName,
    ScriptDataLessThan,
    ScriptDataEndTagOpen,
    ScriptDataEndTagName,
    ScriptDataEscapeStart,
    ScriptDataEscapeStartDash,
    ScriptDataEscaped,
    ScriptDataEscapedDash,
    ScriptDataEscapedDashDash,
    ScriptDataEscapedLessThan,
    ScriptDataEscapedEndTagOpen,
    ScriptDataEscapedEndTagName,
    ScriptDataDoubleEscapeStart,
    ScriptDataDoubleEscaped,
    ScriptDataDoubleEscapedDash,
    ScriptDataDoubleEscapedDashDash,
    ScriptDataDoubleEscapedLessThan,
    ScriptDataDoubleEscapeEnd,
    BeforeAttributeName,
    AttributeName,
    AfterAttributeName,
    BeforeAttributeValue,
    AttributeValueDouble,
    AttributeValueSingle,
    AttributeValueUnquoted,
    AfterAttributeValueQuoted,
    SelfClosingStartTag,
    BogusComment,
    MarkupDeclarationOpen,
    CommentStart,
    CommentStartDash,
    Comment,
    CommentLessThan,
    CommentLessThanBang,
    CommentLessThanBangDash,
    CommentLessThanBangDashDash,
    CommentEndDash,
    CommentEnd,
    CommentEndBang,
    Doctype,
    BeforeDoctypeName,
    DoctypeName,
    AfterDoctypeName,
    AfterDoctypePublicKeyword,
    BeforeDoctypePublicId,
    DoctypePublicIdDouble,
    DoctypePublicIdSingle,
    AfterDoctypePublicId,
    BetweenDoctypePublicSystem,
    AfterDoctypeSystemKeyword,
    BeforeDoctypeSystemId,
    DoctypeSystemIdDouble,
    DoctypeSystemIdSingle,
    AfterDoctypeSystemId,
    BogusDoctype,
    CdataSection,
    CdataSectionBracket,
    CdataSectionEnd,
    CharacterReference,
    NamedCharacterReference,
    AmbiguousAmpersand,
    NumericCharacterReference,
    HexCharRefStart,
    DecCharRefStart,
    HexCharRef,
    DecCharRef,
    NumericCharRefEnd,
}

/// Which kind of tag token is under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagKind {
    Start,
    End,
}

/// Scratch buffers for the attribute under construction. One lives in the
/// tokenizer for its whole lifetime and is recycled across attributes and
/// tags — `start_new_attr` clears the buffers (keeping their capacity)
/// instead of allocating fresh `String`s per attribute.
#[derive(Debug, Default)]
struct AttrBuilder {
    /// Whether an attribute is currently being built. Replaces the old
    /// `Option<AttrBuilder>`: `false` ⇔ the old `None`.
    active: bool,
    name: String,
    value: String,
    /// Raw (undecoded) source text of the value. Only maintained once
    /// `diverged` is set; until then the raw text equals `value` and is not
    /// stored separately.
    raw_value: String,
    /// Set by the first decoded character reference in the value — the only
    /// way raw and decoded text can differ.
    diverged: bool,
    name_offset: usize,
    /// Set when leaving the attribute-name state if the name already exists
    /// on the tag: the attribute is a spec `duplicate-attribute`.
    duplicate: bool,
    /// The interned name, filled by the duplicate check when the name is
    /// complete so `finish_cur_attr` doesn't intern a second time.
    atom: Option<Atom>,
}

/// The tokenizer. Feed it the decoded document text — preprocessing
/// (newline normalization, control/noncharacter errors) happens inline via
/// [`InputStream`], with no intermediate character buffer. Pull tokens with
/// [`Tokenizer::next_token`]. The tree builder drives the tag feedback
/// (RCDATA/RAWTEXT/script-data switching) via [`Tokenizer::set_state`] and
/// [`Tokenizer::set_last_start_tag`].
pub struct Tokenizer<'a> {
    stream: InputStream<'a>,
    /// Whether the batched fast paths (whole-slice appends over plain
    /// character runs) are enabled; disabled only by [`Tokenizer::new_scalar`]
    /// so tests can compare both modes.
    batched: bool,
    state: State,
    return_state: State,
    errors: Vec<ParseError>,
    /// The handoff to [`Tokenizer::next_token`]. One step emits at most a
    /// flushed text run and then one token (EOF is `eof_done`), so a slot
    /// of each holds it; `next_token` drains both before it steps again.
    ready_text: Option<String>,
    ready: Option<Token>,
    text_buf: String,
    /// Empty strings for the next text runs: the text nodes of documents
    /// this thread dropped (see [`crate::recycle`]).
    spare_texts: Vec<String>,

    tag_kind: TagKind,
    tag_name: String,
    tag_self_closing: bool,
    /// Scratch for the current tag's attributes. They stay here until the
    /// tag is handed over, which moves them to the end of an arena and
    /// keeps the capacity.
    tag_attrs: Vec<Attr>,
    tag_dup_attrs: Vec<Attr>,
    tag_offset: usize,
    cur_attr: AttrBuilder,
    /// Per-parse dedup for names outside the static atom table; fresh per
    /// tokenizer, so dynamic atoms never leak between documents.
    interner: Interner,
    /// The previously emitted tag's name atom. Documents repeat tag names
    /// constantly (`<p>...</p><p>...`), so this one-entry memo turns most
    /// tag-name interns into a single string compare plus a cheap clone.
    last_tag_atom: Atom,

    comment: String,
    /// The DOCTYPE token under construction. Its name, when it has one, is
    /// lexed into `doctype_name` and copied in once, at emission.
    doctype: Option<Doctype>,
    doctype_name: String,
    last_start_tag: String,
    temp_buffer: String,
    char_ref_code: u32,
    /// Start of the pending character reference (`&`) as a char offset
    /// (for error reporting) and a byte offset (for raw-source slicing).
    char_ref_start: usize,
    char_ref_start_byte: usize,
    allow_cdata: bool,
    eof_done: bool,
    /// Whether the most recent `next()` consumed a character (vs. hit EOF);
    /// governs whether `reconsume` steps the position back.
    last_consumed: bool,
}

impl<'a> Tokenizer<'a> {
    pub fn new(input: &'a str) -> Self {
        Self::with_mode(input, true)
    }

    /// A tokenizer with the batched fast paths disabled — every character is
    /// pulled through the scalar state machine. Output is identical to
    /// [`Tokenizer::new`]; tests use both to prove it.
    pub fn new_scalar(input: &'a str) -> Self {
        Self::with_mode(input, false)
    }

    fn with_mode(input: &'a str, batched: bool) -> Self {
        let Scratch {
            tag_name,
            attr_name,
            attr_value,
            raw_value,
            attrs,
            last_start_tag,
            doctype_name,
        } = recycle::take_scratch();
        let mut spare_texts = recycle::take_texts();
        Tokenizer {
            stream: InputStream::new(input),
            batched,
            state: State::Data,
            return_state: State::Data,
            errors: Vec::new(),
            ready_text: None,
            ready: None,
            text_buf: spare_texts.pop().unwrap_or_default(),
            spare_texts,
            tag_kind: TagKind::Start,
            tag_name,
            tag_self_closing: false,
            tag_attrs: attrs,
            tag_dup_attrs: Vec::new(),
            tag_offset: 0,
            cur_attr: AttrBuilder {
                name: attr_name,
                value: attr_value,
                raw_value,
                ..AttrBuilder::default()
            },
            interner: Interner::new(),
            last_tag_atom: Atom::default(),
            comment: String::new(),
            doctype: None,
            doctype_name,
            last_start_tag,
            temp_buffer: String::new(),
            char_ref_code: 0,
            char_ref_start: 0,
            char_ref_start_byte: 0,
            allow_cdata: false,
            eof_done: false,
            last_consumed: false,
        }
    }

    /// Consume input until the next token is available. A tag's
    /// attributes are moved to the end of `attrs` (the arena of the
    /// document being built, or of [`Tokens`]), and the tag holds their
    /// range there.
    pub fn next_token(&mut self, attrs: &mut Vec<Attr>) -> Token {
        let mut token = self.next_emitted();
        if let Token::StartTag(tag) | Token::EndTag(tag) = &mut token {
            tag.attrs = hand_over(&mut self.tag_attrs, attrs);
        }
        token
    }

    /// The next emitted token. A tag's attributes are still in the
    /// scratch list: a step emits at most a text run and then one token,
    /// and no step runs before both are taken.
    fn next_emitted(&mut self) -> Token {
        loop {
            if let Some(text) = self.ready_text.take() {
                return Token::Characters(text);
            }
            if let Some(t) = self.ready.take() {
                return t;
            }
            if self.eof_done {
                return Token::Eof;
            }
            self.step();
        }
    }

    /// Record parse errors in `errors`, which must be empty, instead of a
    /// list of the tokenizer's own.
    pub(crate) fn use_error_list(&mut self, errors: Vec<ParseError>) {
        debug_assert!(errors.is_empty() && self.errors.is_empty());
        self.errors = errors;
    }

    /// Drain the parse errors recorded so far.
    pub fn take_errors(&mut self) -> Vec<ParseError> {
        std::mem::take(&mut self.errors)
    }

    /// Drain the input-stream preprocessing errors (control characters,
    /// noncharacters). The list is complete once an EOF token has been
    /// emitted, since that requires consuming the whole stream.
    pub fn take_preprocess_errors(&mut self) -> Vec<ParseError> {
        self.stream.take_errors()
    }

    /// Tree-construction feedback: switch the machine state (used for
    /// RCDATA/RAWTEXT/script-data/PLAINTEXT content models).
    pub fn set_state(&mut self, state: State) {
        self.state = state;
    }

    /// Tree-construction feedback: the name used by the "appropriate end
    /// tag" check in RCDATA/RAWTEXT/script content.
    pub fn set_last_start_tag(&mut self, name: &str) {
        self.last_start_tag.clear();
        self.last_start_tag.push_str(name);
    }

    /// Tree-construction feedback: whether `<![CDATA[` opens a real CDATA
    /// section (true only while the adjusted current node is foreign).
    pub fn set_allow_cdata(&mut self, allow: bool) {
        self.allow_cdata = allow;
    }

    /// Standalone-mode feedback equivalent to the tree builder's content
    /// model switches, used by [`crate::tokenize`].
    pub fn apply_default_feedback(&mut self, name: &str) {
        match name {
            "title" | "textarea" => self.set_state(State::Rcdata),
            "style" | "xmp" | "iframe" | "noembed" | "noframes" => self.set_state(State::Rawtext),
            "script" => self.set_state(State::ScriptData),
            "plaintext" => self.set_state(State::Plaintext),
            _ => {}
        }
        self.set_last_start_tag(name);
    }

    /// Current position in the input (normalized characters consumed so far).
    pub fn position(&self) -> usize {
        self.stream.chars_consumed()
    }

    // ----- low-level helpers -----

    fn next(&mut self) -> Option<char> {
        let c = self.stream.next();
        self.last_consumed = c.is_some();
        c
    }

    /// Reprocess the current input character (or EOF) in `state`.
    fn reconsume(&mut self, state: State) {
        if self.last_consumed {
            self.stream.un_next();
            self.last_consumed = false;
        }
        self.state = state;
    }

    fn error(&mut self, code: ErrorCode) {
        // Offsets point at the character that triggered the error (the one
        // just consumed), or at EOF.
        let off = self.stream.chars_consumed().saturating_sub(1);
        self.errors.push(ParseError::new(code, off));
    }

    fn error_at(&mut self, code: ErrorCode, off: usize) {
        self.errors.push(ParseError::new(code, off));
    }

    fn emit_char(&mut self, c: char) {
        self.text_buf.push(c);
    }

    fn emit_str(&mut self, s: &str) {
        self.text_buf.push_str(s);
    }

    fn flush_text(&mut self) {
        if !self.text_buf.is_empty() {
            debug_assert!(
                self.ready_text.is_none() && self.ready.is_none(),
                "a step flushes one text run, before its token"
            );
            let next = self.spare_texts.pop().unwrap_or_default();
            self.ready_text = Some(std::mem::replace(&mut self.text_buf, next));
        }
    }

    /// Hand `token` over, after the text that precedes it.
    fn emit(&mut self, token: Token) {
        self.flush_text();
        debug_assert!(self.ready.is_none(), "a step emits one token");
        self.ready = Some(token);
    }

    fn emit_eof(&mut self) {
        self.flush_text();
        self.eof_done = true;
    }

    fn emit_comment(&mut self) {
        let c = std::mem::take(&mut self.comment);
        self.emit(Token::Comment(c));
    }

    fn emit_doctype(&mut self) {
        let mut d = self.doctype.take().unwrap_or_default();
        if let Some(name) = &mut d.name {
            *name = self.doctype_name.clone();
        }
        self.emit(Token::Doctype(d));
    }

    /// Start a DOCTYPE token whose name begins with `c`.
    fn start_doctype_name(&mut self, c: char) {
        self.doctype_name.clear();
        self.doctype_name.push(c);
        self.doctype = Some(Doctype { name: Some(String::new()), ..Doctype::default() });
        self.state = State::DoctypeName;
    }

    // ----- tag construction -----

    /// Scalar entry: the first name character was just consumed, so the
    /// `<` is one or two chars further back (`</` for end tags).
    fn new_tag(&mut self, kind: TagKind) {
        let pos = self.stream.chars_consumed();
        self.open_tag(kind, pos.saturating_sub(if kind == TagKind::End { 3 } else { 2 }));
    }

    /// Start a tag whose `<` is at char offset `offset`; shared with the
    /// tag lane, which opens the tag before consuming its first letter.
    fn open_tag(&mut self, kind: TagKind, offset: usize) {
        self.tag_kind = kind;
        self.tag_name.clear();
        self.tag_self_closing = false;
        self.tag_attrs.clear();
        self.tag_dup_attrs.clear();
        self.cur_attr.active = false;
        self.tag_offset = offset;
    }

    /// Scalar entry: the first name character was just consumed, so the
    /// attribute starts one character back.
    fn start_new_attr(&mut self) {
        let offset = self.stream.chars_consumed().saturating_sub(1);
        self.start_new_attr_at(offset);
    }

    /// Shared with the fused batched path, which starts an attribute
    /// *before* consuming its first character and passes the offset
    /// explicitly.
    fn start_new_attr_at(&mut self, name_offset: usize) {
        self.finish_cur_attr();
        let a = &mut self.cur_attr;
        a.active = true;
        a.name.clear();
        a.value.clear();
        a.raw_value.clear();
        a.diverged = false;
        a.duplicate = false;
        a.atom = None;
        a.name_offset = name_offset;
    }

    /// Leaving the attribute-name state: the spec's duplicate check. The
    /// name is final here, so this is also where it is interned — the
    /// comparison against earlier attributes is then an atom compare (an
    /// integer compare for table names) instead of a string compare per
    /// attribute.
    fn check_duplicate_attr(&mut self) {
        if !self.cur_attr.active {
            return;
        }
        let atom = self.interner.intern(&self.cur_attr.name);
        if self.tag_attrs.iter().any(|a| a.name == atom) {
            self.cur_attr.duplicate = true;
            let off = self.cur_attr.name_offset;
            self.error_at(ErrorCode::DuplicateAttribute, off);
        }
        self.cur_attr.atom = Some(atom);
    }

    fn finish_cur_attr(&mut self) {
        if !self.cur_attr.active {
            return;
        }
        self.cur_attr.active = false;
        let name = match self.cur_attr.atom.take() {
            Some(a) => a,
            // Rare: the tag ended while still inside the attribute name, so
            // the duplicate check never ran.
            None => self.interner.intern(&self.cur_attr.name),
        };
        let value = SharedStr::new(&self.cur_attr.value);
        let raw = if self.cur_attr.diverged {
            Some(SharedStr::new(&self.cur_attr.raw_value))
        } else {
            None
        };
        let attr = Attr::with_raw(name, value, raw, self.cur_attr.name_offset);
        if self.cur_attr.duplicate {
            self.tag_dup_attrs.push(attr);
        } else {
            self.tag_attrs.push(attr);
        }
    }

    fn append_attr_value(&mut self, c: char) {
        if self.cur_attr.active {
            self.cur_attr.value.push(c);
            if self.cur_attr.diverged {
                self.cur_attr.raw_value.push(c);
            }
        }
    }

    fn emit_tag(&mut self) {
        self.finish_cur_attr();
        let name = if self.last_tag_atom.as_str() == self.tag_name {
            self.last_tag_atom.clone()
        } else {
            let atom = self.interner.intern(&self.tag_name);
            self.last_tag_atom = atom.clone();
            atom
        };
        self.tag_name.clear();
        let tag = Tag {
            name,
            self_closing: self.tag_self_closing,
            // Set when the tag is handed over.
            attrs: AttrRange::default(),
            duplicate_attrs: std::mem::take(&mut self.tag_dup_attrs),
            offset: self.tag_offset,
        };
        match self.tag_kind {
            TagKind::Start => {
                self.last_start_tag.clear();
                self.last_start_tag.push_str(&tag.name);
                self.emit(Token::StartTag(tag));
            }
            TagKind::End => {
                if !self.tag_attrs.is_empty() || !tag.duplicate_attrs.is_empty() {
                    self.error(ErrorCode::EndTagWithAttributes);
                }
                if tag.self_closing {
                    self.error(ErrorCode::EndTagWithTrailingSolidus);
                }
                self.emit(Token::EndTag(tag));
            }
        }
    }

    /// Whether the end tag under construction matches the last emitted start
    /// tag (the "appropriate end tag token" condition).
    fn is_appropriate_end_tag(&self) -> bool {
        self.tag_kind == TagKind::End && self.tag_name == self.last_start_tag
    }

    // ----- character reference helpers -----

    fn charref_in_attribute(&self) -> bool {
        matches!(
            self.return_state,
            State::AttributeValueDouble
                | State::AttributeValueSingle
                | State::AttributeValueUnquoted
        )
    }

    /// The raw source span of the pending character reference, from its `&`
    /// to the cursor. Such spans consist of `&`, `#`, `x`, ASCII
    /// alphanumerics, and `;` only — never CR — so the raw bytes equal the
    /// normalized characters and the slice can be used verbatim.
    fn charref_raw(&self) -> &'a str {
        let raw = self.stream.slice(self.char_ref_start_byte, self.stream.byte_pos());
        debug_assert!(raw.is_ascii() && !raw.contains('\r'));
        raw
    }

    /// Flush the raw characters consumed as (part of) a character reference
    /// without decoding them.
    fn flush_charref_literal(&mut self) {
        let slice = self.charref_raw();
        if self.charref_in_attribute() {
            if self.cur_attr.active {
                self.cur_attr.value.push_str(slice);
                if self.cur_attr.diverged {
                    self.cur_attr.raw_value.push_str(slice);
                }
            }
        } else {
            self.emit_str(slice);
        }
    }

    /// Flush a decoded character reference: decoded text to the value,
    /// original source characters to the raw value. This is the one place
    /// the raw text can diverge from the decoded value; the raw buffer is
    /// materialized lazily here, seeded with the (identical so far) value.
    fn flush_charref_decoded(&mut self, decoded: &str) {
        if self.charref_in_attribute() {
            let raw = self.charref_raw();
            if self.cur_attr.active {
                let AttrBuilder { value, raw_value, diverged, .. } = &mut self.cur_attr;
                if !*diverged {
                    *diverged = true;
                    raw_value.clear();
                    raw_value.push_str(value);
                }
                value.push_str(decoded);
                raw_value.push_str(raw);
            }
        } else {
            self.emit_str(decoded);
        }
    }

    /// Flush a lone `&` that turned out not to start a reference.
    fn flush_charref_amp(&mut self) {
        if self.charref_in_attribute() {
            if self.cur_attr.active {
                self.cur_attr.value.push('&');
                if self.cur_attr.diverged {
                    self.cur_attr.raw_value.push('&');
                }
            }
        } else {
            self.emit_char('&');
        }
    }

    // ----- the state machine -----

    /// Record that a character reference starts at the just-consumed `&`.
    fn mark_charref_start(&mut self) {
        self.char_ref_start = self.stream.chars_consumed() - 1;
        self.char_ref_start_byte = self.stream.byte_pos() - 1;
    }

    /// Batched fast path: in states whose per-character action for plain
    /// characters is "append and stay", consume the whole run of plain
    /// characters at once (found with a SWAR byte scan, see [`crate::scan`])
    /// and append it as a single slice. Returns `true` if it made progress;
    /// anything it could not prove inert (delimiters, NUL, CR, controls,
    /// non-ASCII) is left for the scalar machine. Each state passes its
    /// delimiter set as a literal to the inlined scanner.
    ///
    /// On top of the runs, the tag states *fuse* the single-character
    /// transitions that the spec defines with no parse error and no side
    /// effect beyond a state change — the `<` and `</` that open a tag, the
    /// `=` after an attribute name, the quotes around a value, the space
    /// between attributes, the closing `/>` or `>`. Each fused byte is
    /// checked before it is consumed and falls back to the scalar machine
    /// when absent, so every error path (EOF, NUL, CR, `<` in names,
    /// missing whitespace, ...) still takes the spec's per-character arms.
    /// The stream-equivalence tests compare this path against the scalar
    /// reference token-for-token and error-for-error.
    fn step_batched(&mut self) -> bool {
        match self.state {
            State::Data => self.step_batched_data(),
            State::Rcdata => push_run(&mut self.text_buf, self.stream.take_plain_run(b"&<")),
            State::Rawtext | State::ScriptData => {
                push_run(&mut self.text_buf, self.stream.take_plain_run(b"<"))
            }
            State::Plaintext => push_run(&mut self.text_buf, self.stream.take_plain_run(b"")),
            State::Comment => push_run(&mut self.comment, self.stream.take_plain_run(b"<-")),
            State::TagName
            | State::BeforeAttributeName
            | State::AfterAttributeName
            | State::AttributeName
            | State::AttributeValueUnquoted
            | State::AttributeValueDouble
            | State::AttributeValueSingle
            | State::SelfClosingStartTag => self.tag_lane(),
            _ => false,
        }
    }

    /// Batched Data: the text run, then the tag lane when the run stops at a
    /// `<` or `</` followed by an ASCII letter — the only bytes after which
    /// TagOpen and EndTagOpen open a tag, error-free. The tag's offset is
    /// the `<`'s, as the scalar path computes it.
    fn step_batched_data(&mut self) -> bool {
        let run = self.stream.take_plain_run(b"&<");
        self.text_buf.push_str(run);
        let (kind, opener) = match self.stream.rest().as_bytes() {
            [b'<', c, ..] if c.is_ascii_alphabetic() => (TagKind::Start, 1),
            [b'<', b'/', c, ..] if c.is_ascii_alphabetic() => (TagKind::End, 2),
            _ => return !run.is_empty(),
        };
        let offset = self.stream.chars_consumed();
        self.stream.advance_ascii(opener);
        self.open_tag(kind, offset);
        self.state = State::TagName;
        self.tag_lane();
        true
    }

    /// The tag lane: run the batched tag states back to back until the tag
    /// is emitted (the state is Data again) or a byte needs the scalar
    /// machine. Returning right after the emit lets the tree builder's
    /// feedback (RCDATA/RAWTEXT/script state, CDATA) land before the next
    /// character is read.
    fn tag_lane(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let step = match self.state {
                State::TagName => self.step_batched_tag_name(),
                State::BeforeAttributeName | State::AfterAttributeName => {
                    self.step_batched_attr_start()
                }
                State::AttributeName => self.step_batched_attr_name(),
                State::AttributeValueUnquoted => self.step_batched_unquoted_value(),
                State::AttributeValueDouble => self.step_batched_quoted_value(b'"'),
                State::AttributeValueSingle => self.step_batched_quoted_value(b'\''),
                State::SelfClosingStartTag => self.step_batched_self_closing(),
                _ => return progressed,
            };
            if !step {
                return progressed;
            }
            progressed = true;
        }
    }

    /// Batched TagName: append the lowercased name run, then fuse the
    /// error-free exits (space, `>`, `/`).
    fn step_batched_tag_name(&mut self) -> bool {
        let run = self.stream.take_name_run(scan::TAG_NAME_DELIMS);
        if run.is_empty() {
            return false;
        }
        let start = self.tag_name.len();
        self.tag_name.push_str(run);
        self.tag_name[start..].make_ascii_lowercase();
        if self.stream.eat_byte(b' ') {
            self.state = State::BeforeAttributeName;
        } else if self.stream.eat_byte(b'>') {
            self.state = State::Data;
            self.emit_tag();
        } else if self.stream.eat_byte(b'/') {
            self.state = State::SelfClosingStartTag;
        }
        true
    }

    /// Batched BeforeAttributeName / AfterAttributeName: skip the space run,
    /// then open the next attribute when a name-start byte follows, or take
    /// the `/` or `>` that both states handle error-free. Everything else
    /// (`=`, EOF, ...) stays scalar.
    fn step_batched_attr_start(&mut self) -> bool {
        let mut progressed = false;
        while self.stream.eat_byte(b' ') {
            progressed = true;
        }
        if self.stream.peek_byte().is_some_and(scan::is_attr_name_start) {
            self.start_new_attr_at(self.stream.chars_consumed());
            self.state = State::AttributeName;
            return true;
        }
        if self.stream.eat_byte(b'>') {
            self.state = State::Data;
            self.emit_tag();
            return true;
        }
        if self.stream.eat_byte(b'/') {
            self.state = State::SelfClosingStartTag;
            return true;
        }
        progressed
    }

    /// Batched AttributeName: append the lowercased name run, then fuse the
    /// error-free exits — `=` (plus an immediately following quote), space,
    /// `>`, `/` — each of which leaves the name final and so runs the
    /// spec's duplicate check here.
    fn step_batched_attr_name(&mut self) -> bool {
        if !self.cur_attr.active {
            return false;
        }
        let run = self.stream.take_name_run(scan::ATTR_NAME_DELIMS);
        let progressed = !run.is_empty();
        if progressed {
            let start = self.cur_attr.name.len();
            self.cur_attr.name.push_str(run);
            self.cur_attr.name[start..].make_ascii_lowercase();
        }
        if self.stream.eat_byte(b'=') {
            self.check_duplicate_attr();
            if self.stream.eat_byte(b'"') {
                self.state = State::AttributeValueDouble;
            } else if self.stream.eat_byte(b'\'') {
                self.state = State::AttributeValueSingle;
            } else {
                self.state = State::BeforeAttributeValue;
            }
            return true;
        }
        if self.stream.eat_byte(b' ') {
            self.check_duplicate_attr();
            self.state = State::AfterAttributeName;
            return true;
        }
        if self.stream.eat_byte(b'>') {
            self.check_duplicate_attr();
            self.state = State::Data;
            self.emit_tag();
            return true;
        }
        if self.stream.eat_byte(b'/') {
            self.check_duplicate_attr();
            self.state = State::SelfClosingStartTag;
            return true;
        }
        progressed
    }

    /// Batched unquoted AttributeValue: append the value run, then fuse the
    /// error-free exits (space, `>`).
    fn step_batched_unquoted_value(&mut self) -> bool {
        if !self.cur_attr.active {
            return false;
        }
        let run = self.stream.take_name_run(scan::UNQUOTED_VALUE_DELIMS);
        let progressed = !run.is_empty();
        if progressed {
            self.cur_attr.value.push_str(run);
            if self.cur_attr.diverged {
                self.cur_attr.raw_value.push_str(run);
            }
        }
        if self.stream.eat_byte(b' ') {
            self.state = State::BeforeAttributeName;
            return true;
        }
        if self.stream.eat_byte(b'>') {
            self.state = State::Data;
            self.emit_tag();
            return true;
        }
        progressed
    }

    /// Batched quoted AttributeValue: append the value run, then fuse the
    /// closing quote and the error-free AfterAttributeValueQuoted exits
    /// (space, `>`, `/`); anything else reconsumes there scalar
    /// (missing-whitespace error, EOF).
    fn step_batched_quoted_value(&mut self, quote: u8) -> bool {
        if !self.cur_attr.active {
            return false;
        }
        let run = if quote == b'"' {
            self.stream.take_plain_run(b"\"&")
        } else {
            self.stream.take_plain_run(b"'&")
        };
        let progressed = !run.is_empty();
        if progressed {
            self.cur_attr.value.push_str(run);
            if self.cur_attr.diverged {
                self.cur_attr.raw_value.push_str(run);
            }
        }
        if self.stream.eat_byte(quote) {
            if self.stream.eat_byte(b' ') {
                self.state = State::BeforeAttributeName;
            } else if self.stream.eat_byte(b'>') {
                self.state = State::Data;
                self.emit_tag();
            } else if self.stream.eat_byte(b'/') {
                self.state = State::SelfClosingStartTag;
            } else {
                self.state = State::AfterAttributeValueQuoted;
            }
            return true;
        }
        progressed
    }

    /// Batched SelfClosingStartTag: the `>` of `/>`; anything else is the
    /// scalar `unexpected-solidus-in-tag` path.
    fn step_batched_self_closing(&mut self) -> bool {
        if !self.stream.eat_byte(b'>') {
            return false;
        }
        self.tag_self_closing = true;
        self.state = State::Data;
        self.emit_tag();
        true
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self) {
        if self.batched && self.step_batched() {
            return;
        }
        match self.state {
            State::Data => match self.next() {
                Some('&') => {
                    self.return_state = State::Data;
                    self.mark_charref_start();
                    self.state = State::CharacterReference;
                }
                Some('<') => self.state = State::TagOpen,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\0');
                }
                Some(c) => self.emit_char(c),
                None => self.emit_eof(),
            },

            State::Rcdata => match self.next() {
                Some('&') => {
                    self.return_state = State::Rcdata;
                    self.mark_charref_start();
                    self.state = State::CharacterReference;
                }
                Some('<') => self.state = State::RcdataLessThan,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => self.emit_eof(),
            },

            State::Rawtext => match self.next() {
                Some('<') => self.state = State::RawtextLessThan,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => self.emit_eof(),
            },

            State::ScriptData => match self.next() {
                Some('<') => self.state = State::ScriptDataLessThan,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => self.emit_eof(),
            },

            State::Plaintext => match self.next() {
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => self.emit_eof(),
            },

            State::TagOpen => match self.next() {
                Some('!') => self.state = State::MarkupDeclarationOpen,
                Some('/') => self.state = State::EndTagOpen,
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::Start);
                    self.reconsume(State::TagName);
                }
                Some('?') => {
                    self.error(ErrorCode::UnexpectedQuestionMarkInsteadOfTagName);
                    self.comment.clear();
                    self.reconsume(State::BogusComment);
                }
                Some(_) => {
                    self.error(ErrorCode::InvalidFirstCharacterOfTagName);
                    self.emit_char('<');
                    self.reconsume(State::Data);
                }
                None => {
                    self.error(ErrorCode::EofBeforeTagName);
                    self.emit_char('<');
                    self.emit_eof();
                }
            },

            State::EndTagOpen => match self.next() {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::End);
                    self.reconsume(State::TagName);
                }
                Some('>') => {
                    self.error(ErrorCode::MissingEndTagName);
                    self.state = State::Data;
                }
                Some(_) => {
                    self.error(ErrorCode::InvalidFirstCharacterOfTagName);
                    self.comment.clear();
                    self.reconsume(State::BogusComment);
                }
                None => {
                    self.error(ErrorCode::EofBeforeTagName);
                    self.emit_str("</");
                    self.emit_eof();
                }
            },

            State::TagName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeAttributeName;
                }
                Some('/') => self.state = State::SelfClosingStartTag,
                Some('>') => {
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.tag_name.push('\u{FFFD}');
                }
                Some(c) => self.tag_name.push(c.to_ascii_lowercase()),
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            // --- RCDATA/RAWTEXT/script end-tag machinery ---
            State::RcdataLessThan => match self.next() {
                Some('/') => {
                    self.temp_buffer.clear();
                    self.state = State::RcdataEndTagOpen;
                }
                _ => {
                    self.emit_char('<');
                    self.reconsume(State::Rcdata);
                }
            },
            State::RcdataEndTagOpen => match self.next() {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::End);
                    self.reconsume(State::RcdataEndTagName);
                }
                _ => {
                    self.emit_str("</");
                    self.reconsume(State::Rcdata);
                }
            },
            State::RcdataEndTagName => self.text_end_tag_name(State::Rcdata),

            State::RawtextLessThan => match self.next() {
                Some('/') => {
                    self.temp_buffer.clear();
                    self.state = State::RawtextEndTagOpen;
                }
                _ => {
                    self.emit_char('<');
                    self.reconsume(State::Rawtext);
                }
            },
            State::RawtextEndTagOpen => match self.next() {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::End);
                    self.reconsume(State::RawtextEndTagName);
                }
                _ => {
                    self.emit_str("</");
                    self.reconsume(State::Rawtext);
                }
            },
            State::RawtextEndTagName => self.text_end_tag_name(State::Rawtext),

            State::ScriptDataLessThan => match self.next() {
                Some('/') => {
                    self.temp_buffer.clear();
                    self.state = State::ScriptDataEndTagOpen;
                }
                Some('!') => {
                    self.emit_str("<!");
                    self.state = State::ScriptDataEscapeStart;
                }
                _ => {
                    self.emit_char('<');
                    self.reconsume(State::ScriptData);
                }
            },
            State::ScriptDataEndTagOpen => match self.next() {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::End);
                    self.reconsume(State::ScriptDataEndTagName);
                }
                _ => {
                    self.emit_str("</");
                    self.reconsume(State::ScriptData);
                }
            },
            State::ScriptDataEndTagName => self.text_end_tag_name(State::ScriptData),

            State::ScriptDataEscapeStart => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataEscapeStartDash;
                }
                _ => {
                    self.reconsume(State::ScriptData);
                }
            },
            State::ScriptDataEscapeStartDash => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataEscapedDashDash;
                }
                _ => {
                    self.reconsume(State::ScriptData);
                }
            },
            State::ScriptDataEscaped => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataEscapedDash;
                }
                Some('<') => self.state = State::ScriptDataEscapedLessThan,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataEscapedDash => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataEscapedDashDash;
                }
                Some('<') => self.state = State::ScriptDataEscapedLessThan,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                    self.state = State::ScriptDataEscaped;
                }
                Some(c) => {
                    self.emit_char(c);
                    self.state = State::ScriptDataEscaped;
                }
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataEscapedDashDash => match self.next() {
                Some('-') => self.emit_char('-'),
                Some('<') => self.state = State::ScriptDataEscapedLessThan,
                Some('>') => {
                    self.emit_char('>');
                    self.state = State::ScriptData;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                    self.state = State::ScriptDataEscaped;
                }
                Some(c) => {
                    self.emit_char(c);
                    self.state = State::ScriptDataEscaped;
                }
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataEscapedLessThan => match self.next() {
                Some('/') => {
                    self.temp_buffer.clear();
                    self.state = State::ScriptDataEscapedEndTagOpen;
                }
                Some(c) if c.is_ascii_alphabetic() => {
                    self.temp_buffer.clear();
                    self.emit_char('<');
                    self.reconsume(State::ScriptDataDoubleEscapeStart);
                }
                _ => {
                    self.emit_char('<');
                    self.reconsume(State::ScriptDataEscaped);
                }
            },
            State::ScriptDataEscapedEndTagOpen => match self.next() {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.new_tag(TagKind::End);
                    self.reconsume(State::ScriptDataEscapedEndTagName);
                }
                _ => {
                    self.emit_str("</");
                    self.reconsume(State::ScriptDataEscaped);
                }
            },
            State::ScriptDataEscapedEndTagName => self.text_end_tag_name(State::ScriptDataEscaped),
            State::ScriptDataDoubleEscapeStart => match self.next() {
                Some(c @ ('\t' | '\n' | '\u{C}' | ' ' | '/' | '>')) => {
                    if self.temp_buffer == "script" {
                        self.state = State::ScriptDataDoubleEscaped;
                    } else {
                        self.state = State::ScriptDataEscaped;
                    }
                    self.emit_char(c);
                }
                Some(c) if c.is_ascii_alphabetic() => {
                    self.temp_buffer.push(c.to_ascii_lowercase());
                    self.emit_char(c);
                }
                _ => {
                    self.reconsume(State::ScriptDataEscaped);
                }
            },
            State::ScriptDataDoubleEscaped => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataDoubleEscapedDash;
                }
                Some('<') => {
                    self.emit_char('<');
                    self.state = State::ScriptDataDoubleEscapedLessThan;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                }
                Some(c) => self.emit_char(c),
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataDoubleEscapedDash => match self.next() {
                Some('-') => {
                    self.emit_char('-');
                    self.state = State::ScriptDataDoubleEscapedDashDash;
                }
                Some('<') => {
                    self.emit_char('<');
                    self.state = State::ScriptDataDoubleEscapedLessThan;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                    self.state = State::ScriptDataDoubleEscaped;
                }
                Some(c) => {
                    self.emit_char(c);
                    self.state = State::ScriptDataDoubleEscaped;
                }
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataDoubleEscapedDashDash => match self.next() {
                Some('-') => self.emit_char('-'),
                Some('<') => {
                    self.emit_char('<');
                    self.state = State::ScriptDataDoubleEscapedLessThan;
                }
                Some('>') => {
                    self.emit_char('>');
                    self.state = State::ScriptData;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.emit_char('\u{FFFD}');
                    self.state = State::ScriptDataDoubleEscaped;
                }
                Some(c) => {
                    self.emit_char(c);
                    self.state = State::ScriptDataDoubleEscaped;
                }
                None => {
                    self.error(ErrorCode::EofInScriptHtmlCommentLikeText);
                    self.emit_eof();
                }
            },
            State::ScriptDataDoubleEscapedLessThan => match self.next() {
                Some('/') => {
                    self.temp_buffer.clear();
                    self.emit_char('/');
                    self.state = State::ScriptDataDoubleEscapeEnd;
                }
                _ => {
                    self.reconsume(State::ScriptDataDoubleEscaped);
                }
            },
            State::ScriptDataDoubleEscapeEnd => match self.next() {
                Some(c @ ('\t' | '\n' | '\u{C}' | ' ' | '/' | '>')) => {
                    if self.temp_buffer == "script" {
                        self.state = State::ScriptDataEscaped;
                    } else {
                        self.state = State::ScriptDataDoubleEscaped;
                    }
                    self.emit_char(c);
                }
                Some(c) if c.is_ascii_alphabetic() => {
                    self.temp_buffer.push(c.to_ascii_lowercase());
                    self.emit_char(c);
                }
                _ => {
                    self.reconsume(State::ScriptDataDoubleEscaped);
                }
            },

            // --- attributes ---
            State::BeforeAttributeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('/') | Some('>') => self.reconsume(State::AfterAttributeName),
                None => self.reconsume_eof(State::AfterAttributeName),
                Some('=') => {
                    self.error(ErrorCode::UnexpectedEqualsSignBeforeAttributeName);
                    self.start_new_attr();
                    self.cur_attr.name.push('=');
                    self.state = State::AttributeName;
                }
                Some(_) => {
                    self.start_new_attr();
                    self.reconsume(State::AttributeName);
                }
            },

            State::AttributeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') | Some('/') | Some('>') => {
                    self.check_duplicate_attr();
                    self.reconsume(State::AfterAttributeName);
                }
                None => {
                    self.check_duplicate_attr();
                    self.reconsume_eof(State::AfterAttributeName);
                }
                Some('=') => {
                    self.check_duplicate_attr();
                    self.state = State::BeforeAttributeValue;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    if self.cur_attr.active {
                        self.cur_attr.name.push('\u{FFFD}');
                    }
                }
                Some(c @ ('"' | '\'' | '<')) => {
                    self.error(ErrorCode::UnexpectedCharacterInAttributeName);
                    if self.cur_attr.active {
                        self.cur_attr.name.push(c);
                    }
                }
                Some(c) => {
                    if self.cur_attr.active {
                        self.cur_attr.name.push(c.to_ascii_lowercase());
                    }
                }
            },

            State::AfterAttributeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('/') => self.state = State::SelfClosingStartTag,
                Some('=') => self.state = State::BeforeAttributeValue,
                Some('>') => {
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some(_) => {
                    self.start_new_attr();
                    self.reconsume(State::AttributeName);
                }
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::BeforeAttributeValue => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('"') => self.state = State::AttributeValueDouble,
                Some('\'') => self.state = State::AttributeValueSingle,
                Some('>') => {
                    self.error(ErrorCode::MissingAttributeValue);
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some(_) => self.reconsume(State::AttributeValueUnquoted),
                None => self.reconsume_eof(State::AttributeValueUnquoted),
            },

            State::AttributeValueDouble => match self.next() {
                Some('"') => self.state = State::AfterAttributeValueQuoted,
                Some('&') => {
                    self.return_state = State::AttributeValueDouble;
                    self.mark_charref_start();
                    self.state = State::CharacterReference;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.append_attr_value('\u{FFFD}');
                }
                Some(c) => self.append_attr_value(c),
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::AttributeValueSingle => match self.next() {
                Some('\'') => self.state = State::AfterAttributeValueQuoted,
                Some('&') => {
                    self.return_state = State::AttributeValueSingle;
                    self.mark_charref_start();
                    self.state = State::CharacterReference;
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.append_attr_value('\u{FFFD}');
                }
                Some(c) => self.append_attr_value(c),
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::AttributeValueUnquoted => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeAttributeName;
                }
                Some('&') => {
                    self.return_state = State::AttributeValueUnquoted;
                    self.mark_charref_start();
                    self.state = State::CharacterReference;
                }
                Some('>') => {
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.append_attr_value('\u{FFFD}');
                }
                Some(c @ ('"' | '\'' | '<' | '=' | '`')) => {
                    self.error(ErrorCode::UnexpectedCharacterInUnquotedAttributeValue);
                    self.append_attr_value(c);
                }
                Some(c) => self.append_attr_value(c),
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::AfterAttributeValueQuoted => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeAttributeName;
                }
                Some('/') => self.state = State::SelfClosingStartTag,
                Some('>') => {
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some(_) => {
                    self.error(ErrorCode::MissingWhitespaceBetweenAttributes);
                    self.reconsume(State::BeforeAttributeName);
                }
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::SelfClosingStartTag => match self.next() {
                Some('>') => {
                    self.tag_self_closing = true;
                    self.state = State::Data;
                    self.emit_tag();
                }
                Some(_) => {
                    self.error(ErrorCode::UnexpectedSolidusInTag);
                    self.reconsume(State::BeforeAttributeName);
                }
                None => {
                    self.error(ErrorCode::EofInTag);
                    self.emit_eof();
                }
            },

            State::BogusComment => match self.next() {
                Some('>') => {
                    self.state = State::Data;
                    self.emit_comment();
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.comment.push('\u{FFFD}');
                }
                Some(c) => self.comment.push(c),
                None => {
                    self.emit_comment();
                    self.emit_eof();
                }
            },

            State::MarkupDeclarationOpen => {
                if self.lookahead_is("--") {
                    self.stream.advance_ascii(2);
                    self.comment.clear();
                    self.state = State::CommentStart;
                } else if self.lookahead_is_ascii_ci("doctype") {
                    self.stream.advance_ascii(7);
                    self.state = State::Doctype;
                } else if self.lookahead_is("[CDATA[") {
                    self.stream.advance_ascii(7);
                    if self.allow_cdata {
                        self.state = State::CdataSection;
                    } else {
                        self.error(ErrorCode::CdataInHtmlContent);
                        self.comment.clear();
                        self.comment.push_str("[CDATA[");
                        self.state = State::BogusComment;
                    }
                } else {
                    self.error(ErrorCode::IncorrectlyOpenedComment);
                    self.comment.clear();
                    self.state = State::BogusComment;
                }
            }

            State::CommentStart => match self.next() {
                Some('-') => self.state = State::CommentStartDash,
                Some('>') => {
                    self.error(ErrorCode::AbruptClosingOfEmptyComment);
                    self.state = State::Data;
                    self.emit_comment();
                }
                Some(_) => self.reconsume(State::Comment),
                None => self.reconsume_eof(State::Comment),
            },
            State::CommentStartDash => match self.next() {
                Some('-') => self.state = State::CommentEnd,
                Some('>') => {
                    self.error(ErrorCode::AbruptClosingOfEmptyComment);
                    self.state = State::Data;
                    self.emit_comment();
                }
                Some(_) => {
                    self.comment.push('-');
                    self.reconsume(State::Comment);
                }
                None => {
                    self.error(ErrorCode::EofInComment);
                    self.emit_comment();
                    self.emit_eof();
                }
            },
            State::Comment => match self.next() {
                Some('<') => {
                    self.comment.push('<');
                    self.state = State::CommentLessThan;
                }
                Some('-') => self.state = State::CommentEndDash,
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.comment.push('\u{FFFD}');
                }
                Some(c) => self.comment.push(c),
                None => {
                    self.error(ErrorCode::EofInComment);
                    self.emit_comment();
                    self.emit_eof();
                }
            },
            State::CommentLessThan => match self.next() {
                Some('!') => {
                    self.comment.push('!');
                    self.state = State::CommentLessThanBang;
                }
                Some('<') => self.comment.push('<'),
                _ => {
                    self.reconsume(State::Comment);
                }
            },
            State::CommentLessThanBang => match self.next() {
                Some('-') => self.state = State::CommentLessThanBangDash,
                _ => {
                    self.reconsume(State::Comment);
                }
            },
            State::CommentLessThanBangDash => match self.next() {
                Some('-') => self.state = State::CommentLessThanBangDashDash,
                _ => {
                    self.reconsume(State::CommentEndDash);
                }
            },
            State::CommentLessThanBangDashDash => match self.next() {
                Some('>') | None => {
                    self.reconsume(State::CommentEnd);
                }
                Some(_) => {
                    self.error(ErrorCode::NestedComment);
                    self.reconsume(State::CommentEnd);
                }
            },
            State::CommentEndDash => match self.next() {
                Some('-') => self.state = State::CommentEnd,
                Some(_) => {
                    self.comment.push('-');
                    self.reconsume(State::Comment);
                }
                None => {
                    self.error(ErrorCode::EofInComment);
                    self.emit_comment();
                    self.emit_eof();
                }
            },
            State::CommentEnd => match self.next() {
                Some('>') => {
                    self.state = State::Data;
                    self.emit_comment();
                }
                Some('!') => self.state = State::CommentEndBang,
                Some('-') => self.comment.push('-'),
                Some(_) => {
                    self.comment.push_str("--");
                    self.reconsume(State::Comment);
                }
                None => {
                    self.error(ErrorCode::EofInComment);
                    self.emit_comment();
                    self.emit_eof();
                }
            },
            State::CommentEndBang => match self.next() {
                Some('-') => {
                    self.comment.push_str("--!");
                    self.state = State::CommentEndDash;
                }
                Some('>') => {
                    self.error(ErrorCode::IncorrectlyClosedComment);
                    self.state = State::Data;
                    self.emit_comment();
                }
                Some(_) => {
                    self.comment.push_str("--!");
                    self.reconsume(State::Comment);
                }
                None => {
                    self.error(ErrorCode::EofInComment);
                    self.emit_comment();
                    self.emit_eof();
                }
            },

            // --- DOCTYPE ---
            State::Doctype => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeDoctypeName;
                }
                Some('>') => self.reconsume(State::BeforeDoctypeName),
                Some(_) => {
                    self.error(ErrorCode::MissingWhitespaceBeforeDoctypeName);
                    self.reconsume(State::BeforeDoctypeName);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    self.doctype = Some(Doctype { force_quirks: true, ..Doctype::default() });
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::BeforeDoctypeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('>') => {
                    self.error(ErrorCode::MissingDoctypeName);
                    self.doctype = Some(Doctype { force_quirks: true, ..Doctype::default() });
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.start_doctype_name('\u{FFFD}');
                }
                Some(c) => self.start_doctype_name(c.to_ascii_lowercase()),
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    self.doctype = Some(Doctype { force_quirks: true, ..Doctype::default() });
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::DoctypeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::AfterDoctypeName;
                }
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some('\0') => {
                    self.error(ErrorCode::UnexpectedNullCharacter);
                    self.doctype_name.push('\u{FFFD}');
                }
                Some(c) => self.doctype_name.push(c.to_ascii_lowercase()),
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::AfterDoctypeName => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
                Some(_) => {
                    self.stream.un_next();
                    self.last_consumed = false;
                    if self.lookahead_is_ascii_ci("public") {
                        self.stream.advance_ascii(6);
                        self.state = State::AfterDoctypePublicKeyword;
                    } else if self.lookahead_is_ascii_ci("system") {
                        self.stream.advance_ascii(6);
                        self.state = State::AfterDoctypeSystemKeyword;
                    } else {
                        self.error(ErrorCode::InvalidCharacterSequenceAfterDoctypeName);
                        if let Some(d) = self.doctype.as_mut() {
                            d.force_quirks = true;
                        }
                        self.state = State::BogusDoctype;
                    }
                }
            },
            State::AfterDoctypePublicKeyword => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeDoctypePublicId;
                }
                Some('"') => {
                    self.error(ErrorCode::MissingWhitespaceAfterDoctypePublicKeyword);
                    if let Some(d) = self.doctype.as_mut() {
                        d.public_id = Some(String::new());
                    }
                    self.state = State::DoctypePublicIdDouble;
                }
                Some('\'') => {
                    self.error(ErrorCode::MissingWhitespaceAfterDoctypePublicKeyword);
                    if let Some(d) = self.doctype.as_mut() {
                        d.public_id = Some(String::new());
                    }
                    self.state = State::DoctypePublicIdSingle;
                }
                Some('>') => {
                    self.error(ErrorCode::MissingDoctypePublicIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypePublicIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::BeforeDoctypePublicId => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('"') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.public_id = Some(String::new());
                    }
                    self.state = State::DoctypePublicIdDouble;
                }
                Some('\'') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.public_id = Some(String::new());
                    }
                    self.state = State::DoctypePublicIdSingle;
                }
                Some('>') => {
                    self.error(ErrorCode::MissingDoctypePublicIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypePublicIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::DoctypePublicIdDouble => self.doctype_id_quoted('"', true),
            State::DoctypePublicIdSingle => self.doctype_id_quoted('\'', true),
            State::AfterDoctypePublicId => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BetweenDoctypePublicSystem;
                }
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some('"') => {
                    self.error(
                        ErrorCode::MissingWhitespaceBetweenDoctypePublicAndSystemIdentifiers,
                    );
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdDouble;
                }
                Some('\'') => {
                    self.error(
                        ErrorCode::MissingWhitespaceBetweenDoctypePublicAndSystemIdentifiers,
                    );
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdSingle;
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::BetweenDoctypePublicSystem => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some('"') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdDouble;
                }
                Some('\'') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdSingle;
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::AfterDoctypeSystemKeyword => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {
                    self.state = State::BeforeDoctypeSystemId;
                }
                Some('"') => {
                    self.error(ErrorCode::MissingWhitespaceAfterDoctypeSystemKeyword);
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdDouble;
                }
                Some('\'') => {
                    self.error(ErrorCode::MissingWhitespaceAfterDoctypeSystemKeyword);
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdSingle;
                }
                Some('>') => {
                    self.error(ErrorCode::MissingDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::BeforeDoctypeSystemId => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('"') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdDouble;
                }
                Some('\'') => {
                    if let Some(d) = self.doctype.as_mut() {
                        d.system_id = Some(String::new());
                    }
                    self.state = State::DoctypeSystemIdSingle;
                }
                Some('>') => {
                    self.error(ErrorCode::MissingDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some(_) => {
                    self.error(ErrorCode::MissingQuoteBeforeDoctypeSystemIdentifier);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::DoctypeSystemIdDouble => self.doctype_id_quoted('"', false),
            State::DoctypeSystemIdSingle => self.doctype_id_quoted('\'', false),
            State::AfterDoctypeSystemId => match self.next() {
                Some('\t') | Some('\n') | Some('\u{C}') | Some(' ') => {}
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some(_) => {
                    self.error(ErrorCode::UnexpectedCharacterAfterDoctypeSystemIdentifier);
                    self.reconsume(State::BogusDoctype);
                }
                None => {
                    self.error(ErrorCode::EofInDoctype);
                    if let Some(d) = self.doctype.as_mut() {
                        d.force_quirks = true;
                    }
                    self.emit_doctype();
                    self.emit_eof();
                }
            },
            State::BogusDoctype => match self.next() {
                Some('>') => {
                    self.state = State::Data;
                    self.emit_doctype();
                }
                Some('\0') => self.error(ErrorCode::UnexpectedNullCharacter),
                Some(_) => {}
                None => {
                    self.emit_doctype();
                    self.emit_eof();
                }
            },

            // --- CDATA ---
            State::CdataSection => match self.next() {
                Some(']') => self.state = State::CdataSectionBracket,
                Some(c) => self.emit_char(c),
                None => {
                    self.error(ErrorCode::EofInCdata);
                    self.emit_eof();
                }
            },
            State::CdataSectionBracket => match self.next() {
                Some(']') => self.state = State::CdataSectionEnd,
                _ => {
                    self.emit_char(']');
                    self.reconsume(State::CdataSection);
                }
            },
            State::CdataSectionEnd => match self.next() {
                Some('>') => self.state = State::Data,
                Some(']') => self.emit_char(']'),
                _ => {
                    self.emit_str("]]");
                    self.reconsume(State::CdataSection);
                }
            },

            // --- character references ---
            State::CharacterReference => match self.next() {
                Some(c) if c.is_ascii_alphanumeric() => {
                    self.reconsume(State::NamedCharacterReference)
                }
                Some('#') => self.state = State::NumericCharacterReference,
                _ => {
                    let st = self.return_state;
                    self.reconsume(st);
                    // Flush the bare `&`.
                    self.flush_charref_amp();
                }
            },

            State::NamedCharacterReference => {
                // The cursor currently sits on the first name character.
                // Entity names are ASCII and never contain CR, so matching
                // against the raw remainder equals matching the normalized
                // stream, and `consumed` counts bytes and characters alike.
                let rest = self.stream.rest();
                if let Some(m) = entities::match_named(rest) {
                    let consumed = m.consumed;
                    let with_semi = m.with_semicolon;
                    let replacement = m.replacement;
                    // The divergence check only asks whether the next raw
                    // character is `=` or alphanumeric; CR/LF normalization
                    // cannot change that answer.
                    let next_after = rest[consumed..].chars().next();
                    self.stream.advance_ascii(consumed);
                    let attr = self.charref_in_attribute();
                    if attr
                        && !with_semi
                        && matches!(next_after, Some(c) if c == '=' || c.is_ascii_alphanumeric())
                    {
                        // Historical-compat: leave the text as-is.
                        self.flush_charref_literal();
                    } else {
                        if !with_semi {
                            self.error(ErrorCode::MissingSemicolonAfterCharacterReference);
                        }
                        self.flush_charref_decoded(replacement);
                    }
                    self.state = self.return_state;
                } else {
                    // No match: flush the `&` and continue in ambiguous
                    // ampersand handling.
                    self.flush_charref_amp();
                    self.state = State::AmbiguousAmpersand;
                }
            }

            State::AmbiguousAmpersand => match self.next() {
                Some(c) if c.is_ascii_alphanumeric() => {
                    if self.charref_in_attribute() {
                        self.append_attr_value(c);
                    } else {
                        self.emit_char(c);
                    }
                }
                Some(';') => {
                    self.error(ErrorCode::UnknownNamedCharacterReference);
                    self.reconsume(self.return_state);
                }
                Some(_) => self.reconsume(self.return_state),
                None => {
                    let st = self.return_state;
                    self.state = st;
                }
            },

            State::NumericCharacterReference => {
                self.char_ref_code = 0;
                match self.next() {
                    Some('x') | Some('X') => self.state = State::HexCharRefStart,
                    Some(_) => self.reconsume(State::DecCharRefStart),
                    None => {
                        self.error(ErrorCode::AbsenceOfDigitsInNumericCharacterReference);
                        self.flush_charref_literal();
                        let st = self.return_state;
                        self.state = st;
                    }
                }
            }
            State::HexCharRefStart => match self.next() {
                Some(c) if c.is_ascii_hexdigit() => self.reconsume(State::HexCharRef),
                _ => {
                    self.error(ErrorCode::AbsenceOfDigitsInNumericCharacterReference);
                    let st = self.return_state;
                    self.reconsume(st);
                    self.flush_charref_literal();
                }
            },
            State::DecCharRefStart => match self.next() {
                Some(c) if c.is_ascii_digit() => self.reconsume(State::DecCharRef),
                _ => {
                    self.error(ErrorCode::AbsenceOfDigitsInNumericCharacterReference);
                    let st = self.return_state;
                    self.reconsume(st);
                    self.flush_charref_literal();
                }
            },
            State::HexCharRef => match self.next() {
                Some(c) if c.is_ascii_hexdigit() => {
                    self.char_ref_code = self
                        .char_ref_code
                        .saturating_mul(16)
                        .saturating_add(c.to_digit(16).unwrap());
                }
                Some(';') => self.state = State::NumericCharRefEnd,
                _ => {
                    self.error(ErrorCode::MissingSemicolonAfterNumericCharacterReference);
                    self.reconsume(State::NumericCharRefEnd);
                }
            },
            State::DecCharRef => match self.next() {
                Some(c) if c.is_ascii_digit() => {
                    self.char_ref_code = self
                        .char_ref_code
                        .saturating_mul(10)
                        .saturating_add(c.to_digit(10).unwrap());
                }
                Some(';') => self.state = State::NumericCharRefEnd,
                _ => {
                    self.error(ErrorCode::MissingSemicolonAfterNumericCharacterReference);
                    self.reconsume(State::NumericCharRefEnd);
                }
            },
            State::NumericCharRefEnd => {
                let off = self.char_ref_start;
                let c = entities::resolve_numeric(self.char_ref_code, off, &mut self.errors);
                let mut buf = [0u8; 4];
                let s: &str = c.encode_utf8(&mut buf);
                self.flush_charref_decoded(s);
                let st = self.return_state;
                self.state = st;
            }
        }
    }

    /// Shared handler for the RCDATA/RAWTEXT/script-data "end tag name"
    /// states: only an *appropriate* end tag (matching the element whose
    /// content we are inside) terminates the content model.
    fn text_end_tag_name(&mut self, content_state: State) {
        match self.next() {
            Some('\t') | Some('\n') | Some('\u{C}') | Some(' ')
                if self.is_appropriate_end_tag() =>
            {
                self.state = State::BeforeAttributeName;
            }
            Some('/') if self.is_appropriate_end_tag() => {
                self.state = State::SelfClosingStartTag;
            }
            Some('>') if self.is_appropriate_end_tag() => {
                self.state = State::Data;
                self.emit_tag();
            }
            Some(c) if c.is_ascii_alphabetic() => {
                self.tag_name.push(c.to_ascii_lowercase());
                self.temp_buffer.push(c);
            }
            _ => {
                self.emit_str("</");
                let tmp = std::mem::take(&mut self.temp_buffer);
                self.emit_str(&tmp);
                self.reconsume(content_state);
            }
        }
    }

    /// Shared handler for the quoted public/system identifier states.
    fn doctype_id_quoted(&mut self, quote: char, public: bool) {
        match self.next() {
            Some(c) if c == quote => {
                self.state =
                    if public { State::AfterDoctypePublicId } else { State::AfterDoctypeSystemId };
            }
            Some('\0') => {
                self.error(ErrorCode::UnexpectedNullCharacter);
                self.push_doctype_id(public, '\u{FFFD}');
            }
            Some('>') => {
                self.error(if public {
                    ErrorCode::AbruptDoctypePublicIdentifier
                } else {
                    ErrorCode::AbruptDoctypeSystemIdentifier
                });
                if let Some(d) = self.doctype.as_mut() {
                    d.force_quirks = true;
                }
                self.state = State::Data;
                self.emit_doctype();
            }
            Some(c) => self.push_doctype_id(public, c),
            None => {
                self.error(ErrorCode::EofInDoctype);
                if let Some(d) = self.doctype.as_mut() {
                    d.force_quirks = true;
                }
                self.emit_doctype();
                self.emit_eof();
            }
        }
    }

    fn push_doctype_id(&mut self, public: bool, c: char) {
        if let Some(d) = self.doctype.as_mut() {
            let field = if public { &mut d.public_id } else { &mut d.system_id };
            field.get_or_insert_with(String::new).push(c);
        }
    }

    /// Reconsume on EOF: there is no character to step back over; just
    /// switch states so the EOF is handled there.
    fn reconsume_eof(&mut self, state: State) {
        self.state = state;
    }

    // The lookahead patterns (`--`, `doctype`, `[CDATA[`, `public`,
    // `system`) contain neither CR nor LF, so comparing against the raw
    // source is equivalent to comparing against the normalized stream: a CR
    // in the source mismatches the pattern either way.

    fn lookahead_is(&self, s: &str) -> bool {
        self.stream.rest().starts_with(s)
    }

    fn lookahead_is_ascii_ci(&self, lower: &str) -> bool {
        debug_assert!(lower.bytes().all(|b| b.is_ascii_lowercase()));
        let rest = self.stream.rest().as_bytes();
        rest.len() >= lower.len()
            && rest.iter().zip(lower.as_bytes()).all(|(g, p)| g.to_ascii_lowercase() == *p)
    }
}

/// The scratch buffers and unused text strings go back to the thread's
/// store for the next tokenizer.
impl Drop for Tokenizer<'_> {
    fn drop(&mut self) {
        recycle::give_texts(std::mem::take(&mut self.spare_texts));
        recycle::give_text(std::mem::take(&mut self.text_buf));
        let a = &mut self.cur_attr;
        recycle::give_scratch(Scratch {
            tag_name: std::mem::take(&mut self.tag_name),
            attr_name: std::mem::take(&mut a.name),
            attr_value: std::mem::take(&mut a.value),
            raw_value: std::mem::take(&mut a.raw_value),
            attrs: std::mem::take(&mut self.tag_attrs),
            last_start_tag: std::mem::take(&mut self.last_start_tag),
            doctype_name: std::mem::take(&mut self.doctype_name),
        });
    }
}

/// Move a handed-over tag's attributes from `scratch` to the end of
/// `arena`; their range there.
fn hand_over(scratch: &mut Vec<Attr>, arena: &mut Vec<Attr>) -> AttrRange {
    let range = AttrRange::new(arena.len(), scratch.len());
    arena.append(scratch);
    range
}

/// Append a batched run to `buf`; whether it made progress.
#[inline]
fn push_run(buf: &mut String, run: &str) -> bool {
    buf.push_str(run);
    !run.is_empty()
}

#[cfg(test)]
mod tests;
