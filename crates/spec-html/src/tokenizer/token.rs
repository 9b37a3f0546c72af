//! Token types emitted by the tokenizer.

use crate::atoms::{Atom, SharedStr};
use crate::dom::AttrRange;
use std::ops::Deref;

/// An attribute on a start (or, erroneously, end) tag, and on the elements
/// created from it.
///
/// Names are interned [`Atom`]s and values are [`SharedStr`]s, so cloning
/// an attribute never copies text.
#[derive(Debug, Clone, Eq)]
pub struct Attr {
    /// Lowercased attribute name.
    pub name: Atom,
    /// Attribute value with character references decoded.
    pub value: SharedStr,
    /// See [`Attr::raw_value`]. `Shared` means no character reference was
    /// decoded, so the raw text *is* the decoded value — the common case,
    /// stored without a second string.
    raw: RawValue,
    /// Character offset of the first character of the attribute name.
    pub name_offset: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RawValue {
    /// Raw text identical to the decoded value.
    Shared,
    /// Diverged: at least one character reference was decoded.
    Owned(SharedStr),
}

impl Attr {
    /// A synthetic attribute whose raw text equals its value (tests,
    /// checker fixtures). No copy is made for the raw form.
    pub fn new(name: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        Attr {
            name: Atom::from_name(name.as_ref()),
            value: SharedStr::new(value.as_ref()),
            raw: RawValue::Shared,
            name_offset: 0,
        }
    }

    /// Tokenizer constructor: `raw` is `None` when no character reference
    /// was decoded in the value (raw text == decoded text).
    pub(crate) fn with_raw(
        name: Atom,
        value: SharedStr,
        raw: Option<SharedStr>,
        name_offset: usize,
    ) -> Self {
        let raw = match raw {
            Some(r) => RawValue::Owned(r),
            None => RawValue::Shared,
        };
        Attr { name, value, raw, name_offset }
    }

    /// The raw (undecoded) value exactly as written in the source. The DE3
    /// checkers need this: `&#10;` in the source is *not* a dangling-markup
    /// newline, but a literal newline is.
    #[inline]
    pub fn raw_value(&self) -> &str {
        match &self.raw {
            RawValue::Shared => &self.value,
            RawValue::Owned(raw) => raw,
        }
    }
}

impl PartialEq for Attr {
    /// Textual equality (plus offset), independent of whether the raw form
    /// is stored shared or owned — exactly the semantics of the old
    /// three-`String` struct.
    fn eq(&self, other: &Attr) -> bool {
        self.name == other.name
            && self.value == other.value
            && self.raw_value() == other.raw_value()
            && self.name_offset == other.name_offset
    }
}

/// A start or end tag token.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tag {
    /// Lowercased tag name.
    pub name: Atom,
    /// Whether the tag used self-closing syntax (`/>`).
    pub self_closing: bool,
    /// Attributes in source order, with spec-mandated duplicates removed:
    /// a range of the arena the tag was tokenized into (the document's,
    /// or that of the [`Tokens`] [`crate::tokenize`] returns). Cloning
    /// the tag, or creating elements from it, copies no attribute.
    pub attrs: AttrRange,
    /// Attributes the spec dropped due to `duplicate-attribute` errors —
    /// preserved because the paper's DM3 analysis inspects them.
    pub duplicate_attrs: Vec<Attr>,
    /// Character offset of the `<` that opened this tag.
    pub offset: usize,
}

impl Tag {
    pub fn named(name: &str) -> Self {
        Tag { name: Atom::from_name(name), ..Tag::default() }
    }
}

/// A token stream tokenized on its own ([`crate::tokenize`]): the tokens,
/// and the attribute arena their tags' ranges index.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tokens {
    pub(crate) tokens: Vec<Token>,
    pub(crate) attrs: Vec<Attr>,
}

impl Tokens {
    /// The attributes of `tag`, one of these tokens.
    pub fn attrs(&self, tag: &Tag) -> &[Attr] {
        &self.attrs[tag.attrs.span()]
    }
}

impl Deref for Tokens {
    type Target = [Token];
    fn deref(&self) -> &[Token] {
        &self.tokens
    }
}

impl<'a> IntoIterator for &'a Tokens {
    type Item = &'a Token;
    type IntoIter = std::slice::Iter<'a, Token>;
    fn into_iter(self) -> Self::IntoIter {
        self.tokens.iter()
    }
}

/// A DOCTYPE token.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Doctype {
    pub name: Option<String>,
    pub public_id: Option<String>,
    pub system_id: Option<String>,
    pub force_quirks: bool,
}

/// A token produced by the tokenizer (§13.2.5: DOCTYPE, start tag, end tag,
/// comment, character, end-of-file). Character tokens are batched into runs
/// for efficiency; the tree builder splits them where insertion modes care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    Doctype(Doctype),
    StartTag(Tag),
    EndTag(Tag),
    Comment(String),
    Characters(String),
    Eof,
}

impl Token {
    pub fn as_start_tag(&self) -> Option<&Tag> {
        match self {
            Token::StartTag(t) => Some(t),
            _ => None,
        }
    }
}
