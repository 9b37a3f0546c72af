//! Token types emitted by the tokenizer.

use crate::atoms::{Atom, SharedStr};
use crate::dom::Attrs;

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
    /// Attributes in source order, with spec-mandated duplicates removed.
    /// The list is shared: cloning the tag, or creating elements from it,
    /// copies no attribute.
    pub attrs: Attrs,
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

    /// First attribute with the given (lowercase) name, per spec semantics
    /// (duplicates were dropped at tokenization time).
    pub fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Convenience: decoded value of an attribute.
    pub fn attr_value(&self, name: &str) -> Option<&str> {
        self.attr(name).map(|a| a.value.as_str())
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
