//! Structured tree-construction events.
//!
//! The tree builder's error tolerance is not a single "parse error" bit: each
//! recovery action has a distinct *shape* (foster parenting, body merging,
//! head relocation, …) and the paper's Definition Violations map one-to-one
//! onto those shapes. [`TreeEvent`] records each recovery with enough detail
//! for the checkers to classify it without re-parsing. Events name tags by
//! their [`Atom`], so recording one copies no name.

use crate::atoms::Atom;
use crate::dom::Namespace;
use std::fmt;

/// A tree-construction recovery event, with the character offset of the
/// triggering token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEvent {
    pub kind: TreeEventKind,
    pub offset: usize,
}

/// What the parser tolerated and how it recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeEventKind {
    /// No DOCTYPE at the start of the document; quirks mode engaged.
    MissingDoctype,
    /// A DOCTYPE token appeared after the initial insertion mode.
    UnexpectedDoctype,
    /// The `html` element was created without an `<html>` tag.
    ImplicitHtml,
    /// The `head` element was created without a `<head>` tag.
    ImplicitHead,
    /// The `body` element was created without a `<body>` tag; `by` is the
    /// token that forced it (HF2's "content before body").
    ImplicitBody { by: Trigger },
    /// While in head, a token that does not belong in head arrived; the
    /// parser closed the head and reprocessed the token in the body (HF1's
    /// "broken head section"). `by` is that token.
    HeadClosedBy { by: Trigger },
    /// Metadata content (`meta`, `base`, `title`, …) arrived *after* the
    /// head was closed; the parser re-opened the head element for it.
    LateHeadContent { tag: Atom },
    /// A second `<head>` start tag was ignored.
    SecondHeadIgnored,
    /// A second `<body>` start tag was merged into the existing body
    /// element (HF3); `new_attrs` lists attribute names that were copied,
    /// `ignored_attrs` the ones dropped because they already existed.
    SecondBodyMerged { new_attrs: Vec<Atom>, ignored_attrs: Vec<Atom> },
    /// A second `<html>` start tag was merged into the html element.
    SecondHtmlMerged,
    /// A `<form>` start tag was ignored because a form element is already
    /// open (DE4's nested form).
    NestedFormIgnored,
    /// A node was foster-parented out of a table (HF4); `tag` is `None` for
    /// character data.
    FosterParented { tag: Option<Atom> },
    /// A start tag was ill-placed table content that forced recovery but was
    /// handled without foster parenting (e.g. implied `tbody`).
    TableStructureImplied { tag: Atom },
    /// An HTML breakout element appeared in foreign content; the parser
    /// popped back to HTML (HF5). `root_ns` is the namespace of the
    /// outermost foreign element that was open.
    ForeignBreakout { tag: Atom, root_ns: Namespace },
    /// An end tag in foreign content did not match the open foreign
    /// elements.
    ForeignEndTagMismatch { tag: Atom },
    /// A start tag was ignored because it cannot occur in the current
    /// context (e.g. `<td>` outside a table).
    StrayStartTag { tag: Atom },
    /// An end tag had no matching open element.
    StrayEndTag { tag: Atom },
    /// The adoption agency algorithm ran for a misnested formatting element.
    AdoptionAgency { tag: Atom },
    /// EOF arrived while elements were still open (beyond those whose end
    /// tags may be omitted). Raw material for DE1/DE2.
    EofWithOpenElements { names: Vec<Atom> },
    /// EOF arrived inside RCDATA/RAWTEXT/script text content (an unclosed
    /// `<textarea>`, `<script>`, …). `tag` is the element left open.
    EofInTextContent { tag: Atom },
    /// A self-closing slash on a non-void HTML element was ignored.
    SelfClosingNonVoid { tag: Atom },
}

/// The token behind an [`TreeEventKind::ImplicitBody`] or
/// [`TreeEventKind::HeadClosedBy`] event. It displays as the event has
/// always named it: `p` for a start tag, `/p` for an end tag, `#text:`
/// and the first twelve characters for character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// A start tag.
    StartTag(Atom),
    /// An end tag.
    EndTag(Atom),
    /// Character data, by its first twelve characters.
    Text(String),
    /// A token that does not belong in `<noscript>` inside head.
    NoscriptContent,
}

impl Trigger {
    /// Character data `s`, by its first twelve characters.
    pub(crate) fn text(s: &str) -> Trigger {
        Trigger::Text(s.chars().take(12).collect())
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::StartTag(name) => f.write_str(name),
            Trigger::EndTag(name) => write!(f, "/{name}"),
            Trigger::Text(head) => write!(f, "#text:{head}"),
            Trigger::NoscriptContent => f.write_str("noscript-content"),
        }
    }
}

impl TreeEventKind {
    /// Short stable identifier for reporting.
    pub fn id(&self) -> &'static str {
        use TreeEventKind::*;
        match self {
            MissingDoctype => "missing-doctype",
            UnexpectedDoctype => "unexpected-doctype",
            ImplicitHtml => "implicit-html",
            ImplicitHead => "implicit-head",
            ImplicitBody { .. } => "implicit-body",
            HeadClosedBy { .. } => "head-closed-by-element",
            LateHeadContent { .. } => "late-head-content",
            SecondHeadIgnored => "second-head-ignored",
            SecondBodyMerged { .. } => "second-body-merged",
            SecondHtmlMerged => "second-html-merged",
            NestedFormIgnored => "nested-form-ignored",
            FosterParented { .. } => "foster-parented",
            TableStructureImplied { .. } => "table-structure-implied",
            ForeignBreakout { .. } => "foreign-breakout",
            ForeignEndTagMismatch { .. } => "foreign-end-tag-mismatch",
            StrayStartTag { .. } => "stray-start-tag",
            StrayEndTag { .. } => "stray-end-tag",
            AdoptionAgency { .. } => "adoption-agency",
            EofWithOpenElements { .. } => "eof-with-open-elements",
            EofInTextContent { .. } => "eof-in-text-content",
            SelfClosingNonVoid { .. } => "self-closing-non-void",
        }
    }
}
