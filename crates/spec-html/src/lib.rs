//! # spec-html — a WHATWG-style HTML parsing substrate with parse-error reporting
//!
//! This crate re-implements, from scratch, the parts of the WHATWG HTML
//! parsing algorithm ([HTML Living Standard §13.2]) that the IMC '22 paper
//! *"HTML Violations and Where to Find Them"* builds its violation checkers
//! on. It mirrors the pipeline the paper describes in §2.1:
//!
//! 1. **Byte stream decoder** ([`decoder`]) — decodes the byte stream into
//!    characters (the study restricts itself to UTF-8-decodable documents).
//! 2. **Input stream preprocessor** ([`preprocess`]) — normalizes newlines
//!    (CRLF/CR → LF) and reports control-character/noncharacter errors.
//!    Implemented as a zero-copy streaming cursor ([`preprocess::InputStream`])
//!    the tokenizer pulls from; no intermediate `Vec<char>` is built.
//! 3. **Tokenizer** ([`tokenizer`]) — the §13.2.5 state machine, emitting
//!    [`tokenizer::Token`]s *and* structured [`ParseError`]s instead of
//!    silently recovering. This is the crate's reason to exist: browsers
//!    implement the same machine but discard the error states; the paper's
//!    checkers are built directly on those error states. Hot states take
//!    SWAR-batched fast paths ([`scan`]); [`tokenize_scalar`] runs the pure
//!    per-character spec machine, and property tests pin the two to be
//!    observationally identical.
//! 4. **Tree builder** ([`tree_builder`]) — the §13.2.6 insertion-mode state
//!    machine constructing a [`dom::Document`], including the error-tolerance
//!    behaviours the paper's violations exploit: implied tags, foster
//!    parenting (HF4), the form element pointer (DE4), body attribute merging
//!    (HF3), head relocation (HF1/HF2), and SVG/MathML foreign content with
//!    integration points and breakout (HF5, the Figure-1 mXSS).
//! 5. **Serializer** ([`serializer`]) — §13.3 HTML fragment serialization,
//!    used by the paper's proposed automatic fix ("serializing the entire
//!    document with the current HTML parser and deserializing it again",
//!    §4.4) and by the mXSS round-trip demonstrations.
//!
//! The easiest entry point is [`parse_document`]:
//!
//! ```
//! let doc = spec_html::parse_document("<p>Hello <b>world");
//! let html = spec_html::serializer::serialize(&doc.dom);
//! assert!(html.contains("<b>world</b>"));
//! ```
//!
//! [HTML Living Standard §13.2]: https://html.spec.whatwg.org/multipage/parsing.html

pub mod atoms;
pub mod decoder;
pub mod dom;
pub mod entities;
pub mod errors;
pub mod preprocess;
mod recycle;
pub mod scan;
pub mod serializer;
pub mod tags;
pub mod tokenizer;
pub mod tree_builder;

pub use atoms::{Atom, SharedStr, StaticAtomSet};
pub use dom::{Document as Dom, Namespace, NodeData, NodeId};
pub use errors::{ErrorCode, ParseError};
pub use tree_builder::{
    fragment_children, parse_fragment, parse_fragment_with_sink, KeptTags, ParseOutput, TagSink,
    TreeEvent, TreeEventKind, Trigger,
};

/// Parse a complete HTML document the way a browser would, recording every
/// specification violation (tokenizer parse errors and tree-construction
/// events) along the way.
///
/// The input must already be decoded text; use [`decoder::decode_utf8`] to go
/// from bytes to text with the study's UTF-8 policy.
pub fn parse_document(input: &str) -> ParseOutput {
    tree_builder::parse(input)
}

/// [`parse_document`] with a [`TagSink`] observing every start tag as it
/// streams off the tokenizer. The parser retains no token stream of its
/// own, so callers that inspect raw attribute values (e.g. the violation
/// checkers) collect exactly the tags they need here instead of paying for
/// a clone of every tag.
pub fn parse_document_with(input: &str, sink: TagSink<'_>) -> ParseOutput {
    tree_builder::parse_with_sink(input, sink)
}

/// Tokenize without tree construction; returns the token stream (with the
/// attribute arena of its tags) and the tokenizer-level parse errors.
/// Tag-feedback-sensitive states (RCDATA for `<textarea>`/`<title>`,
/// RAWTEXT for `<style>` etc., script data) are driven by a minimal
/// built-in feedback rule equivalent to what the tree builder would do for
/// well-nested documents.
pub fn tokenize(input: &str) -> (tokenizer::Tokens, Vec<ParseError>) {
    drive_tokenizer(tokenizer::Tokenizer::new(input))
}

/// [`tokenize`] with the batched input-stream fast paths disabled: every
/// character goes through the per-state scalar machine. Exists so tests can
/// assert the batched and scalar paths are observationally identical; the
/// output contract is exactly that of [`tokenize`].
pub fn tokenize_scalar(input: &str) -> (tokenizer::Tokens, Vec<ParseError>) {
    drive_tokenizer(tokenizer::Tokenizer::new_scalar(input))
}

fn drive_tokenizer(mut tok: tokenizer::Tokenizer<'_>) -> (tokenizer::Tokens, Vec<ParseError>) {
    let (mut tokens, mut attrs) = (Vec::new(), Vec::new());
    loop {
        let t = tok.next_token(&mut attrs);
        let done = matches!(t, tokenizer::Token::Eof);
        // Standalone tokenization applies the spec's tag-name feedback so
        // that `<style>`/`<textarea>`/`<script>` content is not mis-lexed.
        if let tokenizer::Token::StartTag(ref tag) = t {
            tok.apply_default_feedback(&tag.name);
        }
        tokens.push(t);
        if done {
            break;
        }
    }
    // Preprocessing errors come first, as when preprocessing was a separate
    // eager pass; EOF implies the stream (and thus the error list) is
    // complete.
    let mut errors = tok.take_preprocess_errors();
    errors.extend(tok.take_errors());
    (tokenizer::Tokens { tokens, attrs }, errors)
}

#[cfg(test)]
mod smoke_tests {
    use super::*;

    #[test]
    fn parse_and_serialize_roundtrip() {
        let doc = parse_document(
            "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>",
        );
        let out = serializer::serialize(&doc.dom);
        assert!(out.contains("<title>t</title>"));
        assert!(out.contains("<p>x</p>"));
    }

    #[test]
    fn tokenize_reports_errors() {
        let (_, errs) = tokenize("<img/src=x>");
        assert!(errs.iter().any(|e| e.code == ErrorCode::UnexpectedSolidusInTag));
    }
}
