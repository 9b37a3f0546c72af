//! Input stream preprocessing (§13.2.3.5).
//!
//! The paper (§2.1): "the Input Stream Preprocessor normalizes this stream.
//! For instance, it replaces all CR characters with LF characters as CR is
//! not allowed in HTML." This module performs exactly the normalization the
//! specification requires — CRLF and bare CR become LF — and reports the
//! control-character and noncharacter parse errors of §13.2.3.5.
//!
//! Two implementations live here:
//!
//! * [`InputStream`] — the production path: a zero-copy cursor over the
//!   decoded `&str` that normalizes and reports errors *on the fly* as the
//!   tokenizer pulls characters, and hands out borrowed sub-slices for the
//!   tokenizer's batched fast paths. No `Vec<char>` is ever materialized.
//! * [`preprocess`] — the original eager implementation, kept as the scalar
//!   reference: tests assert that draining an [`InputStream`] yields exactly
//!   the characters and errors `preprocess` produces.
//!
//! Error offsets are *character indices into the normalized stream* (CRLF
//! counts as one character), which is what every consumer downstream — the
//! tokenizer, the tree builder, the checkers — keys on. [`InputStream`]
//! therefore tracks the character position alongside the byte position.

use crate::errors::{ErrorCode, ParseError};
use crate::scan;

/// A preprocessed input stream: normalized characters plus the preprocessing
/// parse errors, with offsets into the *normalized* stream.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    pub chars: Vec<char>,
    pub errors: Vec<ParseError>,
}

/// Normalize newlines and surface control/noncharacter parse errors.
///
/// Scalar reference implementation; the parser itself streams through
/// [`InputStream`] instead of materializing the character vector.
pub fn preprocess(input: &str) -> Preprocessed {
    let mut chars = Vec::with_capacity(input.len());
    let mut errors = Vec::new();
    let mut iter = input.chars().peekable();
    while let Some(c) = iter.next() {
        let out = if c == '\r' {
            if iter.peek() == Some(&'\n') {
                iter.next();
            }
            '\n'
        } else {
            c
        };
        if is_control_error(out) {
            errors.push(ParseError::new(ErrorCode::ControlCharacterInInputStream, chars.len()));
        } else if is_noncharacter(out) {
            errors.push(ParseError::new(ErrorCode::NoncharacterInInputStream, chars.len()));
        }
        chars.push(out);
    }
    Preprocessed { chars, errors }
}

/// A zero-copy preprocessing cursor over the decoded document.
///
/// Yields the same normalized character sequence and parse errors as
/// [`preprocess`], but lazily: characters come out of [`InputStream::next`]
/// one at a time (with CRLF/CR → LF rewriting), and errors accumulate as the
/// cursor passes the offending characters. Because the tokenizer re-reads
/// characters (its "reconsume" moves), a high-water mark ensures each error
/// is reported exactly once even when the cursor steps back with
/// [`InputStream::un_next`].
///
/// For the tokenizer's batch fast paths, [`InputStream::take_plain_run`]
/// returns the longest borrowed `&str` run of characters that need neither
/// normalization, nor error reporting, nor state-machine attention.
pub struct InputStream<'a> {
    src: &'a str,
    /// Byte offset of the cursor into `src`.
    byte: usize,
    /// Normalized characters consumed so far; error offsets use this.
    chars: usize,
    /// Source bytes consumed by the most recent [`Self::next`] (2 for CRLF);
    /// 0 when stepping back is not legal (start, after a bulk advance).
    last_width: usize,
    /// Bytes below this offset have already had their errors reported;
    /// re-reads after `un_next` must not report twice.
    reported: usize,
    errors: Vec<ParseError>,
}

impl<'a> InputStream<'a> {
    pub fn new(src: &'a str) -> Self {
        InputStream { src, byte: 0, chars: 0, last_width: 0, reported: 0, errors: Vec::new() }
    }

    /// Consume one normalized character, reporting its preprocessing error
    /// (if any, and if not already reported on an earlier pass).
    ///
    /// Deliberately named like `Iterator::next`, but this is a cursor, not
    /// an iterator: it supports stepping back ([`Self::un_next`]) and bulk
    /// consumption ([`Self::take_plain_run`]), which `Iterator` cannot model.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Option<char> {
        let rest = &self.src[self.byte..];
        let c = rest.chars().next()?;
        let (out, width) = if c == '\r' {
            ('\n', if rest.as_bytes().get(1) == Some(&b'\n') { 2 } else { 1 })
        } else {
            (c, c.len_utf8())
        };
        if self.byte >= self.reported {
            if is_control_error(out) {
                self.errors
                    .push(ParseError::new(ErrorCode::ControlCharacterInInputStream, self.chars));
            } else if is_noncharacter(out) {
                self.errors.push(ParseError::new(ErrorCode::NoncharacterInInputStream, self.chars));
            }
            self.reported = self.byte + width;
        }
        self.byte += width;
        self.chars += 1;
        self.last_width = width;
        Some(out)
    }

    /// Step back over the character the last [`Self::next`] consumed (the
    /// tokenizer's "reconsume"). Only one step back is legal between
    /// consumes; the width bookkeeping makes a second one a debug panic.
    #[inline]
    pub fn un_next(&mut self) {
        debug_assert!(self.last_width > 0, "un_next without a preceding next");
        self.byte -= self.last_width;
        self.chars -= 1;
        self.last_width = 0;
    }

    /// Normalized characters consumed so far — the tokenizer's notion of
    /// "position", and the unit of every error offset.
    #[inline]
    pub fn chars_consumed(&self) -> usize {
        self.chars
    }

    /// Byte offset of the cursor into the source.
    #[inline]
    pub fn byte_pos(&self) -> usize {
        self.byte
    }

    /// The unconsumed remainder of the source, raw (not normalized).
    #[inline]
    pub fn rest(&self) -> &'a str {
        &self.src[self.byte..]
    }

    /// A raw sub-slice of the source by byte offsets. Callers use this for
    /// character-reference spans, which are provably ASCII and CR-free, so
    /// raw bytes and normalized characters coincide.
    #[inline]
    pub fn slice(&self, from: usize, to: usize) -> &'a str {
        &self.src[from..to]
    }

    /// Bulk-advance over `n` bytes the caller has already inspected and
    /// knows to be plain ASCII without CR (lookahead matches like `--`,
    /// `doctype`, entity names). Such bytes can never carry preprocessing
    /// errors, so only the positions move.
    #[inline]
    pub fn advance_ascii(&mut self, n: usize) {
        debug_assert!(self.src.as_bytes()[self.byte..self.byte + n]
            .iter()
            .all(|&b| b.is_ascii() && b != b'\r'));
        self.byte += n;
        self.chars += n;
        self.reported = self.reported.max(self.byte);
        self.last_width = 0;
    }

    /// Consume and return the longest prefix run of *plain* characters:
    /// printable ASCII plus TAB/LF/FF, excluding the caller's delimiter
    /// bytes (see [`scan::plain_prefix_len`]). Plain characters need no
    /// normalization and can never carry preprocessing errors, so the run
    /// is returned as a borrowed slice of the source and appended wholesale
    /// by the tokenizer. Returns `""` when the next character needs the
    /// scalar path. Always inlined, so a literal `delims` stays constant
    /// through the scan.
    #[inline(always)]
    pub fn take_plain_run(&mut self, delims: &[u8]) -> &'a str {
        let n = scan::plain_prefix_len(&self.src.as_bytes()[self.byte..], delims);
        self.advance_run(n)
    }

    /// Consume and return the longest batchable run of a name-like state
    /// (TagName, AttributeName, unquoted AttributeValue; see
    /// [`scan::name_prefix_len`]). Like plain runs, name-like runs are
    /// printable ASCII: error-free, normalization-free, one byte per
    /// character.
    #[inline(always)]
    pub fn take_name_run(&mut self, delims: &[u8]) -> &'a str {
        let n = scan::name_prefix_len(&self.src.as_bytes()[self.byte..], delims);
        self.advance_run(n)
    }

    /// Peek the next raw byte without consuming it.
    #[inline]
    pub fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.byte).copied()
    }

    /// Consume the next character iff it is exactly the ASCII byte `b`.
    /// Callers pass printable-ASCII bytes (never CR), so the consumed
    /// character is one byte wide, needs no normalization, and can carry no
    /// preprocessing error. Returns whether the byte was consumed — the
    /// fused state-transition primitive of the batched tokenizer paths.
    #[inline]
    pub fn eat_byte(&mut self, b: u8) -> bool {
        debug_assert!(b.is_ascii() && b != b'\r');
        if self.src.as_bytes().get(self.byte) == Some(&b) {
            self.byte += 1;
            self.chars += 1;
            self.reported = self.reported.max(self.byte);
            self.last_width = 0;
            true
        } else {
            false
        }
    }

    /// Shared tail of the batch-run takers: advance over `n` bytes known to
    /// be printable ASCII and return them.
    #[inline]
    fn advance_run(&mut self, n: usize) -> &'a str {
        let run = &self.src[self.byte..self.byte + n];
        if n > 0 {
            // Every batched byte is a one-byte character, so chars advance
            // in lockstep with bytes.
            self.byte += n;
            self.chars += n;
            self.reported = self.reported.max(self.byte);
            self.last_width = 0;
        }
        run
    }

    /// Drain the preprocessing errors reported so far. Complete once the
    /// stream has been fully consumed (which emitting an EOF token implies).
    pub fn take_errors(&mut self) -> Vec<ParseError> {
        std::mem::take(&mut self.errors)
    }
}

/// Control characters that are parse errors in the input stream: C0 controls
/// other than NUL (handled by the tokenizer), tab, LF, FF; and C1 controls.
/// Space is of course allowed.
fn is_control_error(c: char) -> bool {
    let v = c as u32;
    let c0 = v < 0x20 && !matches!(c, '\t' | '\n' | '\u{C}' | '\0');
    let del_c1 = (0x7F..=0x9F).contains(&v);
    c0 || del_c1
}

/// Noncharacters per the Infra standard.
fn is_noncharacter(c: char) -> bool {
    let v = c as u32;
    (0xFDD0..=0xFDEF).contains(&v) || (v & 0xFFFE) == 0xFFFE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(s: &str) -> String {
        preprocess(s).chars.into_iter().collect()
    }

    /// Drain an [`InputStream`] char-at-a-time.
    fn drain(s: &str) -> (String, Vec<ParseError>) {
        let mut stream = InputStream::new(s);
        let mut out = String::new();
        while let Some(c) = stream.next() {
            out.push(c);
        }
        (out, stream.take_errors())
    }

    #[test]
    fn crlf_becomes_lf() {
        assert_eq!(norm("a\r\nb"), "a\nb");
    }

    #[test]
    fn bare_cr_becomes_lf() {
        assert_eq!(norm("a\rb"), "a\nb");
    }

    #[test]
    fn cr_cr_lf_becomes_two_lf() {
        assert_eq!(norm("a\r\r\nb"), "a\n\nb");
    }

    #[test]
    fn plain_text_untouched() {
        assert_eq!(norm("hello\tworld\n"), "hello\tworld\n");
    }

    #[test]
    fn control_character_reported() {
        let p = preprocess("a\u{1}b");
        assert_eq!(p.errors.len(), 1);
        assert_eq!(p.errors[0].code, ErrorCode::ControlCharacterInInputStream);
        assert_eq!(p.errors[0].offset, 1);
    }

    #[test]
    fn noncharacter_reported() {
        let p = preprocess("x\u{FDD0}");
        assert_eq!(p.errors[0].code, ErrorCode::NoncharacterInInputStream);
    }

    #[test]
    fn tab_lf_ff_are_fine() {
        assert!(preprocess("\t\n\u{C} ").errors.is_empty());
    }

    #[test]
    fn nul_is_left_for_tokenizer() {
        // NUL is handled state-dependently by the tokenizer, not here.
        let p = preprocess("\0");
        assert!(p.errors.is_empty());
        assert_eq!(p.chars, vec!['\0']);
    }

    #[test]
    fn stream_matches_reference_on_mixed_input() {
        for s in [
            "",
            "plain ascii",
            "a\r\nb\rc\n\r\r\nd",
            "gr\u{fc}\u{df}e 漢字 \u{1} \u{FDD0} \u{0} tail",
            "\r",
            "\r\n",
            "x\u{9d}y", // C1 control (multi-byte in UTF-8)
        ] {
            let reference = preprocess(s);
            let (chars, errors) = drain(s);
            let ref_chars: String = reference.chars.iter().collect();
            assert_eq!(chars, ref_chars, "chars diverged on {s:?}");
            assert_eq!(errors, reference.errors, "errors diverged on {s:?}");
        }
    }

    #[test]
    fn stream_positions_track_bytes_and_chars_independently() {
        let mut s = InputStream::new("ü\r\nx");
        assert_eq!(s.next(), Some('ü'));
        assert_eq!((s.byte_pos(), s.chars_consumed()), (2, 1));
        assert_eq!(s.next(), Some('\n')); // CRLF: two bytes, one char
        assert_eq!((s.byte_pos(), s.chars_consumed()), (4, 2));
        assert_eq!(s.next(), Some('x'));
        assert_eq!((s.byte_pos(), s.chars_consumed()), (5, 3));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn un_next_rereads_without_duplicate_errors() {
        let mut s = InputStream::new("a\u{1}\r\nb");
        assert_eq!(s.next(), Some('a'));
        assert_eq!(s.next(), Some('\u{1}'));
        s.un_next();
        assert_eq!(s.next(), Some('\u{1}')); // re-read: no second report
        assert_eq!(s.next(), Some('\n'));
        s.un_next(); // step back over the two-byte CRLF
        assert_eq!(s.next(), Some('\n'));
        assert_eq!(s.next(), Some('b'));
        assert_eq!(s.next(), None);
        let errors = s.take_errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0], ParseError::new(ErrorCode::ControlCharacterInInputStream, 1));
    }

    #[test]
    fn plain_run_stops_at_delimiters_and_unsafe_bytes() {
        let mut s = InputStream::new("hello<world");
        assert_eq!(s.take_plain_run(b"<&"), "hello");
        assert_eq!(s.next(), Some('<'));
        assert_eq!(s.take_plain_run(b"<&"), "world");
        assert_eq!(s.take_plain_run(b"<&"), "");
        assert_eq!(s.next(), None);

        // CR, NUL, controls, and non-ASCII all end a run for the scalar path.
        for src in ["ab\rc", "ab\0c", "ab\u{1}c", "abüc"] {
            let mut s = InputStream::new(src);
            assert_eq!(s.take_plain_run(&[]), "ab", "on {src:?}");
        }
    }

    #[test]
    fn interleaved_runs_and_scalar_reads_stay_consistent() {
        let mut s = InputStream::new("one&two\r\nthree\u{1}four");
        let mut out = String::new();
        let mut steps = 0;
        loop {
            let run = s.take_plain_run(b"&");
            out.push_str(run);
            match s.next() {
                Some(c) => out.push(c),
                None => break,
            }
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(out, "one&two\nthree\u{1}four");
        let reference = preprocess("one&two\r\nthree\u{1}four");
        assert_eq!(s.take_errors(), reference.errors);
    }
}
