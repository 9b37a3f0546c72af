//! SWAR batch scanning for the tokenizer's inert-character fast paths.
//!
//! The tokenizer spends nearly all of its time in states (Data, RCDATA,
//! RAWTEXT, script data, PLAINTEXT, comments, quoted attribute values)
//! whose per-character behaviour is "append the character and stay" for
//! everything except a handful of delimiters. [`plain_prefix_len`] finds
//! the longest such run in one pass over the raw bytes, eight bytes per
//! `u64` word (the SWAR technique of Langdale & Lemire's simdjson and
//! Mycroft's classic has-zero-byte trick), so the tokenizer can append a
//! whole `&str` slice instead of looping `char` by `char`.
//!
//! A byte is *plain* — safe to batch without consulting the state machine
//! or the input-stream preprocessor — iff all of:
//!
//! * it is ASCII and not DEL (`0x20..=0x7E`), or one of the three allowed
//!   control characters TAB/LF/FF. This excludes NUL and CR (which the
//!   preprocessor/tokenizer rewrite), every control character the
//!   preprocessor must report, and all non-ASCII bytes (C1 controls and
//!   noncharacters are multi-byte in UTF-8; their *lead* byte stops the
//!   scan and the scalar path decodes and reports them);
//! * it is not one of the caller's state-specific `delims` (`<`, `&`,
//!   `-`, or a quote, depending on the state).

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Every byte lane set to `b`.
#[inline]
const fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// 0x80 in each lane whose byte is zero, and *only* those lanes.
///
/// Not Mycroft's `(x - LO) & !x & HI`: that one is exact as a whole-word
/// predicate but can set a spurious bit in a `0x01` lane that sits above a
/// borrowing (zero) lane — e.g. the word for `"\n\x0B..."` xored with
/// `splat(b'\n')` marks the `0x0B` lane as "equal to LF", which would let a
/// reportable control character slip into a plain run. The per-lane
/// `(x & 0x7F) + 0x7F` form never carries across lanes, so it is exact.
#[inline]
const fn has_zero(x: u64) -> u64 {
    !((x & !HI).wrapping_add(!HI) | x) & HI
}

/// 0x80 in each lane whose byte equals `b` (exact).
#[inline]
const fn has_value(x: u64, b: u8) -> u64 {
    has_zero(x ^ splat(b))
}

/// 0x80 in each lane whose byte is `< n`, and *only* those lanes (exact for
/// `n <= 0x80`). Setting bit 7 of every lane before subtracting keeps each
/// lane's borrow to itself — the textbook `(x - splat(n)) & !x & HI` lets a
/// TAB/LF lane (plain, but `< 0x20`) borrow into a following space lane and
/// falsely stop the run, which would de-batch every `"\n  <indent>"` in
/// pretty-printed HTML.
#[inline]
const fn has_less(x: u64, n: u8) -> u64 {
    !(x | HI).wrapping_sub(splat(n)) & !x & HI
}

/// Whether `b` is plain with respect to `delims` (scalar reference, also
/// used for the unaligned tail).
#[inline]
fn is_plain(b: u8, delims: &[u8]) -> bool {
    let shape_ok = matches!(b, 0x20..=0x7E | b'\t' | b'\n' | 0x0C);
    shape_ok && !delims.contains(&b)
}

/// Length of the longest prefix of `bytes` consisting only of plain bytes
/// (see the module docs). `delims` is the state's delimiter set, at most a
/// few bytes; each extra delimiter costs three ALU ops per 8-byte word.
///
/// Always inlined: each tokenizer state passes its delimiters as a literal,
/// so the per-delimiter loop unrolls into constant compares instead of
/// walking a runtime slice for every word.
#[inline(always)]
pub fn plain_prefix_len(bytes: &[u8], delims: &[u8]) -> usize {
    let mut i = 0;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        // Non-ASCII (lead or continuation) and DEL.
        let mut stops = (w & HI) | has_value(w, 0x7F);
        // C0 controls minus TAB/LF/FF; this also catches NUL and CR.
        stops |=
            has_less(w, 0x20) & !(has_value(w, b'\t') | has_value(w, b'\n') | has_value(w, 0x0C));
        for &d in delims {
            stops |= has_value(w, d);
        }
        if stops != 0 {
            // Lanes are little-endian: the first stop byte is the lowest
            // set 0x80 bit.
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    for &b in chunks.remainder() {
        if !is_plain(b, delims) {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// Whether `b` can be batch-appended in a *name-like* state (scalar
/// reference and unaligned tail). Name-like runs are strictly printable
/// ASCII (`0x21..=0x7E`): whitespace always terminates these states, so
/// unlike [`is_plain`] there is no TAB/LF/FF allowance — which also means
/// every batched byte is exactly one character and one column. Uppercase
/// letters batch too: the name states lowercase the appended slice in
/// place, which is byte-for-byte what the scalar `to_ascii_lowercase`
/// per-character path produces.
#[inline]
fn is_name_plain(b: u8, delims: &[u8]) -> bool {
    matches!(b, 0x21..=0x7E) && !delims.contains(&b)
}

/// Delimiters of the TagName state: `/` and `>` hand control back.
pub const TAG_NAME_DELIMS: &[u8] = b"/>";

/// Delimiters of the AttributeName state: `/`/`>` end the tag machinery,
/// `=` separates the value, and `"`/`'`/`<` are in-name error characters
/// the scalar path must report.
pub const ATTR_NAME_DELIMS: &[u8] = b"/>=\"'<";

/// Delimiters of the unquoted AttributeValue state: `&` starts a character
/// reference, `>` closes the tag, and `"`/`'`/`<`/`=`/`` ` `` are in-value
/// error characters.
pub const UNQUOTED_VALUE_DELIMS: &[u8] = b"&>\"'<=`";

/// Whether `b` can *start* an attribute name — used by the fused
/// BeforeAttributeName fast path to decide it may open an attribute
/// without bouncing through the scalar state machine. Exactly the bytes
/// [`name_prefix_len`] batches with [`ATTR_NAME_DELIMS`].
#[inline]
pub fn is_attr_name_start(b: u8) -> bool {
    is_name_plain(b, ATTR_NAME_DELIMS)
}

/// Length of the longest prefix batchable in a name-like tokenizer state
/// (TagName, AttributeName, unquoted AttributeValue). Stops at anything
/// outside printable ASCII (controls, NUL, CR, DEL, non-ASCII — the bytes
/// the preprocessor or state machine must see) and at every `delims` byte.
/// Always inlined, like [`plain_prefix_len`] and for the same reason.
#[inline(always)]
pub fn name_prefix_len(bytes: &[u8], delims: &[u8]) -> usize {
    let mut i = 0;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        // Outside 0x21..=0x7E: non-ASCII, DEL, and everything below '!'.
        let mut stops = (w & HI) | has_value(w, 0x7F) | has_less(w, 0x21);
        for &d in delims {
            stops |= has_value(w, d);
        }
        if stops != 0 {
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    for &b in chunks.remainder() {
        if !is_name_plain(b, delims) {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference implementation.
    fn reference(bytes: &[u8], delims: &[u8]) -> usize {
        bytes.iter().position(|&b| !is_plain(b, delims)).unwrap_or(bytes.len())
    }

    /// Byte-at-a-time reference for the name-like scans.
    fn name_reference(bytes: &[u8], delims: &[u8]) -> usize {
        bytes.iter().position(|&b| !is_name_plain(b, delims)).unwrap_or(bytes.len())
    }

    #[test]
    fn empty_and_all_plain() {
        assert_eq!(plain_prefix_len(b"", b"<"), 0);
        assert_eq!(plain_prefix_len(b"hello world, plain ascii text!", b"<&"), 30);
    }

    #[test]
    fn stops_at_delimiters_in_any_position() {
        for pos in 0..40 {
            let mut v = vec![b'a'; 40];
            v[pos] = b'<';
            assert_eq!(plain_prefix_len(&v, b"<&"), pos, "pos {pos}");
            v[pos] = b'&';
            assert_eq!(plain_prefix_len(&v, b"<&"), pos);
            // Not in the delimiter set: no stop.
            v[pos] = b'-';
            assert_eq!(plain_prefix_len(&v, b"<&"), 40);
        }
    }

    #[test]
    fn stops_at_controls_nul_cr_del_and_non_ascii() {
        for stop in [0x00u8, 0x01, 0x08, 0x0B, 0x0D, 0x1F, 0x7F, 0x80, 0xC3, 0xEF, 0xFF] {
            let v = [b'x', b'y', stop, b'z'];
            assert_eq!(plain_prefix_len(&v, &[]), 2, "byte {stop:#x}");
        }
    }

    #[test]
    fn tab_lf_ff_are_plain() {
        assert_eq!(plain_prefix_len(b"a\tb\nc\x0Cd", b"<"), 7);
    }

    #[test]
    fn matches_reference_on_dense_byte_sweep() {
        // Every byte value, at every alignment within a word, against the
        // delimiter sets the tokenizer actually uses.
        let delim_sets: &[&[u8]] = &[&[], b"<", b"&<", b"<-", b"\"&", b"'&"];
        for &delims in delim_sets {
            for b in 0u8..=255 {
                for pos in 0..17 {
                    let mut v = vec![b'p'; 17];
                    v[pos] = b;
                    assert_eq!(
                        plain_prefix_len(&v, delims),
                        reference(&v, delims),
                        "byte {b:#x} at {pos}, delims {delims:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_adjacent_byte_pairs() {
        // SWAR subtraction borrows couple *adjacent* lanes, so single-byte
        // sweeps cannot catch per-lane inexactness (the `"\n\x0B"` bug: LF's
        // zero lane borrowed into the 0x0B lane of `w ^ splat(b'\n')`,
        // falsely un-stopping a control character). Exhaust all ordered
        // pairs at both in-word alignments.
        for a in 0u8..=255 {
            for b in 0u8..=255 {
                for pos in [0usize, 5] {
                    let mut v = vec![b'p'; 10];
                    v[pos] = a;
                    v[pos + 1] = b;
                    for delims in [&[b'&', b'<'][..], &[][..]] {
                        assert_eq!(
                            plain_prefix_len(&v, delims),
                            reference(&v, delims),
                            "pair {a:#x},{b:#x} at {pos}, delims {delims:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn name_scan_basics() {
        let tag_name = |b: &[u8]| name_prefix_len(b, TAG_NAME_DELIMS);
        assert_eq!(tag_name(b"div>"), 3);
        assert_eq!(tag_name(b"div id=x>"), 3); // stops at space
        assert_eq!(tag_name(b"br/>"), 2);
        assert_eq!(tag_name(b"DIV>"), 3); // batched, lowercased in place
        assert_eq!(tag_name(b"x-widget attr"), 8);

        let attr_name = |b: &[u8]| name_prefix_len(b, ATTR_NAME_DELIMS);
        assert_eq!(attr_name(b"data-key=1"), 8);
        assert_eq!(attr_name(b"checked>"), 7);
        assert_eq!(attr_name(b"a\"b"), 1); // error char -> scalar
        assert_eq!(attr_name(b"Xyz"), 3); // batched, lowercased in place

        assert!(is_attr_name_start(b'a'));
        assert!(is_attr_name_start(b'D'));
        assert!(!is_attr_name_start(b' '));
        assert!(!is_attr_name_start(b'='));
        assert!(!is_attr_name_start(b'>'));
        assert!(!is_attr_name_start(b'/'));
        assert!(!is_attr_name_start(0x80));

        let unquoted = |b: &[u8]| name_prefix_len(b, UNQUOTED_VALUE_DELIMS);
        assert_eq!(unquoted(b"v42 next"), 3);
        assert_eq!(unquoted(b"UPPER-ok>"), 8); // case kept
        assert_eq!(unquoted(b"a&amp;b"), 1);
        assert_eq!(unquoted(b"q`r"), 1);
    }

    #[test]
    fn name_scan_matches_reference_on_dense_byte_sweep() {
        // Every byte value at every in-word alignment, for each of the
        // three delimiter configurations the tokenizer uses.
        for delims in [TAG_NAME_DELIMS, ATTR_NAME_DELIMS, UNQUOTED_VALUE_DELIMS] {
            for b in 0u8..=255 {
                for pos in 0..17 {
                    let mut v = vec![b'p'; 17];
                    v[pos] = b;
                    assert_eq!(
                        name_prefix_len(&v, delims),
                        name_reference(&v, delims),
                        "byte {b:#x} at {pos}, delims {delims:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn name_scan_matches_reference_on_adjacent_byte_pairs() {
        // Same adjacent-lane exhaustion as the plain scan: `has_less` is
        // built from a borrow-free form, and this proves no cross-lane
        // coupling slipped in.
        for a in 0u8..=255 {
            for b in 0u8..=255 {
                for pos in [0usize, 5] {
                    let mut v = vec![b'p'; 10];
                    v[pos] = a;
                    v[pos + 1] = b;
                    for delims in [TAG_NAME_DELIMS, UNQUOTED_VALUE_DELIMS] {
                        assert_eq!(
                            name_prefix_len(&v, delims),
                            name_reference(&v, delims),
                            "pair {a:#x},{b:#x} at {pos}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_pseudorandom_buffers() {
        // Deterministic xorshift buffers of many lengths/alignments.
        let mut state = 0x9E37_79B9u32;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for len in 0..70 {
            let buf: Vec<u8> = (0..len).map(|_| (rand() & 0xFF) as u8).collect();
            for delims in [&[b'<', b'&'][..], &[][..]] {
                assert_eq!(plain_prefix_len(&buf, delims), reference(&buf, delims), "{buf:?}");
            }
        }
    }
}
