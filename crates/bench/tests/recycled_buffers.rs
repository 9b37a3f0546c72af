//! Parse buffers recycled across pages change no output.
//!
//! Each thread keeps the buffers of the pages it parsed (the DOM's node
//! vector, element payloads, text vector and attribute arena, text
//! strings, tokenizer scratch, stack tables, the error, event and kept-tag
//! lists) and hands them to its next parse. These tests parse pages back to back on one thread,
//! after pathological pages that grow every buffer, and compare each
//! output with what a fresh thread, whose store is empty, produces.

use hv_bench::{formatting_page, sample_pages};
use hv_core::CheckContext;
use spec_html::serializer::serialize;

/// Everything a page's parse hands the checkers, rendered to one string:
/// serialized DOM, parse errors, tree events, the element stack at EOF,
/// the kept start tags with their attributes, and the whole DOM arena:
/// every node, every element payload, every text and comment string and
/// every attribute list, referenced or not (the `Debug` form of the
/// document shows all of its vectors).
fn output(page: &str) -> String {
    let cx = CheckContext::new(page);
    let p = &cx.parse;
    let tags: Vec<_> = cx.start_tags().map(|t| (t, p.dom.attrs(t.attrs))).collect();
    format!(
        "{}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        serialize(&p.dom),
        p.errors,
        p.events,
        p.open_at_eof,
        p.quirks,
        tags,
        p.dom
    )
}

/// The output of `page` on a new thread, which starts with an empty store.
fn fresh_output(page: &str) -> String {
    let page = page.to_owned();
    std::thread::spawn(move || output(&page)).join().expect("fresh parse")
}

/// The end-to-end benchmark's deep-nesting member: about 1 MB of `<div>`.
fn deep_nesting_page() -> String {
    let mut s = String::from("<!DOCTYPE html><html><head><title>x</title></head><body>");
    while s.len() < 1 << 20 {
        s.push_str("<div>");
    }
    s
}

#[test]
fn pages_after_large_pages_match_a_fresh_thread() {
    let mut pages = vec![deep_nesting_page(), formatting_page(16_000)];
    pages.extend(sample_pages(64));
    let expected: Vec<String> = pages.iter().map(|p| fresh_output(p)).collect();
    // One thread parses them all, in order, and a second round after the
    // first, so every page also sees the buffers of the pages after it.
    let got = std::thread::spawn(move || {
        let first: Vec<String> = pages.iter().map(|p| output(p)).collect();
        let second: Vec<String> = pages.iter().map(|p| output(p)).collect();
        (first, second)
    })
    .join()
    .expect("recycled parses");
    for (round, outputs) in [got.0, got.1].iter().enumerate() {
        for (i, (got, want)) in outputs.iter().zip(&expected).enumerate() {
            assert!(got == want, "round {round}, page {i} differs from a fresh thread's parse");
        }
    }
}

/// No byte of one page reaches the next: the text, attribute and tag
/// buffers of a page are empty when the next parse takes them.
#[test]
fn nothing_of_one_page_shows_in_the_next() {
    std::thread::spawn(|| {
        for first in [
            "<p>secret",
            "<p title=secret>x",
            "<secret>",
            "<title>secret</title>",
            "<p>secret<!--secret--><p>x &amp; secret",
            "<!--secret--><p>x<!--secret-->",
            "<!DOCTYPE secret><p>x",
            "<textarea>secret",
        ] {
            let _ = output(first);
            for next in ["<p>x", "<p title=t>x", "<title>t", "x"] {
                let got = output(next);
                assert!(!got.contains("secret"), "after {first:?}, {next:?} gave {got}");
                assert_eq!(got, fresh_output(next), "after {first:?}");
            }
        }
    })
    .join()
    .expect("no leak");
}

/// The attribute arena reaches the next page empty: after pages whose
/// attribute names and values say `secret` (kept tags, merged html and
/// body lists, re-created formatting copies, renamed foreign attributes,
/// a tag cut off at EOF), no attribute of theirs is in the next page's
/// arena.
#[test]
fn no_attribute_of_one_page_shows_in_the_next() {
    std::thread::spawn(|| {
        for first in [
            "<p secret=1>x",
            "<p title=secret>x",
            "<b class=secret>1<p>2<p>3",
            "<p><b title=secret>1<p>2<button>3</b>4",
            "<html secret=a><body title=secret><body secret=b><html lang=secret>",
            "<svg viewbox=secret><rect secret=x></svg>",
            "<p title=\"sec&amp;ret\" secret>",
            "<div secret=x></div secret=y><p title=secret",
        ] {
            let _ = output(first);
            for next in ["<p>x", "<p title=t>x", "<body class=c><body id=d><b class=e>1<p>2"] {
                let got = output(next);
                assert!(!got.contains("secret"), "after {first:?}, {next:?} gave {got}");
                assert_eq!(got, fresh_output(next), "after {first:?}");
            }
        }
    })
    .join()
    .expect("no attribute leak");
}
