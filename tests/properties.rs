//! Property-based tests on the cross-crate invariants.
//!
//! These are the load-bearing guarantees: the parser is total (never
//! panics, always terminates), serialization converges, the auto-fixer is
//! sound for automatic kinds, the DOM stays structurally valid on any
//! input, and the corpus is a pure function of its seed.

use html_violations::prelude::*;
use html_violations::spec_html::serializer;
use proptest::prelude::*;

/// HTML-ish soup: fragments that stress tag/attribute/entity handling.
fn html_soup() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("<".to_owned()),
        Just(">".to_owned()),
        Just("</".to_owned()),
        Just("/>".to_owned()),
        Just("=".to_owned()),
        Just("\"".to_owned()),
        Just("'".to_owned()),
        Just("&".to_owned()),
        Just("&amp;".to_owned()),
        Just("&#x41;".to_owned()),
        Just("<!--".to_owned()),
        Just("-->".to_owned()),
        Just("<!DOCTYPE html>".to_owned()),
        Just("<![CDATA[".to_owned()),
        Just("<div".to_owned()),
        Just("<p>".to_owned()),
        Just("<table>".to_owned()),
        Just("<tr>".to_owned()),
        Just("<td>".to_owned()),
        Just("<select>".to_owned()),
        Just("<option>".to_owned()),
        Just("<textarea>".to_owned()),
        Just("</textarea>".to_owned()),
        Just("<script>".to_owned()),
        Just("</script>".to_owned()),
        Just("<style>".to_owned()),
        Just("<svg>".to_owned()),
        Just("</svg>".to_owned()),
        Just("<math>".to_owned()),
        Just("</math>".to_owned()),
        Just("<mtext>".to_owned()),
        Just("<foreignObject>".to_owned()),
        Just("<desc>".to_owned()),
        Just("<annotation-xml>".to_owned()),
        Just("<annotation-xml encoding=\"text/html\">".to_owned()),
        Just("<template>".to_owned()),
        Just("</template>".to_owned()),
        Just("<b>".to_owned()),
        Just("</b>".to_owned()),
        Just("<i>".to_owned()),
        Just("<a href=".to_owned()),
        Just("<form>".to_owned()),
        Just("<body>".to_owned()),
        Just("<head>".to_owned()),
        Just(" ".to_owned()),
        Just("\n".to_owned()),
        Just("\r\n".to_owned()),
        Just("\0".to_owned()),
        Just("\u{1}".to_owned()),
        Just("\u{c}".to_owned()),
        Just("&#0;".to_owned()),
        Just("&notit;".to_owned()),
        "[a-zA-Z0-9 ]{0,12}".prop_map(|s| s),
    ];
    proptest::collection::vec(atom, 0..40).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser is total: arbitrary bytes never panic it, and the
    /// resulting DOM always satisfies the structural invariants.
    #[test]
    fn parser_is_total_and_dom_is_valid(input in html_soup()) {
        let out = parse_document(&input);
        out.dom.check_invariants().unwrap();
        // Error offsets stay within the input.
        let len = input.chars().count();
        for e in &out.errors {
            prop_assert!(e.offset <= len, "offset {} beyond input {len}", e.offset);
        }
    }

    /// Arbitrary unicode (not just HTML-ish soup) parses too.
    #[test]
    fn parser_handles_arbitrary_unicode(input in "\\PC*") {
        let out = parse_document(&input);
        out.dom.check_invariants().unwrap();
    }

    /// serialize ∘ parse is a fixpoint after one round: re-parsing the
    /// serialization and serializing again yields the same bytes. (The
    /// first round may mutate — that is mXSS — but it must converge.)
    ///
    /// One documented exception: a script element whose content opens an
    /// HTML-comment-like section (`<!--<script>`) without closing it puts
    /// the tokenizer in the double-escaped state, where the serialized
    /// `</script>` is swallowed on every re-parse — such trees never
    /// round-trip, in browsers either (spec §13.3's warning). Detectable
    /// via the `eof-in-script-html-comment-like-text` error.
    #[test]
    fn serialization_converges(input in html_soup()) {
        let once = serializer::serialize(&parse_document(&input).dom);
        let reparse = parse_document(&once);
        if reparse.has_error(html_violations::spec_html::ErrorCode::EofInScriptHtmlCommentLikeText) {
            return Ok(()); // documented non-round-trippable pathology
        }
        let twice = serializer::serialize(&reparse.dom);
        let thrice = serializer::serialize(&parse_document(&twice).dom);
        prop_assert_eq!(&twice, &thrice, "serialize/parse did not converge from {:?}", input);
    }

    /// The checker battery is total and deterministic.
    #[test]
    fn checkers_are_total_and_deterministic(input in html_soup()) {
        let a = Battery::full().run_str(&input);
        let b = Battery::full().run_str(&input);
        prop_assert_eq!(a.findings, b.findings);
    }

    /// The auto-fixer's output re-checks clean of all *automatically
    /// fixable* kinds, and fixing converges: one extra pass reaches a
    /// fixpoint. (A single pass is not always a fixpoint — the HTML spec
    /// itself notes in §13.3 that serializing a tree with misnested
    /// formatting or foster-parented content "might not return the
    /// original tree structure"; the re-parsed tree is the stable one.)
    #[test]
    fn autofix_resolves_automatic_kinds(input in html_soup()) {
        let outcome = auto_fix(&input);
        for k in &outcome.after {
            prop_assert_eq!(
                k.fixability(),
                html_violations::hv_core::Fixability::Manual,
                "automatic kind {} survived the fixer on {:?}", k.id(), input
            );
        }
        // Same carve-out as serialization_converges: unterminated
        // script-comment content never round-trips.
        if parse_document(&outcome.fixed_html)
            .has_error(html_violations::spec_html::ErrorCode::EofInScriptHtmlCommentLikeText)
        {
            return Ok(());
        }
        let again = auto_fix(&outcome.fixed_html);
        let third = auto_fix(&again.fixed_html);
        prop_assert_eq!(&third.fixed_html, &again.fixed_html, "fixer did not converge");
    }

    /// Text content survives the automatic fix (the fixer must never eat
    /// visible content).
    #[test]
    fn autofix_preserves_text(words in proptest::collection::vec("[a-z]{1,8}", 1..8)) {
        let text = words.join(" ");
        let input = format!("<p id=x id=y>{text}</p><img src=\"a\"alt=\"b\">");
        let outcome = auto_fix(&input);
        let doc = parse_document(&outcome.fixed_html);
        let body = doc.dom.find_html("body").unwrap();
        prop_assert!(doc.dom.text_content(body).contains(&text));
    }

    /// Entity decoding: decode(encode(s)) == s for text content.
    #[test]
    fn text_roundtrip_through_serializer(text in "[a-zA-Z0-9 <>&';]{0,40}") {
        let doc = parse_document(&format!("<body><p>{}</p>", text.replace('<', "&lt;").replace('&', "&amp;x")));
        doc.dom.check_invariants().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`Battery::only`] over any subset of the taxonomy reports exactly
    /// the subset-filtered findings of the full battery, on any input —
    /// restricting the rule set is observationally a filter.
    #[test]
    fn battery_only_is_a_filter_of_full(input in html_soup(), mask in 0u32..(1u32 << 20)) {
        let subset: Vec<ViolationKind> = ViolationKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect();
        let full = Battery::full().run_str(&input);
        let expected: Vec<_> =
            full.findings.iter().filter(|f| subset.contains(&f.kind)).cloned().collect();
        let got = Battery::only(&subset).run_str(&input);
        prop_assert_eq!(&got.findings, &expected, "subset {:?} on {:?}", subset, input);
        // The mitigation flags are battery-independent page facts.
        prop_assert_eq!(got.mitigations, full.mitigations);
    }

    /// A reused battery agrees with a fresh one on every page — the
    /// recycled findings buffer leaks no state between pages.
    #[test]
    fn battery_reuse_matches_fresh(pages in proptest::collection::vec(html_soup(), 1..6)) {
        let mut reused = Battery::full();
        for page in &pages {
            let fresh = Battery::full().run_str(page);
            let r = reused.run_str(page);
            prop_assert_eq!(&r.findings, &fresh.findings);
            prop_assert_eq!(r.mitigations, fresh.mitigations);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corpus determinism: same seed ⇒ same bytes; independent of
    /// construction order.
    #[test]
    fn corpus_is_a_pure_function_of_seed(seed in 0u64..1000, page in 0usize..5) {
        let a = Archive::new(CorpusConfig { seed, scale: 0.002 });
        let b = Archive::new(CorpusConfig { seed, scale: 0.002 });
        prop_assert_eq!(a.domains().len(), b.domains().len());
        let d = &a.domains()[page % a.domains().len()];
        let d2 = &b.domains()[page % b.domains().len()];
        prop_assert_eq!(&d.name, &d2.name);
        for snap in [Snapshot::ALL[0], Snapshot::ALL[7]] {
            let ca = a.cdx_lookup(d, snap);
            let cb = b.cdx_lookup(d2, snap);
            prop_assert_eq!(ca.is_some(), cb.is_some());
            if let (Some(ca), Some(cb)) = (ca, cb) {
                prop_assert_eq!(ca.pages.len(), cb.pages.len());
                let pa = a.fetch(&ca.pages[page % ca.pages.len()]);
                let pb = b.fetch(&cb.pages[page % cb.pages.len()]);
                prop_assert_eq!(pa.body, pb.body);
            }
        }
    }

    /// Every corpus page parses without DOM corruption and all generated
    /// violations are detectable (no generator/checker drift at any seed).
    #[test]
    fn corpus_pages_are_parseable(seed in 0u64..500) {
        let archive = Archive::new(CorpusConfig { seed, scale: 0.0008 });
        let d = &archive.domains()[0];
        for snap in Snapshot::ALL {
            if let Some(cdx) = archive.cdx_lookup(d, snap) {
                let body = archive.fetch(&cdx.pages[0]);
                if let Ok(text) = std::str::from_utf8(&body.body) {
                    let out = parse_document(text);
                    out.dom.check_invariants().unwrap();
                }
            }
        }
    }
}

mod dom_arena_ops {
    use html_violations::spec_html::dom::{Document, Namespace, NodeData};
    use proptest::prelude::*;

    /// A random structural edit.
    #[derive(Debug, Clone)]
    enum Op {
        Create,
        Append { parent: usize, child: usize },
        InsertBefore { sibling: usize, child: usize },
        Detach { node: usize },
        AppendText { parent: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Create),
            (any::<usize>(), any::<usize>())
                .prop_map(|(parent, child)| Op::Append { parent, child }),
            (any::<usize>(), any::<usize>())
                .prop_map(|(sibling, child)| Op::InsertBefore { sibling, child }),
            any::<usize>().prop_map(|node| Op::Detach { node }),
            any::<usize>().prop_map(|parent| Op::AppendText { parent }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arena maintains its structural invariants under arbitrary
        /// valid edit sequences (the exact edits the tree builder performs:
        /// foster parenting is detach+insert_before, adoption agency is
        /// reparenting).
        #[test]
        fn arena_invariants_under_random_ops(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut doc = Document::new();
            let mut ids = vec![doc.root()];
            for op in ops {
                match op {
                    Op::Create => {
                        ids.push(doc.create_element("div", Namespace::Html, Default::default()));
                    }
                    Op::Append { parent, child } => {
                        let p = ids[parent % ids.len()];
                        let c = ids[child % ids.len()];
                        // Valid only when it cannot create a cycle and the
                        // child is not the document node.
                        if p != c && c != doc.root() && !doc.is_inclusive_ancestor(c, p) {
                            doc.append(p, c);
                        }
                    }
                    Op::InsertBefore { sibling, child } => {
                        let s = ids[sibling % ids.len()];
                        let c = ids[child % ids.len()];
                        if s != c
                            && c != doc.root()
                            && doc.node(s).parent.is_some()
                            && !doc.is_inclusive_ancestor(c, s)
                        {
                            doc.insert_before(s, c);
                        }
                    }
                    Op::Detach { node } => {
                        let n = ids[node % ids.len()];
                        if n != doc.root() {
                            doc.detach(n);
                        }
                    }
                    Op::AppendText { parent } => {
                        let p = ids[parent % ids.len()];
                        if !matches!(doc.data(p), NodeData::Text(_)) {
                            doc.append_text(p, "t".into());
                        }
                    }
                }
                doc.check_invariants().unwrap();
            }
            // Every reachable node's parent chain terminates at the root.
            for id in doc.descendants(doc.root()).collect::<Vec<_>>() {
                let last = doc.ancestors(id).last().expect("reachable node has ancestors");
                prop_assert_eq!(last, doc.root());
            }
        }
    }
}
