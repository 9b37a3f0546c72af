//! Atom-vs-string semantic equivalence.
//!
//! The atom-interned pipeline replaces string comparisons with atom
//! comparisons everywhere tag and attribute names flow (tokenizer → tree
//! builder → DOM → checkers), and replaces the string classification
//! predicates in `tags` with O(1) bitset lookups keyed by static-atom id.
//! These tests pin the invariant that makes that rewrite safe: **an atom
//! behaves exactly like the string it interns** — for every entry of the
//! static table, for dynamic (unknown) names, and for the tokenizer's
//! case-normalization.

use proptest::prelude::*;
use spec_html::atoms::STATIC_ATOMS;
use spec_html::tags;
use spec_html::Atom;

/// Every `*_atom` classification predicate must agree with its string
/// reference on every static-table entry (exhaustive: the bitsets are
/// built from the string predicates, so a drifted bit shows up here) and
/// on names outside the table (the fallback path).
#[test]
fn atom_predicates_match_string_predicates_on_every_known_name() {
    #[allow(clippy::type_complexity)]
    let pairs: &[(fn(&Atom) -> bool, fn(&str) -> bool, &str)] = &[
        (tags::is_void_atom, tags::is_void, "is_void"),
        (tags::is_special_atom, tags::is_special, "is_special"),
        (tags::is_formatting_atom, tags::is_formatting, "is_formatting"),
        (tags::is_head_content_atom, tags::is_head_content, "is_head_content"),
        (tags::closes_p_atom, tags::closes_p, "closes_p"),
        (tags::implied_end_tag_atom, tags::implied_end_tag, "implied_end_tag"),
        (tags::is_rcdata_atom, tags::is_rcdata, "is_rcdata"),
        (tags::is_rawtext_atom, tags::is_rawtext, "is_rawtext"),
        (tags::is_foreign_breakout_atom, tags::is_foreign_breakout, "is_foreign_breakout"),
        (
            tags::is_mathml_text_integration_atom,
            tags::is_mathml_text_integration,
            "is_mathml_text_integration",
        ),
        (
            tags::is_svg_html_integration_atom,
            tags::is_svg_html_integration,
            "is_svg_html_integration",
        ),
        (tags::is_svg_only_atom, tags::is_svg_only, "is_svg_only"),
        (tags::is_mathml_only_atom, tags::is_mathml_only, "is_mathml_only"),
        (tags::is_url_attribute_atom, tags::is_url_attribute, "is_url_attribute"),
    ];
    let dynamic_names = ["x-custom-widget", "unknownelement", "data-unknown", "svg2"];
    for &(atom_fn, str_fn, label) in pairs {
        for &name in STATIC_ATOMS.iter().chain(dynamic_names.iter()) {
            let atom = Atom::from_name(name);
            assert_eq!(atom_fn(&atom), str_fn(name), "{label}({name:?})");
        }
    }
}

/// The SVG tag-name fixup must agree with its string reference for every
/// known name and for unknown names (which pass through unchanged).
#[test]
fn svg_fixup_atom_matches_string_fixup_on_every_known_name() {
    for &name in STATIC_ATOMS.iter().chain(["x-unknown", "foreignobject"].iter()) {
        let atom = Atom::from_name(name);
        let fixed = tags::svg_tag_fixup_atom(&atom);
        let expected = tags::svg_tag_fixup(name).unwrap_or(name);
        assert_eq!(fixed.as_str(), expected, "svg_tag_fixup({name:?})");
        assert_eq!(fixed, Atom::from_name(expected), "fixup atom equality for {name:?}");
    }
}

/// Every static-table entry round-trips through `Atom::from_name` to a
/// *static* atom that compares equal to the string, hashes like the
/// string, and is equal to an independently created atom of the same name.
#[test]
fn every_known_name_interns_to_an_equal_static_atom() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn hash<H: Hash>(v: &H) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }
    for &name in STATIC_ATOMS {
        let atom = Atom::from_name(name);
        assert!(atom.static_id().is_some(), "{name:?} must hit the static table");
        assert_eq!(atom.as_str(), name);
        assert_eq!(atom, *name, "PartialEq<str> for {name:?}");
        assert_eq!(atom, Atom::from_name(name));
        assert_eq!(hash(&atom), hash(&Atom::from_name(name)));
    }
}

/// Generates known tag names in mixed case plus arbitrary lowercase
/// ASCII identifiers (mostly unknown to the static table).
fn name_soup() -> impl Strategy<Value = String> {
    let known_mixed_case = (0..STATIC_ATOMS.len(), any::<u64>()).prop_map(|(i, case_mask)| {
        let name = STATIC_ATOMS[i];
        // Names that are not tag-shaped (the empty sentinel, attribute
        // names with '-', camelCase SVG names) would not tokenize as a
        // single tag name; substitute a plain known tag for those.
        let name = if !name.is_empty()
            && name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        {
            name
        } else {
            "div"
        };
        // Random per-character upper/lowercasing from the mask bits.
        name.bytes()
            .enumerate()
            .map(|(k, b)| {
                if case_mask >> (k % 64) & 1 == 1 {
                    b.to_ascii_uppercase() as char
                } else {
                    b as char
                }
            })
            .collect::<String>()
    });
    prop_oneof![known_mixed_case.boxed(), "[a-z][a-z0-9]{0,12}".boxed()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tokenizing `<Name attr=x>` must produce the same tag regardless of
    /// the case the name was written in, and any *known* name must come
    /// out as a static atom — i.e. case normalization happens before
    /// interning, on both the scalar and the batched/fused paths.
    #[test]
    fn tokenized_names_are_case_normalized_before_interning(name in name_soup()) {
        let input = format!("<{name} {name}=v>text</{name}>");
        let out = spec_html::parse_document(&input);
        let lower = name.to_ascii_lowercase();
        let lower_atom = Atom::from_name(&lower);
        let found = out
            .dom
            .all_elements()
            .filter_map(|id| out.dom.element(id))
            .find(|e| e.name == lower_atom);
        if let Some(e) = found {
            prop_assert_eq!(e.name.static_id().is_some(), lower_atom.static_id().is_some());
            // The attribute name was lowercased and interned identically
            // (head/body/html get synthesized without our attribute, and
            // some elements get foster-parented oddly; only check when
            // the attribute survived).
            if let Some(a) = out.dom.attrs(e.attrs).iter().find(|a| a.name == lower_atom) {
                prop_assert_eq!(a.name.static_id().is_some(), lower_atom.static_id().is_some());
                prop_assert_eq!(a.value.as_str(), "v");
            }
        }
    }

    /// Unknown names survive a parse → serialize round trip byte-for-byte
    /// (dynamic atoms preserve their text exactly).
    #[test]
    fn unknown_names_round_trip_through_parse_and_serialize(
        name in "[a-z][a-z0-9]{2,12}-[a-z0-9]{1,8}"
    ) {
        if Atom::from_name(&name).static_id().is_some() {
            // Collided with a real table entry; nothing to test here.
            return Ok(());
        }
        let input = format!("<{name} {name}=\"w\">x</{name}>");
        let out = spec_html::parse_document(&input);
        let html = spec_html::serializer::serialize(&out.dom);
        prop_assert!(
            html.contains(&format!("<{name} {name}=\"w\">x</{name}>")),
            "serialized output {html:?} must preserve {name:?}"
        );
    }
}
