//! Foreign content: parsing inside `<svg>` and `<math>` (§13.2.6.5).
//!
//! This is the machinery behind HF5 and the Figure-1 DOMPurify mXSS:
//! *integration points* make HTML rules apply inside certain foreign
//! elements (`mtext`, `foreignObject`, …), the *breakout list* makes certain
//! HTML start tags (`img`, `table`, …) pop all foreign elements, and
//! RAWTEXT-style elements like `<style>` parse differently in foreign
//! namespaces — comments inside them are real comments, not CSS text.

use super::{names, Builder, Ctl, TreeEventKind};
use crate::atoms::Atom;
use crate::dom::Namespace;
use crate::tags;
use crate::tokenizer::{Token, Tokenizer};

impl Builder {
    /// The adjusted current node (the current node, since we never parse
    /// fragments). Cloning the atom is an integer copy or `Arc` bump.
    fn adjusted_current(&self) -> Option<(Namespace, Atom)> {
        self.current().and_then(|id| self.doc.element(id)).map(|e| (e.ns, e.name.clone()))
    }

    /// §13.2.6 dispatcher condition: should this token be processed by the
    /// foreign content rules?
    pub(crate) fn use_foreign_rules(&self, token: &Token) -> bool {
        if !self.current_is_foreign() {
            return false;
        }
        let Some((ns, name)) = self.adjusted_current() else { return false };
        // MathML text integration point: HTML rules except for
        // mglyph/malignmark start tags.
        if ns == Namespace::MathMl && tags::is_mathml_text_integration_atom(&name) {
            match token {
                Token::StartTag(t) if !matches!(t.name.id(), names::MGLYPH | names::MALIGNMARK) => {
                    return false;
                }
                Token::Characters(_) => return false,
                _ => {}
            }
        }
        // annotation-xml with an svg start tag switches to SVG.
        if ns == Namespace::MathMl && name == "annotation-xml" {
            if let Token::StartTag(t) = token {
                if t.name == "svg" {
                    return false;
                }
            }
            // HTML integration point when encoding is text/html or XHTML —
            // approximated by checking the encoding attribute.
            if self.annotation_xml_is_integration()
                && matches!(token, Token::StartTag(_) | Token::Characters(_))
            {
                return false;
            }
        }
        // SVG HTML integration points.
        if ns == Namespace::Svg
            && tags::is_svg_html_integration_atom(&name)
            && matches!(token, Token::StartTag(_) | Token::Characters(_))
        {
            return false;
        }
        !matches!(token, Token::Eof)
    }

    fn annotation_xml_is_integration(&self) -> bool {
        self.current()
            .and_then(|id| self.doc.attr(id, "encoding"))
            .map(|enc| {
                enc.eq_ignore_ascii_case("text/html")
                    || enc.eq_ignore_ascii_case("application/xhtml+xml")
            })
            .unwrap_or(false)
    }

    /// Namespace of the outermost foreign element currently open — tells the
    /// HF5 checker whether a breakout escaped an `<svg>` or a `<math>`.
    pub(crate) fn foreign_root_ns(&self) -> Namespace {
        let outermost = self.open.outermost_foreign().map(|i| self.open[i]);
        // Fall back to the current node's namespace.
        outermost
            .or_else(|| self.current())
            .and_then(|id| self.doc.element(id))
            .map(|e| e.ns)
            .unwrap_or(Namespace::Html)
    }

    /// §13.2.6.5 "The rules for parsing tokens in foreign content".
    pub(crate) fn foreign_content(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                if s.contains('\0') {
                    s = s.replace('\0', "\u{FFFD}");
                }
                if s.chars().any(|c| !super::is_html_whitespace(c)) {
                    self.frameset_ok = false;
                }
                self.insert_chars(s, false);
                Ctl::Done
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) => {
                let breakout = tags::is_foreign_breakout_atom(&tag.name)
                    || (tag.name == "font"
                        && self
                            .doc
                            .attrs(tag.attrs)
                            .iter()
                            .any(|a| matches!(a.name.as_str(), "color" | "face" | "size")));
                if breakout {
                    // HF5: pop foreign elements until an integration point
                    // or HTML element, then reprocess with HTML rules.
                    let root_ns = self.foreign_root_ns();
                    self.event(TreeEventKind::ForeignBreakout { tag: tag.name.clone(), root_ns });
                    #[allow(clippy::while_let_loop)]
                    loop {
                        let Some(cur) = self.open.last() else { break };
                        let Some(e) = self.doc.element(cur) else { break };
                        let stop = e.ns == Namespace::Html
                            || (e.ns == Namespace::MathMl
                                && tags::is_mathml_text_integration_atom(&e.name))
                            || (e.ns == Namespace::Svg
                                && tags::is_svg_html_integration_atom(&e.name));
                        if stop {
                            break;
                        }
                        self.open.pop();
                    }
                    return Ctl::Reprocess(token);
                }
                // Insert in the adjusted current node's namespace.
                let ns = self.adjusted_current().map(|(ns, _)| ns).unwrap_or(Namespace::Html);
                self.insert_element(tag, ns, false);
                if tag.self_closing {
                    // Foreign content acknowledges self-closing tags.
                    self.open.pop();
                }
                Ctl::Done
            }
            Token::EndTag(ref tag) => {
                // `</script>` in SVG would run the script; we just pop.
                if let Some((Namespace::Svg, name)) = self.adjusted_current() {
                    if name == "script" && tag.name == "script" {
                        self.open.pop();
                        return Ctl::Done;
                    }
                }
                if let Some((_, cur_name)) = self.adjusted_current() {
                    // The end tag name is already lowercased, so a
                    // case-insensitive compare matches the old
                    // `to_ascii_lowercase()` allocation exactly.
                    if !cur_name.eq_ignore_ascii_case(&tag.name) {
                        self.event(TreeEventKind::ForeignEndTagMismatch { tag: tag.name.clone() });
                    }
                }
                // Walking down from the current node, the first foreign
                // element of the tag's name (any case) closes, and the first
                // HTML element hands the token to the HTML rules. Both are
                // index lookups, whatever the depth of the walk.
                let html = self.open.topmost_html();
                match self.open.topmost_foreign(&tag.name) {
                    Some(i) if html.is_none_or(|h| i > h) => {
                        self.open.truncate(i);
                        Ctl::Done
                    }
                    _ if html.is_some() => self.mode_dispatch_from_foreign(token, tok),
                    _ => Ctl::Done,
                }
            }
            Token::Eof => {
                // EOF never reaches foreign rules (dispatcher sends it to
                // the mode handler), but stay safe.
                self.stop_parsing()
            }
        }
    }

    fn mode_dispatch_from_foreign(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        // Hand the token to the current insertion mode's HTML rules.
        self.mode_dispatch(token, tok)
    }
}
