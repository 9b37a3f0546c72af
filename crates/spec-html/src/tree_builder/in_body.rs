//! The "in body" insertion mode (§13.2.6.4.7) — the main content mode, and
//! the home of most of the error-tolerance behaviours the paper's violations
//! exploit: the second-`<body>` attribute merge (HF3), the form element
//! pointer (DE4), the `<table>` hand-off (HF4), and the foreign-content
//! entry points (HF5 / mXSS).

use super::merge::Target;
use super::{is_html_whitespace, names, Builder, Class, Ctl, InsertionMode, TreeEventKind};
use crate::atoms::{atom, Atom};
use crate::dom::Namespace;
use crate::tags;
use crate::tokenizer::{self, Tag, Token, Tokenizer};

impl Builder {
    #[allow(clippy::too_many_lines)]
    pub(crate) fn in_body(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                // NULs were already reported by the tokenizer; in body they
                // are dropped.
                if s.contains('\0') {
                    s.retain(|c| c != '\0');
                }
                if s.is_empty() {
                    return Ctl::Done;
                }
                if self.frameset_ok && s.chars().any(|c| !is_html_whitespace(c)) {
                    self.frameset_ok = false;
                }
                self.reconstruct_formatting();
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
            Token::Eof => self.stop_parsing(),
            Token::StartTag(tag) => self.in_body_start(tag, tok),
            Token::EndTag(ref tag) => self.in_body_end(tag),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn in_body_start(&mut self, tag: Tag, tok: &mut Tokenizer<'_>) -> Ctl {
        match tag.name.id() {
            names::HTML => {
                self.merge_html_attrs(&tag);
                Ctl::Done
            }
            names::BASE
            | names::BASEFONT
            | names::BGSOUND
            | names::LINK
            | names::META
            | names::NOFRAMES
            | names::SCRIPT
            | names::STYLE
            | names::TEMPLATE
            | names::TITLE => self.in_head(Token::StartTag(tag), tok),
            names::BODY => {
                // HF3: merge the second body's attributes.
                let body = self.open.get(1);
                if let Some(body) = body.filter(|&b| self.doc.is_html(b, "body")) {
                    let mut new_attrs = Vec::new();
                    let mut ignored = Vec::new();
                    self.merge_attrs(Target::Body, body, tag.attrs, |a, added| {
                        let names = if added { &mut new_attrs } else { &mut ignored };
                        names.push(a.name.clone());
                    });
                    self.event(TreeEventKind::SecondBodyMerged {
                        new_attrs,
                        ignored_attrs: ignored,
                    });
                    self.frameset_ok = false;
                } else {
                    self.event(TreeEventKind::StrayStartTag { tag: atom!("body") });
                }
                Ctl::Done
            }
            names::FRAMESET => {
                // Only honoured when frameset_ok and the body can be
                // replaced; modern pages never hit the honoured path.
                self.event(TreeEventKind::StrayStartTag { tag: atom!("frameset") });
                Ctl::Done
            }
            id if tags::closes_p_atom(&tag.name)
                && !matches!(
                    id,
                    names::LI
                        | names::DD
                        | names::DT
                        | names::TABLE
                        | names::HR
                        | names::FORM
                        | names::PLAINTEXT
                        | names::XMP
                        | names::PRE
                        | names::LISTING
                        | names::H1
                        | names::H2
                        | names::H3
                        | names::H4
                        | names::H5
                        | names::H6
                ) =>
            {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                self.check_self_closing(&tag);
                Ctl::Done
            }
            names::H1 | names::H2 | names::H3 | names::H4 | names::H5 | names::H6 => {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                if matches!(self.current_name(), Some("h1" | "h2" | "h3" | "h4" | "h5" | "h6")) {
                    self.event(TreeEventKind::StrayStartTag { tag: tag.name.clone() });
                    self.open.pop();
                }
                self.insert_html(&tag);
                Ctl::Done
            }
            names::PRE | names::LISTING => {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                self.ignore_lf = true;
                self.frameset_ok = false;
                Ctl::Done
            }
            names::FORM => {
                if self.form.is_some() && !self.open.has_element(&atom!("template")) {
                    // DE4: the nested form start tag is ignored outright.
                    self.event(TreeEventKind::NestedFormIgnored);
                    return Ctl::Done;
                }
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                let id = self.insert_html(&tag);
                if !self.open.has_element(&atom!("template")) {
                    self.form = Some(id);
                }
                Ctl::Done
            }
            names::LI => {
                self.frameset_ok = false;
                self.close_list_item(&[atom!("li")]);
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                Ctl::Done
            }
            names::DD | names::DT => {
                self.frameset_ok = false;
                self.close_list_item(&[atom!("dd"), atom!("dt")]);
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                Ctl::Done
            }
            names::PLAINTEXT => {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                tok.set_state(tokenizer::State::Plaintext);
                Ctl::Done
            }
            names::BUTTON => {
                if self.open.in_scope(&atom!("button")) {
                    self.event(TreeEventKind::StrayStartTag { tag: atom!("button") });
                    self.generate_implied_end_tags(None);
                    self.open.pop_through(&atom!("button"));
                }
                self.reconstruct_formatting();
                self.insert_html(&tag);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::A => {
                // An open <a> since the last marker is a parse error: run
                // the adoption agency, then proceed.
                let open_a = self.formatting.iter().rev().find_map(|e| match e {
                    super::FormatEntry::Marker => Some(None),
                    super::FormatEntry::Element { node, name, .. } if *name == "a" => {
                        Some(Some(*node))
                    }
                    _ => None,
                });
                if let Some(Some(node)) = open_a {
                    self.event(TreeEventKind::AdoptionAgency { tag: atom!("a") });
                    self.adoption_agency(&atom!("a"));
                    self.remove_from_formatting(node);
                    self.open.remove_node(node);
                }
                self.reconstruct_formatting();
                let id = self.insert_html(&tag);
                self.push_formatting(id);
                Ctl::Done
            }
            names::B
            | names::BIG
            | names::CODE
            | names::EM
            | names::FONT
            | names::I
            | names::S
            | names::SMALL
            | names::STRIKE
            | names::STRONG
            | names::TT
            | names::U => {
                self.reconstruct_formatting();
                let id = self.insert_html(&tag);
                self.push_formatting(id);
                Ctl::Done
            }
            names::NOBR => {
                self.reconstruct_formatting();
                if self.open.in_scope(&atom!("nobr")) {
                    self.event(TreeEventKind::StrayStartTag { tag: atom!("nobr") });
                    self.adoption_agency(&atom!("nobr"));
                    self.reconstruct_formatting();
                }
                let id = self.insert_html(&tag);
                self.push_formatting(id);
                Ctl::Done
            }
            names::APPLET | names::MARQUEE | names::OBJECT => {
                self.reconstruct_formatting();
                self.insert_html(&tag);
                self.formatting.push(super::FormatEntry::Marker);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::TABLE => {
                if self.quirks != super::QuirksMode::Quirks
                    && self.open.in_button_scope(&atom!("p"))
                {
                    self.close_p_element();
                }
                self.insert_html(&tag);
                self.frameset_ok = false;
                self.mode = InsertionMode::InTable;
                Ctl::Done
            }
            names::AREA | names::BR | names::EMBED | names::IMG | names::KEYGEN | names::WBR => {
                self.reconstruct_formatting();
                self.insert_void(&tag);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::INPUT => {
                self.reconstruct_formatting();
                self.insert_void(&tag);
                let hidden = self
                    .tag_attr(&tag, "type")
                    .map(|t| t.eq_ignore_ascii_case("hidden"))
                    .unwrap_or(false);
                if !hidden {
                    self.frameset_ok = false;
                }
                Ctl::Done
            }
            names::PARAM | names::SOURCE | names::TRACK => {
                self.insert_void(&tag);
                Ctl::Done
            }
            names::HR => {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.insert_void(&tag);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::IMAGE => {
                // Spec: "Don't ask." Treat it as img.
                self.event(TreeEventKind::StrayStartTag { tag: atom!("image") });
                let img = Tag { name: "img".into(), ..tag };
                self.reconstruct_formatting();
                self.insert_void(&img);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::TEXTAREA => {
                self.insert_html(&tag);
                self.ignore_lf = true;
                tok.set_state(tokenizer::State::Rcdata);
                tok.set_last_start_tag("textarea");
                self.frameset_ok = false;
                self.orig_mode = self.mode;
                self.mode = InsertionMode::Text;
                Ctl::Done
            }
            names::XMP => {
                if self.open.in_button_scope(&atom!("p")) {
                    self.close_p_element();
                }
                self.reconstruct_formatting();
                self.frameset_ok = false;
                self.generic_text_element(&tag, tok, true);
                Ctl::Done
            }
            names::IFRAME => {
                self.frameset_ok = false;
                self.generic_text_element(&tag, tok, true);
                Ctl::Done
            }
            names::NOEMBED => {
                self.generic_text_element(&tag, tok, true);
                Ctl::Done
            }
            names::SELECT => {
                self.reconstruct_formatting();
                self.insert_html(&tag);
                self.frameset_ok = false;
                self.mode = match self.mode {
                    InsertionMode::InTable
                    | InsertionMode::InCaption
                    | InsertionMode::InTableBody
                    | InsertionMode::InRow
                    | InsertionMode::InCell => InsertionMode::InSelectInTable,
                    _ => InsertionMode::InSelect,
                };
                Ctl::Done
            }
            names::OPTGROUP | names::OPTION => {
                if self.current_is_html("option") {
                    self.open.pop();
                }
                self.reconstruct_formatting();
                self.insert_html(&tag);
                Ctl::Done
            }
            names::RB | names::RTC => {
                if self.open.in_scope(&atom!("ruby")) {
                    self.generate_implied_end_tags(None);
                }
                self.insert_html(&tag);
                Ctl::Done
            }
            names::RP | names::RT => {
                if self.open.in_scope(&atom!("ruby")) {
                    self.generate_implied_end_tags(Some("rtc"));
                }
                self.insert_html(&tag);
                Ctl::Done
            }
            names::MATH => {
                self.reconstruct_formatting();
                self.insert_element(&tag, Namespace::MathMl, false);
                if tag.self_closing {
                    self.open.pop();
                }
                Ctl::Done
            }
            names::SVG => {
                self.reconstruct_formatting();
                self.insert_element(&tag, Namespace::Svg, false);
                if tag.self_closing {
                    self.open.pop();
                }
                Ctl::Done
            }
            names::CAPTION
            | names::COL
            | names::COLGROUP
            | names::FRAME
            | names::HEAD
            | names::TBODY
            | names::TD
            | names::TFOOT
            | names::TH
            | names::THEAD
            | names::TR => {
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.clone() });
                Ctl::Done
            }
            _ => {
                self.reconstruct_formatting();
                self.insert_html(&tag);
                self.check_self_closing(&tag);
                Ctl::Done
            }
        }
    }

    fn in_body_end(&mut self, tag: &Tag) -> Ctl {
        match tag.name.id() {
            names::BODY => {
                if !self.open.in_scope(&atom!("body")) {
                    self.event(TreeEventKind::StrayEndTag { tag: atom!("body") });
                    return Ctl::Done;
                }
                self.mode = InsertionMode::AfterBody;
                Ctl::Done
            }
            names::HTML => {
                if !self.open.in_scope(&atom!("body")) {
                    self.event(TreeEventKind::StrayEndTag { tag: atom!("html") });
                    return Ctl::Done;
                }
                self.mode = InsertionMode::AfterBody;
                Ctl::Reprocess(Token::EndTag(tag.clone()))
            }
            names::ADDRESS
            | names::ARTICLE
            | names::ASIDE
            | names::BLOCKQUOTE
            | names::BUTTON
            | names::CENTER
            | names::DETAILS
            | names::DIALOG
            | names::DIR
            | names::DIV
            | names::DL
            | names::FIELDSET
            | names::FIGCAPTION
            | names::FIGURE
            | names::FOOTER
            | names::HEADER
            | names::HGROUP
            | names::LISTING
            | names::MAIN
            | names::MENU
            | names::NAV
            | names::OL
            | names::PRE
            | names::SEARCH
            | names::SECTION
            | names::SUMMARY
            | names::UL => {
                if !self.open.in_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(None);
                self.open.pop_through(&tag.name);
                Ctl::Done
            }
            names::FORM => {
                let node = self.form.take();
                match node {
                    Some(node)
                        if self.open.contains(node) && self.open.in_scope(&atom!("form")) =>
                    {
                        self.generate_implied_end_tags(None);
                        if self.current() != Some(node) {
                            self.event(TreeEventKind::StrayEndTag { tag: atom!("form") });
                        }
                        // Remove the node (not pop-through): content after a
                        // misplaced </form> must keep its position.
                        self.open.remove_node(node);
                    }
                    _ => {
                        self.event(TreeEventKind::StrayEndTag { tag: atom!("form") });
                    }
                }
                Ctl::Done
            }
            names::P => {
                if !self.open.in_button_scope(&atom!("p")) {
                    self.event(TreeEventKind::StrayEndTag { tag: atom!("p") });
                    let p = Tag::named("p");
                    self.insert_html(&p);
                }
                self.close_p_element();
                Ctl::Done
            }
            names::LI => {
                if !self.open.in_list_item_scope(&atom!("li")) {
                    self.event(TreeEventKind::StrayEndTag { tag: atom!("li") });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(Some("li"));
                self.open.pop_through(&atom!("li"));
                Ctl::Done
            }
            names::DD | names::DT => {
                if !self.open.in_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(Some(&tag.name));
                self.open.pop_through(&tag.name);
                Ctl::Done
            }
            names::H1 | names::H2 | names::H3 | names::H4 | names::H5 | names::H6 => {
                let hs = ["h1", "h2", "h3", "h4", "h5", "h6"];
                let headings =
                    [atom!("h1"), atom!("h2"), atom!("h3"), atom!("h4"), atom!("h5"), atom!("h6")];
                if !self.any_in_scope(&headings) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(None);
                while let Some(id) = self.open.pop() {
                    if matches!(self.doc.html_name(id), Some(n) if hs.contains(&n)) {
                        break;
                    }
                }
                Ctl::Done
            }
            names::A
            | names::B
            | names::BIG
            | names::CODE
            | names::EM
            | names::FONT
            | names::I
            | names::NOBR
            | names::S
            | names::SMALL
            | names::STRIKE
            | names::STRONG
            | names::TT
            | names::U => {
                if !self.adoption_agency(&tag.name) {
                    self.any_other_end_tag(&tag.name);
                }
                Ctl::Done
            }
            names::APPLET | names::MARQUEE | names::OBJECT => {
                if !self.open.in_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.clone() });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(None);
                self.open.pop_through(&tag.name);
                super::formatting::clear_to_marker(&mut self.formatting);
                Ctl::Done
            }
            names::BR => {
                // </br> behaves like <br>.
                self.event(TreeEventKind::StrayEndTag { tag: atom!("br") });
                self.reconstruct_formatting();
                let br = Tag::named("br");
                self.insert_void(&br);
                self.frameset_ok = false;
                Ctl::Done
            }
            names::TEMPLATE => {
                if self.open.has_element(&atom!("template")) {
                    self.generate_implied_end_tags(None);
                    self.open.pop_through(&atom!("template"));
                    super::formatting::clear_to_marker(&mut self.formatting);
                } else {
                    self.event(TreeEventKind::StrayEndTag { tag: atom!("template") });
                }
                Ctl::Done
            }
            _ => {
                self.any_other_end_tag(&tag.name);
                Ctl::Done
            }
        }
    }

    /// "Any other end tag" in body: the topmost HTML element with the name
    /// closes (with implied end tags) unless a special element sits above
    /// it, in which case the end tag is stray and ignored.
    pub(crate) fn any_other_end_tag(&mut self, name: &Atom) {
        let Some(i) = self.any_other_end_tag_target(name) else {
            self.event(TreeEventKind::StrayEndTag { tag: name.clone() });
            return;
        };
        let id = self.open[i];
        self.generate_implied_end_tags(Some(name));
        if self.current() != Some(id) {
            self.event(TreeEventKind::StrayEndTag { tag: name.clone() });
        }
        self.open.truncate(i);
    }

    /// Stack index of the element "any other end tag" named `name` closes.
    pub(crate) fn any_other_end_tag_target(&self, name: &Atom) -> Option<usize> {
        let i = self.open.topmost(name)?;
        let blocked = self.open.top_of(Class::Special).is_some_and(|s| s > i);
        (!blocked).then_some(i)
    }

    /// The `li`/`dd`/`dt` start-tag step: close the element
    /// [`Self::list_item_to_close`] finds, if any.
    fn close_list_item(&mut self, names: &[Atom]) {
        if let Some(name) = self.list_item_to_close(names) {
            self.generate_implied_end_tags(Some(name));
            self.open.pop_through(name);
        }
    }

    /// The topmost open element named in `names`, unless an element where
    /// the spec's search stops (a special element other than address, div
    /// and p, or any foreign element) sits above it.
    pub(crate) fn list_item_to_close<'n>(&self, names: &'n [Atom]) -> Option<&'n Atom> {
        let (i, name) = names
            .iter()
            .filter_map(|n| Some((self.open.topmost(n)?, n)))
            .max_by_key(|&(i, _)| i)?;
        let blocked = self.open.top_of(Class::ListSearchStop).is_some_and(|s| s > i);
        (!blocked).then_some(name)
    }

    /// Close an open `p` element (§13.2.6.4.7 "close a p element").
    pub(crate) fn close_p_element(&mut self) {
        self.generate_implied_end_tags(Some("p"));
        self.open.pop_through(&atom!("p"));
    }
}
