//! Table insertion modes (§13.2.6.4.9–15) and the select modes
//! (§13.2.6.4.16–17).
//!
//! Table error tolerance is the paper's HF4: any content that does not
//! belong in a table is *foster parented* — moved in front of the table —
//! which visibly "works" and so goes unnoticed by developers, while enabling
//! mXSS reordering attacks (Figure 1's `<table>` hop).

use super::{
    is_html_whitespace, names, split_off_leading_whitespace, Builder, Ctl, InsertionMode,
    TreeEventKind,
};
use crate::atoms::{atom, Atom};
use crate::tokenizer::{Tag, Token, Tokenizer};

impl Builder {
    pub(crate) fn in_table(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(_)
                if matches!(
                    self.current_name(),
                    Some("table" | "tbody" | "tfoot" | "thead" | "tr")
                ) =>
            {
                self.pending_table_text.clear();
                self.orig_mode = self.mode;
                self.mode = InsertionMode::InTableText;
                Ctl::Reprocess(token)
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) => match tag.name.id() {
                names::CAPTION => {
                    self.clear_to_table_context();
                    self.formatting.push(super::FormatEntry::Marker);
                    self.insert_html(tag);
                    self.mode = InsertionMode::InCaption;
                    Ctl::Done
                }
                names::COLGROUP => {
                    self.clear_to_table_context();
                    self.insert_html(tag);
                    self.mode = InsertionMode::InColumnGroup;
                    Ctl::Done
                }
                names::COL => {
                    self.clear_to_table_context();
                    self.event(TreeEventKind::TableStructureImplied { tag: "colgroup".into() });
                    let cg = Tag::named("colgroup");
                    self.insert_html(&cg);
                    self.mode = InsertionMode::InColumnGroup;
                    Ctl::Reprocess(token)
                }
                names::TBODY | names::TFOOT | names::THEAD => {
                    self.clear_to_table_context();
                    self.insert_html(tag);
                    self.mode = InsertionMode::InTableBody;
                    Ctl::Done
                }
                names::TD | names::TH | names::TR => {
                    self.clear_to_table_context();
                    self.event(TreeEventKind::TableStructureImplied { tag: "tbody".into() });
                    let tb = Tag::named("tbody");
                    self.insert_html(&tb);
                    self.mode = InsertionMode::InTableBody;
                    Ctl::Reprocess(token)
                }
                names::TABLE => {
                    // A table inside a table: close the current one first.
                    self.event(TreeEventKind::StrayStartTag { tag: "table".into() });
                    if self.open.in_table_scope(&atom!("table")) {
                        self.open.pop_through(&atom!("table"));
                        self.reset_insertion_mode();
                        return Ctl::Reprocess(token);
                    }
                    Ctl::Done
                }
                names::STYLE | names::SCRIPT | names::TEMPLATE => self.in_head(token, tok),
                names::INPUT => {
                    let hidden = self
                        .tag_attr(tag, "type")
                        .map(|t| t.eq_ignore_ascii_case("hidden"))
                        .unwrap_or(false);
                    if hidden {
                        self.event(TreeEventKind::TableStructureImplied { tag: "input".into() });
                        self.insert_void(tag);
                        Ctl::Done
                    } else {
                        self.table_anything_else(token, tok)
                    }
                }
                names::FORM => {
                    self.event(TreeEventKind::StrayStartTag { tag: "form".into() });
                    if !self.open.has_element(&atom!("template")) && self.form.is_none() {
                        let id = self.insert_html(tag);
                        self.form = Some(id);
                        self.open.pop();
                    }
                    Ctl::Done
                }
                _ => self.table_anything_else(token, tok),
            },
            Token::EndTag(ref tag) => match tag.name.id() {
                names::TABLE => {
                    if !self.open.in_table_scope(&atom!("table")) {
                        self.event(TreeEventKind::StrayEndTag { tag: "table".into() });
                        return Ctl::Done;
                    }
                    self.open.pop_through(&atom!("table"));
                    self.reset_insertion_mode();
                    Ctl::Done
                }
                names::BODY
                | names::CAPTION
                | names::COL
                | names::COLGROUP
                | names::HTML
                | names::TBODY
                | names::TD
                | names::TFOOT
                | names::TH
                | names::THEAD
                | names::TR => {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                    Ctl::Done
                }
                names::TEMPLATE => self.in_head(token, tok),
                _ => self.table_anything_else(token, tok),
            },
            Token::Eof => self.in_body(Token::Eof, tok),
            Token::Characters(_) => self.table_anything_else(token, tok),
        }
    }

    /// "Anything else" in table: enable foster parenting and process using
    /// the in-body rules — the HF4 recovery.
    fn table_anything_else(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        // Set the spec's foster-parenting flag for this one token: inside
        // insert_element/insert_chars the flag redirects insertion in front
        // of the table and emits the FosterParented (HF4) event.
        self.foster = true;
        let ctl = self.in_body(token, tok);
        self.foster = false;
        ctl
    }

    pub(crate) fn in_table_text(&mut self, token: Token) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                s.retain(|c| c != '\0');
                if self.pending_table_text.is_empty() {
                    self.pending_table_text = s;
                } else {
                    self.pending_table_text.push_str(&s);
                }
                Ctl::Done
            }
            other => {
                let text = std::mem::take(&mut self.pending_table_text);
                if text.chars().any(|c| !is_html_whitespace(c)) {
                    // Non-whitespace in a table: foster-parent it.
                    self.reconstruct_formatting();
                    self.insert_chars(text, true);
                    self.frameset_ok = false;
                } else {
                    self.insert_chars(text, false);
                }
                self.mode = self.orig_mode;
                Ctl::Reprocess(other)
            }
        }
    }

    pub(crate) fn in_caption(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::EndTag(ref tag) if tag.name == "caption" => {
                self.close_caption();
                Ctl::Done
            }
            Token::StartTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::TBODY
                        | names::TD
                        | names::TFOOT
                        | names::TH
                        | names::THEAD
                        | names::TR
                ) =>
            {
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                if self.open.in_table_scope(&atom!("caption")) {
                    self.close_caption();
                    return Ctl::Reprocess(token);
                }
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "table" => {
                if self.open.in_table_scope(&atom!("caption")) {
                    self.close_caption();
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayEndTag { tag: "table".into() });
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::BODY
                        | names::COL
                        | names::COLGROUP
                        | names::HTML
                        | names::TBODY
                        | names::TD
                        | names::TFOOT
                        | names::TH
                        | names::THEAD
                        | names::TR
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            other => self.in_body(other, tok),
        }
    }

    fn close_caption(&mut self) {
        if !self.open.in_table_scope(&atom!("caption")) {
            self.event(TreeEventKind::StrayEndTag { tag: "caption".into() });
            return;
        }
        self.generate_implied_end_tags(None);
        self.open.pop_through(&atom!("caption"));
        super::formatting::clear_to_marker(&mut self.formatting);
        self.mode = InsertionMode::InTable;
    }

    pub(crate) fn in_column_group(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                let ws = split_off_leading_whitespace(&mut s);
                self.insert_chars(ws, false);
                if s.is_empty() {
                    return Ctl::Done;
                }
                self.column_group_anything_else(Token::Characters(s))
            }
            Token::Comment(c) => {
                self.insert_comment(c);
                Ctl::Done
            }
            Token::Doctype(_) => {
                self.event(TreeEventKind::UnexpectedDoctype);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "html" => {
                self.merge_html_attrs(tag);
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "col" => {
                self.insert_void(tag);
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "colgroup" => {
                if self.current_is_html("colgroup") {
                    self.open.pop();
                    self.mode = InsertionMode::InTable;
                } else {
                    self.event(TreeEventKind::StrayEndTag { tag: "colgroup".into() });
                }
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "col" => {
                self.event(TreeEventKind::StrayEndTag { tag: "col".into() });
                Ctl::Done
            }
            Token::StartTag(ref tag) if tag.name == "template" => self.in_head(token, tok),
            Token::EndTag(ref tag) if tag.name == "template" => self.in_head(token, tok),
            Token::Eof => self.in_body(Token::Eof, tok),
            other => self.column_group_anything_else(other),
        }
    }

    fn column_group_anything_else(&mut self, token: Token) -> Ctl {
        if self.current_is_html("colgroup") {
            self.open.pop();
            self.mode = InsertionMode::InTable;
            Ctl::Reprocess(token)
        } else {
            self.event(TreeEventKind::StrayStartTag { tag: "#colgroup-content".into() });
            Ctl::Done
        }
    }

    pub(crate) fn in_table_body(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::StartTag(ref tag) if tag.name == "tr" => {
                self.clear_to_table_body_context();
                self.insert_html(tag);
                self.mode = InsertionMode::InRow;
                Ctl::Done
            }
            Token::StartTag(ref tag) if matches!(tag.name.id(), names::TH | names::TD) => {
                self.event(TreeEventKind::TableStructureImplied { tag: "tr".into() });
                self.clear_to_table_body_context();
                let tr = Tag::named("tr");
                self.insert_html(&tr);
                self.mode = InsertionMode::InRow;
                Ctl::Reprocess(token)
            }
            Token::EndTag(ref tag)
                if matches!(tag.name.id(), names::TBODY | names::TFOOT | names::THEAD) =>
            {
                if !self.open.in_table_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                    return Ctl::Done;
                }
                self.clear_to_table_body_context();
                self.open.pop();
                self.mode = InsertionMode::InTable;
                Ctl::Done
            }
            Token::StartTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::TBODY
                        | names::TFOOT
                        | names::THEAD
                ) =>
            {
                if self.any_in_table_scope(&[atom!("tbody"), atom!("thead"), atom!("tfoot")]) {
                    self.clear_to_table_body_context();
                    self.open.pop();
                    self.mode = InsertionMode::InTable;
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "table" => {
                if self.any_in_table_scope(&[atom!("tbody"), atom!("thead"), atom!("tfoot")]) {
                    self.clear_to_table_body_context();
                    self.open.pop();
                    self.mode = InsertionMode::InTable;
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayEndTag { tag: "table".into() });
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::BODY
                        | names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::HTML
                        | names::TD
                        | names::TH
                        | names::TR
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            other => self.in_table(other, tok),
        }
    }

    pub(crate) fn in_row(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::StartTag(ref tag) if matches!(tag.name.id(), names::TH | names::TD) => {
                self.clear_to_table_row_context();
                self.insert_html(tag);
                self.mode = InsertionMode::InCell;
                self.formatting.push(super::FormatEntry::Marker);
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "tr" => {
                if !self.open.in_table_scope(&atom!("tr")) {
                    self.event(TreeEventKind::StrayEndTag { tag: "tr".into() });
                    return Ctl::Done;
                }
                self.clear_to_table_row_context();
                self.open.pop();
                self.mode = InsertionMode::InTableBody;
                Ctl::Done
            }
            Token::StartTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::TBODY
                        | names::TFOOT
                        | names::THEAD
                        | names::TR
                ) =>
            {
                if self.open.in_table_scope(&atom!("tr")) {
                    self.clear_to_table_row_context();
                    self.open.pop();
                    self.mode = InsertionMode::InTableBody;
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            Token::EndTag(ref tag) if tag.name == "table" => {
                if self.open.in_table_scope(&atom!("tr")) {
                    self.clear_to_table_row_context();
                    self.open.pop();
                    self.mode = InsertionMode::InTableBody;
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayEndTag { tag: "table".into() });
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(tag.name.id(), names::TBODY | names::TFOOT | names::THEAD) =>
            {
                if !self.open.in_table_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                    return Ctl::Done;
                }
                if self.open.in_table_scope(&atom!("tr")) {
                    self.clear_to_table_row_context();
                    self.open.pop();
                    self.mode = InsertionMode::InTableBody;
                    return Ctl::Reprocess(token);
                }
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::BODY
                        | names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::HTML
                        | names::TD
                        | names::TH
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            other => self.in_table(other, tok),
        }
    }

    pub(crate) fn in_cell(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::EndTag(ref tag) if matches!(tag.name.id(), names::TD | names::TH) => {
                if !self.open.in_table_scope(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                    return Ctl::Done;
                }
                self.generate_implied_end_tags(None);
                if !self.current_is_html(&tag.name) {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                }
                self.open.pop_through(&tag.name);
                super::formatting::clear_to_marker(&mut self.formatting);
                self.mode = InsertionMode::InRow;
                Ctl::Done
            }
            Token::StartTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::COL
                        | names::COLGROUP
                        | names::TBODY
                        | names::TD
                        | names::TFOOT
                        | names::TH
                        | names::THEAD
                        | names::TR
                ) =>
            {
                if self.any_in_table_scope(&[atom!("td"), atom!("th")]) {
                    self.close_cell();
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::BODY | names::CAPTION | names::COL | names::COLGROUP | names::HTML
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            Token::EndTag(ref tag)
                if matches!(
                    tag.name.id(),
                    names::TABLE | names::TBODY | names::TFOOT | names::THEAD | names::TR
                ) =>
            {
                if self.open.in_table_scope(&tag.name) {
                    self.close_cell();
                    return Ctl::Reprocess(token);
                }
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                Ctl::Done
            }
            other => self.in_body(other, tok),
        }
    }

    fn close_cell(&mut self) {
        self.generate_implied_end_tags(None);
        while let Some(id) = self.open.pop() {
            if matches!(self.doc.html_name(id), Some("td" | "th")) {
                break;
            }
        }
        super::formatting::clear_to_marker(&mut self.formatting);
        self.mode = InsertionMode::InRow;
    }

    // ----- select modes -----

    pub(crate) fn in_select(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match token {
            Token::Characters(mut s) => {
                s.retain(|c| c != '\0');
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
            Token::StartTag(ref tag) => match tag.name.id() {
                names::HTML => {
                    self.merge_html_attrs(tag);
                    Ctl::Done
                }
                names::OPTION => {
                    if self.current_is_html("option") {
                        self.open.pop();
                    }
                    self.insert_html(tag);
                    Ctl::Done
                }
                names::OPTGROUP => {
                    if self.current_is_html("option") {
                        self.open.pop();
                    }
                    if self.current_is_html("optgroup") {
                        self.open.pop();
                    }
                    self.insert_html(tag);
                    Ctl::Done
                }
                names::SELECT => {
                    // <select> inside <select> acts like </select>.
                    self.event(TreeEventKind::StrayStartTag { tag: "select".into() });
                    if self.open.in_select_scope(&atom!("select")) {
                        self.open.pop_through(&atom!("select"));
                        self.reset_insertion_mode();
                    }
                    Ctl::Done
                }
                names::INPUT | names::KEYGEN | names::TEXTAREA => {
                    self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                    if self.open.in_select_scope(&atom!("select")) {
                        self.open.pop_through(&atom!("select"));
                        self.reset_insertion_mode();
                        return Ctl::Reprocess(token);
                    }
                    Ctl::Done
                }
                names::SCRIPT | names::TEMPLATE => self.in_head(token, tok),
                _ => {
                    self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                    Ctl::Done
                }
            },
            Token::EndTag(ref tag) => match tag.name.id() {
                names::OPTGROUP => {
                    if self.current_is_html("option") {
                        // An option directly inside optgroup closes too.
                        let len = self.open.len();
                        if len >= 2 && self.doc.is_html(self.open[len - 2], "optgroup") {
                            self.open.pop();
                        }
                    }
                    if self.current_is_html("optgroup") {
                        self.open.pop();
                    } else {
                        self.event(TreeEventKind::StrayEndTag { tag: "optgroup".into() });
                    }
                    Ctl::Done
                }
                names::OPTION => {
                    if self.current_is_html("option") {
                        self.open.pop();
                    } else {
                        self.event(TreeEventKind::StrayEndTag { tag: "option".into() });
                    }
                    Ctl::Done
                }
                names::SELECT => {
                    if !self.open.in_select_scope(&atom!("select")) {
                        self.event(TreeEventKind::StrayEndTag { tag: "select".into() });
                        return Ctl::Done;
                    }
                    self.open.pop_through(&atom!("select"));
                    self.reset_insertion_mode();
                    Ctl::Done
                }
                names::TEMPLATE => self.in_head(token, tok),
                _ => {
                    self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                    Ctl::Done
                }
            },
            Token::Eof => self.in_body(Token::Eof, tok),
        }
    }

    pub(crate) fn in_select_in_table(&mut self, token: Token, tok: &mut Tokenizer<'_>) -> Ctl {
        match &token {
            Token::StartTag(tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::TABLE
                        | names::TBODY
                        | names::TFOOT
                        | names::THEAD
                        | names::TR
                        | names::TD
                        | names::TH
                ) =>
            {
                self.event(TreeEventKind::StrayStartTag { tag: tag.name.to_string() });
                self.close_select();
                Ctl::Reprocess(token)
            }
            Token::EndTag(tag)
                if matches!(
                    tag.name.id(),
                    names::CAPTION
                        | names::TABLE
                        | names::TBODY
                        | names::TFOOT
                        | names::THEAD
                        | names::TR
                        | names::TD
                        | names::TH
                ) =>
            {
                self.event(TreeEventKind::StrayEndTag { tag: tag.name.to_string() });
                if self.open.in_table_scope(&tag.name) {
                    self.close_select();
                    return Ctl::Reprocess(token);
                }
                Ctl::Done
            }
            _ => self.in_select(token, tok),
        }
    }

    /// Leave "in select in table": pop through the select and reset the
    /// mode. A `</template>` can already have popped the select without a
    /// mode reset (templates are ordinary elements here); popping through
    /// a select that is not open would empty the whole stack, html element
    /// included, so then only the mode is reset.
    fn close_select(&mut self) {
        if self.open.has_element(&atom!("select")) {
            self.open.pop_through(&atom!("select"));
        }
        self.reset_insertion_mode();
    }

    // ----- stack clearing helpers -----

    pub(crate) fn clear_to_table_context(&mut self) {
        self.pop_until_one_of(&["table", "template", "html"]);
    }

    pub(crate) fn clear_to_table_body_context(&mut self) {
        self.pop_until_one_of(&["tbody", "tfoot", "thead", "template", "html"]);
    }

    pub(crate) fn clear_to_table_row_context(&mut self) {
        self.pop_until_one_of(&["tr", "template", "html"]);
    }

    fn any_in_table_scope(&self, names: &[Atom]) -> bool {
        names.iter().any(|n| self.open.in_table_scope(n))
    }
}
