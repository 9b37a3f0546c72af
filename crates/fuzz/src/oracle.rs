//! The oracle registry: named invariants run over every generated case.
//!
//! An [`Oracle`] is a predicate the whole stack must satisfy on **every**
//! input — not a pinned fixture but a cross-implementation agreement the
//! fuzzer searches for counterexamples to. The registry exists because the
//! repo's hot paths have been rewritten three times (SWAR batching, fused
//! dispatch, atom interning) while keeping the original implementations
//! alive as references; each rewrite's equivalence claim is an oracle
//! here:
//!
//! | name | invariant |
//! |---|---|
//! | `tokenizer-equivalence` | batched fast paths ≡ pure scalar machine (tokens **and** errors) |
//! | `battery-equivalence` | fused dispatch engine ≡ pre-fusion [`reference::checkers`] battery |
//! | `serializer-fixpoint` | serialize ∘ parse converges after one round (mXSS may mutate once) |
//! | `atom-agreement` | every atom-keyed tag predicate ≡ its string reference |
//! | `autofix-soundness` | §4.4 auto-fix output re-checks clean of automatic kinds, and converges |
//! | `dom-validity` | any input yields a structurally valid DOM and in-bounds error offsets |
//! | `json-equivalence` | `CheckResponse`/`PageReport` compact JSON written directly ≡ the text of their `serde::Value` tree |
//! | `wire-check` | a live `hva serve` answers `POST /v1/check` byte-identically to the in-process battery |
//!
//! Oracles are `&mut self` so they can own reusable state (a battery, a
//! running server); they must stay **deterministic** — the verdict is a
//! pure function of the case text.
//!
//! To add an oracle: implement [`Oracle`], append it in [`all_oracles`],
//! and document the invariant in DESIGN.md §11. The fuzz runner, the
//! `--oracle` CLI filter, the replay harness, and minimization all pick
//! it up from the registry.

use crate::reference;
use hv_core::{autofix, Battery, CheckContext, Fixability};
use hv_server::api::v1::CheckResponse;
use spec_html::tokenizer::{Attr, Token, Tokens};
use spec_html::{serializer, tags, ErrorCode};
use std::io::{Read, Write};

/// One named invariant. `check` returns `Err(description)` when the case
/// violates it; the description lands in the fuzz report and the
/// regression fixture's provenance line.
pub trait Oracle {
    /// Registry name (`--oracle NAME`, fixture file names).
    fn name(&self) -> &'static str;
    /// One-line description for `hva fuzz --list-oracles`.
    fn describe(&self) -> &'static str;
    /// Run the invariant over one case.
    fn check(&mut self, case: &str) -> Result<(), String>;
}

/// The full registry, in execution order (cheap parsers first, the
/// network oracle last).
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(TokenizerEquivalence),
        Box::new(DomValidity),
        Box::new(BatteryEquivalence::new()),
        Box::new(AtomAgreement),
        Box::new(SerializerFixpoint),
        Box::new(AutofixSoundness),
        Box::new(JsonEquivalence::new()),
        Box::new(WireCheck::new()),
    ]
}

/// Registry filtered to one name (`Err` lists the valid names).
pub fn oracles_named(name: Option<&str>) -> Result<Vec<Box<dyn Oracle>>, String> {
    let all = all_oracles();
    match name {
        None => Ok(all),
        Some(want) => {
            let names: Vec<&str> = all.iter().map(|o| o.name()).collect();
            let picked: Vec<Box<dyn Oracle>> =
                all.into_iter().filter(|o| o.name() == want).collect();
            if picked.is_empty() {
                Err(format!("unknown oracle {want:?}; known: {}", names.join(", ")))
            } else {
                Ok(picked)
            }
        }
    }
}

/// Batched-vs-scalar tokenizer equivalence: the SWAR fast paths and the
/// per-character spec machine must emit identical token streams and
/// identical error lists on every input.
pub struct TokenizerEquivalence;

impl Oracle for TokenizerEquivalence {
    fn name(&self) -> &'static str {
        "tokenizer-equivalence"
    }

    fn describe(&self) -> &'static str {
        "batched tokenizer fast paths emit the same tokens and errors as the scalar spec machine"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let (bt, be) = spec_html::tokenize(case);
        let (st, se) = spec_html::tokenize_scalar(case);
        if let Some(divergence) = token_divergence(&bt, &st) {
            return Err(divergence);
        }
        if be != se {
            let i = be.iter().zip(&se).position(|(a, b)| a != b).unwrap_or(be.len().min(se.len()));
            return Err(format!(
                "error lists diverge at error {i}: batched={:?} scalar={:?} (lens {}/{})",
                be.get(i),
                se.get(i),
                be.len(),
                se.len()
            ));
        }
        Ok(())
    }
}

/// Where two token streams differ, naming the first token that differs
/// with its tag's attributes read from its own stream's arena (a token
/// holds only their range); `None` when the streams are equal.
fn token_divergence(bt: &Tokens, st: &Tokens) -> Option<String> {
    if bt == st {
        return None;
    }
    fn resolved(ts: &Tokens, i: usize) -> Option<(&Token, &[Attr])> {
        ts.get(i).map(|t| match t {
            Token::StartTag(tag) | Token::EndTag(tag) => (t, ts.attrs(tag)),
            _ => (t, &[][..]),
        })
    }
    let n = bt.len().max(st.len());
    Some(match (0..n).find(|&i| resolved(bt, i) != resolved(st, i)) {
        Some(i) => format!(
            "token streams diverge at token {i}: batched={:?} scalar={:?} (lens {}/{})",
            resolved(bt, i),
            resolved(st, i),
            bt.len(),
            st.len()
        ),
        None => "attribute arenas diverge outside every tag's range".to_string(),
    })
}

/// Fused-vs-legacy battery identity: the single-pass dispatch engine must
/// reproduce the pre-fusion twenty-scan battery byte for byte — findings
/// *and* §4.5 mitigation flags.
pub struct BatteryEquivalence {
    battery: Battery,
}

impl BatteryEquivalence {
    pub fn new() -> Self {
        BatteryEquivalence { battery: Battery::full() }
    }
}

impl Default for BatteryEquivalence {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle for BatteryEquivalence {
    fn name(&self) -> &'static str {
        "battery-equivalence"
    }

    fn describe(&self) -> &'static str {
        "fused dispatch engine reports identical findings to the pre-fusion reference battery"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let cx = CheckContext::new(case);
        let fused = self.battery.run(&cx);
        let legacy = reference::checkers::run(&cx);
        if fused.findings != legacy.findings {
            return Err(format!(
                "findings diverge: fused={:?} legacy={:?}",
                fused.findings, legacy.findings
            ));
        }
        if fused.mitigations != legacy.mitigations {
            return Err(format!(
                "mitigation flags diverge: fused={:?} legacy={:?}",
                fused.mitigations, legacy.mitigations
            ));
        }
        if fused.uses_math != legacy.uses_math {
            return Err(format!(
                "math usage diverges: fused={} legacy={}",
                fused.uses_math, legacy.uses_math
            ));
        }
        Ok(())
    }
}

/// Nested `form` elements — a form with a form ancestor — are a DOM shape
/// HTML serialization cannot round-trip: the form element pointer makes a
/// reparse *ignore* a `<form>` start tag inside an open form, so each
/// serialize→reparse round drops one nesting level (the shape arises when
/// `</form>` is closed out from under a still-open descendant, which
/// nulls the pointer while the subtree stays put). The fixpoint-style
/// oracles carve this out the same way they carve out unterminated
/// script-comment text.
fn has_nested_form(dom: &spec_html::Dom) -> bool {
    dom.all_elements()
        .any(|id| dom.is_html(id, "form") && dom.ancestors(id).any(|a| dom.is_html(a, "form")))
}

/// Parse → serialize → reparse fixpoint: the first round may normalize
/// (that mutation *is* mXSS), but serialization must converge from the
/// second round on. Two documented carve-outs: unterminated
/// `<script><!--` content never round-trips (spec §13.3's warning,
/// detectable via `eof-in-script-html-comment-like-text`), and nested
/// forms shed one level per round ([`has_nested_form`]).
pub struct SerializerFixpoint;

impl Oracle for SerializerFixpoint {
    fn name(&self) -> &'static str {
        "serializer-fixpoint"
    }

    fn describe(&self) -> &'static str {
        "serialize(parse(x)) reaches a fixpoint after one round (documented script-comment carve-out)"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let once = serializer::serialize(&spec_html::parse_document(case).dom);
        let reparse = spec_html::parse_document(&once);
        if reparse.has_error(ErrorCode::EofInScriptHtmlCommentLikeText)
            || has_nested_form(&reparse.dom)
        {
            return Ok(()); // documented non-round-trippable pathologies
        }
        let twice = serializer::serialize(&reparse.dom);
        let thrice = serializer::serialize(&spec_html::parse_document(&twice).dom);
        if twice != thrice {
            return Err(format!(
                "serialization did not converge: round2={twice:?} round3={thrice:?}"
            ));
        }
        Ok(())
    }
}

/// Atom-vs-string predicate agreement: for every element and attribute
/// name the parse produced (static *and* dynamic atoms), each O(1)
/// atom-keyed classification must equal its string reference.
pub struct AtomAgreement;

impl AtomAgreement {
    fn check_name(atom: &spec_html::Atom) -> Result<(), String> {
        let s = atom.as_str();
        let table: [(&str, bool, bool); 12] = [
            ("is_void", tags::is_void_atom(atom), tags::is_void(s)),
            ("is_special", tags::is_special_atom(atom), tags::is_special(s)),
            ("is_formatting", tags::is_formatting_atom(atom), tags::is_formatting(s)),
            ("is_head_content", tags::is_head_content_atom(atom), tags::is_head_content(s)),
            ("closes_p", tags::closes_p_atom(atom), tags::closes_p(s)),
            ("implied_end_tag", tags::implied_end_tag_atom(atom), tags::implied_end_tag(s)),
            ("is_rcdata", tags::is_rcdata_atom(atom), tags::is_rcdata(s)),
            ("is_rawtext", tags::is_rawtext_atom(atom), tags::is_rawtext(s)),
            (
                "is_foreign_breakout",
                tags::is_foreign_breakout_atom(atom),
                tags::is_foreign_breakout(s),
            ),
            (
                "is_mathml_text_integration",
                tags::is_mathml_text_integration_atom(atom),
                tags::is_mathml_text_integration(s),
            ),
            (
                "is_svg_html_integration",
                tags::is_svg_html_integration_atom(atom),
                tags::is_svg_html_integration(s),
            ),
            ("is_url_attribute", tags::is_url_attribute_atom(atom), tags::is_url_attribute(s)),
        ];
        for (pred, via_atom, via_str) in table {
            if via_atom != via_str {
                return Err(format!("{pred}({s:?}) disagrees: atom={via_atom} string={via_str}"));
            }
        }
        Ok(())
    }
}

impl Oracle for AtomAgreement {
    fn name(&self) -> &'static str {
        "atom-agreement"
    }

    fn describe(&self) -> &'static str {
        "atom-keyed tag/attribute predicates agree with their string reference implementations"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let out = spec_html::parse_document(case);
        for id in out.dom.all_elements() {
            let Some(e) = out.dom.element(id) else { continue };
            Self::check_name(&e.name).map_err(|m| format!("element <{}>: {m}", e.name.as_str()))?;
            for attr in out.dom.attrs(e.attrs) {
                Self::check_name(&attr.name)
                    .map_err(|m| format!("attribute {}: {m}", attr.name.as_str()))?;
            }
        }
        Ok(())
    }
}

/// Auto-fix soundness: the §4.4 repair's output must re-check clean of
/// every *automatically fixable* kind, and a second pass must be a
/// fixpoint (same script-comment carve-out as the serializer).
pub struct AutofixSoundness;

impl Oracle for AutofixSoundness {
    fn name(&self) -> &'static str {
        "autofix-soundness"
    }

    fn describe(&self) -> &'static str {
        "the automatic §4.4 repair eliminates all automatic kinds and converges in one extra pass"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let outcome = autofix::auto_fix(case);
        for k in &outcome.after {
            if k.fixability() == Fixability::Automatic {
                return Err(format!(
                    "automatic kind {} survived the fixer (after: {:?})",
                    k.id(),
                    outcome.after
                ));
            }
        }
        let refixed = spec_html::parse_document(&outcome.fixed_html);
        if refixed.has_error(ErrorCode::EofInScriptHtmlCommentLikeText)
            || has_nested_form(&refixed.dom)
        {
            return Ok(()); // documented non-round-trippable pathologies
        }
        let again = autofix::auto_fix(&outcome.fixed_html);
        let third = autofix::auto_fix(&again.fixed_html);
        if third.fixed_html != again.fixed_html {
            return Err("fixer did not converge within two extra passes".to_owned());
        }
        Ok(())
    }
}

/// DOM structural validity: any input yields an arena satisfying the
/// tree invariants, with every error offset inside the input.
pub struct DomValidity;

impl Oracle for DomValidity {
    fn name(&self) -> &'static str {
        "dom-validity"
    }

    fn describe(&self) -> &'static str {
        "parsing any input yields a structurally valid DOM with in-bounds error offsets"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let out = spec_html::parse_document(case);
        out.dom.check_invariants().map_err(|e| format!("DOM invariant violated: {e}"))?;
        let len = case.chars().count();
        for e in &out.errors {
            if e.offset > len {
                return Err(format!(
                    "error {} at offset {} beyond input length {len}",
                    e.code, e.offset
                ));
            }
        }
        Ok(())
    }
}

/// Compact JSON equivalence: `serde_json::to_string` writes a value's text
/// directly (`Serialize::write_json`), and must print the same bytes as the
/// `serde::Value` tree the value builds, for the `/v1/check` answer and
/// the report behind it.
pub struct JsonEquivalence {
    battery: Battery,
}

impl JsonEquivalence {
    pub fn new() -> Self {
        JsonEquivalence { battery: Battery::full() }
    }
}

impl Default for JsonEquivalence {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle for JsonEquivalence {
    fn name(&self) -> &'static str {
        "json-equivalence"
    }

    fn describe(&self) -> &'static str {
        "CheckResponse and PageReport serialize to the same JSON directly and through a Value tree"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let report = self.battery.run_str(case);
        let response = CheckResponse::from(&report);
        let texts = [
            (
                "PageReport",
                serde_json::to_string(&report),
                serde_json::to_string(&serde_json::to_value(&report)),
            ),
            (
                "CheckResponse",
                serde_json::to_string(&response),
                serde_json::to_string(&serde_json::to_value(&response)),
            ),
        ];
        for (what, direct, tree) in texts {
            let direct = direct.map_err(|e| format!("serializing {what}: {e}"))?;
            let tree = tree.map_err(|e| format!("serializing {what}'s tree: {e}"))?;
            if direct != tree {
                return Err(format!("{what} JSON diverged:\n  direct: {direct}\n  tree:   {tree}"));
            }
        }
        Ok(())
    }
}

/// Live-server wire oracle: `POST /v1/check` against a real `hva serve`
/// instance (spawned lazily on a loopback port, shut down on drop) must
/// return the *byte-identical* JSON the in-process battery serializes —
/// the full stack, HTTP parsing included, agrees with the library path.
pub struct WireCheck {
    server: Option<hv_server::Server>,
    battery: Battery,
}

impl WireCheck {
    pub fn new() -> Self {
        WireCheck { server: None, battery: Battery::full() }
    }

    fn addr(&mut self) -> Result<String, String> {
        if self.server.is_none() {
            let opts =
                hv_server::ServeOptions::new().addr("127.0.0.1:0").threads(1).queue_depth(16);
            let server =
                hv_server::serve(opts).map_err(|e| format!("starting wire-oracle server: {e}"))?;
            self.server = Some(server);
        }
        Ok(self.server.as_ref().expect("just started").addr().to_string())
    }

    /// One `POST /v1/check` with a raw HTML body; returns the response
    /// body after asserting a 200.
    fn post_check(addr: &str, case: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("wire oracle transport: {e}");
        let mut stream = std::net::TcpStream::connect(addr).map_err(io)?;
        let timeout = Some(std::time::Duration::from_secs(10));
        stream.set_read_timeout(timeout).map_err(io)?;
        stream.set_write_timeout(timeout).map_err(io)?;
        let mut req = format!(
            "POST /v1/check HTTP/1.1\r\nhost: fuzz\r\nconnection: close\r\n\
             content-type: text/html\r\ncontent-length: {}\r\n\r\n",
            case.len()
        )
        .into_bytes();
        req.extend_from_slice(case.as_bytes());
        stream.write_all(&req).map_err(io)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(io)?;
        let text = String::from_utf8_lossy(&raw);
        let head_end =
            text.find("\r\n\r\n").ok_or_else(|| format!("malformed response: {text:?}"))?;
        let status = text.lines().next().unwrap_or_default();
        if !status.contains("200") {
            return Err(format!("expected 200, got {status:?} (body {:?})", &text[head_end + 4..]));
        }
        Ok(text[head_end + 4..].to_owned())
    }
}

impl Default for WireCheck {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle for WireCheck {
    fn name(&self) -> &'static str {
        "wire-check"
    }

    fn describe(&self) -> &'static str {
        "a live hva serve answers POST /v1/check byte-identically to the in-process battery JSON"
    }

    fn check(&mut self, case: &str) -> Result<(), String> {
        let addr = self.addr()?;
        let report = self.battery.run_str(case);
        let expected = serde_json::to_string(&CheckResponse::from(&report))
            .map_err(|e| format!("serializing expected response: {e}"))?;
        let got = Self::post_check(&addr, case)?;
        if got != expected {
            return Err(format!("wire response diverged:\n  wire: {got}\n  lib:  {expected}"));
        }
        Ok(())
    }
}

impl Drop for WireCheck {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs with known violations/pathologies that every oracle must
    /// accept — the invariants hold on dirty pages too.
    const DIRTY: &[&str] = &[
        "",
        "<p>plain</p>",
        "<img src=a src=b><div id=x id=y>",
        "<table><tr><b>x</b></tr></table>",
        "<svg><mtext><p>x</p></mtext></svg>",
        "<select><table><tr>",
        "&#xD800;&#0;&notit;&ampx",
        "<template><td>cell</td></template>",
        "\u{0}\u{1}<b>control</b>",
    ];

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = all_oracles().iter().map(|o| o.name()).collect();
        let set: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate oracle names: {names:?}");
        assert_eq!(
            names,
            [
                "tokenizer-equivalence",
                "dom-validity",
                "battery-equivalence",
                "atom-agreement",
                "serializer-fixpoint",
                "autofix-soundness",
                "json-equivalence",
                "wire-check",
            ]
        );
    }

    #[test]
    fn oracles_named_filters_and_rejects() {
        assert_eq!(oracles_named(Some("dom-validity")).unwrap().len(), 1);
        assert_eq!(oracles_named(None).unwrap().len(), all_oracles().len());
        let err = oracles_named(Some("nope")).map(|_| ()).unwrap_err();
        assert!(err.contains("dom-validity"), "{err}");
    }

    #[test]
    fn offline_oracles_pass_on_dirty_inputs() {
        // Everything except the network oracle (covered by the dedicated
        // wire test below and the integration suite).
        for mut oracle in all_oracles() {
            if oracle.name() == "wire-check" {
                continue;
            }
            for case in DIRTY {
                oracle
                    .check(case)
                    .unwrap_or_else(|m| panic!("{} failed on {case:?}: {m}", oracle.name()));
            }
        }
    }

    /// Streams that differ only in an attribute's text hold equal tokens
    /// (equal ranges); the report still names the tag and both values.
    #[test]
    fn token_divergence_names_the_differing_attribute() {
        let (a, _) = spec_html::tokenize("<p>x<b title=first>y");
        let (b, _) = spec_html::tokenize("<p>x<b title=other>y");
        assert_eq!(*a, *b, "tokens equal up to their arenas");
        let msg = token_divergence(&a, &b).expect("the arenas differ");
        assert!(msg.starts_with("token streams diverge at token 2:"), "{msg}");
        assert!(msg.contains("\"first\"") && msg.contains("\"other\""), "{msg}");
        assert_eq!(token_divergence(&a, &a), None);
    }

    #[test]
    fn wire_oracle_round_trips() {
        let mut wire = WireCheck::new();
        wire.check("<img src=a src=b>").expect("wire oracle agrees on a dirty page");
        wire.check("<p>clean</p>").expect("wire oracle agrees on a clean page");
    }
}
