//! Findings and per-page reports.

use crate::taxonomy::{ProblemGroup, ViolationKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One detected violation: which check fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    pub kind: ViolationKind,
    /// Character offset into the (preprocessed) document where the evidence
    /// sits; 0 when the violation is a whole-document property.
    pub offset: usize,
    /// Short human-readable evidence (an excerpt or element description).
    pub evidence: String,
}

impl Finding {
    pub fn new(kind: ViolationKind, offset: usize, evidence: impl Into<String>) -> Self {
        Finding { kind, offset, evidence: evidence.into() }
    }
}

/// The result of running the full checker battery over one page.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PageReport {
    pub findings: Vec<Finding>,
    /// §4.5 mitigation counters, measured alongside the violations.
    pub mitigations: MitigationFlags,
    /// §4.2's usage counter: the page has a `math` element. Either
    /// namespace counts: a MathML `math`, or an HTML orphan the parser
    /// left outside foreign content.
    #[serde(default)]
    pub uses_math: bool,
}

impl PageReport {
    /// The distinct violation kinds present on this page.
    pub fn kinds(&self) -> BTreeSet<ViolationKind> {
        self.findings.iter().map(|f| f.kind).collect()
    }

    /// The distinct problem groups present on this page.
    pub fn groups(&self) -> BTreeSet<ProblemGroup> {
        self.findings.iter().map(|f| f.kind.group()).collect()
    }

    pub fn has(&self, kind: ViolationKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Page-level flags for the two deployed mitigations §4.5 evaluates.
///
/// Every field carries `#[serde(default)]` so the struct can be embedded
/// with `#[serde(flatten)]` in larger records (and loaded from stores
/// written before a given flag existed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MitigationFlags {
    /// An attribute value contains the string `<script` (the nonce-stealing
    /// heuristic the CSP spec discussion proposed).
    #[serde(default)]
    pub script_in_attribute: bool,
    /// …and that attribute sits on an actual `<script>` element carrying a
    /// CSP nonce (the only case the mitigation would break). The paper found
    /// zero of these.
    #[serde(default)]
    pub script_in_nonced_script: bool,
    /// A URL-valued attribute contains a raw newline.
    #[serde(default)]
    pub newline_in_url: bool,
    /// A URL-valued attribute contains a newline *and* a `<` (what Chromium
    /// blocks since 2017).
    #[serde(default)]
    pub newline_and_lt_in_url: bool,
}

impl MitigationFlags {
    /// OR the other page's flags into this accumulator (how per-domain
    /// flags are built from per-page flags).
    pub fn merge(&mut self, other: MitigationFlags) {
        self.script_in_attribute |= other.script_in_attribute;
        self.script_in_nonced_script |= other.script_in_nonced_script;
        self.newline_in_url |= other.newline_in_url;
        self.newline_and_lt_in_url |= other.newline_and_lt_in_url;
    }

    /// True when any flag is set.
    pub fn any(&self) -> bool {
        self.script_in_attribute
            || self.script_in_nonced_script
            || self.newline_in_url
            || self.newline_and_lt_in_url
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_groups_dedupe() {
        let mut r = PageReport::default();
        r.findings.push(Finding::new(ViolationKind::FB2, 0, "a"));
        r.findings.push(Finding::new(ViolationKind::FB2, 9, "b"));
        r.findings.push(Finding::new(ViolationKind::DM3, 3, "c"));
        assert_eq!(r.kinds().len(), 2);
        assert_eq!(r.groups().len(), 2);
        assert!(r.has(ViolationKind::FB2));
        assert!(!r.has(ViolationKind::DE1));
        assert!(!r.is_clean());
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = PageReport::default();
        r.findings.push(Finding::new(ViolationKind::HF4, 12, "strong in tr"));
        r.mitigations.newline_in_url = true;
        r.uses_math = true;
        let json = serde_json::to_string(&r).unwrap();
        let back: PageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.findings, r.findings);
        assert_eq!(back.mitigations, r.mitigations);
        assert!(back.uses_math);
        // Reports written before the flag existed load without it.
        let old: PageReport = serde_json::from_str(r#"{"findings":[],"mitigations":{}}"#).unwrap();
        assert!(!old.uses_math);
    }
}
