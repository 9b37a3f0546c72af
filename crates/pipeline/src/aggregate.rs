//! Aggregation — every number behind the paper's tables and figures.
//!
//! Originally each query here re-scanned the full [`ResultStore`]; a
//! report render walked the records ~14 times. [`AggregateIndex::build`]
//! now folds everything — Table 2, the Figure 8 distribution, group and
//! kind trends, the autofix projection, mitigation trends, rollout
//! breakage, churn — in **one** streaming pass, and the query surface
//! becomes cheap views over the precomputed counters. The original
//! per-query implementations live on verbatim, outside the production
//! crates, as `hv_fuzz::reference::aggregate` (next to the pre-fusion
//! checkers): every view must return bit-identical results, asserted by
//! the tests there, the root proptest suite, and the golden migration
//! test.

use crate::auxstudies::AuxStudies;
use crate::format::{DroppedSegment, LoadOptions, SegmentSummary};
use crate::store::{LoadedStore, ResultStore, StoreFormat};
use hv_core::{HvError, ProblemGroup, ViolationKind};
use hv_corpus::snapshots::YEARS;
use hv_corpus::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::path::Path;
use std::sync::OnceLock;

/// Number of violation kinds (bitmask width).
const KINDS: usize = ViolationKind::ALL.len();
/// Number of §3.2 problem groups.
const GROUPS: usize = ProblemGroup::ALL.len();
/// Number of §5.3.2 enforcement stages (0..=4).
const STAGES: usize = 5;

/// One Table-2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    pub snapshot: String,
    pub domains_found: usize,
    pub domains_analyzed: usize,
    pub analyzed_share: f64,
    pub avg_pages: f64,
}

/// One Figure-8 bar: domains showing the kind at least once over the whole
/// study, as count and share of all analyzed domains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributionBar {
    pub kind: ViolationKind,
    pub domains: usize,
    pub share: f64,
}

/// A yearly series (Figure 9/10/16–21 shape): one value per snapshot.
pub type YearSeries = [f64; YEARS];

/// §4.4: the auto-fix projection for one snapshot — (violating domains,
/// domains still violating after the automatic pass, share fixed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutofixProjection {
    pub snapshot: String,
    pub analyzed: usize,
    pub violating: usize,
    pub violating_after_fix: usize,
    pub violating_share: f64,
    pub after_share: f64,
    /// Share of violating domains fully fixed by automation.
    pub fixed_share: f64,
}

/// §4.5: the mitigation-conflict series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MitigationTrends {
    /// Domains with `<script` inside an attribute value (count, share).
    pub script_in_attribute: [(usize, f64); YEARS],
    /// …of which on a nonced script element (the paper found zero).
    pub script_in_nonced_script: [usize; YEARS],
    /// Domains with a raw newline in a URL attribute.
    pub newline_in_url: [(usize, f64); YEARS],
    /// Domains conflicting with Chromium's newline+`<` blocking.
    pub newline_and_lt_in_url: [(usize, f64); YEARS],
}

/// One year-over-year churn row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnRow {
    pub from: String,
    pub to: String,
    /// (domain, kind) pairs newly violating in `to`.
    pub added: usize,
    /// (domain, kind) pairs fixed between `from` and `to`.
    pub removed: usize,
}

/// The kind's 0..20 bit position — [`ViolationKind::ALL`] is in
/// discriminant order, so `k as usize` indexes both the bitmask and the
/// per-kind arrays (asserted by `kind_discriminants_match_all_order`).
fn kind_bit(k: ViolationKind) -> usize {
    k as usize
}

/// Every table and figure, folded from the records in one pass.
///
/// All counters follow the per-query semantics exactly: per-year
/// series count *analyzed* records only, while the overall distribution
/// and violating-share fold over all records with the analyzed-ever
/// denominator. The float math in the views is the same percentage in the
/// same operation order, so rendered output is byte-identical to the
/// reference folds'.
#[derive(Debug, Clone)]
pub struct AggregateIndex {
    // Per-year counters (index = Snapshot::index()).
    found: [usize; YEARS],
    analyzed: [usize; YEARS],
    pages: [usize; YEARS],
    violating: [usize; YEARS],
    still_after_fix: [usize; YEARS],
    math: [usize; YEARS],
    kind_per_year: [[usize; YEARS]; KINDS],
    group_per_year: [[usize; YEARS]; GROUPS],
    stage_per_year: [[usize; YEARS]; STAGES],
    script_in_attribute: [usize; YEARS],
    script_in_nonced_script: [usize; YEARS],
    newline_in_url: [usize; YEARS],
    newline_and_lt_in_url: [usize; YEARS],
    // Whole-study set sizes (resolved from transient sets at build time).
    found_ever: usize,
    analyzed_ever: usize,
    violating_ever: usize,
    kind_domains: [usize; KINDS],
    // §5.2 churn, precomputed.
    churn: Vec<ChurnRow>,
}

impl AggregateIndex {
    /// Fold the store's records once.
    pub fn build(store: &ResultStore) -> Self {
        // Group/stage membership as kind bitmasks, so the per-record work
        // is a handful of AND-tests instead of set walks.
        let mut group_masks = [0u32; GROUPS];
        for (gi, &g) in ProblemGroup::ALL.iter().enumerate() {
            for &k in ViolationKind::ALL.iter() {
                if k.group() == g {
                    group_masks[gi] |= 1 << kind_bit(k);
                }
            }
        }
        let mut stage_masks = [0u32; STAGES];
        for (si, mask) in stage_masks.iter_mut().enumerate() {
            let list = hv_core::strict::EnforcementList::stage(si as u8);
            for &k in ViolationKind::ALL.iter() {
                if list.contains(k) {
                    *mask |= 1 << kind_bit(k);
                }
            }
        }

        let mut idx = AggregateIndex {
            found: [0; YEARS],
            analyzed: [0; YEARS],
            pages: [0; YEARS],
            violating: [0; YEARS],
            still_after_fix: [0; YEARS],
            math: [0; YEARS],
            kind_per_year: [[0; YEARS]; KINDS],
            group_per_year: [[0; YEARS]; GROUPS],
            stage_per_year: [[0; YEARS]; STAGES],
            script_in_attribute: [0; YEARS],
            script_in_nonced_script: [0; YEARS],
            newline_in_url: [0; YEARS],
            newline_and_lt_in_url: [0; YEARS],
            found_ever: 0,
            analyzed_ever: 0,
            violating_ever: 0,
            kind_domains: [0; KINDS],
            churn: Vec::with_capacity(YEARS - 1),
        };

        // Transient fold state, resolved below.
        let mut found_ids: BTreeSet<u64> = BTreeSet::new();
        let mut analyzed_ids: BTreeSet<u64> = BTreeSet::new();
        let mut violating_ids: BTreeSet<u64> = BTreeSet::new();
        let mut kind_ids: [BTreeSet<u64>; KINDS] = std::array::from_fn(|_| BTreeSet::new());
        let mut year_masks: [BTreeMap<u64, u32>; YEARS] = std::array::from_fn(|_| BTreeMap::new());

        for r in &store.records {
            let y = r.snapshot.index();
            let mut kmask = 0u32;
            for &k in &r.kinds {
                kmask |= 1 << kind_bit(k);
                kind_ids[kind_bit(k)].insert(r.domain_id);
            }
            idx.found[y] += 1;
            found_ids.insert(r.domain_id);
            if r.violating() {
                violating_ids.insert(r.domain_id);
            }
            if !r.analyzed() {
                continue;
            }
            analyzed_ids.insert(r.domain_id);
            idx.analyzed[y] += 1;
            idx.pages[y] += r.pages_analyzed;
            if r.violating() {
                idx.violating[y] += 1;
                if !r.kinds_after_autofix.is_empty() {
                    idx.still_after_fix[y] += 1;
                }
            }
            if r.uses_math {
                idx.math[y] += 1;
            }
            for &k in &r.kinds {
                idx.kind_per_year[kind_bit(k)][y] += 1;
            }
            for (gi, &mask) in group_masks.iter().enumerate() {
                idx.group_per_year[gi][y] += usize::from(kmask & mask != 0);
            }
            for (si, &mask) in stage_masks.iter().enumerate() {
                idx.stage_per_year[si][y] += usize::from(kmask & mask != 0);
            }
            idx.script_in_attribute[y] += usize::from(r.mitigations.script_in_attribute);
            idx.script_in_nonced_script[y] += usize::from(r.mitigations.script_in_nonced_script);
            idx.newline_in_url[y] += usize::from(r.mitigations.newline_in_url);
            idx.newline_and_lt_in_url[y] += usize::from(r.mitigations.newline_and_lt_in_url);
            year_masks[y].insert(r.domain_id, kmask);
        }

        idx.found_ever = found_ids.len();
        idx.analyzed_ever = analyzed_ids.len();
        idx.violating_ever = violating_ids.intersection(&analyzed_ids).count();
        for (k, ids) in idx.kind_domains.iter_mut().zip(kind_ids.iter()) {
            *k = ids.len();
        }
        for w in Snapshot::ALL.windows(2) {
            let (a, b) = (w[0], w[1]);
            let mut added = 0usize;
            let mut removed = 0usize;
            for (domain, &kb) in &year_masks[b.index()] {
                let Some(&ka) = year_masks[a.index()].get(domain) else { continue };
                added += (kb & !ka).count_ones() as usize;
                removed += (ka & !kb).count_ones() as usize;
            }
            idx.churn.push(ChurnRow {
                from: a.crawl_id().to_owned(),
                to: b.crawl_id().to_owned(),
                added,
                removed,
            });
        }
        idx
    }

    /// Table 2: analyzed domains per crawl.
    pub fn table2(&self) -> Vec<Table2Row> {
        Snapshot::ALL
            .iter()
            .map(|&snap| {
                let y = snap.index();
                let analyzed = self.analyzed[y];
                Table2Row {
                    snapshot: snap.crawl_id().to_owned(),
                    domains_found: self.found[y],
                    domains_analyzed: analyzed,
                    analyzed_share: percent(analyzed, self.found[y]),
                    avg_pages: if analyzed > 0 {
                        self.pages[y] as f64 / analyzed as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// The Table-2 "Total (All Snaps.)" row: domains found / analyzed at
    /// least once.
    pub fn table2_total(&self) -> (usize, usize) {
        (self.found_ever, self.analyzed_ever)
    }

    /// Figure 8: overall distribution of violations, sorted descending
    /// (the paper's x-axis order).
    pub fn overall_distribution(&self) -> Vec<DistributionBar> {
        let mut bars: Vec<DistributionBar> = ViolationKind::ALL
            .iter()
            .map(|&kind| {
                let domains = self.kind_domains[kind_bit(kind)];
                DistributionBar { kind, domains, share: percent(domains, self.analyzed_ever) }
            })
            .collect();
        bars.sort_by(|a, b| b.domains.cmp(&a.domains).then(a.kind.cmp(&b.kind)));
        bars
    }

    /// §4.2: share of analyzed domains with ≥ 1 violation in any year.
    pub fn overall_violating_share(&self) -> f64 {
        percent(self.violating_ever, self.analyzed_ever)
    }

    /// Figure 9: share of analyzed domains with ≥ 1 violation, per year.
    pub fn violating_domains_by_year(&self) -> YearSeries {
        self.share_series(&self.violating)
    }

    /// Figure 10: per problem group, share of analyzed domains violating
    /// at least one check of the group, per year.
    pub fn group_trends(&self) -> BTreeMap<ProblemGroup, YearSeries> {
        ProblemGroup::ALL
            .iter()
            .enumerate()
            .map(|(gi, &g)| (g, self.share_series(&self.group_per_year[gi])))
            .collect()
    }

    /// Figures 16–21: share of analyzed domains violating one specific
    /// check, per year.
    pub fn kind_trend(&self, kind: ViolationKind) -> YearSeries {
        self.share_series(&self.kind_per_year[kind_bit(kind)])
    }

    /// §4.4: the auto-fix projection for one snapshot.
    pub fn autofix_projection(&self, snap: Snapshot) -> AutofixProjection {
        let y = snap.index();
        let (analyzed, violating, still) =
            (self.analyzed[y], self.violating[y], self.still_after_fix[y]);
        AutofixProjection {
            snapshot: snap.crawl_id().to_owned(),
            analyzed,
            violating,
            violating_after_fix: still,
            violating_share: percent(violating, analyzed),
            after_share: percent(still, analyzed),
            fixed_share: percent(violating - still, violating),
        }
    }

    /// §4.5: the mitigation-conflict series.
    pub fn mitigation_trends(&self) -> MitigationTrends {
        let mut out = MitigationTrends {
            script_in_attribute: [(0, 0.0); YEARS],
            script_in_nonced_script: [0; YEARS],
            newline_in_url: [(0, 0.0); YEARS],
            newline_and_lt_in_url: [(0, 0.0); YEARS],
        };
        for y in 0..YEARS {
            let analyzed = self.analyzed[y];
            out.script_in_attribute[y] =
                (self.script_in_attribute[y], percent(self.script_in_attribute[y], analyzed));
            out.script_in_nonced_script[y] = self.script_in_nonced_script[y];
            out.newline_in_url[y] =
                (self.newline_in_url[y], percent(self.newline_in_url[y], analyzed));
            out.newline_and_lt_in_url[y] =
                (self.newline_and_lt_in_url[y], percent(self.newline_and_lt_in_url[y], analyzed));
        }
        out
    }

    /// §5.3.2 rollout simulation: per enforcement stage, the share of
    /// analyzed domains per year with at least one page blocked.
    pub fn rollout_breakage(&self) -> Vec<(u8, YearSeries)> {
        (0..STAGES).map(|si| (si as u8, self.share_series(&self.stage_per_year[si]))).collect()
    }

    /// §4.2's usage aside: domains using `math` elements per year.
    pub fn math_usage_by_year(&self) -> [usize; YEARS] {
        self.math
    }

    /// Domains violating `kind` in `snap` (analyzed only).
    pub fn domains_with_kind_in_year(&self, kind: ViolationKind, snap: Snapshot) -> usize {
        self.kind_per_year[kind_bit(kind)][snap.index()]
    }

    /// §5.2's churn observation, quantified.
    pub fn violation_churn(&self) -> Vec<ChurnRow> {
        self.churn.clone()
    }

    fn share_series(&self, hits: &[usize; YEARS]) -> YearSeries {
        let mut out = [0.0; YEARS];
        for y in 0..YEARS {
            out[y] = percent(hits[y], self.analyzed[y]);
        }
        out
    }
}

/// A [`ResultStore`] with its [`AggregateIndex`] and load provenance —
/// the unit the report renderer, the server, and the CLI pass around so a
/// store is loaded and indexed exactly once per invocation.
///
/// Derefs to the store, so read-only record access (`store.scale`,
/// `store.records`, …) keeps working unchanged.
#[derive(Debug)]
pub struct IndexedStore {
    store: ResultStore,
    pub index: AggregateIndex,
    /// On-disk encoding, when the store came from a file.
    pub format: Option<StoreFormat>,
    /// Per-segment summaries (footers for v1 files, derived otherwise).
    pub segments: Vec<SegmentSummary>,
    /// Segments a partial load dropped (empty unless `allow_partial`).
    pub dropped: Vec<DroppedSegment>,
    /// The §5.1/§5.2 side studies, filled by the first [`IndexedStore::aux`].
    aux: OnceLock<AuxStudies>,
}

impl Deref for IndexedStore {
    type Target = ResultStore;

    fn deref(&self) -> &ResultStore {
        &self.store
    }
}

impl IndexedStore {
    /// Index an in-memory store (fresh scans; tests).
    pub fn new(store: ResultStore) -> Self {
        let index = AggregateIndex::build(&store);
        let segments = SegmentSummary::derive(&store);
        IndexedStore {
            store,
            index,
            format: None,
            segments,
            dropped: Vec::new(),
            aux: OnceLock::new(),
        }
    }

    /// Load (sniffing v0/v1) and index in one step, strictly.
    pub fn load(path: &Path) -> Result<Self, HvError> {
        Self::load_with(path, LoadOptions::default())
    }

    /// [`IndexedStore::load`] with load options (`allow_partial`).
    pub fn load_with(path: &Path, opts: LoadOptions) -> Result<Self, HvError> {
        ResultStore::load_with(path, opts).map(Self::from_loaded)
    }

    /// Index an already-loaded store, keeping its provenance.
    pub fn from_loaded(loaded: LoadedStore) -> Self {
        let index = AggregateIndex::build(&loaded.store);
        IndexedStore {
            store: loaded.store,
            index,
            format: Some(loaded.format),
            segments: loaded.segments,
            dropped: loaded.dropped,
            aux: OnceLock::new(),
        }
    }

    /// The §5.1/§5.2 side studies for this store, computed on first use —
    /// at most once per store, however many renders or server workers
    /// ask. §5.2's popular side reads the store's 2021 records; §5.1, the
    /// long tail and any popular domain the records lack come from the
    /// synthetic archive of the store's (seed, scale).
    pub fn aux(&self) -> &AuxStudies {
        self.aux.get_or_init(|| AuxStudies::run(&self.store))
    }

    /// The underlying store, for callers that need to mutate or persist.
    pub fn into_store(self) -> ResultStore {
        self.store
    }
}

fn percent(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DomainYearRecord;

    fn store_with(records: Vec<DomainYearRecord>) -> ResultStore {
        let mut s = ResultStore::new(1, 1.0, 100);
        s.records = records;
        s.finalize();
        s
    }

    fn rec(domain: u64, snap: usize, kinds: &[ViolationKind], analyzed: bool) -> DomainYearRecord {
        DomainYearRecord {
            domain_id: domain,
            domain_name: format!("d{domain}.com"),
            rank: domain as u32,
            snapshot: Snapshot::ALL[snap],
            pages_found: 10,
            pages_analyzed: if analyzed { 10 } else { 0 },
            kinds: kinds.iter().copied().collect(),
            page_counts: Default::default(),
            mitigations: Default::default(),
            kinds_after_autofix: kinds
                .iter()
                .copied()
                .filter(|k| k.fixability() == hv_core::Fixability::Manual)
                .collect(),
            uses_math: false,
            pages_faulted: 0,
            pages_degraded: 0,
            pages_quarantined: 0,
        }
    }

    /// The bitmask fold relies on `k as usize` matching the kind's
    /// position in `ViolationKind::ALL`.
    #[test]
    fn kind_discriminants_match_all_order() {
        for (i, &k) in ViolationKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} discriminant out of ALL order");
        }
        assert!(ViolationKind::ALL.len() <= 32, "kind bitmask must fit u32");
    }

    #[test]
    fn table2_counts_found_and_analyzed() {
        let s = store_with(vec![rec(1, 0, &[], true), rec(2, 0, &[], false), rec(1, 1, &[], true)]);
        let idx = AggregateIndex::build(&s);
        let rows = idx.table2();
        assert_eq!(rows[0].domains_found, 2);
        assert_eq!(rows[0].domains_analyzed, 1);
        assert!((rows[0].analyzed_share - 50.0).abs() < 1e-9);
        assert_eq!(rows[1].domains_found, 1);
        // Domain 2 was found but never successfully analyzed.
        assert_eq!(idx.table2_total(), (2, 1));
    }

    #[test]
    fn distribution_counts_domains_once() {
        let s = store_with(vec![
            rec(1, 0, &[ViolationKind::FB2], true),
            rec(1, 1, &[ViolationKind::FB2], true),
            rec(2, 0, &[], true),
        ]);
        let bars = AggregateIndex::build(&s).overall_distribution();
        let fb2 = bars.iter().find(|b| b.kind == ViolationKind::FB2).unwrap();
        assert_eq!(fb2.domains, 1);
        assert!((fb2.share - 50.0).abs() < 1e-9);
        // Sorted descending.
        assert!(bars.windows(2).all(|w| w[0].domains >= w[1].domains));
    }

    #[test]
    fn yearly_series_uses_analyzed_denominator() {
        let s = store_with(vec![
            rec(1, 0, &[ViolationKind::DM3], true),
            rec(2, 0, &[], true),
            rec(3, 0, &[ViolationKind::DM3], false), // not analyzed: excluded
        ]);
        let series = AggregateIndex::build(&s).violating_domains_by_year();
        assert!((series[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn group_trends_group_membership() {
        let s = store_with(vec![
            rec(1, 7, &[ViolationKind::FB1], true),
            rec(2, 7, &[ViolationKind::DE4], true),
            rec(3, 7, &[], true),
        ]);
        let g = AggregateIndex::build(&s).group_trends();
        assert!((g[&ProblemGroup::FilterBypass][7] - 33.33).abs() < 0.1);
        assert!((g[&ProblemGroup::DataExfiltration][7] - 33.33).abs() < 0.1);
        assert!((g[&ProblemGroup::HtmlFormatting][7] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn autofix_projection_math() {
        let s = store_with(vec![
            rec(1, 7, &[ViolationKind::FB2], true), // fully fixable
            rec(2, 7, &[ViolationKind::FB2, ViolationKind::HF4], true), // HF4 remains
            rec(3, 7, &[], true),
        ]);
        let p = AggregateIndex::build(&s).autofix_projection(Snapshot::ALL[7]);
        assert_eq!(p.analyzed, 3);
        assert_eq!(p.violating, 2);
        assert_eq!(p.violating_after_fix, 1);
        assert!((p.fixed_share - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rollout_breakage_grows_with_stage() {
        let s = store_with(vec![
            rec(1, 7, &[ViolationKind::FB2], true), // only blocked at stage 4
            rec(2, 7, &[ViolationKind::DE2], true), // blocked from stage 1
            rec(3, 7, &[], true),
        ]);
        let rollout = AggregateIndex::build(&s).rollout_breakage();
        assert_eq!(rollout.len(), 5);
        assert!((rollout[0].1[7] - 0.0).abs() < 1e-9, "stage 0 blocks nothing");
        assert!((rollout[1].1[7] - 33.33).abs() < 0.1, "stage 1 blocks the DE2 domain");
        assert!((rollout[4].1[7] - 66.67).abs() < 0.1, "stage 4 blocks all violating domains");
        // Monotone in stage.
        for w in rollout.windows(2) {
            assert!(w[1].1[7] >= w[0].1[7]);
        }
    }

    #[test]
    fn kind_trend_series() {
        let s = store_with(vec![
            rec(1, 0, &[ViolationKind::HF4], true),
            rec(1, 7, &[], true),
            rec(2, 7, &[ViolationKind::HF4], true),
            rec(3, 7, &[], true),
        ]);
        let t = AggregateIndex::build(&s).kind_trend(ViolationKind::HF4);
        assert!((t[0] - 100.0).abs() < 1e-9);
        assert!((t[7] - 33.33).abs() < 0.1);
    }

    #[test]
    fn indexed_store_derefs_and_derives_segments() {
        let s = store_with(vec![rec(1, 0, &[ViolationKind::FB2], true), rec(1, 3, &[], true)]);
        let indexed = IndexedStore::new(s);
        assert_eq!(indexed.scale, 1.0); // Deref into the store
        assert!(indexed.format.is_none());
        assert_eq!(indexed.segments.len(), 2);
        assert_eq!(indexed.segments[0].snapshot, Snapshot::ALL[0]);
        assert_eq!(indexed.segments[0].domains_violating, 1);
        assert_eq!(indexed.segments[1].domains_violating, 0);
        assert!(indexed.dropped.is_empty());
    }

    #[test]
    fn churn_counts_added_and_removed_pairs() {
        let mut s = ResultStore::new(1, 1.0, 10);
        // Domain 1: FB2 in 2015, FB2+DM3 in 2016 (one added).
        s.records.push(rec(1, 0, &[ViolationKind::FB2], true));
        s.records.push(rec(1, 1, &[ViolationKind::FB2, ViolationKind::DM3], true));
        // Domain 2: HF4 in 2015, clean in 2016 (one removed).
        s.records.push(rec(2, 0, &[ViolationKind::HF4], true));
        s.records.push(rec(2, 1, &[], true));
        s.finalize();
        let churn = AggregateIndex::build(&s).violation_churn();
        assert_eq!(churn.len(), 7);
        assert_eq!(churn[0].added, 1);
        assert_eq!(churn[0].removed, 1);
        assert_eq!(churn[1].added + churn[1].removed, 0);
    }
}
