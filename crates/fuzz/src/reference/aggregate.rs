//! The pre-index aggregation queries: each function re-scans the store
//! independently, exactly as the store did before the one-pass
//! [`AggregateIndex`](hv_pipeline::AggregateIndex). Kept verbatim as the
//! equivalence oracle for the index: the equivalence tests compare these
//! against the index views bit for bit, and the store and experiment
//! benches keep the per-query folds on the board as the baseline.

use hv_core::{ProblemGroup, ViolationKind};
use hv_corpus::snapshots::YEARS;
use hv_corpus::Snapshot;
use hv_pipeline::aggregate::{
    AutofixProjection, ChurnRow, DistributionBar, MitigationTrends, Table2Row, YearSeries,
};
use hv_pipeline::{DomainYearRecord, ResultStore};
use std::collections::{BTreeMap, BTreeSet};

/// Table 2: analyzed domains per crawl.
pub fn table2(store: &ResultStore) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for snap in Snapshot::ALL {
        let mut found = 0usize;
        let mut analyzed = 0usize;
        let mut pages = 0usize;
        for r in store.by_snapshot(snap) {
            found += 1;
            if r.analyzed() {
                analyzed += 1;
                pages += r.pages_analyzed;
            }
        }
        rows.push(Table2Row {
            snapshot: snap.crawl_id().to_owned(),
            domains_found: found,
            domains_analyzed: analyzed,
            analyzed_share: percent(analyzed, found),
            avg_pages: if analyzed > 0 { pages as f64 / analyzed as f64 } else { 0.0 },
        });
    }
    rows
}

/// The Table-2 "Total (All Snaps.)" row.
pub fn table2_total(store: &ResultStore) -> (usize, usize) {
    let found: BTreeSet<u64> = store.records.iter().map(|r| r.domain_id).collect();
    let analyzed = store.analyzed_domains();
    (found.len(), analyzed.len())
}

/// Figure 8: overall distribution, sorted descending.
pub fn overall_distribution(store: &ResultStore) -> Vec<DistributionBar> {
    let analyzed = store.analyzed_domains();
    let mut per_kind: BTreeMap<ViolationKind, BTreeSet<u64>> = BTreeMap::new();
    for r in &store.records {
        for &k in &r.kinds {
            per_kind.entry(k).or_default().insert(r.domain_id);
        }
    }
    let mut bars: Vec<DistributionBar> = ViolationKind::ALL
        .iter()
        .map(|&kind| {
            let domains = per_kind.get(&kind).map(|s| s.len()).unwrap_or(0);
            DistributionBar { kind, domains, share: percent(domains, analyzed.len()) }
        })
        .collect();
    bars.sort_by(|a, b| b.domains.cmp(&a.domains).then(a.kind.cmp(&b.kind)));
    bars
}

/// §4.2: share of analyzed domains with ≥ 1 violation in any year.
pub fn overall_violating_share(store: &ResultStore) -> f64 {
    let analyzed = store.analyzed_domains();
    let violating: BTreeSet<u64> =
        store.records.iter().filter(|r| r.violating()).map(|r| r.domain_id).collect();
    percent(violating.intersection(&analyzed).count(), analyzed.len())
}

/// Figure 9: share of analyzed domains with ≥ 1 violation, per year.
pub fn violating_domains_by_year(store: &ResultStore) -> YearSeries {
    per_year(store, |r| r.violating())
}

/// Figure 10: per-group yearly shares.
pub fn group_trends(store: &ResultStore) -> BTreeMap<ProblemGroup, YearSeries> {
    ProblemGroup::ALL
        .iter()
        .map(|&g| (g, per_year(store, move |r| r.kinds.iter().any(|k| k.group() == g))))
        .collect()
}

/// Figures 16–21: per-kind yearly shares.
pub fn kind_trend(store: &ResultStore, kind: ViolationKind) -> YearSeries {
    per_year(store, move |r| r.kinds.contains(&kind))
}

/// §4.4 auto-fix projection for one snapshot.
pub fn autofix_projection(store: &ResultStore, snap: Snapshot) -> AutofixProjection {
    let mut analyzed = 0usize;
    let mut violating = 0usize;
    let mut still = 0usize;
    for r in store.by_snapshot(snap) {
        if !r.analyzed() {
            continue;
        }
        analyzed += 1;
        if r.violating() {
            violating += 1;
            if !r.kinds_after_autofix.is_empty() {
                still += 1;
            }
        }
    }
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

/// §4.5 mitigation-conflict series.
pub fn mitigation_trends(store: &ResultStore) -> MitigationTrends {
    let mut out = MitigationTrends {
        script_in_attribute: [(0, 0.0); YEARS],
        script_in_nonced_script: [0; YEARS],
        newline_in_url: [(0, 0.0); YEARS],
        newline_and_lt_in_url: [(0, 0.0); YEARS],
    };
    for snap in Snapshot::ALL {
        let y = snap.index();
        let mut analyzed = 0usize;
        let (mut s, mut ns, mut nl, mut nllt) = (0usize, 0usize, 0usize, 0usize);
        for r in store.by_snapshot(snap).filter(|r| r.analyzed()) {
            analyzed += 1;
            s += usize::from(r.mitigations.script_in_attribute);
            ns += usize::from(r.mitigations.script_in_nonced_script);
            nl += usize::from(r.mitigations.newline_in_url);
            nllt += usize::from(r.mitigations.newline_and_lt_in_url);
        }
        out.script_in_attribute[y] = (s, percent(s, analyzed));
        out.script_in_nonced_script[y] = ns;
        out.newline_in_url[y] = (nl, percent(nl, analyzed));
        out.newline_and_lt_in_url[y] = (nllt, percent(nllt, analyzed));
    }
    out
}

/// §5.3.2 rollout simulation.
pub fn rollout_breakage(store: &ResultStore) -> Vec<(u8, YearSeries)> {
    (0..=4u8)
        .map(|stage| {
            let list = hv_core::strict::EnforcementList::stage(stage);
            let series = per_year(store, move |r| r.kinds.iter().any(|&k| list.contains(k)));
            (stage, series)
        })
        .collect()
}

/// §4.2's usage aside: `math`-using domains per year.
pub fn math_usage_by_year(store: &ResultStore) -> [usize; YEARS] {
    let mut out = [0usize; YEARS];
    for snap in Snapshot::ALL {
        out[snap.index()] = store.by_snapshot(snap).filter(|r| r.analyzed() && r.uses_math).count();
    }
    out
}

/// Domains violating `kind` in `snap` (analyzed only).
pub fn domains_with_kind_in_year(
    store: &ResultStore,
    kind: ViolationKind,
    snap: Snapshot,
) -> usize {
    store.by_snapshot(snap).filter(|r| r.analyzed() && r.kinds.contains(&kind)).count()
}

/// §5.2's churn observation, quantified.
pub fn violation_churn(store: &ResultStore) -> Vec<ChurnRow> {
    let mut out = Vec::new();
    for w in Snapshot::ALL.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut added = 0usize;
        let mut removed = 0usize;
        // Domains analyzed in both years.
        let in_a: BTreeMap<u64, &DomainYearRecord> =
            store.by_snapshot(a).filter(|r| r.analyzed()).map(|r| (r.domain_id, r)).collect();
        for rb in store.by_snapshot(b).filter(|r| r.analyzed()) {
            let Some(ra) = in_a.get(&rb.domain_id) else { continue };
            let ka: BTreeSet<_> = ra.kinds.iter().collect();
            let kb: BTreeSet<_> = rb.kinds.iter().collect();
            added += kb.difference(&ka).count();
            removed += ka.difference(&kb).count();
        }
        out.push(ChurnRow {
            from: a.crawl_id().to_owned(),
            to: b.crawl_id().to_owned(),
            added,
            removed,
        });
    }
    out
}

fn per_year(store: &ResultStore, pred: impl Fn(&DomainYearRecord) -> bool) -> YearSeries {
    let mut out = [0.0; YEARS];
    for snap in Snapshot::ALL {
        let mut analyzed = 0usize;
        let mut hits = 0usize;
        for r in store.by_snapshot(snap).filter(|r| r.analyzed()) {
            analyzed += 1;
            if pred(r) {
                hits += 1;
            }
        }
        out[snap.index()] = percent(hits, analyzed);
    }
    out
}

/// The same float math as the index's own helper, so the two agree to the
/// bit.
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
    use hv_pipeline::AggregateIndex;

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

    /// The index must agree with every reference query, bit for bit, on a
    /// store exercising every counter: non-analyzed records, multiple
    /// kinds, mitigations, math usage, autofix leftovers, churn in both
    /// directions. Serialized-JSON equality is float-bit equality.
    #[test]
    fn index_views_match_reference() {
        let mut records = vec![
            rec(1, 0, &[ViolationKind::FB2, ViolationKind::DM3], true),
            rec(1, 1, &[ViolationKind::FB2], true),
            rec(2, 0, &[ViolationKind::HF4], true),
            rec(2, 1, &[], true),
            rec(3, 0, &[ViolationKind::DE2], false), // found, never analyzed
            rec(4, 6, &[ViolationKind::DE1, ViolationKind::HF5_1], true),
            rec(4, 7, &[ViolationKind::DE1], true),
            rec(5, 7, &[], true),
        ];
        records[0].mitigations.script_in_attribute = true;
        records[0].mitigations.newline_in_url = true;
        records[5].mitigations.newline_and_lt_in_url = true;
        records[1].uses_math = true;
        records[6].uses_math = true;
        let s = store_with(records);
        let idx = AggregateIndex::build(&s);

        // Compare via serde_json strings: identical floats serialize
        // identically (and differing bits never collide under ryu).
        assert_eq!(
            serde_json::to_string(&idx.table2()).unwrap(),
            serde_json::to_string(&table2(&s)).unwrap()
        );
        assert_eq!(idx.table2_total(), table2_total(&s));
        assert_eq!(
            serde_json::to_string(&idx.overall_distribution()).unwrap(),
            serde_json::to_string(&overall_distribution(&s)).unwrap()
        );
        assert_eq!(idx.overall_violating_share().to_bits(), overall_violating_share(&s).to_bits());
        assert_eq!(idx.violating_domains_by_year(), violating_domains_by_year(&s));
        assert_eq!(idx.group_trends(), group_trends(&s));
        for &k in ViolationKind::ALL.iter() {
            assert_eq!(idx.kind_trend(k), kind_trend(&s, k), "kind_trend {k:?}");
            for snap in Snapshot::ALL {
                assert_eq!(
                    idx.domains_with_kind_in_year(k, snap),
                    domains_with_kind_in_year(&s, k, snap)
                );
            }
        }
        for snap in Snapshot::ALL {
            assert_eq!(
                serde_json::to_string(&idx.autofix_projection(snap)).unwrap(),
                serde_json::to_string(&autofix_projection(&s, snap)).unwrap()
            );
        }
        assert_eq!(
            serde_json::to_string(&idx.mitigation_trends()).unwrap(),
            serde_json::to_string(&mitigation_trends(&s)).unwrap()
        );
        assert_eq!(idx.rollout_breakage(), rollout_breakage(&s));
        assert_eq!(idx.math_usage_by_year(), math_usage_by_year(&s));
        assert_eq!(
            serde_json::to_string(&idx.violation_churn()).unwrap(),
            serde_json::to_string(&violation_churn(&s)).unwrap()
        );
    }
}
