//! The paper's two side analyses, run end to end.
//!
//! * [`dynamic_study`] — §5.1: check the dynamically loaded fragments of
//!   the top-K domains in the 2021 snapshot (the paper used the top 1K in
//!   July 2021).
//! * [`longtail_study`] — §5.2: compare a random long-tail sample against
//!   the popular universe on violation prevalence and per-domain counts.
//!   Both populations are scanned by the one scan engine ([`crate::run`]).
//! * [`AuxStudies::run`] — both, sized to a store's (seed, scale) universe;
//!   [`IndexedStore::aux`](crate::IndexedStore::aux) runs it at most once
//!   per store.

use crate::format::StoreHeader;
use crate::outcome::ErrorClass;
use crate::run::{scan_snapshots, Listing, PageSource, ScanOptions, Slot};
use hv_core::{Battery, ViolationKind};
use hv_corpus::auxstudies::{dynamic_fragments, longtail_snapshot};
use hv_corpus::htmlgen::page_url;
use hv_corpus::{Archive, CorpusConfig, DomainSnapshot, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Both side studies for one (seed, scale) universe — what `hva report aux`
/// renders.
#[derive(Debug, Clone)]
pub struct AuxStudies {
    pub dynamic: DynamicStudy,
    pub longtail: LongtailStudy,
}

impl AuxStudies {
    /// Rebuild the synthetic archive for (seed, scale) and run both
    /// studies: §5.1 over the top domains/20 (clamped to 50..=1000), 30
    /// pages each; §5.2 over domains/10 (clamped to 50..=500) per
    /// population in the 2021 snapshot.
    pub fn run(seed: u64, scale: f64) -> Self {
        let archive = Archive::new(CorpusConfig { seed, scale });
        let top_k = (archive.domains().len() / 20).clamp(50, 1000);
        let sample = (archive.domains().len() / 10).clamp(50, 500);
        AuxStudies {
            dynamic: dynamic_study(&archive, top_k, 30),
            longtail: longtail_study(&archive, sample, Snapshot::ALL[6]),
        }
    }
}

/// §5.1 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicStudy {
    /// Domains examined (top-K with a 2021 snapshot).
    pub domains: usize,
    /// Fragments collected and checked.
    pub fragments: usize,
    /// Share of domains with ≥1 violating fragment (the paper: "more than
    /// 60%").
    pub violating_share: f64,
    /// Per-kind domain counts, descending (the paper: FB2/DM3 on top,
    /// math-related hardly appears).
    pub kind_counts: Vec<(ViolationKind, usize)>,
}

/// Run the §5.1 dynamic-content pre-study.
pub fn dynamic_study(archive: &Archive, top_k: usize, pages_per_domain: usize) -> DynamicStudy {
    let snap = Snapshot::from_year(2021).expect("2021 snapshot");
    let mut domains = 0usize;
    let mut fragments = 0usize;
    let mut violating = 0usize;
    let mut per_kind: BTreeMap<ViolationKind, usize> = BTreeMap::new();
    // One battery for the whole study; fragments are checked in `<div>`
    // context, like the paper's DOM-subtree extraction.
    let mut battery = Battery::full();
    for d in archive.domains().iter().take(top_k) {
        let Some(cdx) = archive.cdx_lookup(d, snap) else { continue };
        if !cdx.snapshot.utf8_ok {
            continue;
        }
        domains += 1;
        let mut domain_kinds: Vec<ViolationKind> = Vec::new();
        for page in 0..cdx.snapshot.page_count.min(pages_per_domain) {
            for frag in dynamic_fragments(archive.cfg.seed, &cdx.snapshot, page) {
                fragments += 1;
                let report = battery.run_fragment(&frag, "div");
                domain_kinds.extend(report.kinds());
            }
        }
        domain_kinds.sort_unstable();
        domain_kinds.dedup();
        if !domain_kinds.is_empty() {
            violating += 1;
        }
        for k in domain_kinds {
            *per_kind.entry(k).or_insert(0) += 1;
        }
    }
    let mut kind_counts: Vec<(ViolationKind, usize)> = per_kind.into_iter().collect();
    kind_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    DynamicStudy {
        domains,
        fragments,
        violating_share: if domains > 0 { 100.0 * violating as f64 / domains as f64 } else { 0.0 },
        kind_counts,
    }
}

/// §5.2 results: popular vs. long tail in one snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LongtailStudy {
    pub snapshot: String,
    pub popular_domains: usize,
    pub longtail_domains: usize,
    /// Share of domains with ≥1 violation.
    pub popular_violating_share: f64,
    pub longtail_violating_share: f64,
    /// Mean distinct violation kinds per violating domain.
    pub popular_kinds_per_domain: f64,
    pub longtail_kinds_per_domain: f64,
    /// Namespace-violation (HF5) shares — the complexity signature.
    pub popular_hf5_share: f64,
    pub longtail_hf5_share: f64,
}

/// Run the §5.2 long-tail comparison over `sample` domains per population:
/// the archive's top `sample` domains present in `snap` against the first
/// `sample` long-tail draws. Domains that fail the UTF-8 filter are left
/// out of both.
pub fn longtail_study(archive: &Archive, sample: usize, snap: Snapshot) -> LongtailStudy {
    let popular = archive
        .domains()
        .iter()
        .take(sample)
        .filter_map(|d| archive.model.domain_snapshot(d, snap))
        .filter(|ds| ds.utf8_ok)
        .collect();
    let tail = (0..sample as u64)
        .map(|i| longtail_snapshot(archive.cfg.seed, i, snap, &archive.model))
        .filter(|ds| ds.utf8_ok)
        .collect();
    let pop = Population { archive, members: popular }.scan(snap);
    let tail = Population { archive, members: tail }.scan(snap);
    LongtailStudy {
        snapshot: snap.crawl_id().to_owned(),
        popular_domains: pop.domains,
        longtail_domains: tail.domains,
        popular_violating_share: pop.violating_share(),
        longtail_violating_share: tail.violating_share(),
        popular_kinds_per_domain: pop.kinds_per_violating_domain(),
        longtail_kinds_per_domain: tail.kinds_per_violating_domain(),
        popular_hf5_share: pop.hf5_share(),
        longtail_hf5_share: tail.hf5_share(),
    }
}

/// One §5.2 population as a [`PageSource`]: each member (all of one
/// snapshot) is one slot with its first 100 pages, generated by
/// [`Archive::fetch_page`].
struct Population<'a> {
    archive: &'a Archive,
    members: Vec<DomainSnapshot>,
}

impl Population<'_> {
    /// Scan every member on the engine and fold its records' kinds.
    fn scan(&self, snap: Snapshot) -> PopulationStats {
        let store = scan_snapshots(self, &[snap], ScanOptions::new());
        let mut stats = PopulationStats::default();
        for record in &store.records {
            stats.add(&record.kinds);
        }
        stats
    }
}

impl PageSource for Population<'_> {
    type Locator = DomainSnapshot;

    fn header(&self) -> StoreHeader {
        let CorpusConfig { seed, scale } = self.archive.cfg;
        StoreHeader { seed, scale, universe: self.members.len() }
    }

    fn list(&self, _: Snapshot) -> Listing<DomainSnapshot> {
        let slots = self
            .members
            .iter()
            .map(|ds| Slot {
                domain_id: ds.domain_id,
                domain_name: ds.domain_name.clone(),
                rank: ds.rank,
                urls: (0..ds.page_count.min(100)).map(|i| page_url(&ds.domain_name, i)).collect(),
                locator: ds.clone(),
            })
            .collect();
        Listing { slots, quarantine: Vec::new() }
    }

    fn fetch(&self, ds: &DomainSnapshot, page: usize, _: usize) -> Result<Vec<u8>, ErrorClass> {
        Ok(self.archive.fetch_page(ds, page))
    }
}

#[derive(Default)]
struct PopulationStats {
    domains: usize,
    violating: usize,
    total_kinds: usize,
    hf5_domains: usize,
}

impl PopulationStats {
    fn add(&mut self, kinds: &BTreeSet<ViolationKind>) {
        self.domains += 1;
        if !kinds.is_empty() {
            self.violating += 1;
            self.total_kinds += kinds.len();
        }
        if kinds.iter().any(|k| {
            matches!(k, ViolationKind::HF5_1 | ViolationKind::HF5_2 | ViolationKind::HF5_3)
        }) {
            self.hf5_domains += 1;
        }
    }

    fn violating_share(&self) -> f64 {
        if self.domains == 0 {
            0.0
        } else {
            100.0 * self.violating as f64 / self.domains as f64
        }
    }

    fn kinds_per_violating_domain(&self) -> f64 {
        if self.violating == 0 {
            0.0
        } else {
            self.total_kinds as f64 / self.violating as f64
        }
    }

    fn hf5_share(&self) -> f64 {
        if self.domains == 0 {
            0.0
        } else {
            100.0 * self.hf5_domains as f64 / self.domains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_corpus::CorpusConfig;

    fn archive() -> Archive {
        Archive::new(CorpusConfig { seed: 0x48_56_31, scale: 0.01 })
    }

    /// The reference for [`longtail_study`]: the same populations checked
    /// page by page on one battery, outside the scan engine.
    fn longtail_study_reference(archive: &Archive, sample: usize, snap: Snapshot) -> LongtailStudy {
        let mut battery = Battery::full();
        // Popular side.
        let mut pop = PopulationStats::default();
        for d in archive.domains().iter().take(sample) {
            let Some(cdx) = archive.cdx_lookup(d, snap) else { continue };
            if !cdx.snapshot.utf8_ok {
                continue;
            }
            let kinds = distinct_kinds(archive, &mut battery, &cdx.snapshot);
            pop.add(&kinds);
        }
        // Long-tail side.
        let mut tail = PopulationStats::default();
        for i in 0..sample as u64 {
            let ds = longtail_snapshot(archive.cfg.seed, i, snap, &archive.model);
            if !ds.utf8_ok {
                continue;
            }
            let kinds = distinct_kinds(archive, &mut battery, &ds);
            tail.add(&kinds);
        }
        LongtailStudy {
            snapshot: snap.crawl_id().to_owned(),
            popular_domains: pop.domains,
            longtail_domains: tail.domains,
            popular_violating_share: pop.violating_share(),
            longtail_violating_share: tail.violating_share(),
            popular_kinds_per_domain: pop.kinds_per_violating_domain(),
            longtail_kinds_per_domain: tail.kinds_per_violating_domain(),
            popular_hf5_share: pop.hf5_share(),
            longtail_hf5_share: tail.hf5_share(),
        }
    }

    /// Scan all pages of one domain-snapshot and return the distinct kinds.
    fn distinct_kinds(
        archive: &Archive,
        battery: &mut Battery,
        ds: &DomainSnapshot,
    ) -> BTreeSet<ViolationKind> {
        let mut kinds = BTreeSet::new();
        for page in 0..ds.page_count.min(100) {
            let body = archive.fetch_page(ds, page);
            if let Ok(text) = std::str::from_utf8(&body) {
                kinds.extend(battery.run_str(text).kinds());
            }
        }
        kinds
    }

    /// The engine scan equals the reference loop. Scale 0.0 is the
    /// one-domain universe a WARC store's header rebuilds; at 0.01 (249
    /// domains) the sample really cuts the popular side. Seed 4740657 at
    /// 0.002 in ALL[6] has a non-UTF-8 popular domain, and seed 20221025
    /// at 0.002 in ALL[6] two non-UTF-8 long-tail domains, so the UTF-8
    /// filter is exercised on both sides.
    #[test]
    fn longtail_study_matches_the_reference_loop() {
        for seed in [4_740_657, 20_221_025, 2024] {
            for scale in [0.0, 0.002, 0.01] {
                let a = Archive::new(CorpusConfig { seed, scale });
                let sample = (a.domains().len() / 10).clamp(50, 500);
                for snap in [Snapshot::ALL[0], Snapshot::ALL[6]] {
                    assert_eq!(
                        longtail_study(&a, sample, snap),
                        longtail_study_reference(&a, sample, snap),
                        "seed {seed}, scale {scale}, {snap}"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_study_matches_section_5_1() {
        let a = archive();
        let study = dynamic_study(&a, 150, 40);
        assert!(study.domains > 100);
        assert!(study.fragments > 1000);
        // "more than 60% of the websites have at least one violation" —
        // allow a generous band at this sample size.
        assert!(
            (45.0..=85.0).contains(&study.violating_share),
            "violating share {:.1}%",
            study.violating_share
        );
        // FB2 / DM3 in top positions.
        let top2: Vec<ViolationKind> = study.kind_counts.iter().take(2).map(|(k, _)| *k).collect();
        assert!(top2.contains(&ViolationKind::FB2), "{:?}", study.kind_counts);
        assert!(top2.contains(&ViolationKind::DM3), "{:?}", study.kind_counts);
        // Math-related violations hardly appear.
        let hf5_3 = study
            .kind_counts
            .iter()
            .find(|(k, _)| *k == ViolationKind::HF5_3)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(hf5_3 <= 2);
        // No structural (head/body) kinds in fragments at all.
        for (k, _) in &study.kind_counts {
            assert!(hv_corpus::auxstudies::FRAGMENT_KINDS.contains(k), "{k} in fragments");
        }
    }

    #[test]
    fn longtail_study_matches_section_5_2() {
        let a = archive();
        let study = longtail_study(&a, 120, Snapshot::ALL[6]);
        assert!(study.popular_domains > 80);
        assert!(study.longtail_domains > 80);
        // Same general pattern: both populations mostly violate…
        assert!(study.longtail_violating_share > 40.0);
        // …but popular sites have more violations on average…
        assert!(
            study.popular_kinds_per_domain > study.longtail_kinds_per_domain,
            "popular {:.2} vs longtail {:.2}",
            study.popular_kinds_per_domain,
            study.longtail_kinds_per_domain
        );
        // …and the complex-SVG namespace issues concentrate on top sites.
        assert!(study.popular_hf5_share >= study.longtail_hf5_share);
    }
}
