//! Chaos matrix: the scan engine under deterministic fault injection at
//! every combination of fault rate {0, 0.1, 0.5} and thread count {1, 4}.
//!
//! The invariants under test are the ones `hva chaos` enforces:
//! quarantine is a pure function of `(seed, page)` — never of scheduling —
//! so faulted stores are byte-identical across thread counts, and records
//! whose pages saw no faults are byte-identical to a zero-fault run.

use html_violations::hv_corpus::{Archive, CorpusConfig, FaultPlan, Snapshot};
use html_violations::hv_pipeline::{run, ErrorClass, IndexedStore, ResultStore};
use html_violations::hv_report;

const RATES: [f64; 3] = [0.0, 0.1, 0.5];
const THREADS: [usize; 2] = [1, 4];
const SEED: u64 = 9;

fn archive() -> Archive {
    Archive::new(CorpusConfig { seed: 41, scale: 0.002 })
}

fn scan_at(archive: &Archive, rate: f64, threads: usize) -> ResultStore {
    let mut opts = run::ScanOptions::new().threads(threads);
    if rate > 0.0 {
        opts = opts.inject_faults(FaultPlan::new(SEED, rate).unwrap());
    }
    run::scan_snapshots(archive, &[Snapshot::ALL[3], Snapshot::ALL[7]], opts)
}

#[test]
fn quarantine_is_identical_across_thread_counts_at_every_rate() {
    let archive = archive();
    for rate in RATES {
        let stores: Vec<ResultStore> =
            THREADS.iter().map(|&t| scan_at(&archive, rate, t)).collect();
        let jsons: Vec<String> = stores.iter().map(|s| serde_json::to_string(s).unwrap()).collect();
        for (i, json) in jsons.iter().enumerate().skip(1) {
            assert_eq!(
                json, &jsons[0],
                "rate {rate}: store at {} threads differs from {} threads",
                THREADS[i], THREADS[0]
            );
        }
        if rate == 0.0 {
            assert!(stores[0].quarantine.is_empty(), "no faults, no quarantine");
        } else {
            assert!(
                !stores[0].quarantine.is_empty(),
                "rate {rate} over two snapshots must quarantine at least one page"
            );
        }
    }
}

#[test]
fn clean_pages_match_the_zero_fault_run() {
    let archive = archive();
    let clean = scan_at(&archive, 0.0, 4);
    let clean_json: std::collections::BTreeMap<_, _> = clean
        .records
        .iter()
        .map(|r| ((r.snapshot, r.domain_id), serde_json::to_string(r).unwrap()))
        .collect();

    // Records hold up to 100 pages, so at the issue's 10%/50% rates almost
    // every record has at least one faulted page. A 0.5% rate rides along to
    // make the fault-free comparison provably non-vacuous.
    for rate in [0.1, 0.5, 0.005] {
        let faulted = scan_at(&archive, rate, 4);
        let mut compared = 0usize;
        for r in faulted.records.iter().filter(|r| r.pages_faulted == 0) {
            compared += 1;
            assert_eq!(
                clean_json.get(&(r.snapshot, r.domain_id)),
                Some(&serde_json::to_string(r).unwrap()),
                "rate {rate}: fault-free record {}@{:?} drifted from the clean run",
                r.domain_id,
                r.snapshot
            );
        }
        if rate < 0.1 {
            assert!(compared > 0, "rate {rate} left no record fully clean — shrink the rate");
        }
    }
}

#[test]
fn heavy_fault_rate_still_accounts_for_every_page() {
    let archive = archive();
    let store = scan_at(&archive, 0.5, 4);

    // Per-record accounting: listed = analyzed + utf8-rejected + quarantined.
    // Records don't track the utf8 count separately, so the bound is the
    // residual pages_found leaves for it.
    for r in &store.records {
        assert!(
            r.pages_analyzed + r.pages_quarantined <= r.pages_found,
            "record {}@{:?} leaks pages",
            r.domain_id,
            r.snapshot
        );
    }

    // The audit trail reconciles with the counters, is canonically sorted,
    // and contains no parser panics (containment is for real bugs, not
    // injected faults).
    let counted: usize = store.records.iter().map(|r| r.pages_quarantined).sum();
    assert_eq!(store.quarantine.len(), counted);
    let mut sorted = store.quarantine.clone();
    sorted.sort_by_key(|q| (q.snapshot, q.domain_id, q.page_index));
    assert_eq!(store.quarantine, sorted, "quarantine persists in canonical order");
    assert!(store.quarantine.iter().all(|q| q.class != ErrorClass::ParserPanic));
}

/// `hv_report::render("aux", …)` of a store scanned at seed 7, scale 0.002
/// with faults `9:0.9` (`hva scan --seed 7 --scale 0.002 --inject-faults
/// 9:0.9` renders the same text).
const FAULTED_AUX: &str = "\
Auxiliary studies (§5.1 / §5.2)

§5.1 dynamically loaded content (top 48 domains, 2021):
  fragments checked:          2179
  domains with ≥1 violation:  62.5%   (paper: \"more than 60%\")
  top fragment violations:    DM3 (17), FB2 (17), HF4 (9)
  math-related violations:    0   (paper: \"hardly appear\")

§5.2 less popular websites (48 per population, CC-MAIN-2021-04):
  violating share:   popular 66.7%  vs  long tail 74.0%
  kinds per domain:  popular 2.31  vs  long tail 2.05   (paper: popular sites violate more)
  HF5 (namespace):   popular 8.3%  vs  long tail 0.0%   (paper: complex SVGs on top sites)
";

/// §5.2's popular side reads a faulted store's own records: the kinds of
/// its quarantined pages are missing, so kinds per violating domain read
/// 2.31 where a clean scan reads 2.38, and every other line is the clean
/// scan's.
#[test]
fn faulted_store_side_studies_read_its_records() {
    let archive = Archive::new(CorpusConfig { seed: 7, scale: 0.002 });
    // The studies read only the 2021 records, so that snapshot suffices.
    let aux = |opts| {
        let store = run::scan_snapshots(&archive, &[Snapshot::ALL[6]], opts);
        hv_report::render("aux", &IndexedStore::new(store)).unwrap()
    };
    let faults = FaultPlan::new(SEED, 0.9).unwrap();
    assert_eq!(aux(run::ScanOptions::new().inject_faults(faults)), FAULTED_AUX);
    assert_eq!(aux(run::ScanOptions::new()), FAULTED_AUX.replace("popular 2.31", "popular 2.38"));
}
