//! ResultStore v2 integration: golden migration from the checked-in v0
//! fixture, v1 round-trip and oracle-equivalence properties, and the
//! single-byte corruption property.
//!
//! The fixture `tests/fixtures/store_v0.json` is a real scan output
//! (`hva scan --seed 2024 --scale 0.002`) frozen in the v0 JSON format.
//! Every store ever written must keep loading — and every experiment must
//! render byte-identically whether the store arrives as v0 JSON, as a
//! migrated v1 binary, or as a live in-memory index.

use html_violations::hv_core::{MitigationFlags, ViolationKind};
use html_violations::hv_corpus::Snapshot;
use html_violations::hv_fuzz::reference::aggregate as reference;
use html_violations::hv_pipeline::{
    AggregateIndex, DomainYearRecord, IndexedStore, LoadOptions, QuarantineEntry, ResultStore,
    ScanMetrics, StoreFormat,
};
use html_violations::hv_report;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const FIXTURE: &str = "tests/fixtures/store_v0.json";
/// `hv_report::render("aux", …)` of [`FIXTURE`] (seed 2024, scale 0.002).
const AUX_GOLDEN: &str = "tests/fixtures/report_aux_seed2024.txt";

/// A unique temp path per call, so proptest cases never collide.
fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hv-store-v2-{}-{tag}-{n}", std::process::id()))
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

#[test]
fn golden_migration_renders_every_experiment_byte_identical() {
    let v0 = IndexedStore::load(Path::new(FIXTURE)).unwrap();
    assert_eq!(v0.format, Some(StoreFormat::V0Json));
    assert!(!v0.records.is_empty(), "fixture must hold records");

    let v1_path = temp_path("migrated.hvs");
    v0.save_as(&v1_path, StoreFormat::V1Binary).unwrap();
    let v1 = IndexedStore::load(&v1_path).unwrap();
    assert_eq!(v1.format, Some(StoreFormat::V1Binary));

    // The v1 footers must carry exactly the summaries derived from v0.
    assert_eq!(json(&v0.segments), json(&v1.segments));

    // Live path: the same records indexed in memory, no file involved.
    let live = IndexedStore::new(ResultStore::load(Path::new(FIXTURE)).unwrap());

    for name in hv_report::EXPERIMENTS {
        let from_v0 = hv_report::render(name, &v0).unwrap();
        let from_v1 = hv_report::render(name, &v1).unwrap();
        let from_live = hv_report::render(name, &live).unwrap();
        assert_eq!(from_v0, from_v1, "{name}: v0 vs migrated v1 render diverged");
        assert_eq!(from_v0, from_live, "{name}: v0 vs live-index render diverged");
    }

    // The side studies are not read from the records, so the three-way
    // comparison above cannot catch a change to them: pin their text.
    let golden = std::fs::read_to_string(AUX_GOLDEN).unwrap();
    for (label, store) in [("v0", &v0), ("v1", &v1), ("live", &live)] {
        let aux = hv_report::render("aux", store).unwrap();
        assert_eq!(aux, golden, "{label}: aux render differs from {AUX_GOLDEN}");
    }
    std::fs::remove_file(&v1_path).ok();
}

#[test]
fn migration_to_v1_and_back_is_byte_lossless() {
    let store = ResultStore::load(Path::new(FIXTURE)).unwrap();
    let v1_path = temp_path("lossless.hvs");
    let back_path = temp_path("lossless.json");
    store.save_v1(&v1_path).unwrap();
    let reloaded = ResultStore::load(&v1_path).unwrap();
    reloaded.save(&back_path).unwrap();
    // v0 -> v1 -> v0 reproduces the original fixture file byte for byte.
    assert_eq!(
        std::fs::read(FIXTURE).unwrap(),
        std::fs::read(&back_path).unwrap(),
        "v0 -> v1 -> v0 must be the identity on the serialized store"
    );
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&back_path).ok();
}

#[test]
fn fixture_index_matches_legacy_oracle() {
    let store = ResultStore::load(Path::new(FIXTURE)).unwrap();
    let index = AggregateIndex::build(&store);
    assert_eq!(json(&index.table2()), json(&reference::table2(&store)));
    assert_eq!(index.table2_total(), reference::table2_total(&store));
    assert_eq!(json(&index.overall_distribution()), json(&reference::overall_distribution(&store)));
    assert_eq!(index.overall_violating_share(), reference::overall_violating_share(&store));
    assert_eq!(index.violating_domains_by_year(), reference::violating_domains_by_year(&store));
    assert_eq!(json(&index.violation_churn()), json(&reference::violation_churn(&store)));
}

fn kinds_from_bits(bits: u32) -> BTreeSet<ViolationKind> {
    ViolationKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .map(|(_, &k)| k)
        .collect()
}

/// Per-record raw material: (pages_found, unanalyzed, kind bits,
/// after-fix bits, uses_math, mitigation bits).
type RecSpec = (usize, usize, u32, u32, bool, u8);

fn build_record(domain: u64, snap: u8, spec: RecSpec) -> DomainYearRecord {
    let (pages_found, unanalyzed, kind_bits, after_bits, uses_math, mit) = spec;
    let kinds = kinds_from_bits(kind_bits);
    DomainYearRecord {
        domain_id: domain,
        domain_name: format!("d{domain}.example"),
        rank: domain as u32 + 1,
        snapshot: Snapshot(snap),
        pages_found,
        pages_analyzed: pages_found.saturating_sub(unanalyzed),
        page_counts: kinds.iter().map(|&k| (k, 1 + kind_bits % 3)).collect(),
        kinds,
        mitigations: MitigationFlags {
            script_in_attribute: mit & 1 != 0,
            script_in_nonced_script: mit & 2 != 0,
            newline_in_url: mit & 4 != 0,
            newline_and_lt_in_url: mit & 8 != 0,
        },
        kinds_after_autofix: kinds_from_bits(after_bits),
        uses_math,
        pages_faulted: 0,
        pages_degraded: 0,
        pages_quarantined: 0,
    }
}

fn arb_rec_spec() -> impl Strategy<Value = RecSpec> {
    // The vendored proptest supports tuples up to four wide; nest.
    ((0usize..40, 0usize..10), (any::<u32>(), any::<u32>()), (any::<bool>(), any::<u8>()))
        .prop_map(|((pf, un), (kb, ab), (math, mit))| (pf, un, kb, ab, math, mit))
}

/// One domain: a record in snapshot `s1` and, sometimes, a second record
/// in a distinct snapshot — so churn pairs are exercised. Unique
/// (domain, snapshot) pairs by construction.
fn arb_domain() -> impl Strategy<Value = Vec<(u8, RecSpec)>> {
    ((0u8..8, 1u8..8, any::<bool>()), arb_rec_spec(), arb_rec_spec()).prop_map(
        |((s1, delta, two), a, b)| {
            let mut v = vec![(s1, a)];
            if two {
                v.push(((s1 + delta) % 8, b));
            }
            v
        },
    )
}

fn arb_store() -> impl Strategy<Value = ResultStore> {
    (proptest::collection::vec(arb_domain(), 0..10), any::<bool>(), 1u64..1_000_000, 0usize..4)
        .prop_map(|(domains, with_metrics, seed, quarantined)| {
            let mut store = ResultStore::new(seed, 0.01, 500);
            for (d, recs) in domains.into_iter().enumerate() {
                for (snap, spec) in recs {
                    store.records.push(build_record(d as u64, snap, spec));
                }
            }
            store.metrics = with_metrics.then(ScanMetrics::default);
            for i in 0..quarantined {
                store.quarantine.push(QuarantineEntry {
                    domain_id: i as u64,
                    snapshot: Snapshot((i % 8) as u8),
                    page_index: i,
                    url: format!("https://d{i}.example/p{i}"),
                    class: html_violations::hv_pipeline::ErrorClass::TransientIo,
                });
            }
            store.finalize();
            store
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any store survives a v1 save -> load round trip unchanged.
    #[test]
    fn v1_roundtrip_preserves_any_store(store in arb_store()) {
        let path = temp_path("roundtrip.hvs");
        store.save_v1(&path).unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        prop_assert_eq!(json(&store), json(&loaded));
        std::fs::remove_file(&path).ok();
    }

    /// The one-pass index agrees with the legacy per-query folds on any
    /// store, for every table and figure.
    #[test]
    fn index_matches_legacy_oracle_on_any_store(store in arb_store()) {
        let index = AggregateIndex::build(&store);
        prop_assert_eq!(json(&index.table2()), json(&reference::table2(&store)));
        prop_assert_eq!(index.table2_total(), reference::table2_total(&store));
        prop_assert_eq!(
            json(&index.overall_distribution()),
            json(&reference::overall_distribution(&store))
        );
        prop_assert_eq!(
            index.overall_violating_share().to_bits(),
            reference::overall_violating_share(&store).to_bits()
        );
        prop_assert_eq!(
            index.violating_domains_by_year(),
            reference::violating_domains_by_year(&store)
        );
        prop_assert_eq!(json(&index.group_trends()), json(&reference::group_trends(&store)));
        for kind in ViolationKind::ALL {
            prop_assert_eq!(
                index.kind_trend(kind),
                reference::kind_trend(&store, kind),
                "kind_trend({})", kind.id()
            );
            for snap in Snapshot::ALL {
                prop_assert_eq!(
                    index.domains_with_kind_in_year(kind, snap),
                    reference::domains_with_kind_in_year(&store, kind, snap),
                    "domains_with_kind_in_year({}, {})", kind.id(), snap
                );
            }
        }
        for snap in Snapshot::ALL {
            prop_assert_eq!(
                json(&index.autofix_projection(snap)),
                json(&reference::autofix_projection(&store, snap))
            );
        }
        prop_assert_eq!(
            json(&index.mitigation_trends()),
            json(&reference::mitigation_trends(&store))
        );
        prop_assert_eq!(
            json(&index.rollout_breakage()),
            json(&reference::rollout_breakage(&store))
        );
        prop_assert_eq!(index.math_usage_by_year(), reference::math_usage_by_year(&store));
        prop_assert_eq!(
            json(&index.violation_churn()),
            json(&reference::violation_churn(&store))
        );
    }
}

/// A small v1 store with every block type present (segments, metrics,
/// quarantine), serialized once: the corruption property mutates it.
fn small_v1_bytes() -> &'static (Vec<u8>, String) {
    static BYTES: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut store = ResultStore::new(9, 0.25, 42);
        store.records.push(build_record(1, 0, (10, 0, 0b1, 0, false, 0)));
        store.records.push(build_record(2, 0, (10, 2, 0, 0, true, 5)));
        store.records.push(build_record(7, 5, (10, 0, 0b110, 0b10, false, 0)));
        store.metrics = Some(ScanMetrics::default());
        store.quarantine.push(QuarantineEntry {
            domain_id: 2,
            snapshot: Snapshot(0),
            page_index: 3,
            url: "https://d2.example/p3".into(),
            class: html_violations::hv_pipeline::ErrorClass::TransientIo,
        });
        store.finalize();
        let path = temp_path("mutation-base.hvs");
        store.save_v1(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (bytes, json(&store))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any single byte of a v1 store must be detected: the
    /// strict load fails, and the partial load either fails, drops the
    /// damaged piece, or yields a store that visibly differs — never a
    /// silent, identical success.
    #[test]
    fn single_byte_mutation_never_passes_silently(
        i in 0usize..small_v1_bytes().0.len(),
        xor in 1u16..256,
    ) {
        let xor = xor as u8;
        let (bytes, original_json) = small_v1_bytes();
        let mut mutated = bytes.clone();
        mutated[i] ^= xor;
        let path = temp_path("mutated.hvs");
        std::fs::write(&path, &mutated).unwrap();

        let strict = ResultStore::load(&path);
        prop_assert!(strict.is_err(), "byte {i} ^ {xor:#04x} accepted by strict load");

        match ResultStore::load_with(&path, LoadOptions { allow_partial: true }) {
            Err(_) => {} // header/framing damage: even partial gives up
            Ok(loaded) => prop_assert!(
                !loaded.dropped.is_empty() || &json(&loaded.store) != original_json,
                "byte {i} ^ {xor:#04x}: partial load reported nothing dropped \
                 and an identical store"
            ),
        }
        std::fs::remove_file(&path).ok();
    }
}
