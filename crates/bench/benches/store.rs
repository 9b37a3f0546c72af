//! Store-layer benches: load cost per on-disk format, the one-pass
//! aggregate index build, and per-query latency with and without the
//! index.
//!
//! Together these back DESIGN §12's numbers: the v1 binary store should
//! load no slower than the v0 JSON blob it replaces, and index-backed
//! queries should beat the legacy per-query record folds by orders of
//! magnitude (each legacy query walks every record; the index walks them
//! once at build time).

use criterion::{criterion_group, criterion_main, Criterion};
use hv_corpus::{Archive, CorpusConfig};
use hv_fuzz::reference::aggregate as legacy;
use hv_pipeline::{scan, AggregateIndex, IndexedStore, ResultStore, ScanOptions};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The scanned store plus both on-disk encodings of it, written once.
struct Fixture {
    store: ResultStore,
    v0: PathBuf,
    v1: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let archive = Archive::new(CorpusConfig { seed: 0x48_56_31, scale: 0.01 });
        let store = scan(&archive, ScanOptions::default());
        let dir = std::env::temp_dir();
        let v0 = dir.join(format!("hv-bench-store-{}.json", std::process::id()));
        let v1 = dir.join(format!("hv-bench-store-{}.hvs", std::process::id()));
        store.save(&v0).expect("writing v0 fixture");
        store.save_v1(&v1).expect("writing v1 fixture");
        Fixture { store, v0, v1 }
    })
}

fn bench_load(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("store");
    g.bench_function("load_v0_json", |b| {
        b.iter(|| black_box(ResultStore::load(black_box(&f.v0)).unwrap()).records.len())
    });
    g.bench_function("load_v1_binary", |b| {
        b.iter(|| black_box(ResultStore::load(black_box(&f.v1)).unwrap()).records.len())
    });
    // What `hva serve`/`hva report` actually pay at startup: load + index.
    g.bench_function("load_v1_indexed", |b| {
        b.iter(|| black_box(IndexedStore::load(black_box(&f.v1)).unwrap()).index.table2_total())
    });
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("store");
    g.bench_function("index_build", |b| {
        b.iter(|| black_box(AggregateIndex::build(black_box(&f.store))).table2_total())
    });
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let f = fixture();
    let indexed = IndexedStore::new(f.store.clone());
    let mut g = c.benchmark_group("store");
    // The cheapest and the most expensive queries, indexed vs legacy fold.
    g.bench_function("query_violating_by_year_index", |b| {
        b.iter(|| black_box(indexed.index.violating_domains_by_year()))
    });
    g.bench_function("query_violating_by_year_legacy", |b| {
        b.iter(|| black_box(legacy::violating_domains_by_year(black_box(&f.store))))
    });
    g.bench_function("query_churn_index", |b| {
        b.iter(|| black_box(indexed.index.violation_churn()).len())
    });
    g.bench_function("query_churn_legacy", |b| {
        b.iter(|| black_box(legacy::violation_churn(black_box(&f.store))).len())
    });
    g.finish();
}

criterion_group!(benches, bench_load, bench_index, bench_queries);
criterion_main!(benches);
