//! Experiment regeneration benches — one per table and figure of the paper.
//!
//! Each bench regenerates the experiment's numbers from a pre-computed scan
//! (the scan itself is benchmarked in `pipeline.rs`) and, once per run,
//! prints the regenerated output so `cargo bench` doubles as a results
//! dump. The aggregation cost is what a researcher iterating on queries
//! would feel against the paper's Postgres. Queries read the one-pass
//! [`AggregateIndex`](hv_pipeline::AggregateIndex); `table2_legacy` keeps
//! the per-query record fold on the board as the before/after baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use hv_corpus::{Archive, CorpusConfig, Snapshot};
use hv_fuzz::reference::aggregate as legacy;
use hv_pipeline::auxstudies::AuxStudies;
use hv_pipeline::{scan, IndexedStore, ScanOptions};
use std::hint::black_box;
use std::sync::OnceLock;

fn store() -> &'static IndexedStore {
    static STORE: OnceLock<IndexedStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let archive = Archive::new(CorpusConfig { seed: 0x48_56_31, scale: 0.01 });
        IndexedStore::new(scan(&archive, ScanOptions::default()))
    })
}

fn bench_tables(c: &mut Criterion) {
    let store = store();
    let mut g = c.benchmark_group("experiments");

    // Table 1 (static taxonomy rendering).
    println!("\n{}", hv_report::experiments::table1());
    g.bench_function("table1", |b| b.iter(|| black_box(hv_report::experiments::table1()).len()));

    // Table 2 — from the index, and via the legacy per-query fold as the
    // baseline the index is measured against.
    println!("{}", hv_report::experiments::table2(store));
    g.bench_function("table2", |b| b.iter(|| black_box(store.index.table2()).len()));
    g.bench_function("table2_legacy", |b| {
        b.iter(|| black_box(legacy::table2(black_box(store))).len())
    });

    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let store = store();
    let mut g = c.benchmark_group("experiments");

    println!("{}", hv_report::experiments::fig8(store));
    g.bench_function("fig8_distribution", |b| {
        b.iter(|| black_box(store.index.overall_distribution()).len())
    });

    println!("{}", hv_report::experiments::fig9(store));
    g.bench_function("fig9_any_violation_trend", |b| {
        b.iter(|| black_box(store.index.violating_domains_by_year()))
    });

    println!("{}", hv_report::experiments::fig10(store));
    g.bench_function("fig10_group_trends", |b| {
        b.iter(|| black_box(store.index.group_trends()).len())
    });

    // Figures 16–21: per-kind trends, one bench each (they share the same
    // query; benched per figure to mirror the paper's artifact list).
    for (name, renderer) in [
        ("fig16_filter_bypass", hv_report::experiments::fig16 as fn(&IndexedStore) -> String),
        ("fig17_html_formatting_1", hv_report::experiments::fig17),
        ("fig18_html_formatting_2", hv_report::experiments::fig18),
        ("fig19_data_manipulation", hv_report::experiments::fig19),
        ("fig20_data_exfiltration_1", hv_report::experiments::fig20),
        ("fig21_data_exfiltration_2", hv_report::experiments::fig21),
    ] {
        println!("{}", renderer(store));
        g.bench_function(name, |b| b.iter(|| black_box(renderer(black_box(store))).len()));
    }
    g.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let store = store();
    let mut g = c.benchmark_group("experiments");

    println!("{}", hv_report::experiments::stats(store));
    g.bench_function("stats_4_2_union_share", |b| {
        b.iter(|| black_box(store.index.overall_violating_share()))
    });

    println!("{}", hv_report::experiments::autofix(store));
    g.bench_function("stats_4_4_autofix_projection", |b| {
        b.iter(|| black_box(store.index.autofix_projection(Snapshot::ALL[7])).fixed_share)
    });

    println!("{}", hv_report::experiments::mitigations(store));
    g.bench_function("stats_4_5_mitigations", |b| {
        b.iter(|| black_box(store.index.mitigation_trends()).newline_in_url[7])
    });

    g.bench_function("full_report_render", |b| {
        b.iter(|| black_box(hv_report::full_report(black_box(store))).len())
    });

    // The store keeps its side studies after the first render, so the
    // render above times them once at most; this bench runs them uncached.
    g.bench_function("aux_studies", |b| {
        b.iter(|| black_box(AuxStudies::run(store.seed, store.scale)).longtail.popular_domains)
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures, bench_statistics);
criterion_main!(benches);
