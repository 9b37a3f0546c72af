//! Parser substrate benchmarks: tokenizer, tree construction, entity
//! decoding, serialization.
//!
//! Context for the numbers: the paper's Python framework analyzed "nearly a
//! thousand pages per minute" per IP (§3.3); these benches show the Rust
//! substrate's headroom.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn bench_tokenizer(c: &mut Criterion) {
    let pages = hv_bench::sample_pages(64);
    let bytes = hv_bench::total_bytes(&pages);
    let mut g = c.benchmark_group("tokenizer");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("tokenize_64_pages", |b| {
        b.iter(|| {
            for p in &pages {
                let (tokens, errors) = spec_html::tokenize(black_box(p));
                black_box((tokens.len(), errors.len()));
            }
        })
    });
    g.finish();
}

fn bench_tree_builder(c: &mut Criterion) {
    let pages = hv_bench::sample_pages(64);
    let bytes = hv_bench::total_bytes(&pages);
    let mut g = c.benchmark_group("tree_builder");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("parse_64_pages", |b| {
        b.iter(|| {
            for p in &pages {
                let out = spec_html::parse_document(black_box(p));
                black_box(out.dom.len());
            }
        })
    });
    g.finish();

    // Pathological inputs must stay linear-ish.
    let mut g = c.benchmark_group("parser_adversarial");
    let deep_tables = "<table>".repeat(60) + &"x".repeat(500);
    let misnested = "<b><i><u>".repeat(40) + "text" + &"</b></i></u>".repeat(40);
    let unterminated = format!("<textarea>{}", "swallowed content ".repeat(200));
    // Unclosed <div>s keep the stack of open elements deep: 64 KiB and
    // 128 KiB should cost 1x and 2x.
    let deep_64k = "<div>".repeat((64 << 10) / 5);
    let deep_128k = "<div>".repeat((128 << 10) / 5);
    // Distinct formatting elements re-created in every paragraph: Θ(k²)
    // elements by the spec, so 16k costs about 4x 8k. The end-to-end
    // benchmark's formatting pair, n and 2n.
    let formatting_8k = hv_bench::formatting_page(8_000);
    let formatting_16k = hv_bench::formatting_page(16_000);
    for (name, input) in [
        ("nested_tables", &deep_tables),
        ("misnested_formatting", &misnested),
        ("unterminated_textarea", &unterminated),
        ("deep_nesting_64k", &deep_64k),
        ("deep_nesting_128k", &deep_128k),
        ("formatting_8k", &formatting_8k),
        ("formatting_16k", &formatting_16k),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(spec_html::parse_document(black_box(input))).dom.len())
        });
    }
    g.finish();
}

fn bench_entities(c: &mut Criterion) {
    let dense = "&amp;&lt;&gt;&quot;&copy;&ndash;&#65;&#x1F600;x".repeat(64);
    let sparse = "plain text without any references at all, repeated ".repeat(64);
    let mut g = c.benchmark_group("entities");
    g.throughput(Throughput::Bytes(dense.len() as u64));
    g.bench_function("decode_dense", |b| {
        b.iter(|| black_box(spec_html::entities::decode_data(black_box(&dense))))
    });
    g.throughput(Throughput::Bytes(sparse.len() as u64));
    g.bench_function("decode_sparse", |b| {
        b.iter(|| black_box(spec_html::entities::decode_data(black_box(&sparse))))
    });
    g.finish();
}

fn bench_serializer(c: &mut Criterion) {
    let pages = hv_bench::sample_pages(32);
    let parses: Vec<_> = pages.iter().map(|p| spec_html::parse_document(p)).collect();
    let mut g = c.benchmark_group("serializer");
    g.bench_function("serialize_32_pages", |b| {
        b.iter(|| {
            for p in &parses {
                black_box(spec_html::serializer::serialize(black_box(&p.dom)).len());
            }
        })
    });
    // The §4.4 round trip: parse → serialize → parse.
    g.bench_function("fix_roundtrip_one_page", |b| {
        let page = hv_bench::violating_page();
        b.iter_batched(
            || page.clone(),
            |p| {
                let once = spec_html::serializer::serialize(&spec_html::parse_document(&p).dom);
                black_box(spec_html::parse_document(&once).dom.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_tokenizer, bench_tree_builder, bench_entities, bench_serializer);
criterion_main!(benches);
