//! Parser throughput in MB/s over the synthetic workload profiles.
//!
//! Each profile isolates one tokenizer regime (see [`hv_bench::PROFILES`]):
//! `plain_text` is dominated by inert character runs (the batched
//! input-stream fast path's best case), `attribute_heavy` by the tag and
//! attribute state machinery, `entity_heavy` by character-reference
//! resolution, and `script_heavy` by raw script data. README's parser
//! section quotes the MiB/s this bench measured when atom interning landed;
//! `e2ebench/` tracks parse cost per page end to end.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// ~256 KiB per profile page: large enough that per-parse setup noise
/// vanishes, small enough that every profile fits the measure budget.
const PAGE_BYTES: usize = 256 * 1024;

fn bench_parse_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("parse_throughput");
    for &profile in hv_bench::PROFILES {
        let page = hv_bench::profile_page(profile, PAGE_BYTES);
        g.throughput(Throughput::Bytes(page.len() as u64));
        g.bench_function(profile, |b| {
            b.iter(|| {
                let out = spec_html::parse_document(black_box(&page));
                black_box((out.dom.len(), out.errors.len()))
            })
        });
    }
    g.finish();
}

fn bench_tokenize_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("tokenize_throughput");
    for &profile in hv_bench::PROFILES {
        let page = hv_bench::profile_page(profile, PAGE_BYTES);
        g.throughput(Throughput::Bytes(page.len() as u64));
        g.bench_function(profile, |b| {
            b.iter(|| {
                let (tokens, errors) = spec_html::tokenize(black_box(&page));
                black_box((tokens.len(), errors.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parse_throughput, bench_tokenize_throughput);
criterion_main!(benches);
