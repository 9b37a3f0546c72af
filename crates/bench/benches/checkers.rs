//! Checker benchmarks: per-rule cost, the mitigation flags, and the §4.4
//! auto-fixer. Full-battery cost lives in `benches/battery.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use hv_core::checkers;
use hv_core::context::CheckContext;
use std::hint::black_box;

fn bench_individual_rules(c: &mut Criterion) {
    // Per-rule cost of the pre-fusion scans (the fused engine has no
    // isolated per-rule path; `reference::checkers::ALL` keeps the
    // per-rule series comparable across builds).
    let page = hv_bench::violating_page();
    let cx = CheckContext::new(&page);
    let mut g = c.benchmark_group("per_rule");
    for (kind, check) in hv_fuzz::reference::checkers::ALL {
        g.bench_function(kind.id(), |b| {
            b.iter(|| {
                let mut out = Vec::new();
                check(black_box(&cx), &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_mitigations(c: &mut Criterion) {
    let page = hv_bench::violating_page();
    let cx = CheckContext::new(&page);
    c.bench_function("mitigation_flags", |b| {
        b.iter(|| black_box(checkers::mitigation_flags(black_box(&cx))))
    });
}

fn bench_autofix(c: &mut Criterion) {
    let page = hv_bench::violating_page();
    c.bench_function("auto_fix_one_page", |b| {
        b.iter(|| black_box(hv_core::autofix::auto_fix(black_box(&page))).after.len())
    });
}

criterion_group!(benches, bench_individual_rules, bench_mitigations, bench_autofix);
criterion_main!(benches);
