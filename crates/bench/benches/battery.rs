//! The reused battery and the fused dispatch engine vs the pre-fusion
//! twenty-scan reference: the scan engine's hot path.
//!
//! `reused_battery` is what the page-granular engine does (one
//! [`Battery`] per worker, findings buffer recycled, report borrowed).
//!
//! The `fused_*` / `legacy_*` pairs compare the fused single-pass engine
//! against `hv_fuzz::reference::checkers` (each rule scanning the full
//! context on its own) on the same reused-buffer footing, across a
//! multi-finding page, a clean page, and a single-finding page. Results
//! are recorded in `BENCH_battery.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hv_bench::{sample_pages, total_bytes};
use hv_core::context::CheckContext;
use hv_core::{Battery, PageReport};
use hv_fuzz::reference::checkers as legacy;

fn bench_battery(c: &mut Criterion) {
    let pages = sample_pages(64);
    let contexts: Vec<CheckContext<'_>> = pages.iter().map(|p| CheckContext::new(p)).collect();

    let mut g = c.benchmark_group("battery");
    g.throughput(Throughput::Bytes(total_bytes(&pages)));

    g.bench_function("reused_battery", |b| {
        let mut battery = Battery::full();
        b.iter(|| {
            let mut findings = 0usize;
            for cx in &contexts {
                findings += battery.run_ref(black_box(cx)).findings.len();
            }
            black_box(findings)
        })
    });

    // Finding-heavy worst case: every page violates several kinds.
    let violating = hv_bench::violating_page();
    let vcx = CheckContext::new(&violating);
    g.bench_function("reused_battery_violating", |b| {
        let mut battery = Battery::full();
        b.iter(|| black_box(battery.run_ref(black_box(&vcx)).findings.len()))
    });

    // Fused engine vs the pre-fusion per-rule scans, both on reused
    // buffers so the delta is pure dispatch strategy. Four page shapes:
    // the small corpus violating page, a large dense multi-finding page
    // (the fusion's target), and large clean / single-finding pages (the
    // no-regression guards). The large fixtures (tens of KiB) are the
    // meaningful signal; the small one is sub-10µs and noise-prone.
    let dense = hv_bench::dense_violating_page(400);
    let dcx = CheckContext::new(&dense);
    let clean = hv_bench::dense_clean_page(800);
    let ccx = CheckContext::new(&clean);
    let single = hv_bench::single_finding_page(800);
    let scx = CheckContext::new(&single);
    for (name, cx) in
        [("violating", &vcx), ("dense_violating", &dcx), ("clean", &ccx), ("single_finding", &scx)]
    {
        g.bench_function(&format!("fused_{name}"), |b| {
            let mut battery = Battery::full();
            b.iter(|| black_box(battery.run_ref(black_box(cx)).findings.len()))
        });
        g.bench_function(&format!("legacy_{name}"), |b| {
            let mut report = PageReport::default();
            b.iter(|| {
                legacy::run_into(black_box(cx), &mut report);
                black_box(report.findings.len())
            })
        });
    }

    g.bench_function("instrumented_reused_battery", |b| {
        let mut battery = Battery::full();
        let mut stats = battery.new_stats();
        b.iter(|| {
            let mut findings = 0usize;
            for cx in &contexts {
                findings += battery.run_instrumented(black_box(cx), &mut stats).findings.len();
            }
            black_box(findings)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_battery);
criterion_main!(benches);
