//! Allocation-regression guard: parsing and analyzing the dense fixture
//! must stay under a recorded allocations-per-page ceiling.
//!
//! The ceilings are the post-atom-interning measurements plus ~15%
//! headroom; before interning, the same fixtures measured ~4-9x higher
//! (see BENCH_parse.json / BENCH_battery.json "allocs" entries). If a
//! change pushes allocs/page back above a ceiling, this test fails and
//! CI goes red — the point is to make allocation regressions as loud as
//! throughput regressions.
//!
//! Counts are exact: `hv_bench::alloc::CountingAlloc` counts per thread,
//! so the tests here, which `cargo test` runs on parallel threads, do not
//! count each other's allocations.

use hv_bench::alloc::count_allocations;
use hv_bench::{dense_violating_page, formatting_page, profile_page};

const DENSE_N: usize = 400;
const PROFILE_BYTES: usize = 256 * 1024;
const FORMATTING_BYTES: usize = 16_000;

/// Measure steady-state allocs for one full parse of `page` (DOM build
/// included). A warmup parse is discarded so one-time lazy init (atom
/// classification bitsets, entity tables) doesn't count against the page.
fn parse_allocs(page: &str) -> u64 {
    let _ = spec_html::parse_document(page);
    let (_, n) = count_allocations(|| spec_html::parse_document(page));
    n
}

/// Measure steady-state allocs for one fused battery run (parse + all 20
/// checks) with a reused Battery, as the scan engine runs it.
fn battery_allocs(page: &str) -> u64 {
    let mut battery = hv_core::Battery::full();
    let _ = battery.run_bytes(page.as_bytes());
    let (_, n) = count_allocations(|| {
        let _ = battery.run_bytes(page.as_bytes());
    });
    n
}

#[test]
fn dense_fixture_parse_allocs_within_ceiling() {
    let page = dense_violating_page(DENSE_N);
    let n = parse_allocs(&page);
    eprintln!("dense_violating({DENSE_N}): {n} allocs/parse");
    // Post-interning measurement: see BENCH_parse.json. Pre-interning this
    // fixture measured ~6x the ceiling.
    assert!(n <= DENSE_PARSE_CEILING, "dense parse allocs regressed: {n} > {DENSE_PARSE_CEILING}");
}

#[test]
fn dense_fixture_battery_allocs_within_ceiling() {
    let page = dense_violating_page(DENSE_N);
    let n = battery_allocs(&page);
    eprintln!("dense_violating({DENSE_N}): {n} allocs/battery-run");
    assert!(
        n <= DENSE_BATTERY_CEILING,
        "dense battery allocs regressed: {n} > {DENSE_BATTERY_CEILING}"
    );
}

#[test]
fn attribute_profiles_parse_allocs_within_ceiling() {
    for (profile, ceiling) in
        [("attribute_heavy", ATTR_HEAVY_CEILING), ("attribute_soup", ATTR_SOUP_CEILING)]
    {
        let page = profile_page(profile, PROFILE_BYTES);
        let n = parse_allocs(&page);
        eprintln!("{profile} ({PROFILE_BYTES} B): {n} allocs/parse");
        assert!(n <= ceiling, "{profile} parse allocs regressed: {n} > {ceiling}");
    }
}

/// The Θ(k²) formatting-reconstruction page (the end-to-end benchmark's
/// 2n member): re-created elements share their start tag's attribute
/// list, so the count tracks tokens, not the ~k²/2 elements built.
#[test]
fn formatting_page_parse_allocs_within_ceiling() {
    let page = formatting_page(FORMATTING_BYTES);
    let n = parse_allocs(&page);
    eprintln!("formatting ({FORMATTING_BYTES} B): {n} allocs/parse");
    assert!(
        n <= FORMATTING_PARSE_CEILING,
        "formatting parse allocs regressed: {n} > {FORMATTING_PARSE_CEILING}"
    );
}

// Recorded ceilings (post-atom-interning measurement + ~15% headroom).
const DENSE_PARSE_CEILING: u64 = 9_300; // measured 8,051 (was 53,274 pre-interning)
const DENSE_BATTERY_CEILING: u64 = 19_900; // measured 17,263 (was 75,287)
const ATTR_HEAVY_CEILING: u64 = 11_500; // measured 10,020 (was 103,196)
const ATTR_SOUP_CEILING: u64 = 16_300; // measured 14,206 (was 134,712)
const FORMATTING_PARSE_CEILING: u64 = 6_250; // measured 5,432 (was 801,095 unshared)
