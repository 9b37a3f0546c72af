//! Allocation-regression guard: parsing and analyzing the fixtures and a
//! sample of typical pages must stay under recorded allocations-per-page
//! ceilings.
//!
//! The ceilings are the current measurements plus ~15% headroom; before
//! atom interning, one parse of the dense fixture made 53,274
//! allocations. If a
//! change pushes allocs/page back above a ceiling, this test fails and
//! CI goes red — the point is to make allocation regressions as loud as
//! throughput regressions.
//!
//! Counts are exact: `hv_bench::alloc::CountingAlloc` counts per thread,
//! so the tests here, which `cargo test` runs on parallel threads, do not
//! count each other's allocations.

use hv_bench::alloc::count_allocations;
use hv_bench::{dense_violating_page, formatting_page, profile_page, sample_pages};
use hv_core::CheckContext;

const DENSE_N: usize = 400;
const TYPICAL_PAGES: usize = 64;
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
/// 2n member): a re-created copy is one node sharing its start tag's
/// payload and attribute range, so the count tracks tokens, not the ~k²/2
/// elements built.
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

/// Typical archive pages, about 2 KB each: the mean allocations of one
/// `CheckContext::new` (tokenize, tree build, kept start tags) and of one
/// battery run over it, counted as the end-to-end benchmark's traced run
/// counts `parse.allocs_per_page` and `battery.allocs_per_page`.
#[test]
fn typical_pages_allocs_within_ceiling() {
    let pages = sample_pages(TYPICAL_PAGES);
    let mut battery = hv_core::Battery::full();
    for page in &pages {
        battery.run_ref(&CheckContext::new(page));
    }
    let (mut parse, mut check) = (0, 0);
    for page in &pages {
        let (cx, n) = count_allocations(|| CheckContext::new(page));
        parse += n;
        check += count_allocations(|| battery.run_ref(&cx).kinds().len()).1;
    }
    let per_page = |n: u64| n as f64 / TYPICAL_PAGES as f64;
    let (parse, check) = (per_page(parse), per_page(check));
    eprintln!("typical ({TYPICAL_PAGES} sample pages): {parse:.1} allocs/parse, {check:.1} allocs/battery-run");
    assert!(
        parse <= TYPICAL_PARSE_CEILING,
        "typical parse allocs regressed: {parse:.1} > {TYPICAL_PARSE_CEILING}"
    );
    assert!(
        check <= TYPICAL_BATTERY_CEILING,
        "typical battery allocs regressed: {check:.1} > {TYPICAL_BATTERY_CEILING}"
    );
}

// Recorded ceilings: the measurement + ~15% headroom. Every parse here
// follows a warm-up parse on the same thread, so it reuses the thread's
// spare parse buffers; "shared" counts are from before each document kept
// its attributes in one recycled arena (one shared list per start tag),
// "unrecycled" ones from before that store, "copied" ones from before text
// runs and attribute lists moved into the DOM uncopied, "doctype" ones
// from before the DOCTYPE name was lexed in the tokenizer's scratch,
// "named" ones from before tree events named tags by atom and the
// formatting list and end-tag buffer were recycled. Every count read the
// same again with 28-byte nodes and out-of-line payloads.
const DENSE_PARSE_CEILING: u64 = 1_550; // measured 1,348 (2,150 named, 4,175 shared, 4,457 unrecycled, 7,657 copied, 53,274 pre-interning)
const DENSE_BATTERY_CEILING: u64 = 6_150; // measured 5,349 (6,151 named, 8,186 shared, 8,468 unrecycled, 16,869 copied, 75,287 pre-interning)
const ATTR_HEAVY_CEILING: u64 = 2_280; // measured 1,979 (4,193 shared, 4,481 unrecycled, 8,918 copied, 103,196 pre-interning)
const ATTR_SOUP_CEILING: u64 = 3_490; // measured 3,029 (6,304 shared, 6,590 unrecycled, 13,124 copied, 134,712 pre-interning)
const FORMATTING_PARSE_CEILING: u64 = 770; // measured 666 (1,568 named, 3,367 shared, 3,648 unrecycled, 5,432 copied, 801,095 unshared)
const TYPICAL_PARSE_CEILING: f64 = 19.4; // measured 16.9 (22.0 named, 23.0 doctype, 62.0 shared, 132.8 unrecycled, 238.9 copied)
const TYPICAL_BATTERY_CEILING: f64 = 7.0; // measured 6.1 (46.7 lowercasing values)
