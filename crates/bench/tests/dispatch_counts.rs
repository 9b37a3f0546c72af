//! Dispatch-count guard for the battery's element pass.
//!
//! The pass hands each DOM rule (DM1, DM2.1–DM2.3, HF5.1) only the
//! elements named as it reports, and skips a page whose start tags name
//! none of them. Counts are exact, so the guard pins them: the Θ(k²)
//! formatting page of the end-to-end benchmark (`<i class=cN><p>x`, 16 KB,
//! 399,174 elements) makes no element dispatch, where handing every
//! element to every DOM rule made five per element, about 2.0 M.

use hv_bench::{formatting_page, sample_pages};
use hv_core::{Battery, BatteryStats, CheckContext, ViolationKind};

const DOM_RULES: [ViolationKind; 5] = [
    ViolationKind::DM1,
    ViolationKind::DM2_1,
    ViolationKind::DM2_2,
    ViolationKind::DM2_3,
    ViolationKind::HF5_1,
];

/// Element dispatches to the DOM rules over `pages` runs: their handler
/// calls less DM2.2's one finish call per page.
fn element_dispatches(stats: &BatteryStats, pages: u64) -> u64 {
    let calls: u64 =
        DOM_RULES.iter().map(|&k| stats.get(k).expect("full battery").dispatches).sum();
    calls - pages
}

#[test]
fn formatting_page_makes_no_element_dispatches() {
    let page = formatting_page(16_000);
    let mut battery = Battery::full();
    let mut stats = battery.new_stats();
    let cx = CheckContext::new(&page);
    battery.run_instrumented(&cx, &mut stats);
    let elements = cx.parse.dom.all_elements().count();
    eprintln!(
        "formatting (16000 B): {elements} elements, {} element dispatches",
        element_dispatches(&stats, 1)
    );
    assert!(elements > 300_000, "the page builds its Θ(k²) elements: {elements}");
    assert_eq!(element_dispatches(&stats, 1), 0);
}

/// Typical pages keep the walk (they carry `<meta>`), but each element
/// goes only to the rules that report at its name.
#[test]
fn typical_pages_dispatch_within_ceiling() {
    let pages = sample_pages(64);
    let mut battery = Battery::full();
    let mut stats = battery.new_stats();
    let mut elements = 0;
    for page in &pages {
        let cx = CheckContext::new(page);
        elements += cx.parse.dom.all_elements().count() as u64;
        battery.run_instrumented(&cx, &mut stats);
    }
    let dispatches = element_dispatches(&stats, pages.len() as u64);
    let per_page = |n: u64| n as f64 / pages.len() as f64;
    eprintln!(
        "typical (64 sample pages): {:.1} elements, {:.1} element dispatches per page \
         ({dispatches} for {elements} elements in all)",
        per_page(elements),
        per_page(dispatches)
    );
    assert!(
        dispatches <= TYPICAL_DISPATCH_CEILING,
        "typical element dispatches regressed: {dispatches} > {TYPICAL_DISPATCH_CEILING}"
    );
}

// Ceiling = measurement + 15%, over the 64 sample pages; the 2,666
// elements made 13,330 dispatches when every element went to all five
// DOM rules.
const TYPICAL_DISPATCH_CEILING: u64 = 222; // measured 193
