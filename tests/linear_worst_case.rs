//! Worst-case cost per page stays linear.
//!
//! Markup that never closes its elements — the violations the paper
//! counts — keeps the stack of open elements deep. Any per-token walk of
//! that stack makes a page cost Θ(n²), which is how a 1 MB page once held
//! `hva check` for minutes. This test checks the whole per-page path
//! (`CheckContext::new`, i.e. tokenize and tree build, plus the full
//! battery) on each adversarial family at n and 2n bytes and requires
//! time(2n)/time(n) ≤ 2.5; linear cost gives about 2, quadratic about 4.
//!
//! The families run one after another inside one test, so parallel test
//! threads cannot disturb the timings. For each family, n starts at 32 KiB
//! and doubles until time(n) is at least 8 ms (below that, scheduler noise
//! swamps the ratio). The two sizes are timed alternately and each keeps
//! the minimum of 9 runs. A family over the bound is measured again, up to
//! five attempts in all: on a shared machine an attempt can catch a slow
//! spell, while a quadratic family misses the bound on every attempt
//! (ratio about 4).
//!
//! Left out on purpose: `<i class=cN><p>x` with a different N every time.
//! Each new paragraph must reconstruct every distinct formatting element
//! still open, so by the spec the page builds Θ(k²) elements for k units;
//! no parser can make it linear. Its battery scales with its start tags,
//! not its elements: no DOM rule reports at `i` or `p`, so the battery
//! skips the element walk on it.

use html_violations::hv_core::CheckContext;
use html_violations::prelude::*;
use std::time::Instant;

const HEAD: &str = "<!DOCTYPE html><html><head><title>x</title></head><body>";
const MAX_RATIO: f64 = 2.5;
const MIN_MS: f64 = 8.0;
const RUNS: usize = 9;
const ATTEMPTS: usize = 5;

/// How a family's page of a given size is built.
enum Shape {
    /// `lead` once, then `unit` until the page reaches the size.
    Repeat { lead: &'static str, unit: &'static str },
    /// `lead` once, `first` repeated up to half the page, then `then` over
    /// the rest: a deep stack, then tokens that each ask the stack a
    /// question.
    DeepThen { lead: &'static str, first: &'static str, then: &'static str },
    /// Units of `prefix`, the unit's number, then `suffix`, until the page
    /// reaches the size: each unit names something no unit before it did.
    Numbered { prefix: &'static str, suffix: &'static str },
}

struct Family {
    name: &'static str,
    shape: Shape,
    tail: &'static str,
}

const fn repeat(name: &'static str, lead: &'static str, unit: &'static str) -> Family {
    Family { name, shape: Shape::Repeat { lead, unit }, tail: "" }
}

const fn deep(name: &'static str, first: &'static str, then: &'static str) -> Family {
    Family { name, shape: Shape::DeepThen { lead: "", first, then }, tail: "" }
}

const fn numbered(name: &'static str, prefix: &'static str, suffix: &'static str) -> Family {
    Family { name, shape: Shape::Numbered { prefix, suffix }, tail: "" }
}

const FAMILIES: &[Family] = &[
    repeat("unclosed <div>", "", "<div>"),
    repeat("unclosed <ul>", "", "<ul>"),
    repeat("unclosed <b>", "", "<b>"),
    repeat("unclosed <b>x", "", "<b>x"),
    repeat("<p><button> then <div>s", "<p><button>", "<div>"),
    repeat("repeated <i class=c><p>x", "", "<i class=c><p>x"),
    deep("<div>s then <li></li>", "<div>", "<li></li>"),
    deep("<div>s then <dd></dd>", "<div>", "<dd></dd>"),
    deep("<div>s then <table></table>", "<div>", "<table></table>"),
    deep("<div>s then <select></select>", "<div>", "<select></select>"),
    deep("<div>s then <form></form>", "<div>", "<form></form>"),
    deep("<div>s then <b></b>", "<div>", "<b></b>"),
    deep("<div>s then <svg><p>", "<div>", "<svg><p>"),
    deep("<div>s then <meta http-equiv=x>", "<div>", "<meta http-equiv=x>"),
    // DM2.3 reads every element until the first URL-using one, then only
    // `base`s, each of which reports.
    repeat("alternating <a href=x><base>", "", "<a href=x><base>"),
    deep("<span>s then </x>", "<span>", "</x>"),
    deep("<span>s then </em>", "<span>", "</em>"),
    // Each stray end tag in foreign content searches the stack for a
    // foreign element of its name above the topmost HTML element.
    Family {
        name: "<svg> then <g>s then </x>",
        shape: Shape::DeepThen { lead: "<svg>", first: "<g>", then: "</x>" },
        tail: "",
    },
    // Each tag merges one new attribute into the html or body element.
    numbered("<html aN=1> merges", "<html a", "=1>"),
    numbered("<body aN=1> merges", "<body a", "=1>"),
    // Guards: linear before the stack index, and must stay so.
    repeat("foster-parented tables", "", "<table><div>"),
    Family {
        name: "duplicate attributes",
        shape: Shape::Repeat { lead: "<div", unit: " a=1" },
        tail: ">",
    },
];

impl Family {
    fn page(&self, bytes: usize) -> String {
        let mut s = String::with_capacity(bytes + 64);
        s.push_str(HEAD);
        match self.shape {
            Shape::Repeat { lead, unit } => {
                s.push_str(lead);
                while s.len() < bytes {
                    s.push_str(unit);
                }
            }
            Shape::DeepThen { lead, first, then } => {
                s.push_str(lead);
                while s.len() < bytes / 2 {
                    s.push_str(first);
                }
                while s.len() < bytes {
                    s.push_str(then);
                }
            }
            Shape::Numbered { prefix, suffix } => {
                for i in 0.. {
                    if s.len() >= bytes {
                        break;
                    }
                    s.push_str(&format!("{prefix}{i}{suffix}"));
                }
            }
        }
        s.push_str(self.tail);
        s
    }
}

/// Milliseconds for one page through context and battery (the drop of the
/// parse is not timed).
fn check_ms(battery: &mut Battery, page: &str) -> f64 {
    let start = Instant::now();
    let cx = CheckContext::new(page);
    let report = battery.run_ref(&cx);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(std::hint::black_box((report, cx)));
    ms
}

#[test]
fn per_page_cost_is_linear_on_adversarial_families() {
    let mut battery = Battery::full();
    let mut failures = Vec::new();
    for family in FAMILIES {
        let mut n = 32 << 10;
        let (small, large) = loop {
            let (small, large) = (family.page(n), family.page(2 * n));
            let probe = (0..3).map(|_| check_ms(&mut battery, &small)).fold(f64::MAX, f64::min);
            if probe >= MIN_MS || n >= 4 << 20 {
                break (small, large);
            }
            n *= 2;
        };
        let mut ratio = f64::MAX;
        for _ in 0..ATTEMPTS {
            let (mut t_n, mut t_2n) = (f64::MAX, f64::MAX);
            for _ in 0..RUNS {
                t_n = t_n.min(check_ms(&mut battery, &small));
                t_2n = t_2n.min(check_ms(&mut battery, &large));
            }
            ratio = t_2n / t_n;
            eprintln!(
                "{:36} n = {:>5} KiB  t(n) = {t_n:8.2} ms  t(2n) = {t_2n:8.2} ms  ratio {ratio:.2}",
                family.name,
                n >> 10
            );
            if ratio <= MAX_RATIO {
                break;
            }
        }
        if ratio > MAX_RATIO {
            failures.push(format!("{}: ratio {ratio:.2} at n = {} KiB", family.name, n >> 10));
        }
    }
    assert!(failures.is_empty(), "super-linear families (ratio > {MAX_RATIO}): {failures:#?}");
}
