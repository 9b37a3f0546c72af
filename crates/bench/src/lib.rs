//! Shared fixtures for the benchmark harness, plus the `loadgen` HTTP
//! client used to exercise `hva serve`.

pub mod alloc;
pub mod loadgen;

use hv_corpus::{Archive, CorpusConfig, DomainSnapshot, Snapshot};

/// Route every hv_bench binary (benches, tests, examples) through the
/// counting allocator so allocs/page is measurable anywhere in the harness.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A deterministic mid-size page corpus for parser/checker benches: a mix
/// of clean and violating pages straight from the calibrated generator.
pub fn sample_pages(n: usize) -> Vec<String> {
    let archive = Archive::new(CorpusConfig { seed: 0xBE7C, scale: 0.01 });
    let mut out = Vec::with_capacity(n);
    'outer: for d in archive.domains() {
        for snap in Snapshot::ALL {
            if let Some(cdx) = archive.cdx_lookup(d, snap) {
                if !cdx.snapshot.utf8_ok {
                    continue;
                }
                for e in cdx.pages.iter().take(4) {
                    let body = archive.fetch(e);
                    out.push(String::from_utf8(body.body.to_vec()).expect("utf8"));
                    if out.len() == n {
                        break 'outer;
                    }
                }
            }
        }
    }
    assert_eq!(out.len(), n, "corpus too small for requested sample");
    out
}

/// One representative violating page (several kinds at once).
pub fn violating_page() -> String {
    let archive = Archive::new(CorpusConfig { seed: 0xBE7C, scale: 0.01 });
    let ds = DomainSnapshot {
        domain_id: 1,
        domain_name: "bench.example".into(),
        rank: 1,
        snapshot: Snapshot::ALL[7],
        utf8_ok: true,
        page_count: 4,
        expressed: vec![
            hv_core::ViolationKind::FB2,
            hv_core::ViolationKind::DM3,
            hv_core::ViolationKind::HF1,
            hv_core::ViolationKind::HF4,
            hv_core::ViolationKind::DM1,
        ],
        benign_newline_url: true,
        uses_math: false,
        archetype: hv_corpus::Archetype::Shop,
    };
    let _ = &archive;
    hv_corpus::htmlgen::generate_page(0xBE7C, &ds, 0)
}

/// A large multi-finding page: `n` repeated fragments, each expressing
/// several violation kinds (FB2, FB1, DM3, HF4, …). Deterministic, so
/// fused-vs-legacy numbers describe the same bytes run to run. With `n = 400` the page is ~60 KiB with ~2000 findings —
/// large enough that dispatch strategy, not fixture noise, dominates.
pub fn dense_violating_page(n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::from("<!DOCTYPE html><html><head><title>t</title></head><body>");
    for i in 0..n {
        let _ = write!(
            out,
            "<div id=d{i}><img src=\"a{i}.png\"onerror=\"x()\"><p/ class=c>\
             <a href=\"u{i}\"title=t>link</a><img src=q alt=a alt=b>\
             <table><tr><b>ad</b></tr><tr><td>c{i}</td></tr></table></div>"
        );
    }
    out.push_str("</body></html>");
    out
}

/// A large page with zero findings: `n` well-formed rows. The fused
/// engine's no-regression guard — on clean pages the per-item dispatch
/// must not cost more than twenty independent full scans did.
pub fn dense_clean_page(n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "<!DOCTYPE html><html lang=en><head><meta charset=utf-8>\
         <title>t</title></head><body>",
    );
    for i in 0..n {
        let _ = write!(
            out,
            "<div id=d{i} class=\"row\"><p>paragraph {i}</p><a href=\"/p/{i}\">go</a></div>"
        );
    }
    out.push_str("</body></html>");
    out
}

/// A large otherwise-clean page with exactly one violation (FB2, a missing
/// space before an event-handler attribute) buried in the middle: the
/// sparse-findings no-regression guard.
pub fn single_finding_page(n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "<!DOCTYPE html><html lang=en><head><meta charset=utf-8>\
         <title>t</title></head><body>",
    );
    for i in 0..n {
        if i == n / 2 {
            out.push_str(r#"<img src="x.png"onerror="go()">"#);
        }
        let _ = write!(
            out,
            "<div id=d{i} class=\"row\"><p>paragraph {i}</p><a href=\"/p/{i}\">go</a></div>"
        );
    }
    out.push_str("</body></html>");
    out
}

/// A page of `<i class=cN><p>x` units, each N distinct, about `bytes` long:
/// the end-to-end benchmark's `formatting` family. Every paragraph must
/// re-create each formatting element still open, so k units build Θ(k²)
/// elements by the spec.
pub fn formatting_page(bytes: usize) -> String {
    use std::fmt::Write;
    let mut out = String::from("<!DOCTYPE html><html><head><title>x</title></head><body>");
    let mut i = 0usize;
    while out.len() < bytes {
        let _ = write!(out, "<i class=c{i}><p>x");
        i += 1;
    }
    out
}

/// Total bytes in a page sample (for throughput reporting).
pub fn total_bytes(pages: &[String]) -> u64 {
    pages.iter().map(|p| p.len() as u64).sum()
}

/// Workload profile names for the `parse_throughput` bench, in report order.
/// Each stresses a different tokenizer regime: long inert text runs (the
/// batch fast path's best case), dense tag/attribute machinery, dense
/// character references, raw script data, and messy real-world attribute
/// syntax (unquoted/single-quoted values, duplicates, missing spaces —
/// the slow paths the atom pipeline targets).
pub const PROFILES: &[&str] =
    &["plain_text", "attribute_heavy", "entity_heavy", "script_heavy", "attribute_soup"];

const WORDS: &[&str] = &[
    "violation",
    "specification",
    "longitudinal",
    "archive",
    "tokenizer",
    "document",
    "measure",
    "parser",
    "snapshot",
    "domain",
    "analysis",
    "framework",
    "content",
    "security",
    "attribute",
];

/// A deterministic synthetic page of roughly `target` bytes exercising one
/// workload profile. Pure function of its arguments — no RNG, so before and
/// after numbers describe the same bytes.
pub fn profile_page(profile: &str, target: usize) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(target + 256);
    out.push_str("<!DOCTYPE html><html><head><title>bench</title></head><body>\n");
    let mut i = 0usize;
    while out.len() < target {
        i += 1;
        match profile {
            "plain_text" => {
                out.push_str("<p>");
                for w in 0..40 {
                    out.push_str(WORDS[(i * 7 + w) % WORDS.len()]);
                    out.push(if w % 13 == 12 { ',' } else { ' ' });
                }
                out.push_str("</p>\n");
            }
            "attribute_heavy" => {
                let _ = writeln!(
                    out,
                    "<div id=\"s{i}\" class=\"row col item-{i}\" data-key=\"value-{i}\" \
                     data-rank=\"{i}\" title=\"section {i}\" role=\"region\" \
                     aria-label=\"row {i}\" style=\"margin:0;padding:{}px\">\
                     <a href=\"/page/{i}?a=1&amp;b=2\" rel=\"nofollow\" target=\"_blank\">x</a>\
                     </div>",
                    i % 16
                );
            }
            "entity_heavy" => {
                let _ = writeln!(
                    out,
                    "<p>&amp; &lt;tag&gt; &quot;q&quot; &copy; 2022 &ndash; {} \
                     &#65;&#x41;&#x1F600; fish &amp chips &hellip; &nbsp;&middot;&raquo;</p>",
                    WORDS[i % WORDS.len()]
                );
            }
            "script_heavy" => {
                out.push_str("<script>\n");
                for w in 0..12 {
                    let _ = writeln!(
                        out,
                        "  var {}_{i} = {{ index: {i}, label: '{} {w}', ok: {i} > {w} }};",
                        WORDS[w % WORDS.len()],
                        WORDS[(i + w) % WORDS.len()]
                    );
                }
                out.push_str("</script>\n");
            }
            "attribute_soup" => {
                // Deliberately sloppy markup: unquoted and single-quoted
                // values, duplicate attributes, missing inter-attribute
                // spaces, bare boolean attributes, uppercase names. This is
                // what archived pages actually look like, and it routes
                // through the AttributeName / unquoted-value states.
                let _ = writeln!(
                    out,
                    "<div ID=s{i} class=row data-key=value-{i} data-key=dup-{i} \
                     title='section {i}'role=region hidden DATA-RANK={i} \
                     style=margin:0 align=left><input type=text name=f{i} \
                     value=v{i} required><a href=/page/{i} target=_blank \
                     rel=nofollow>x</a></div>"
                );
            }
            other => panic!("unknown bench profile {other:?}"),
        }
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let pages = sample_pages(32);
        assert_eq!(pages.len(), 32);
        assert!(total_bytes(&pages) > 32 * 1000);
        let v = violating_page();
        assert!(hv_core::Battery::full().run_str(&v).has(hv_core::ViolationKind::FB2));
    }

    #[test]
    fn dense_fixtures_have_expected_finding_profiles() {
        let mut battery = hv_core::Battery::full();

        let dense = dense_violating_page(40);
        let report = battery.run_str(&dense);
        assert!(report.findings.len() >= 40, "dense page should find plenty");
        assert!(report.has(hv_core::ViolationKind::FB2));
        assert!(report.has(hv_core::ViolationKind::DM3));

        let clean = dense_clean_page(40);
        assert!(battery.run_str(&clean).findings.is_empty());

        let single = single_finding_page(40);
        let report = battery.run_str(&single);
        assert_eq!(report.findings.len(), 1);
        assert!(report.has(hv_core::ViolationKind::FB2));
    }
}
