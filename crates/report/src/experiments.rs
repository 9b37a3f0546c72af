//! Per-experiment regeneration: one function per table/figure/statistic the
//! paper reports, each printing measured values side by side with the
//! paper's published numbers (from `hv_corpus::calibration`, the single
//! source of truth).

use crate::series::{ascii_plot, series_row, year_header};
use crate::table::TextTable;
use hv_core::{ProblemGroup, ViolationKind};
use hv_corpus::calibration::{
    paper_yearly_pct, union_target, PAPER_ANY_VIOLATION_PCT, PAPER_AUTOFIX_2022,
    PAPER_NEWLINE_URL_PCT, PAPER_UNION_ANY_PCT,
};
use hv_corpus::snapshots::{Snapshot, TABLE2_TARGETS, YEARS};
use hv_pipeline::auxstudies::AuxStudies;
use hv_pipeline::IndexedStore;

/// Table 1: the violation list (static — the taxonomy itself).
pub fn table1() -> String {
    let mut t = TextTable::new(["Name", "Definition", "Group", "Category", "Fix"]);
    for kind in ViolationKind::ALL {
        t.row([
            kind.id().to_owned(),
            kind.definition().to_owned(),
            kind.group().code().to_owned(),
            match kind.category() {
                hv_core::ViolationCategory::DefinitionViolation => "definition".to_owned(),
                hv_core::ViolationCategory::ParsingError => "parsing-error".to_owned(),
            },
            match kind.fixability() {
                hv_core::Fixability::Automatic => "auto".to_owned(),
                hv_core::Fixability::Manual => "manual".to_owned(),
            },
        ]);
    }
    format!("Table 1: considered violations (20 checks, 14 families)\n\n{}", t.render())
}

/// Table 2: analyzed domains per crawl, measured vs. paper.
pub fn table2(store: &IndexedStore) -> String {
    let rows = store.index.table2();
    let scale = store.scale;
    let mut t = TextTable::new([
        "Snapshot",
        "Domains",
        "Succ. Analyzed",
        "Share",
        "Ø Pages",
        "paper:Domains",
        "paper:Share",
        "paper:Ø Pages",
    ]);
    for (row, target) in rows.iter().zip(TABLE2_TARGETS.iter()) {
        t.row([
            row.snapshot.clone(),
            format!("{}", row.domains_found),
            format!("{}", row.domains_analyzed),
            format!("{:.1}%", row.analyzed_share),
            format!("{:.1}", row.avg_pages),
            format!("{:.0}", target.domains as f64 * scale),
            format!("{:.1}%", target.success_rate * 100.0),
            format!("{:.1}", target.avg_pages),
        ]);
    }
    let (found, analyzed) = store.index.table2_total();
    let mut s = format!(
        "Table 2: analyzed domains per crawl (scale {scale}, universe {} domains)\n\n{}",
        store.universe,
        t.render()
    );
    s.push_str(&format!(
        "\nTotal: found ever {found} ({:.1}% of universe; paper 96.5%), analyzed ever {analyzed} ({:.1}%; paper 96.3%)\n",
        100.0 * found as f64 / store.universe as f64,
        100.0 * analyzed as f64 / store.universe as f64,
    ));
    s
}

/// Figure 8: overall distribution of violations across the whole study.
pub fn fig8(store: &IndexedStore) -> String {
    let bars = store.index.overall_distribution();
    let mut t = TextTable::new(["Violation", "Domains", "Share", "paper:Share"]);
    for b in &bars {
        t.row([
            b.kind.id().to_owned(),
            format!("{}", b.domains),
            format!("{:.2}%", b.share),
            format!("{:.2}%", union_target(b.kind) * 100.0),
        ]);
    }
    format!(
        "Figure 8: average distribution of violations over the entire study period\n\n{}",
        t.render()
    )
}

/// Figure 9: domains with at least one violation, per year.
pub fn fig9(store: &IndexedStore) -> String {
    let measured = store.index.violating_domains_by_year();
    let mut s = String::from("Figure 9: domains with at least one violation\n\n");
    s.push_str(&year_header(10));
    s.push_str(&series_row("measured", &measured, 10));
    s.push_str(&series_row("paper", &PAPER_ANY_VIOLATION_PCT, 10));
    s.push('\n');
    s.push_str(&ascii_plot(&[("measured", measured), ("paper", PAPER_ANY_VIOLATION_PCT)], 10));
    s
}

/// Figure 10: trend of problem groups.
pub fn fig10(store: &IndexedStore) -> String {
    let trends = store.index.group_trends();
    let mut s = String::from("Figure 10: trend of problem groups over the years\n\n");
    s.push_str(&year_header(22));
    let mut plot: Vec<(&str, [f64; YEARS])> = Vec::new();
    for group in ProblemGroup::ALL {
        let series = trends[&group];
        s.push_str(&series_row(group.name(), &series, 22));
        plot.push((group.code(), series));
    }
    s.push('\n');
    s.push_str(&ascii_plot(&plot, 12));
    s
}

/// One appendix figure: yearly trends for a set of kinds, measured and
/// paper side by side.
fn appendix_figure(store: &IndexedStore, title: &str, kinds: &[ViolationKind]) -> String {
    let mut s = format!("{title}\n\n");
    s.push_str(&year_header(18));
    let mut plot: Vec<(&str, [f64; YEARS])> = Vec::new();
    for &kind in kinds {
        let measured = store.index.kind_trend(kind);
        s.push_str(&series_row(&format!("{} measured", kind.id()), &measured, 18));
        s.push_str(&series_row(&format!("{} paper", kind.id()), &paper_yearly_pct(kind), 18));
        plot.push((kind.id(), measured));
    }
    s.push('\n');
    s.push_str(&ascii_plot(&plot, 10));
    s
}

/// Figure 16: Filter Bypass trends.
pub fn fig16(store: &IndexedStore) -> String {
    appendix_figure(store, "Figure 16: Filter Bypass", &[ViolationKind::FB2, ViolationKind::FB1])
}

/// Figure 17: HTML Formatting 1 (HF1–HF3).
pub fn fig17(store: &IndexedStore) -> String {
    appendix_figure(
        store,
        "Figure 17: HTML Formatting 1",
        &[ViolationKind::HF1, ViolationKind::HF2, ViolationKind::HF3],
    )
}

/// Figure 18: HTML Formatting 2 (HF4, HF5_*).
pub fn fig18(store: &IndexedStore) -> String {
    appendix_figure(
        store,
        "Figure 18: HTML Formatting 2",
        &[ViolationKind::HF4, ViolationKind::HF5_2, ViolationKind::HF5_3, ViolationKind::HF5_1],
    )
}

/// Figure 19: Data Manipulation trends.
pub fn fig19(store: &IndexedStore) -> String {
    appendix_figure(
        store,
        "Figure 19: Data Manipulation",
        &[
            ViolationKind::DM1,
            ViolationKind::DM2_1,
            ViolationKind::DM2_2,
            ViolationKind::DM2_3,
            ViolationKind::DM3,
        ],
    )
}

/// Figure 20: Data Exfiltration 1 (DE3_*).
pub fn fig20(store: &IndexedStore) -> String {
    appendix_figure(
        store,
        "Figure 20: Data Exfiltration 1",
        &[ViolationKind::DE3_1, ViolationKind::DE3_2, ViolationKind::DE3_3],
    )
}

/// Figure 21: Data Exfiltration 2 (DE1, DE2, DE4).
pub fn fig21(store: &IndexedStore) -> String {
    appendix_figure(
        store,
        "Figure 21: Data Exfiltration 2",
        &[ViolationKind::DE1, ViolationKind::DE2, ViolationKind::DE4],
    )
}

/// §4.2 statistics: overall violating share and the math-usage aside.
pub fn stats(store: &IndexedStore) -> String {
    let share = store.index.overall_violating_share();
    let (found, analyzed) = store.index.table2_total();
    let math = store.index.math_usage_by_year();
    format!(
        "General statistics (§4.2)\n\n\
         domains found ever:        {found}\n\
         domains analyzed ever:     {analyzed}\n\
         violated at least once:    {share:.1}%   (paper: {PAPER_UNION_ANY_PCT:.0}%)\n\
         math-element usage:        {} (2015) → {} (2022) domains\n\
                                    (paper: 42 → 224; scaled: {:.0} → {:.0})\n",
        math[0],
        math[7],
        42.0 * store.scale,
        224.0 * store.scale,
    )
}

/// §4.4: the auto-fix projection for 2022.
pub fn autofix(store: &IndexedStore) -> String {
    let p = store.index.autofix_projection(Snapshot::ALL[7]);
    let (paper_before, paper_after) = PAPER_AUTOFIX_2022;
    let paper_fixed = 100.0 * (paper_before - paper_after) as f64 / paper_before as f64;
    format!(
        "Automatic fixing projection, 2022 snapshot (§4.4)\n\n\
         analyzed domains:              {}\n\
         violating:                     {} ({:.1}%)   [paper: {} (68%)]\n\
         violating after automatic fix: {} ({:.1}%)   [paper: {} (37%)]\n\
         violating sites fully fixed:   {:.1}%          [paper: {paper_fixed:.1}%]\n",
        p.analyzed,
        p.violating,
        p.violating_share,
        paper_before,
        p.violating_after_fix,
        p.after_share,
        paper_after,
        p.fixed_share,
    )
}

/// §4.5: deployed-mitigation conflicts.
pub fn mitigations(store: &IndexedStore) -> String {
    let m = store.index.mitigation_trends();
    let mut s = String::from("Existing mitigations (§4.5)\n\n");
    s.push_str(&year_header(30));
    let pick = |xs: &[(usize, f64); YEARS]| {
        let mut out = [0.0; YEARS];
        for (i, (_, pct)) in xs.iter().enumerate() {
            out[i] = *pct;
        }
        out
    };
    s.push_str(&series_row("<script in attribute", &pick(&m.script_in_attribute), 30));
    s.push_str(&series_row("  paper", &paper_yearly_pct(ViolationKind::DE3_2), 30));
    s.push_str(&series_row("newline in URL", &pick(&m.newline_in_url), 30));
    s.push_str(&series_row("  paper", &PAPER_NEWLINE_URL_PCT, 30));
    s.push_str(&series_row("newline + '<' in URL", &pick(&m.newline_and_lt_in_url), 30));
    s.push_str(&series_row("  paper", &paper_yearly_pct(ViolationKind::DE3_1), 30));
    let nonced: usize = m.script_in_nonced_script.iter().sum();
    s.push_str(&format!(
        "\nnonced <script> elements containing \"<script\" in an attribute: {nonced}   (paper: none)\n"
    ));
    s
}

/// §5.3.2 extension: the STRICT-PARSER rollout simulation — breakage per
/// enforcement stage per year. (Not a figure in the paper; it answers the
/// question the roadmap poses with the measured data.)
pub fn rollout(store: &IndexedStore) -> String {
    let stages = store.index.rollout_breakage();
    let mut s = String::from(
        "STRICT-PARSER rollout simulation (§5.3.2 proposal)\n\
         Share of analyzed domains with ≥1 page blocked under `default` mode:\n\n",
    );
    s.push_str(&year_header(34));
    let labels = [
        "stage 0 (nothing enforced)",
        "stage 1 (+math, dangling markup)",
        "stage 2 (+DE family, stray base)",
        "stage 3 (+structural HF, FB1)",
        "stage 4 (= strict: +FB2, DM3)",
    ];
    let mut plot: Vec<(&str, [f64; YEARS])> = Vec::new();
    for ((stage, series), label) in stages.iter().zip(labels.iter()) {
        s.push_str(&series_row(label, series, 34));
        if *stage > 0 {
            plot.push((label, *series));
        }
    }
    s.push('\n');
    s.push_str(&ascii_plot(&plot, 10));
    s.push_str(
        "\nReading: stage 1 could be enforced today (breakage well under 1%);\n\
         stage 4 is the long-run goal the paper argues for once usage decays.\n",
    );
    s
}

/// §5.2's churn quantified: violations appearing and disappearing between
/// consecutive snapshots — the refactor dynamics behind Figure 14.
pub fn churn(store: &IndexedStore) -> String {
    let rows = store.index.violation_churn();
    let mut t = TextTable::new(["From", "To", "Added", "Removed", "Net"]);
    for r in &rows {
        t.row([
            r.from.clone(),
            r.to.clone(),
            format!("{}", r.added),
            format!("{}", r.removed),
            format!("{:+}", r.added as i64 - r.removed as i64),
        ]);
    }
    format!(
        "Violation churn between snapshots (§5.2: \"changes to a website can\n\
         remove violations but also introduce new ones\"; (domain, kind) pairs)\n\n{}",
        t.render()
    )
}

/// §5.1/§5.2: the auxiliary studies (dynamic content and long tail), run
/// once per store by [`IndexedStore::aux`].
pub fn aux_studies(store: &IndexedStore) -> String {
    let AuxStudies { dynamic, longtail: lt } = store.aux();
    let mut s = String::from("Auxiliary studies (§5.1 / §5.2)\n\n");
    s.push_str(&format!(
        "§5.1 dynamically loaded content (top {} domains, 2021):\n\
         \x20 fragments checked:          {}\n\
         \x20 domains with ≥1 violation:  {:.1}%   (paper: \"more than 60%\")\n\
         \x20 top fragment violations:    {}\n\
         \x20 math-related violations:    {}   (paper: \"hardly appear\")\n\n",
        dynamic.domains,
        dynamic.fragments,
        dynamic.violating_share,
        dynamic
            .kind_counts
            .iter()
            .take(3)
            .map(|(k, c)| format!("{} ({c})", k.id()))
            .collect::<Vec<_>>()
            .join(", "),
        dynamic
            .kind_counts
            .iter()
            .find(|(k, _)| *k == ViolationKind::HF5_3)
            .map(|(_, c)| *c)
            .unwrap_or(0),
    ));
    s.push_str(&format!(
        "§5.2 less popular websites ({} per population, {}):\n\
         \x20 violating share:   popular {:.1}%  vs  long tail {:.1}%\n\
         \x20 kinds per domain:  popular {:.2}  vs  long tail {:.2}   (paper: popular sites violate more)\n\
         \x20 HF5 (namespace):   popular {:.1}%  vs  long tail {:.1}%   (paper: complex SVGs on top sites)\n",
        lt.popular_domains.min(lt.longtail_domains),
        lt.snapshot,
        lt.popular_violating_share,
        lt.longtail_violating_share,
        lt.popular_kinds_per_domain,
        lt.longtail_kinds_per_domain,
        lt.popular_hf5_share,
        lt.longtail_hf5_share,
    ));
    s
}

/// The full report: every experiment of [`EXPERIMENTS`] in order.
pub fn full_report(store: &IndexedStore) -> String {
    let parts: Vec<String> = EXPERIMENTS
        .iter()
        .filter(|&&name| name != "all")
        .map(|name| render(name, store).expect("every listed experiment renders"))
        .collect();
    parts.join("\n================================================================\n\n")
}

/// Names accepted by [`render`], in presentation order. This is the single
/// source of truth for "what experiments exist" — the CLI usage text and
/// the server's `/v1/report/{experiment}` endpoint both derive from it.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig8",
    "fig9",
    "fig10",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "stats",
    "autofix",
    "mitigations",
    "rollout",
    "churn",
    "aux",
    "all",
];

/// Render one experiment by name, or `None` for an unknown name. Shared by
/// `hva report` and the service layer's `/v1/report/{experiment}` so the
/// two surfaces can never drift apart.
pub fn render(name: &str, store: &IndexedStore) -> Option<String> {
    Some(match name {
        "table1" => table1(),
        "table2" => table2(store),
        "fig8" => fig8(store),
        "fig9" => fig9(store),
        "fig10" => fig10(store),
        "fig16" => fig16(store),
        "fig17" => fig17(store),
        "fig18" => fig18(store),
        "fig19" => fig19(store),
        "fig20" => fig20(store),
        "fig21" => fig21(store),
        "stats" => stats(store),
        "autofix" => autofix(store),
        "mitigations" => mitigations(store),
        "rollout" => rollout(store),
        "churn" => churn(store),
        "aux" => aux_studies(store),
        "all" => full_report(store),
        _ => return None,
    })
}

/// Machine-readable dump of every experiment (for downstream analysis or
/// regression-diffing two scans).
pub fn experiments_json(store: &IndexedStore) -> serde_json::Value {
    let groups: serde_json::Map<String, serde_json::Value> = store
        .index
        .group_trends()
        .into_iter()
        .map(|(g, series)| (g.code().to_owned(), serde_json::json!(series.to_vec())))
        .collect();
    let kinds: serde_json::Map<String, serde_json::Value> = ViolationKind::ALL
        .iter()
        .map(|&k| {
            (
                k.id().to_owned(),
                serde_json::json!({
                    "paper_union_pct": union_target(k) * 100.0,
                    "paper_yearly_pct": paper_yearly_pct(k).to_vec(),
                    "measured_yearly_pct": store.index.kind_trend(k).to_vec(),
                }),
            )
        })
        .collect();
    serde_json::json!({
        "provenance": { "seed": store.seed, "scale": store.scale, "universe": store.universe },
        "table2": store.index.table2(),
        "fig8": store.index.overall_distribution(),
        "fig9": {
            "paper": PAPER_ANY_VIOLATION_PCT.to_vec(),
            "measured": store.index.violating_domains_by_year().to_vec(),
        },
        "fig10_groups": groups,
        "appendix_kind_trends": kinds,
        "stats_4_2_union_any_pct": store.index.overall_violating_share(),
        "stats_4_2_math_usage": store.index.math_usage_by_year().to_vec(),
        "stats_4_4_autofix_2022": store.index.autofix_projection(Snapshot::ALL[7]),
        "stats_4_5_mitigations": store.index.mitigation_trends(),
        "rollout_breakage": store.index.rollout_breakage()
            .into_iter()
            .map(|(stage, series)| serde_json::json!({"stage": stage, "blocked_pct": series.to_vec()}))
            .collect::<Vec<_>>(),
        "churn": store.index.violation_churn(),
    })
}

/// Markdown paper-vs-measured summary for EXPERIMENTS.md.
pub fn experiments_markdown(store: &IndexedStore) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Corpus: seed `{}`, scale `{}` ({} domains; the paper's universe is 24,915). \
         Regenerate with `cargo run --release -p hv-cli -- repro --seed {} --scale {}`.\n\n",
        store.seed, store.scale, store.universe, store.seed, store.scale
    ));

    // Figure 9.
    md.push_str("## Figure 9 — domains with ≥1 violation per year (%)\n\n");
    md.push_str("| year | paper | measured |\n|---|---|---|\n");
    let fig9 = store.index.violating_domains_by_year();
    for y in 0..YEARS {
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} |\n",
            2015 + y,
            PAPER_ANY_VIOLATION_PCT[y],
            fig9[y]
        ));
    }

    // Figure 8.
    md.push_str("\n## Figure 8 — overall distribution (% of analyzed domains)\n\n");
    md.push_str("| violation | paper | measured |\n|---|---|---|\n");
    for b in store.index.overall_distribution() {
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} |\n",
            b.kind.id(),
            union_target(b.kind) * 100.0,
            b.share
        ));
    }

    // Figure 10.
    md.push_str("\n## Figure 10 — problem-group trends (%)\n\n");
    md.push_str("| group | 2015 measured | 2022 measured | paper 2015→2022 |\n|---|---|---|---|\n");
    let groups = store.index.group_trends();
    let envelopes = [
        (ProblemGroup::FilterBypass, "52→43"),
        (ProblemGroup::DataManipulation, "47→44"),
        (ProblemGroup::HtmlFormatting, "42→33"),
        (ProblemGroup::DataExfiltration, "5→4"),
    ];
    for (g, env) in envelopes {
        let s = groups[&g];
        md.push_str(&format!("| {} | {:.1} | {:.1} | {} |\n", g.name(), s[0], s[7], env));
    }

    // Table 2.
    md.push_str("\n## Table 2 — dataset (counts at this scale)\n\n");
    md.push_str("| snapshot | found | analyzed | share | Ø pages | paper Ø pages |\n|---|---|---|---|---|---|\n");
    for (row, t) in store.index.table2().iter().zip(TABLE2_TARGETS.iter()) {
        md.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {:.1} | {:.1} |\n",
            row.snapshot,
            row.domains_found,
            row.domains_analyzed,
            row.analyzed_share,
            row.avg_pages,
            t.avg_pages
        ));
    }

    // §4.2 / §4.4 / §4.5.
    let share = store.index.overall_violating_share();
    md.push_str(&format!(
        "\n## §4.2 — violated at least once: measured {share:.1}% (paper {PAPER_UNION_ANY_PCT:.0}%)\n"
    ));
    let p = store.index.autofix_projection(Snapshot::ALL[7]);
    md.push_str(&format!(
        "\n## §4.4 — auto-fix 2022: violating {:.1}% → {:.1}% after fix; {:.1}% of violating sites fixed (paper 68% → 37%, 46%)\n",
        p.violating_share, p.after_share, p.fixed_share
    ));
    let m = store.index.mitigation_trends();
    md.push_str(&format!(
        "\n## §4.5 — mitigation conflicts 2015→2022: `<script` in attr {:.2}%→{:.2}% (paper 1.5→1.4); newline URL {:.1}%→{:.1}% (paper 11.2→11.0); newline+`<` {:.2}%→{:.2}% (paper 1.37→0.76); nonced-script conflicts: {} (paper 0)\n",
        m.script_in_attribute[0].1,
        m.script_in_attribute[7].1,
        m.newline_in_url[0].1,
        m.newline_in_url[7].1,
        m.newline_and_lt_in_url[0].1,
        m.newline_and_lt_in_url[7].1,
        m.script_in_nonced_script.iter().sum::<usize>(),
    ));

    // §5.3.2 rollout simulation.
    md.push_str("\n## §5.3.2 — STRICT-PARSER rollout: % of domains blocked per stage (2022)\n\n");
    md.push_str("| stage | enforced checks | blocked domains 2022 |\n|---|---|---|\n");
    for (stage, series) in store.index.rollout_breakage() {
        let list = hv_core::strict::EnforcementList::stage(stage);
        md.push_str(&format!("| {} | {} | {:.2}% |\n", stage, list.len(), series[7]));
    }

    // Per-kind appendix trends.
    md.push_str("\n## Appendix B (Figures 16–21) — per-violation yearly trends (%)\n\n");
    md.push_str("| violation | 2015 paper | 2015 measured | 2022 paper | 2022 measured |\n|---|---|---|---|---|\n");
    for kind in ViolationKind::ALL {
        let measured = store.index.kind_trend(kind);
        let paper = paper_yearly_pct(kind);
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            kind.id(),
            paper[0],
            measured[0],
            paper[7],
            measured[7]
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store() -> IndexedStore {
        let archive = hv_corpus::Archive::new(hv_corpus::CorpusConfig { seed: 5, scale: 0.002 });
        IndexedStore::new(hv_pipeline::scan(&archive, hv_pipeline::ScanOptions::new().threads(4)))
    }

    #[test]
    fn table1_lists_all_kinds() {
        let t = table1();
        for kind in ViolationKind::ALL {
            assert!(t.contains(kind.id()), "{} missing from Table 1", kind.id());
        }
    }

    #[test]
    fn full_report_renders_every_section() {
        let store = tiny_store();
        let report = full_report(&store);
        for needle in [
            "Table 1",
            "Table 2",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 16",
            "Figure 17",
            "Figure 18",
            "Figure 19",
            "Figure 20",
            "Figure 21",
            "§4.2",
            "§4.4",
            "§4.5",
        ] {
            assert!(report.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn experiments_json_is_complete() {
        let store = tiny_store();
        let v = experiments_json(&store);
        for key in [
            "provenance",
            "table2",
            "fig8",
            "fig9",
            "fig10_groups",
            "appendix_kind_trends",
            "stats_4_2_union_any_pct",
            "stats_4_4_autofix_2022",
            "stats_4_5_mitigations",
            "rollout_breakage",
            "churn",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(v["appendix_kind_trends"].as_object().unwrap().len(), 20);
        // Round-trips through text.
        let text = serde_json::to_string(&v).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["fig9"]["paper"], v["fig9"]["paper"]);
    }

    #[test]
    fn experiments_markdown_has_tables() {
        let store = tiny_store();
        let md = experiments_markdown(&store);
        assert!(md.contains("## Figure 9"));
        assert!(md.contains("## Figure 8"));
        assert!(md.contains("| FB2 |"));
        assert!(md.contains("## §4.4"));
    }
}
