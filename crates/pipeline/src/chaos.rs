//! The chaos harness behind `hva chaos`: run the full scan under
//! deterministic fault injection and verify the robustness invariants.
//!
//! The point of a *deterministic* chaos mode is that robustness becomes a
//! checkable property instead of a hope. With every fault a pure function
//! of `(seed, page)`, the harness can assert, not sample:
//!
//! 1. **Workers survive** — scans complete under injection at every thread
//!    count; page-level panics are contained at the isolation boundary.
//! 2. **Quarantine is thread-count-invariant** — the faulted store
//!    (records *and* quarantine set) is byte-identical however many
//!    workers ran, because outcomes depend on the page, never the worker.
//! 3. **Clean pages are untouched** — every record with no faulted pages
//!    is byte-identical to the same record from a zero-fault run: the
//!    failure-handling machinery has no observable effect where nothing
//!    failed.
//! 4. **Accounting closes** — per-record quarantine counters reconcile
//!    with the per-page quarantine entries exactly.
//! 5. **Crash-resume is identical** — a streamed faulted scan cut at any
//!    staged byte point and resumed (`hva scan --resume`) reproduces the
//!    uninterrupted store byte for byte: durability composes with the
//!    fault injection.

use crate::format::scan_prefix;
use crate::outcome::ErrorClass;
use crate::run::{scan_snapshots, scan_streamed, PageSource, ScanOptions};
use crate::store::ResultStore;
use hv_corpus::faults::FaultPlan;
use hv_corpus::Snapshot;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One verified invariant.
#[derive(Debug, Clone)]
pub struct ChaosCheck {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// The outcome of a chaos run. `render()` is what `hva chaos` prints.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub plan: FaultPlan,
    /// Thread counts the faulted scan was executed at.
    pub threads: Vec<usize>,
    pub pages_listed: u64,
    pub pages_faulted: u64,
    pub pages_degraded: u64,
    pub pages_quarantined: u64,
    pub panics_caught: u64,
    pub checks: Vec<ChaosCheck>,
}

impl ChaosReport {
    /// All invariants held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "chaos report (faults {}, threads {:?})\n",
            self.plan.render(),
            self.threads
        ));
        s.push_str(&format!(
            "  pages listed {}   faulted {}   degraded {}   quarantined {}   panics caught {}\n",
            self.pages_listed,
            self.pages_faulted,
            self.pages_degraded,
            self.pages_quarantined,
            self.panics_caught
        ));
        for c in &self.checks {
            s.push_str(&format!(
                "  [{}] {}: {}\n",
                if c.passed { "pass" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        s.push_str(&format!("  verdict: {}\n", if self.passed() { "PASS" } else { "FAIL" }));
        s
    }
}

/// Run the chaos harness: one clean scan plus one faulted scan per thread
/// count, then check the invariants. `threads` entries follow
/// [`ScanOptions::threads`] (0 = one per core); at least one is required.
/// Any [`PageSource`] works: the synthetic archive or WARC files.
pub fn run_chaos<S: PageSource>(
    source: &S,
    plan: FaultPlan,
    snapshots: &[Snapshot],
    threads: &[usize],
) -> ChaosReport {
    assert!(!threads.is_empty(), "chaos needs at least one thread count");
    let base = ScanOptions::new();
    let clean = scan_snapshots(source, snapshots, base.threads(threads[0]));

    // Every faulted scan runs behind its own unwind guard: if the engine's
    // containment ever fails, the harness reports it instead of dying.
    let faulted: Vec<Option<ResultStore>> = threads
        .iter()
        .map(|&t| {
            catch_unwind(AssertUnwindSafe(|| {
                scan_snapshots(source, snapshots, base.threads(t).inject_faults(plan))
            }))
            .ok()
        })
        .collect();

    let mut checks = Vec::new();

    let survived = faulted.iter().filter(|s| s.is_some()).count();
    checks.push(ChaosCheck {
        name: "workers-survive",
        passed: survived == threads.len(),
        detail: format!("{survived}/{} faulted scans completed", threads.len()),
    });

    // Invariant 2: the faulted store is byte-identical at every thread
    // count — records and quarantine both.
    let jsons: Vec<Option<String>> = faulted
        .iter()
        .map(|s| s.as_ref().map(|s| serde_json::to_string(s).expect("store serializes")))
        .collect();
    let invariant = match jsons.iter().flatten().collect::<Vec<_>>().as_slice() {
        [] => false,
        [first, rest @ ..] => rest.iter().all(|j| j == first),
    };
    checks.push(ChaosCheck {
        name: "quarantine-thread-invariant",
        passed: invariant && survived == threads.len(),
        detail: format!("faulted stores byte-identical across threads {threads:?}: {invariant}"),
    });

    // The remaining invariants read the reference faulted store.
    let reference = faulted.iter().flatten().next();
    let (mut faulted_pages, mut degraded, mut quarantined) = (0u64, 0u64, 0u64);
    let mut panics = 0u64;
    if let Some(store) = reference {
        faulted_pages = store.records.iter().map(|r| r.pages_faulted as u64).sum();
        degraded = store.records.iter().map(|r| r.pages_degraded as u64).sum();
        quarantined = store.records.iter().map(|r| r.pages_quarantined as u64).sum();
        panics =
            store.quarantine.iter().filter(|q| q.class == ErrorClass::ParserPanic).count() as u64;

        // Invariant 3: records with zero faulted pages match the clean run
        // byte-for-byte.
        let clean_by_key: BTreeMap<(Snapshot, u64), String> = clean
            .records
            .iter()
            .map(|r| ((r.snapshot, r.domain_id), serde_json::to_string(r).unwrap()))
            .collect();
        let mut compared = 0usize;
        let mut mismatched = 0usize;
        for r in store.records.iter().filter(|r| r.pages_faulted == 0) {
            compared += 1;
            let clean_json = clean_by_key.get(&(r.snapshot, r.domain_id));
            if clean_json != Some(&serde_json::to_string(r).unwrap()) {
                mismatched += 1;
            }
        }
        checks.push(ChaosCheck {
            name: "clean-pages-unchanged",
            passed: mismatched == 0,
            detail: format!(
                "{compared} fault-free records compared against the clean run, {mismatched} differed"
            ),
        });

        // Invariant 4: counters and audit entries agree.
        let entries = store.quarantine.len() as u64;
        checks.push(ChaosCheck {
            name: "quarantine-accounting",
            passed: entries == quarantined,
            detail: format!("{entries} quarantine entries vs {quarantined} counted on records"),
        });
    } else {
        checks.push(ChaosCheck {
            name: "clean-pages-unchanged",
            passed: false,
            detail: "no faulted scan survived to compare".into(),
        });
        checks.push(ChaosCheck {
            name: "quarantine-accounting",
            passed: false,
            detail: "no faulted scan survived to audit".into(),
        });
    }

    // Invariant 5: crash-at-any-point → resume → identical bytes.
    checks.push(crash_resume_check(source, plan, snapshots, threads[0]));

    ChaosReport {
        plan,
        threads: threads.to_vec(),
        pages_listed: clean.records.iter().map(|r| r.pages_found as u64).sum(),
        pages_faulted: faulted_pages,
        pages_degraded: degraded,
        pages_quarantined: quarantined,
        panics_caught: panics,
        checks,
    }
}

/// Invariant 5: write the faulted store through the streamed (durable)
/// writer, cut the bytes at staged points derived from the real block
/// boundaries, resume each cut, and require the recovered file to be
/// byte-identical to the uninterrupted one.
///
/// Early cuts re-scan almost everything, so the harness probes a handful
/// of representative points (mid-magic, mid-header, first/last segment
/// midpoints and boundaries, mid-trailer) rather than sweeping — the
/// every-byte sweep lives in the crash-recovery test suite.
fn crash_resume_check<S: PageSource>(
    source: &S,
    plan: FaultPlan,
    snapshots: &[Snapshot],
    threads: usize,
) -> ChaosCheck {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = "crash-resume-identical";
    let fail = |detail: String| ChaosCheck { name, passed: false, detail };

    let dir = std::env::temp_dir().join(format!(
        "hv-chaos-crash-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(format!("creating temp dir: {e}"));
    }
    let opts = ScanOptions::new().threads(threads).inject_faults(plan).overwrite(true);
    let full_path = dir.join("full.hvs");
    let crash_path = dir.join("crash.hvs");
    let outcome = (|| -> Result<usize, String> {
        scan_streamed(source, snapshots, opts, &full_path)
            .map_err(|e| format!("uninterrupted scan: {e}"))?;
        let full = std::fs::read(&full_path).map_err(|e| format!("reading full store: {e}"))?;
        let prefix =
            scan_prefix(&full, &full_path).map_err(|e| format!("prefix of full store: {e}"))?;
        if !prefix.complete {
            return Err("uninterrupted store does not parse as complete".into());
        }
        let header_end = 12 + u64::from(u32::from_le_bytes(full[8..12].try_into().unwrap())) + 4;

        let mut points: Vec<u64> = vec![4, header_end - 2, header_end, full.len() as u64 - 5];
        let ends = &prefix.segment_ends;
        if let (Some(&first), Some(&last)) = (ends.first(), ends.last()) {
            points.extend([(header_end + first) / 2, first, last]);
            if ends.len() > 1 {
                points.push((ends[ends.len() - 2] + last) / 2);
            }
        }
        points.retain(|&p| p < full.len() as u64);
        points.sort_unstable();
        points.dedup();

        for &p in &points {
            std::fs::write(&crash_path, &full[..p as usize])
                .map_err(|e| format!("writing cut at {p}: {e}"))?;
            scan_streamed(source, snapshots, opts.overwrite(false).resume(true), &crash_path)
                .map_err(|e| format!("resume from cut at {p}: {e}"))?;
            let resumed =
                std::fs::read(&crash_path).map_err(|e| format!("reading resumed store: {e}"))?;
            if resumed != full {
                return Err(format!(
                    "resume from cut at byte {p} diverged ({} vs {} bytes)",
                    resumed.len(),
                    full.len()
                ));
            }
        }
        Ok(points.len())
    })();
    std::fs::remove_dir_all(&dir).ok();
    match outcome {
        Ok(n) => ChaosCheck {
            name,
            passed: true,
            detail: format!("{n} staged cut points all resumed to identical bytes"),
        },
        Err(detail) => fail(detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_corpus::{Archive, CorpusConfig};

    #[test]
    fn chaos_passes_on_the_tiny_archive() {
        let archive = Archive::new(CorpusConfig { seed: 77, scale: 0.002 });
        let plan = FaultPlan::new(9, 0.2).unwrap();
        let report = run_chaos(&archive, plan, &[Snapshot::ALL[7]], &[1, 3]);
        assert!(report.passed(), "{}", report.render());
        assert!(report.pages_faulted > 0, "a 20% rate must fault something");
        assert!(report.pages_quarantined > 0);
        let out = report.render();
        assert!(out.contains("verdict: PASS"));
        assert!(out.contains("quarantine-thread-invariant"));
        assert!(out.contains("crash-resume-identical"));
    }

    #[test]
    fn zero_rate_chaos_is_a_clean_scan() {
        let archive = Archive::new(CorpusConfig { seed: 77, scale: 0.002 });
        let plan = FaultPlan::new(9, 0.0).unwrap();
        let report = run_chaos(&archive, plan, &[Snapshot::ALL[0]], &[2]);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.pages_faulted, 0);
        assert_eq!(report.pages_quarantined, 0);
        assert_eq!(report.panics_caught, 0);
    }
}
