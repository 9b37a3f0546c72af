//! Seeded, purely deterministic fault injection for the archive/WARC read
//! path.
//!
//! Eight years of Common Crawl contain every way a record can be bad:
//! truncated WARC members, corrupt gzip streams, mojibake bodies, CDX lines
//! mangled by the indexer, and plain transient I/O weather. A measurement
//! that only handles the happy path silently skews its aggregates the first
//! time a poisoned record kills a worker. This module synthesizes all of
//! those failure modes as a **pure function of `(seed, page identity)`** —
//! no RNG state, no clocks — so a faulted scan is exactly as reproducible
//! as a clean one: the same seed and rate always poison the same pages in
//! the same way, at any thread count and in any execution order.
//!
//! The injector wraps a fetch attempt ([`FaultPlan::apply`]): read-layer
//! faults (malformed CDX metadata, transient I/O, truncated WARC records,
//! records too long for the byte budget) surface as structured errors,
//! while content-layer faults (fake gzip members, invalid UTF-8) corrupt
//! the returned bytes and are caught by the pipeline's own guards — the
//! same detection paths real corruption would take. An oversized record is
//! refused by its length before any body is read or built, as a WARC
//! source refuses an over-budget index entry. Truncation is injected by round-tripping the body
//! through a real WARC record and cutting it short, so the reported
//! [`WarcError`] comes from the production parser, not from an oracle.

use crate::rng;
use crate::warc::{self, WarcError};

/// Key-part namespaces for the deterministic draws.
mod key {
    pub const GATE: u64 = 0xFA_01;
    pub const CLASS: u64 = 0xFA_02;
    pub const TRANSIENT: u64 = 0xFA_03;
    pub const CUT: u64 = 0xFA_04;
    pub const UTF8_POS: u64 = 0xFA_05;
    pub const GARBAGE: u64 = 0xFA_06;
}

/// The injectable failure modes, mirroring what a longitudinal Common Crawl
/// measurement actually encounters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// The CDX index line for the page is unparseable — the record cannot
    /// even be located.
    MalformedCdx,
    /// The read fails with a retryable I/O error for the first N attempts.
    TransientIo,
    /// The WARC record is cut short (Content-Length overruns the bytes).
    TruncatedRecord,
    /// The record body is a corrupt compressed member instead of HTML.
    CorruptCompression,
    /// Invalid UTF-8 bytes are spliced into the body (mojibake).
    InvalidUtf8,
    /// The record is longer than the byte budget; it is refused unread.
    OversizedBody,
}

impl FaultClass {
    pub const ALL: [FaultClass; 6] = [
        FaultClass::MalformedCdx,
        FaultClass::TransientIo,
        FaultClass::TruncatedRecord,
        FaultClass::CorruptCompression,
        FaultClass::InvalidUtf8,
        FaultClass::OversizedBody,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            FaultClass::MalformedCdx => "malformed-cdx",
            FaultClass::TransientIo => "transient-io",
            FaultClass::TruncatedRecord => "truncated-record",
            FaultClass::CorruptCompression => "corrupt-compression",
            FaultClass::InvalidUtf8 => "invalid-utf8",
            FaultClass::OversizedBody => "oversized-body",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identity of one page in the corpus — the injector's entire input
/// besides the plan. Built from facts that do not depend on scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageKey {
    pub domain_id: u64,
    pub snapshot_index: u64,
    pub page_index: u64,
}

impl PageKey {
    fn parts(&self, ns: u64) -> [u64; 4] {
        [ns, self.domain_id, self.snapshot_index, self.page_index]
    }
}

/// One planned fault for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub class: FaultClass,
    /// For [`FaultClass::TransientIo`]: the number of attempts that fail
    /// before a read succeeds (1..=4 — with a 3-attempt retry policy, half
    /// of transient faults recover and half exhaust into quarantine).
    pub transient_failures: u32,
}

/// A read-layer fault raised by [`FaultPlan::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchFault {
    /// The page's CDX metadata is unusable; not retryable.
    MalformedCdx,
    /// A retryable I/O error — the next attempt may succeed.
    Transient,
    /// The WARC record failed to parse (from the real parser); not
    /// retryable — corruption is deterministic.
    Warc(WarcError),
}

impl std::fmt::Display for FetchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchFault::MalformedCdx => write!(f, "malformed CDX line"),
            FetchFault::Transient => write!(f, "transient I/O error"),
            FetchFault::Warc(e) => write!(f, "WARC read failed: {e}"),
        }
    }
}

/// The fault schedule: which pages get which fault, as a pure function of
/// `(seed, page key)`. `Copy`, so it travels inside `ScanOptions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Fraction of pages faulted, in `[0, 1]`.
    pub rate: f64,
}

impl FaultPlan {
    pub fn new(seed: u64, rate: f64) -> Result<FaultPlan, String> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate must be in [0, 1], got {rate}"));
        }
        Ok(FaultPlan { seed, rate })
    }

    /// Parse the CLI form `<seed>:<rate>`, e.g. `7:0.1`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed, rate) =
            spec.split_once(':').ok_or_else(|| format!("expected <seed>:<rate>, got {spec:?}"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad fault seed {seed:?}"))?;
        let rate: f64 = rate.parse().map_err(|_| format!("bad fault rate {rate:?}"))?;
        FaultPlan::new(seed, rate)
    }

    /// The CLI form back: `seed:rate`.
    pub fn render(&self) -> String {
        format!("{}:{}", self.seed, self.rate)
    }

    /// The fault planned for a page, if any. Deterministic: equal inputs,
    /// equal answer, forever.
    pub fn fault_for(&self, page: PageKey) -> Option<Fault> {
        if !rng::chance(self.seed, &page.parts(key::GATE), self.rate) {
            return None;
        }
        let class =
            FaultClass::ALL[rng::below(self.seed, &page.parts(key::CLASS), FaultClass::ALL.len())];
        let transient_failures = rng::range(self.seed, &page.parts(key::TRANSIENT), 1, 4) as u32;
        Some(Fault { class, transient_failures })
    }

    /// Wrap one fetch attempt. `clean` produces the true record body and is
    /// only invoked when the planned fault (if any) lets bytes through;
    /// `attempt` is 1-based; `byte_budget` is the cap an oversized record
    /// is refused against.
    ///
    /// Read-layer faults come back as [`FetchFault`]s (an oversized record
    /// as [`WarcError::OversizedRecord`], with no body built); content-layer
    /// faults return corrupted bytes for the pipeline's own detectors to
    /// catch.
    pub fn apply(
        &self,
        page: PageKey,
        attempt: u32,
        byte_budget: usize,
        clean: impl FnOnce() -> Vec<u8>,
    ) -> Result<Vec<u8>, FetchFault> {
        let Some(fault) = self.fault_for(page) else { return Ok(clean()) };
        match fault.class {
            FaultClass::MalformedCdx => Err(FetchFault::MalformedCdx),
            FaultClass::TransientIo => {
                if attempt <= fault.transient_failures {
                    Err(FetchFault::Transient)
                } else {
                    Ok(clean())
                }
            }
            FaultClass::TruncatedRecord => Err(FetchFault::Warc(self.truncate(page, clean()))),
            FaultClass::CorruptCompression => Ok(self.corrupt_gzip(page)),
            FaultClass::InvalidUtf8 => Ok(self.splice_invalid_utf8(page, clean())),
            FaultClass::OversizedBody => {
                let cap = byte_budget as u64;
                Err(FetchFault::Warc(WarcError::OversizedRecord { length: cap + 1, cap }))
            }
        }
    }

    /// Round-trip the body through a real WARC record, cut the record
    /// short at a seeded position, and return the production parser's
    /// verdict — always an error, because the cut always removes content.
    fn truncate(&self, page: PageKey, body: Vec<u8>) -> WarcError {
        let mut buf = Vec::new();
        let mut w = warc::WarcWriter::new(&mut buf);
        w.write_response("urn:hv:faulted", "2020-01-20T00:00:00Z", &body)
            .expect("Vec<u8> writes are infallible");
        // The record is header + content + trailing CRLFCRLF; any cut below
        // len-4 removes declared content, so parse_record must fail.
        let cut_below = buf.len().saturating_sub(4).max(1);
        let cut = rng::below(self.seed, &page.parts(key::CUT), cut_below);
        match warc::parse_record(&buf[..cut]) {
            Err(e) => e,
            Ok(_) => WarcError::Truncated { need: buf.len(), have: cut },
        }
    }

    /// A fake corrupt gzip member: the magic bytes followed by seeded
    /// garbage that is not a valid deflate stream.
    fn corrupt_gzip(&self, page: PageKey) -> Vec<u8> {
        let mut g = rng::KeyedRng::new(self.seed, &page.parts(key::GARBAGE));
        let mut out = vec![0x1f, 0x8b, 0x08, 0x00];
        for _ in 0..60 {
            out.push((g.next_u64() & 0xFF) as u8);
        }
        out
    }

    /// Splice a hard-invalid UTF-8 sequence (0xFF can appear in no valid
    /// encoding) at a seeded position.
    fn splice_invalid_utf8(&self, page: PageKey, mut body: Vec<u8>) -> Vec<u8> {
        let pos = rng::below(self.seed, &page.parts(key::UTF8_POS), body.len().max(1) + 1)
            .min(body.len());
        body.splice(pos..pos, [0xFF, 0xFE, 0xFD]);
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: usize = 1 << 20;

    fn keys(n: u64) -> impl Iterator<Item = PageKey> {
        (0..n).map(|i| PageKey { domain_id: i * 7 + 1, snapshot_index: i % 8, page_index: i % 100 })
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::new(42, 0.3).unwrap();
        for k in keys(500) {
            assert_eq!(plan.fault_for(k), plan.fault_for(k));
        }
    }

    #[test]
    fn rate_bounds_faults() {
        let none = FaultPlan::new(1, 0.0).unwrap();
        let all = FaultPlan::new(1, 1.0).unwrap();
        assert!(keys(300).all(|k| none.fault_for(k).is_none()));
        assert!(keys(300).all(|k| all.fault_for(k).is_some()));
        let some = FaultPlan::new(1, 0.1).unwrap();
        let hits = keys(10_000).filter(|&k| some.fault_for(k).is_some()).count();
        assert!((800..1200).contains(&hits), "10% rate drew {hits}/10000");
    }

    #[test]
    fn all_classes_appear() {
        let plan = FaultPlan::new(9, 1.0).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for k in keys(300) {
            seen.insert(plan.fault_for(k).unwrap().class);
        }
        assert_eq!(seen.len(), FaultClass::ALL.len(), "missing classes: {seen:?}");
    }

    #[test]
    fn truncation_always_errors_via_real_parser() {
        let plan = FaultPlan::new(3, 1.0).unwrap();
        let mut checked = 0;
        for k in keys(400) {
            if plan.fault_for(k).unwrap().class != FaultClass::TruncatedRecord {
                continue;
            }
            let err = plan.truncate(k, b"<p>hello truncation</p>".to_vec());
            // Any structured WarcError is fine; it must just *be* one.
            let _ = err.to_string();
            checked += 1;
        }
        assert!(checked > 20, "only {checked} truncation draws");
    }

    #[test]
    fn invalid_utf8_fault_defeats_decoding() {
        let plan = FaultPlan::new(4, 1.0).unwrap();
        for k in keys(50) {
            let body = plan.splice_invalid_utf8(k, b"<p>clean</p>".to_vec());
            assert!(std::str::from_utf8(&body).is_err());
        }
    }

    /// An oversized record is refused against the budget, and no body is
    /// read to refuse it.
    #[test]
    fn oversized_fault_is_refused_unread() {
        let plan = FaultPlan::new(8, 1.0).unwrap();
        let mut refused = 0;
        for k in keys(300) {
            if plan.fault_for(k).unwrap().class != FaultClass::OversizedBody {
                continue;
            }
            let got = plan.apply(k, 1, 4096, || panic!("an oversized record is never read"));
            assert_eq!(
                got,
                Err(FetchFault::Warc(WarcError::OversizedRecord { length: 4097, cap: 4096 }))
            );
            refused += 1;
        }
        assert!(refused > 20, "only {refused} oversized draws");
    }

    #[test]
    fn corrupt_gzip_has_magic() {
        let plan = FaultPlan::new(5, 1.0).unwrap();
        let body = plan.corrupt_gzip(keys(1).next().unwrap());
        assert_eq!(&body[..2], &[0x1f, 0x8b]);
    }

    #[test]
    fn transient_recovers_after_planned_failures() {
        let plan = FaultPlan::new(6, 1.0).unwrap();
        let mut recovered = 0;
        for k in keys(200) {
            let fault = plan.fault_for(k).unwrap();
            if fault.class != FaultClass::TransientIo {
                continue;
            }
            for attempt in 1..=fault.transient_failures {
                assert_eq!(plan.apply(k, attempt, BUDGET, Vec::new), Err(FetchFault::Transient));
            }
            let ok = plan.apply(k, fault.transient_failures + 1, BUDGET, || b"ok".to_vec());
            assert_eq!(ok, Ok(b"ok".to_vec()));
            recovered += 1;
        }
        assert!(recovered > 10);
    }

    #[test]
    fn clean_pages_pass_through_untouched() {
        let plan = FaultPlan::new(7, 0.0).unwrap();
        let k = keys(1).next().unwrap();
        assert_eq!(plan.apply(k, 1, BUDGET, || b"<p>x</p>".to_vec()), Ok(b"<p>x</p>".to_vec()));
    }

    #[test]
    fn parse_and_render_roundtrip() {
        let plan = FaultPlan::parse("7:0.25").unwrap();
        assert_eq!(plan, FaultPlan { seed: 7, rate: 0.25 });
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        assert!(FaultPlan::parse("7").is_err());
        assert!(FaultPlan::parse("x:0.5").is_err());
        assert!(FaultPlan::parse("7:1.5").is_err());
        assert!(FaultPlan::parse("7:-0.1").is_err());
    }
}
