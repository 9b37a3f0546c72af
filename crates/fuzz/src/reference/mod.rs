//! Reference implementations kept for differential testing only: the
//! code each production rewrite replaced, preserved verbatim so the
//! rewrite can be checked against it. The production libraries (`hv_core`,
//! `hv_corpus`, `hv_pipeline`) no longer carry them; the fuzzer's oracles, the
//! equivalence tests and the benches read them from here.
//!
//! - [`checkers`] — the pre-fusion battery, twenty independent
//!   full-context scans (the `battery-equivalence` oracle's reference).
//! - [`aggregate`] — the pre-index per-query folds over a
//!   [`ResultStore`](hv_pipeline::ResultStore), the reference for every
//!   [`AggregateIndex`](hv_pipeline::AggregateIndex) view.
//! - [`warc`] — the owning CDXJ-line and WARC-record parsers, the
//!   reference for the borrowed ones in [`hv_corpus::warc`].

pub mod aggregate;
pub mod checkers;
pub mod warc;
