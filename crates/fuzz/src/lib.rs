//! `hv_fuzz` — deterministic differential fuzzing for the
//! html-violations stack (`hva fuzz`).
//!
//! The paper's pipeline rests on a parser and a checker battery whose hot
//! paths have each been rewritten for speed while keeping the original
//! implementation alive as a reference (batched vs scalar tokenizer,
//! fused vs legacy battery, atom vs string predicates). This crate turns
//! those deliberate redundancies into a fuzzer:
//!
//! - [`gen`] — a seeded, structure-aware HTML generator. Every case is a
//!   pure function of `(seed, index)`, built from **pieces** (whole tags,
//!   text runs, comments) over a grammar that reaches tables, select,
//!   template, RCDATA/RAWTEXT, foreign content, and the character-
//!   reference edge space, with tuned misnesting and malformed-syntax
//!   rates.
//! - [`oracle`] — the registry of named invariants checked on every
//!   case: tokenizer equivalence, battery equivalence, serializer
//!   fixpoint, atom agreement, auto-fix soundness, DOM validity, and a
//!   live-server wire check.
//! - [`ddmin`](mod@ddmin) — Zeller delta-debugging, applied first over
//!   generator pieces and then over bytes, shrinking any failure to a
//!   locally minimal reproducer.
//! - [`reference`] — the implementations the rewrites replaced, kept
//!   verbatim as the oracles' references: the pre-fusion checker battery,
//!   the pre-index aggregation queries and the owning WARC-layer parsers.
//! - [`runner`] — the single-threaded driver tying them together, with
//!   time budgets, an oracle filter, and persistence of minimized
//!   reproducers into `tests/fixtures/regressions/`, which the test
//!   suite replays on every run thereafter.
//!
//! Determinism is the design center: same seed and case count ⇒ identical
//! case bytes and identical verdicts, across runs, machines, and thread
//! counts. A failure report is therefore just two integers plus an
//! oracle name, and `hva fuzz --replay` re-runs any persisted reproducer.

pub mod ddmin;
pub mod gen;
pub mod oracle;
pub mod reference;
pub mod runner;

pub use ddmin::{ddmin, shrink_bytes};
pub use gen::{case, case_pieces, render};
pub use oracle::{all_oracles, oracles_named, Oracle};
pub use runner::{fuzz, replay, replay_str, FuzzFailure, FuzzOptions, FuzzOutcome};
