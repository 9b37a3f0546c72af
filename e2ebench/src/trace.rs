//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Spans stay in memory and are written out once, when
//! the run ends; nothing inside the workspace crates is instrumented.
//!
//! A layer's self time is its span minus the part its direct children
//! cover. Stage spans are the roots; their self time is the benchmark's
//! own loop overhead, which is what `trace.coverage` leaves out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder. A disabled tracer runs the same closures and records
/// nothing, so the untraced twin of a loop executes identical calls.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Per-name totals of self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub nanos: u64,
    pub count: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name, start: self.now(), end: 0, parent });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        Some(id)
    }

    pub fn exit(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now();
        self.spans.borrow_mut()[id].end = end;
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
    }

    /// Time `f` as one span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-measured interval under the innermost open span
    /// (spans measured on another thread, converted to this clock).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.borrow_mut().push(Span { name, start: at(start), end: at(end), parent });
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.borrow();
        let mut child_nanos = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_nanos[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_nanos) {
            let e = out.entry(s.name).or_default();
            e.nanos += (s.end - s.start).saturating_sub(children);
            e.count += 1;
        }
        out
    }

    /// Total duration of every span with this name.
    pub fn total_nanos(&self, name: &str) -> u64 {
        self.spans.borrow().iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Write every span as `id parent name start_ns end_ns`, one a line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new(true);
        let root = t.enter("stage");
        t.span("outer", || {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", || std::thread::sleep(Duration::from_millis(6)));
        });
        t.exit(root);
        let st = t.self_times();
        let inner = st["inner"].nanos;
        let outer = st["outer"].nanos;
        assert!(inner >= 6_000_000, "{inner}");
        assert!((4_000_000..6_000_000).contains(&outer), "outer self {outer}");
        // The stage's self time is only the gap around its child.
        assert!(st["stage"].nanos < 1_000_000, "{}", st["stage"].nanos);
        assert_eq!(t.total_nanos("outer"), outer + inner);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let t = Tracer::new(false);
        let v = t.span("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.self_times().is_empty());
    }
}
