//! The traced run's instruments: in-memory spans recorded around the
//! benchmark's calls into each layer, self-time accounting, the JSONL
//! trace writer, and the counting allocator.
//!
//! Spans come from the benchmark's own files only; the program under
//! test is not instrumented beyond what it already publishes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::quote;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer call, e.g. `Model::compile`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Serving request id, for spans that belong to one request.
    pub req: Option<u64>,
}

/// A single-threaded span recorder. When off, [`Tracer::span`] is a
/// plain call and nothing is stored.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::default(),
            stack: RefCell::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let now = self.ns(Instant::now());
            spans.push(SpanRec {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                req: None,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-timed interval (e.g. a request from its due
    /// time to its completion) under the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if !self.on {
            return;
        }
        let parent = self.stack.borrow().last().copied();
        let rec = SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.borrow_mut().push(rec);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{}",
                quote(s.name),
                s.start_ns,
                s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

/// Total and self time per span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: String,
    /// Spans recorded under this name.
    pub count: usize,
    /// Summed span durations, seconds.
    pub total_secs: f64,
    /// Summed self time (duration minus the part its children cover),
    /// seconds.
    pub self_secs: f64,
}

/// Self time of every span name, in first-seen order. Children of one
/// span may overlap (concurrent requests), so coverage is the union of
/// their intervals.
pub fn self_times(spans: &[SpanRec]) -> Vec<LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<LayerTime> = Vec::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if b <= a {
                continue;
            }
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let slot = match out.iter().position(|l| l.name == s.name) {
            Some(i) => &mut out[i],
            None => {
                out.push(LayerTime {
                    name: s.name.to_owned(),
                    count: 0,
                    total_secs: 0.0,
                    self_secs: 0.0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        slot.count += 1;
        slot.total_secs += dur as f64 * 1e-9;
        slot.self_secs += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Whether the counting allocator counts. Off outside traced runs, so
/// the untraced cost is one relaxed load per allocation.
pub static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);
/// Heap allocations counted while [`ALLOC_COUNTING`] was on.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter; install it with
/// `#[global_allocator]` in the binary.
pub struct CountingAlloc;

// SAFETY: every operation defers to `System` unchanged; the counter is a
// statistic that publishes no other data, so relaxed ordering suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by `f`, counted only when `count` is set.
pub fn count_allocs<R>(count: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if !count {
        return (f(), 0);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    ALLOC_COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    ALLOC_COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("step", 0, 100, None),
            rec("req", 10, 40, Some(0)),
            rec("req", 30, 60, Some(0)),
            rec("req", 80, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0].name, "step");
        assert!((t[0].self_secs - 40e-9).abs() < 1e-15, "{:?}", t[0]);
        assert_eq!(t[1].count, 3);
        assert!((t[1].total_secs - 70e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracers_record_nothing() {
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
