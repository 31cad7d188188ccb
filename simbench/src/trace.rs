//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end (ns since the tracer was made) and
//! the span that was open when it began. A disabled tracer records
//! nothing; untraced runs use one, so their timings carry no tracing cost
//! beyond a branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `coherence.issue`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count and total duration of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl Agg {
    /// Mean duration per span, ns (0 when none were recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type Open = Option<usize>;

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `open` (which must be the innermost open one).
    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count and total duration per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.ns();
        }
        out
    }

    /// Share of the spans named `root` that their direct children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            if s.name == root {
                root_ns += s.ns();
            } else if let Some(p) = s.parent {
                if self.spans[p].name == root {
                    child_ns += s.ns();
                }
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            child_ns as f64 / root_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 3);
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.run");
        t.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
        let b = t.begin("b");
        t.span("c", || ());
        t.end(b);
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        let agg = t.aggregate();
        assert_eq!(agg["a"].count, 1);
        let cov = t.coverage("bench.run");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
    }
}
