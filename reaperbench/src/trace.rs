//! Spans recorded by the benchmark around its own calls into the
//! program's public functions.
//!
//! Each thread owns a [`Tracer`]. A disabled tracer records nothing, so
//! the end-to-end run pays one branch per call site. Spans stay in memory
//! until the run ends; [`Trace`] then merges the threads' spans, derives
//! self times and writes them out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Identifies the request or unit of work the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open {
    index: usize,
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose name is given when it closes, so a call can be
    /// classified by what it turned out to do.
    pub fn begin(&mut self, request: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: "",
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        Some(Open { index })
    }

    /// Closes `open` (spans close innermost first) under `name`.
    pub fn end(&mut self, open: Option<Open>, name: &'static str) {
        let Some(open) = open else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.index), "spans close innermost first");
        let span = &mut self.spans[open.index];
        span.name = name;
        span.end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let open = self.begin(request);
        let out = f(self);
        self.end(open, name);
        out
    }
}

/// Per-name totals over a merged trace.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    pub count: u64,
    /// Every span's duration, in nanoseconds, in recording order.
    pub durations_ns: Vec<u64>,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The spans of every thread of one run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a thread's spans, rebasing its parent indices.
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len();
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (a, b) in intervals {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Totals by span name.
    pub fn summarize(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.durations_ns.push(span.duration_ns());
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// One JSON object per span: name, start, end, parent, request and
    /// self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let trace = Trace {
            spans: vec![
                Span {
                    name: "job",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    request: 1,
                },
                Span {
                    name: "a",
                    start_ns: 10,
                    end_ns: 30,
                    parent: Some(0),
                    request: 1,
                },
                Span {
                    name: "b",
                    start_ns: 50,
                    end_ns: 90,
                    parent: Some(0),
                    request: 1,
                },
                Span {
                    name: "c",
                    start_ns: 60,
                    end_ns: 70,
                    parent: Some(2),
                    request: 1,
                },
            ],
        };
        assert_eq!(trace.self_times(), vec![40, 20, 30, 10]);
        let summary = trace.summarize();
        assert_eq!(summary["job"].self_ns, 40);
        assert_eq!(summary["b"].total_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        let mut trace = Trace::default();
        trace.absorb(t);
        assert!(trace.spans.is_empty());
    }
}
