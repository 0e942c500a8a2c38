//! Spans recorded by the benchmark around its calls into the product.
//!
//! A span is `(name, start_ns, end_ns, parent, request)`. Spans stay in
//! memory and are written as JSON lines when the run ends. Spans inside
//! the product are a later change; these sit at the layer boundaries the
//! benchmark can see from outside.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Marks a span that has no parent or belongs to no request.
const NONE: i64 = -1;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub request: i64,
}

/// An open span, closed by [`Tracer::end`]. `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_request(name, NONE)
    }

    /// Opens a span that belongs to request `request`.
    #[inline]
    pub fn begin_request(&mut self, name: &'static str, request: i64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().map_or(NONE, |&p| p as i64),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total time, and their self time
    /// (duration minus the part their child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(child);
        }
        by_name
    }

    /// Writes one JSON object per span; a span's id is its line number
    /// (from 0), which is what `parent` refers to.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.parent, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let round = t.begin("round");
        for request in 0..3 {
            let call = t.begin_request("execute", request);
            std::hint::black_box((0..1000).sum::<u64>());
            t.end(call);
        }
        t.end(round);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[0].parent, NONE);
        assert!(t.spans()[1..].iter().all(|s| s.parent == 0));
        assert_eq!(t.spans()[3].request, 2);
        let times = t.self_times();
        let (n, total, own) = times["round"];
        let (calls, call_total, call_own) = times["execute"];
        assert_eq!((n, calls), (1, 3));
        assert_eq!(call_total, call_own);
        assert_eq!(own, total - call_total);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("round");
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
