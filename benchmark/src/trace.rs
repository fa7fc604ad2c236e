//! Spans recorded by the traced run.
//!
//! The benchmark times the engine from outside: a span is opened around
//! each call into a layer, kept in memory, and the lot is written out when
//! the run ends. A span names its layer, the span that caused it, and the
//! request or batch it belongs to.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    /// Request id, batch number or segment number the span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the trace began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (a parent for others).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet (a parent of what follows).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.now();
        self.record(name, parent, id, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Time `f` as a child span of `parent`; returns its result and the
    /// span's duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, id, start, end);
        (out, end - start)
    }

    pub fn duration(&self, span: usize) -> u64 {
        self.spans[span].end_ns - self.spans[span].start_ns
    }

    /// Every span's self time: its duration minus the part of it its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        )?;
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"id\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}{comma}",
                s.name, s.id, s.start_ns, s.end_ns, own[i]
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Trace::new();
        let root = t.record("root", None, 0, 0, 1000);
        t.record("a", Some(root), 1, 100, 400);
        let b = t.record("b", Some(root), 2, 400, 900);
        t.record("b.inner", Some(b), 2, 500, 600);
        assert_eq!(t.self_ns(), vec![1000 - 300 - 500, 300, 400, 100]);
        assert_eq!(t.duration(b), 500);
    }
}
