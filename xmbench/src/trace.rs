//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! module's public functions: name, start, end, parent span and request
//! id. They stay in memory while the run measures and are written out as
//! JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Operation (request) this span belongs to.
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. Threads sharing an epoch produce spans
/// on one time axis; [`Tracer::absorb`] merges them.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total nanoseconds per name over the layer spans: every span that
    /// has a parent (the roots mark whole operations or clients).
    pub fn layer_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            *out.entry(s.name).or_default() += s.ns();
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut t = Tracer::new(Instant::now());
        let op = t.enter("op", 7);
        t.time("a", 7, || ());
        t.time("b", 7, || ());
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        let layers = t.layer_totals();
        assert_eq!(layers.keys().copied().collect::<Vec<_>>(), ["a", "b"]);
        assert!(layers["a"] + layers["b"] <= spans[0].ns());

        let mut other = Tracer::new(Instant::now());
        let root = other.enter("op", 8);
        other.time("a", 8, || ());
        other.exit(root);
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));
    }
}
