//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call made from this crate.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span timed elsewhere (another thread, or a call whose
    /// interval the caller measured itself).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part its children cover, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(4);
        let root = t.open("request", None, 1);
        t.span("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let total = t.durations_us("request")[0];
        let own = t.self_us("request")[0];
        let child = t.durations_us("child")[0];
        assert!(child >= 2_000.0);
        assert!((total - own - child).abs() < 1e-6);
    }
}
