//! In-memory spans recorded by the benchmark around calls into the
//! library. A span has a name, start, end and parent; a name's self
//! time is its spans' durations minus the time of their child spans.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span, times relative to the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.warm_up`.
    pub name: &'static str,
    /// Start offset from the tracer origin.
    pub start: Duration,
    /// End offset from the tracer origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Span recorder. Single-threaded: spans of work done on other threads
/// are added after the fact with [`Tracer::record`].
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Empty tracer with room for `capacity` spans, so that recording
    /// does not reallocate inside measured regions.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer { t0: Instant::now(), spans: Vec::with_capacity(capacity), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.t0.elapsed();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Add a finished span (e.g. timed on a worker thread) under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let rel = |t: Instant| t.saturating_duration_since(self.t0);
        self.spans.push(Span { name, start: rel(start), end: rel(end), parent });
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur().as_secs_f64()).sum()
    }

    /// Durations of the spans named `name`, in seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur().as_secs_f64()).collect()
    }

    /// Self time per span name (duration minus child-span time), in
    /// seconds, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for (s, c) in self.spans.iter().zip(&child) {
            *by_name.entry(s.name).or_default() += s.dur().saturating_sub(*c).as_secs_f64();
        }
        by_name.into_iter().collect()
    }

    /// Write every span as one JSON line: name, start and end in
    /// microseconds, and the parent index (-1 for a root).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or(-1, |p| p as i64)
            )?;
        }
        out.flush()
    }
}
