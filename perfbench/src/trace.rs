//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own code around calls into each layer, kept in memory while
//! the timed window runs, and written out once at the end.

use std::time::{Duration, Instant};

/// One span: a named interval with an optional parent span and the
/// identifier of the operation (solver round or served job) it belongs to.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// A span list against one time origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Record a finished span; returns its index (usable as a parent).
    pub fn record(&mut self, name: &'static str, op: u64, parent: Option<usize>, t0: Instant, t1: Instant) -> usize {
        self.spans.push(Span { name, op, parent, start: t0 - self.origin, end: t1 - self.origin });
        self.spans.len() - 1
    }

    /// Append another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Serialize as a JSON array (one object per span, times in µs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}{}\n",
                s.name,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
