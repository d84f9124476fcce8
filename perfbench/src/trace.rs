//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is a name, a start and end on one monotonic clock, and the index
//! of the span that was open when it started. Spans stay in memory and are
//! written out once, when the run ends, so recording costs two clock reads
//! and a push. Nothing inside the program is instrumented: every span sits
//! in this crate, around a call into a public function.

use serde::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// span still open.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// self_ns}` objects.
    pub fn to_json(&self) -> Value {
        let own = self.self_seconds();
        Value::Array(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.clone())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("self_ns".into(), Value::UInt((own.max(0.0) * 1e9) as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Run `f` inside a span when tracing, or bare when not: the untraced run
/// pays no clock read and no allocation for the trace.
pub fn span<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        let own = t.self_seconds();
        assert!(own[0] < t.spans()[0].seconds());
        assert!(own[0] >= 0.0);
        assert_eq!(t.seconds("inner").len(), 1);
    }
}
