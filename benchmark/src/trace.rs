//! Spans around the driver's own calls into each layer. Kept in memory,
//! written out when the run ends. A disabled tracer never reads a
//! clock, so the untraced run that produces the end-to-end numbers
//! carries none of this.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span (or bare when tracing is off) and returns
    /// its result together with the span's id for use as a parent.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.span_id(name, parent, |_| f())
    }

    /// [`Tracer::span`], handing the new span's id to `f` so it can
    /// parent child spans.
    pub fn span_id<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Durations of every span called `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The span log as JSON: one object per span, tagged with the
    /// workload so spans of one run share an identifier.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("workload", Value::str(workload)),
                        ("id", Value::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.durations_ms("x").is_empty());
    }

    #[test]
    fn child_spans_name_their_parent() {
        let t = Tracer::new(true);
        t.span_id("parent", None, |id| {
            t.span("child", id, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let parent = t.durations_ms("parent")[0];
        let child = t.durations_ms("child")[0];
        assert!(child >= 5.0 && parent >= child);
        let json = t.to_json("w").encode();
        assert!(json.contains("\"name\": \"child\"") && json.contains("\"workload\": \"w\""));
        // The child finished first, so it was logged first, with the
        // parent's id (1) as its parent; the parent has none.
        assert!(json.contains("\"id\": 2") && json.contains("\"parent\": 1"));
        assert!(json.contains("\"parent\": null"));
    }
}
