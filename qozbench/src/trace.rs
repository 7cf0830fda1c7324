//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a workspace crate's public API: name, start, end, parent, and
//! the operation they belong to. Nothing is written while a workload
//! runs; [`take`] hands the spans over at the end. With no tracer
//! installed on the thread, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation (facade call) this span belongs to.
    pub op_id: u64,
    /// Index of this span in the trace.
    pub span_id: usize,
    /// Enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// `<crate>.<call>` of the layer that was called.
    pub name: &'static str,
    /// Start, ns since the tracer was installed.
    pub start_ns: u64,
    /// End, ns since the tracer was installed.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Named counters added with [`count`].
    pub counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Per-span self time: span time minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_default() += ns;
        }
        out
    }

    /// Total inclusive time per span name.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.dur_ns();
        }
        out
    }

    /// Counter value (0 when never counted).
    pub fn count_of(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The trace as JSON: every span plus per-name self and total time.
    pub fn to_json(&self) -> String {
        use crate::json::Obj;
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                Obj::new()
                    .num("op_id", s.op_id as f64)
                    .num("span_id", s.span_id as f64)
                    .raw(
                        "parent",
                        &s.parent.map_or("null".to_string(), |p| p.to_string()),
                    )
                    .str("name", s.name)
                    .num("start_ns", s.start_ns as f64)
                    .num("end_ns", s.end_ns as f64)
                    .finish()
            })
            .collect();
        let by = |m: BTreeMap<&'static str, u64>| {
            m.into_iter()
                .fold(Obj::new(), |o, (k, v)| o.num(k, v as f64))
                .finish()
        };
        let counts = self
            .counts
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.num(k, *v))
            .finish();
        Obj::new()
            .raw("self_ns", &by(self.self_by_name()))
            .raw("total_ns", &by(self.total_by_name()))
            .raw("counts", &counts)
            .raw("spans", &format!("[{}]", spans.join(",\n")))
            .finish()
    }
}

struct Tracer {
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    trace: Trace,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread (replacing any earlier recording).
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            trace: Trace::default(),
        })
    });
}

/// Stop recording on this thread and return what was recorded.
pub fn take() -> Trace {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.trace).unwrap_or_default())
}

/// Run `f` inside a span named `name`. A span opened with no enclosing
/// span starts a new operation.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let parent = t.stack.last().copied();
        if parent.is_none() {
            t.op += 1;
        }
        let span_id = t.trace.spans.len();
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.trace.spans.push(Span {
            op_id: t.op,
            span_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        t.stack.push(span_id);
        Some(span_id)
    });
    let out = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.trace.spans[id].end_ns = t.t0.elapsed().as_nanos() as u64;
                t.stack.pop();
            }
        });
    }
    out
}

/// Add `v` to the counter `name` (a no-op when not recording).
pub fn count(name: &'static str, v: f64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            *t.trace.counts.entry(name).or_default() += v;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_are_numbered() {
        install();
        span("api.root", || {
            span("a.child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("b.child", || count("b.calls", 1.0));
        });
        span("api.root", || {});
        let t = take();
        assert!(take().spans.is_empty(), "take uninstalls");
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].op_id, 2);
        let own = t.self_ns();
        assert_eq!(
            own[0],
            t.spans[0].dur_ns() - t.spans[1].dur_ns() - t.spans[2].dur_ns()
        );
        assert!(t.self_by_name()["a.child"] >= 2_000_000);
        assert_eq!(t.count_of("b.calls"), 1.0);
    }

    #[test]
    fn untraced_spans_just_call_through() {
        assert_eq!(span("x.y", || 7), 7);
        assert!(take().spans.is_empty());
    }
}
