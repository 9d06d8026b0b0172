//! Host-time spans recorded by the benchmark around its calls into each
//! layer. Spans live in memory until the run ends; nothing inside the
//! simulator is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use mtsim_obs::{spans_to_chrome_trace, TraceSpan};

/// One closed span: host nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced pass runs the same code without the clock reads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `layer.operation`; its parent is the innermost
    /// span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as a Perfetto-loadable trace, in microseconds, all on
    /// one track so nesting shows the parent of every span.
    pub fn chrome_json(&self, title: &str) -> String {
        let spans: Vec<TraceSpan> = self
            .spans
            .iter()
            .map(|s| TraceSpan {
                name: s.name.to_string(),
                track: "bench".into(),
                start: s.start_ns / 1000,
                dur: (s.end_ns - s.start_ns) / 1000,
            })
            .collect();
        spans_to_chrome_trace(title, &spans)
    }
}
