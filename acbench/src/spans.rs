//! Host spans: one per timed call, kept in memory and written out as
//! Chrome trace JSON when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{ArgValue, TraceBuffer, TraceConfig, PID_HOST};

/// One timed call. Times are nanoseconds since the clock started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, where the layer is the crate called into.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Spans of one pass or serving rung share a group.
    pub group: u32,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Times calls; records a [`Span`] for each when armed.
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
    group: u32,
}

/// An open timing, closed by [`HostClock::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Timer {
    start: Instant,
    span: Option<usize>,
}

impl HostClock {
    /// A clock that records spans only when `record` is set.
    pub fn new(record: bool) -> HostClock {
        HostClock {
            origin: Instant::now(),
            spans: record.then(Vec::new),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// Tag the spans opened from now on with `group`.
    pub fn set_group(&mut self, group: u32) {
        self.group = group;
    }

    /// Start timing a call named `name`.
    pub fn enter(&mut self, name: &str) -> Timer {
        let start = Instant::now();
        let span = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name: name.to_string(),
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                group: self.group,
            });
            spans.len() - 1
        });
        if let Some(id) = span {
            self.stack.push(id);
        }
        Timer { start, span }
    }

    /// Stop timing; returns the elapsed seconds.
    pub fn exit(&mut self, t: Timer) -> f64 {
        let end = Instant::now();
        if let (Some(id), Some(spans)) = (t.span, self.spans.as_mut()) {
            spans[id].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            self.stack.pop();
        }
        end.duration_since(t.start).as_secs_f64()
    }

    /// Time `f` as one call named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = self.enter(name);
        let out = f();
        (out, self.exit(t))
    }

    /// The recorded spans (empty when not armed).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its child spans cover, summed by [`Span::layer`].
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer().to_string()).or_insert(0.0) +=
            s.dur_ns().saturating_sub(c) as f64 * 1e-9;
    }
    out
}

/// Render spans as Chrome trace JSON (timestamps in µs of host time).
/// Each span carries its id and its parent's id.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut tb = TraceBuffer::new(TraceConfig {
        max_events: spans.len(),
        ..TraceConfig::default()
    });
    for (id, s) in spans.iter().enumerate() {
        let mut args = vec![("id".to_string(), ArgValue::U64(id as u64))];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), ArgValue::U64(p as u64)));
        }
        tb.span(
            &s.name,
            s.layer(),
            PID_HOST,
            s.group,
            s.start_ns,
            s.dur_ns(),
            args,
        );
    }
    trace::to_chrome_json(&tb, 1_000.0)
}
