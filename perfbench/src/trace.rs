//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer
//! (never inside the program). A span has a name, start, end, parent
//! and an id shared by every span of one point, chunk or request. A
//! layer's self time is its span minus the time its child spans cover.

use std::io;
use std::time::Instant;

use socbuf::sweep::{PointSink, SweepPoint};

use crate::util::{push_num, push_str};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Point, chunk or request the span belongs to.
    pub id: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Offsets from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's spans. A disabled tracer records nothing and costs one
/// branch per call, which is how the untraced phases run.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let r = f();
        self.end();
        r
    }

    /// Records a span measured elsewhere (e.g. reported by the server)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A finished set of spans, possibly merged from several threads
/// (`lane` tells the threads apart).
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<(usize, Span)>,
}

impl Trace {
    pub fn absorb(&mut self, lane: usize, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            (lane, s)
        }));
    }

    /// Appends another trace, its lanes after this one's.
    pub fn append(&mut self, other: Trace) {
        let lanes = self.spans.iter().map(|(l, _)| l + 1).max().unwrap_or(0);
        let base = self.spans.len();
        self.spans
            .extend(other.spans.into_iter().map(|(lane, mut s)| {
                s.parent = s.parent.map(|p| p + base);
                (lane + lanes, s)
            }));
    }

    /// Self time of every span, in microseconds.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|(_, s)| s.dur_us()).collect();
        for (_, s) in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own.into_iter().map(|v| v.max(0.0)).collect()
    }

    /// Durations of the spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur_us())
            .collect()
    }

    /// Self times of the spans called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_us();
        self.spans
            .iter()
            .zip(own)
            .filter(|((_, s), _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (lane, s)) in self.spans.iter().enumerate() {
            out.push_str("{\"i\":");
            out.push_str(&i.to_string());
            out.push_str(",\"lane\":");
            out.push_str(&lane.to_string());
            out.push_str(",\"name\":");
            push_str(&mut out, s.name);
            out.push_str(",\"id\":");
            out.push_str(&s.id.to_string());
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"start_us\":");
            push_num(&mut out, s.start_ns as f64 / 1e3);
            out.push_str(",\"end_us\":");
            push_num(&mut out, s.end_ns as f64 / 1e3);
            out.push_str("}\n");
        }
        out
    }
}

/// A sink wrapper with a span around each point the inner sink renders
/// (a no-op when the tracer is disabled).
pub struct Timed<S> {
    pub inner: S,
    pub tr: Tracer,
}

impl<S: PointSink> PointSink for Timed<S> {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        self.tr.begin("sweep.stream.render", point.index as u64);
        let r = self.inner.accept(point);
        self.tr.end();
        r
    }
}
