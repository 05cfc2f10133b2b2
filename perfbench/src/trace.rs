//! Bench-side spans: timed calls into each layer's public functions.
//!
//! Every timed call goes through [`Tracer::enter`]/[`Tracer::exit`], which
//! always return the call's duration. Only a recording tracer (the traced
//! run) also keeps the span — name, start, end, parent — in memory. At the
//! end the spans, plus any engine phase slices imported from a
//! `JournalRecorder`, give each layer's self time and a Perfetto trace.

use std::collections::BTreeMap;
use std::time::Instant;

use tsa_dash::{SpanSlice, TraceBuilder};

/// One completed span, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Display track: 0 for bench spans, else an imported track.
    pub track: u64,
}

/// An open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open {
    started: Instant,
}

/// Times calls; keeps spans only when recording.
pub struct Tracer {
    epoch: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Indices of recorded spans still open, innermost last.
    stack: Vec<usize>,
    /// Imported tracks: (track id, label).
    tracks: Vec<(u64, String)>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            record,
            spans: Vec::new(),
            stack: Vec::new(),
            tracks: vec![(0, "bench calls".to_string())],
        }
    }

    pub fn recording(&self) -> bool {
        self.record
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if self.record {
            // Reserve the slot now so children can point at it.
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                track: 0,
            });
            self.stack.push(self.spans.len() - 1);
        }
        Open {
            started: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let ended = Instant::now();
        let ns = ended.duration_since(open.started).as_nanos() as u64;
        if self.record {
            let idx = self.stack.pop().expect("exit matches an enter");
            let (start_ns, end_ns) = (
                self.ns_since_epoch(open.started),
                self.ns_since_epoch(ended),
            );
            let span = &mut self.spans[idx];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        ns
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Imports engine phase slices recorded by a `JournalRecorder` created
    /// at `recorder_epoch`, onto a track of their own. Each slice's parent is
    /// the innermost bench span or slice of the same track containing its
    /// midpoint (slices have microsecond resolution, so containment of the
    /// endpoints would be fragile).
    pub fn import(&mut self, label: &str, recorder_epoch: Instant, slices: &[SpanSlice]) {
        if !self.record {
            return;
        }
        let track = self.tracks.len() as u64;
        self.tracks.push((track, label.to_string()));
        let offset = self.ns_since_epoch(recorder_epoch);
        let first = self.spans.len();
        for s in slices {
            let start_ns = offset + s.start_us * 1_000;
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns,
                end_ns: start_ns + s.dur_us * 1_000,
                parent: None,
                track,
            });
        }
        for i in first..self.spans.len() {
            let mid = (self.spans[i].start_ns + self.spans[i].end_ns) / 2;
            let dur = self.spans[i].end_ns - self.spans[i].start_ns;
            self.spans[i].parent = self
                .spans
                .iter()
                .enumerate()
                .filter(|&(j, p)| {
                    j != i
                        && (p.track == 0 || p.track == track)
                        && p.start_ns <= mid
                        && mid <= p.end_ns
                        && (p.end_ns - p.start_ns > dur || (p.end_ns - p.start_ns == dur && j < i))
                })
                .min_by_key(|(_, p)| p.end_ns - p.start_ns)
                .map(|(j, _)| j);
        }
    }

    /// Per span name: (count, total ns, self ns). A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as a Chrome-trace/Perfetto document: one thread per track.
    pub fn to_perfetto(&self, process: &str) -> String {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, process);
        for (track, label) in &self.tracks {
            trace.thread_name(1, track + 1, label);
        }
        for s in &self.spans {
            trace.slice(
                1,
                s.track + 1,
                &s.name,
                s.start_ns / 1_000,
                (s.end_ns - s.start_ns) / 1_000,
            );
        }
        trace.to_json()
    }
}
