//! The span recorder of the traced run. It lives in the benchmark: every
//! layer is entered from outside, through its public functions, and a span
//! brackets the call. Spans stay in memory and are written when the run
//! ends.

use serde::json::Json;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one auction day share its number.
    pub day: usize,
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// untraced run pays nothing but the clock reads it needs anyway.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    pub day: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            day: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that started at `start`; spans opened before it closes
    /// become its children.
    pub fn open(&mut self, name: &'static str, start: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            day: self.day,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span at `end`.
    pub fn close(&mut self, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = self.open.pop().expect("a span is open");
        self.spans[span].end_ns = self.ns(end);
    }

    /// Records a finished leaf span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.open(name, start);
        self.close(end);
    }

    /// Times `f` as a leaf span and returns its result with the duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.leaf(name, start, end);
        (result, end - start)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("start_ns".to_string(), Json::U64(s.start_ns)),
                        ("end_ns".to_string(), Json::U64(s.end_ns)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("day".to_string(), Json::U64(s.day as u64)),
                    ])
                })
                .collect(),
        )
    }
}
