//! Spans around layer calls, recorded into the program's own flight
//! recorder (`relcnn_obs::trace`) and kept as durations for the metrics.
//!
//! Durations are taken from `Instant` at nanosecond resolution; the ring
//! gets the same interval on the recorder's microsecond clock, so the
//! exported Chrome trace and the reported metrics describe one
//! measurement.

use crate::stats::median;
use relcnn_obs::trace::{Arg, TraceRecorder, TraceRing};
use std::collections::BTreeMap;
use std::time::Instant;

/// The start of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    begin_us: u64,
    start: Instant,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Spans {
    rec: TraceRecorder,
    ring: TraceRing,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Spans recorded on `rec`'s ring `label` (nothing is recorded when
    /// `rec` is off, but durations are still kept).
    pub fn new(rec: &TraceRecorder, label: &str) -> Self {
        Spans {
            rec: rec.clone(),
            ring: rec.ring(label),
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span `name` for operation `op`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let mark = self.begin();
        let out = f();
        self.end(mark, name, op);
        out
    }

    /// Opens a span; [`Spans::end`] closes it. For spans whose body
    /// records child spans itself.
    pub fn begin(&self) -> Mark {
        Mark {
            begin_us: self.rec.now_us(),
            start: Instant::now(),
        }
    }

    /// Closes the span opened at `mark` as `name` for operation `op`. The
    /// span's category is the layer: the part of `name` before the first
    /// dot.
    pub fn end(&mut self, mark: Mark, name: &'static str, op: u64) {
        let ms = mark.start.elapsed().as_secs_f64() * 1e3;
        let end_us = self.rec.now_us();
        let cat = name.split('.').next().unwrap_or(name);
        self.ring
            .span(name, cat, mark.begin_us, end_us, &[Arg::U("op", op)]);
        self.push(name, ms);
    }

    /// Adds a duration measured elsewhere.
    pub fn push(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }

    /// Every duration recorded under `name`, in milliseconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Median duration of `name` in milliseconds (0 when never recorded).
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }
}
