//! In-memory spans for the traced runs, written out once at exit.
//!
//! A span is one timed call into a layer: its name, an id, the id of
//! the span that caused it (0 for a root), and its start and end in
//! nanoseconds since the recorder was created. Per-offer and per-commit
//! durations are far too many to keep as spans; they are kept as raw
//! samples instead (see [`crate::stats::Samples`]).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name, e.g. `engine.submit_batch`.
    pub name: &'static str,
    /// This span's id (1-based).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Start, ns since the recorder's base.
    pub start_ns: u64,
    /// End, ns since the recorder's base.
    pub end_ns: u64,
}

/// A bounded in-memory span recorder.
pub struct Spans {
    base: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_id: u64,
}

impl Spans {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            base: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
            next_id: 1,
        }
    }

    /// Nanoseconds since the recorder's base.
    #[inline]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose children are recorded
    /// before it ends (see [`Spans::record_as`]).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a call that ran from `start` to `end`; returns its id
    /// (ids are assigned even when the span is dropped at the cap).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, start, end);
        id
    }

    /// Records a call under an id obtained from [`Spans::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() < self.cap {
            let span = Span {
                name,
                id,
                parent,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Writes one JSON object per span (plus a trailing summary line
    /// with the dropped count) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        writeln!(
            w,
            "{{\"summary\":true,\"kept\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        w.flush()
    }
}
