//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into each
//! layer of the library — `run → setup | measure → round → op | teardown`,
//! and `run → ladder → <rung>`; spans *inside* the library are a later
//! change. They stay in memory and are written once, when the run ends.
//! Ops are sampled (one in [`OP_SAMPLE_EVERY`]) so memory stays bounded; a
//! sampled span stands for `every` like it when self time is computed.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const OP_SAMPLE_EVERY: u32 = 16;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Id of the span that caused this one; 0 for the root.
    pub parent: u32,
    /// Index of the operation among its driver's operations (0 when the
    /// span is not an operation).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many spans this one stands for (sampling factor).
    pub every: u32,
}

/// Where a callee hangs its spans: the tracer and the id of the parent span,
/// or `None` when the run is untraced.
pub type TraceParent<'a> = Option<(&'a Tracer, u32)>;

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the tracer's start to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("a thread panicked while appending spans")
            .extend(spans);
    }

    /// Run `f` inside a span named `name` under `parent`, or just run it when
    /// the run is untraced; `f` gets what its own children hang on.
    pub fn spanned<R>(
        parent: TraceParent<'_>,
        name: &'static str,
        f: impl FnOnce(TraceParent<'_>) -> R,
    ) -> R {
        match parent {
            Some((t, id)) => t.scope(name, id, |own| f(Some((t, own)))),
            None => f(None),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` gets the new
    /// span's id to hang children on.
    pub fn scope<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next_id();
        let start = Instant::now();
        let r = f(id);
        self.extend(vec![Span {
            name,
            id,
            parent,
            op: 0,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
            every: 1,
        }]);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"every\": {}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.every
            )?;
        }
        w.flush()
    }

    /// Per span name: how many were recorded, their total duration, and
    /// their self time — duration minus the part their children cover
    /// (a sampled child counts `every` times). Sorted by self time.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += (s.end_ns - s.start_ns) * s.every as u64;
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, SelfTime>::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                recorded: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.recorded += 1;
            e.total_ns += dur * s.every as u64;
            e.self_ns += own * s.every as u64;
        }
        let mut out: Vec<SelfTime> = by_name.into_values().collect();
        out.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
        out
    }
}

#[derive(Debug, Clone)]
pub struct SelfTime {
    pub name: &'static str,
    pub recorded: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_scales_sampled_ones() {
        let t = Tracer::new();
        let span = |name, id, parent, start_ns, end_ns, every| Span {
            name,
            id,
            parent,
            op: 0,
            start_ns,
            end_ns,
            every,
        };
        t.extend(vec![
            span("run", 1, 0, 0, 1000, 1),
            span("round", 2, 1, 100, 900, 1),
            // One recorded op of 10 ns standing for 16 of them.
            span("op", 3, 2, 200, 210, 16),
        ]);
        let st = t.self_times();
        let get = |n: &str| st.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("run").self_ns, 200);
        assert_eq!(get("round").self_ns, 800 - 160);
        assert_eq!(get("op").total_ns, 160);
        assert_eq!(get("op").self_ns, 160);
    }
}
