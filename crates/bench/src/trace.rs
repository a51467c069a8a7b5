//! Trace-tree reconstruction and critical-path analysis for `--trace`
//! JSON-lines files (see `pgas_sim::telemetry` for the span model).
//!
//! Every span carries `trace`/`span`/`parent` ids. Structure ops emit
//! self-rooted spans (`parent == 0`); remote-op spans nest under the
//! ambient op via cross-locale context propagation. This module rebuilds
//! those trees and decomposes each root's virtual-time duration into
//! components with **exact** accounting:
//!
//! Let `dur(s) = end − issue` and `excl(s) = dur(s) − Σ dur(children)`.
//! Summing `excl` over a tree telescopes to `dur(root)` *algebraically* —
//! independent of clock anomalies — so bucketing every span's exclusive
//! time by its class yields components that sum to the root duration
//! exactly:
//!
//! * `local`     — exclusive time of structure / atomic-object op spans;
//! * `wire`      — the two wire legs of each `am_round_trip`
//!   (`2 × (arrive − issue)`; request and reply charge the same
//!   `am_wire_ns`);
//! * `queueing`  — AM server-slot waits (`start − arrive`);
//! * `handler`   — the remainder of each AM span's exclusive time;
//! * `retry`     — fault-injection retry spans;
//! * `combine`   — exclusive time of `combine_ride` spans (publication
//!   linger + combined execution not attributed to a nested AM);
//! * `other`     — any other span class.
//!
//! Components are `i128`: on a clean trace every bucket is non-negative,
//! and a child that escapes its parent's interval is reported as a
//! nesting violation rather than silently clamped.

use std::collections::BTreeMap;

use pgas_nb::sim::telemetry::{opkind, unpack_op_tag, OpClass};

use crate::json;

/// One parsed trace span (a line of the `--trace` JSON-lines file).
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Op-class name as emitted (`queue_op`, `am_round_trip`, ...).
    pub class: String,
    /// Issuing locale.
    pub src: u64,
    /// Executing locale.
    pub dest: u64,
    /// Virtual time the operation was issued.
    pub issue: u64,
    /// Virtual time the request reached the destination.
    pub arrive: u64,
    /// Virtual time the handler/op actually started.
    pub start: u64,
    /// Virtual time the operation (including any reply wire) completed.
    pub end: u64,
    /// Class-specific payload (server slot, packed op tag, ...).
    pub tag: u64,
    /// Trace id (the root span's id).
    pub trace: u64,
    /// This span's id (unique per trace file; never 0).
    pub span: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
}

impl TraceSpan {
    /// Total virtual-time duration, issue to completion.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.issue)
    }
}

/// Extract an integer field from the raw line text. Span ids embed the
/// locale in bits 48+, so they can exceed 2^53 and must not round-trip
/// through the parser's `f64` numbers.
fn u64_field(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = line[at + pat.len()..].trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits
        .parse::<u64>()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// Parse one JSON-lines span record. The line is first validated as JSON
/// via [`crate::json::parse`]; 64-bit fields are then re-extracted from
/// the raw text for exactness (see `u64_field`).
pub fn parse_line(line: &str) -> Result<TraceSpan, String> {
    let v = json::parse(line)?;
    let obj = v.as_obj().ok_or("span line is not a JSON object")?;
    let class = obj
        .get("class")
        .and_then(|c| c.as_str())
        .ok_or("span missing string field \"class\"")?
        .to_string();
    Ok(TraceSpan {
        class,
        src: u64_field(line, "src")?,
        dest: u64_field(line, "dest")?,
        issue: u64_field(line, "issue")?,
        arrive: u64_field(line, "arrive")?,
        start: u64_field(line, "start")?,
        end: u64_field(line, "end")?,
        tag: u64_field(line, "tag")?,
        trace: u64_field(line, "trace")?,
        span: u64_field(line, "span")?,
        parent: u64_field(line, "parent")?,
    })
}

/// Parse a whole JSON-lines trace file body. Empty lines are skipped;
/// the first malformed line aborts with its line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceSpan>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// A root span's duration decomposed by component. All values in virtual
/// nanoseconds; signed so nesting violations surface as negatives instead
/// of silently clamping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Components {
    /// Exclusive time of structure / atomic-object op spans.
    pub local: i128,
    /// Wire legs of AM round trips (request + reply) and one-sided
    /// versioned-read GETs.
    pub wire: i128,
    /// AM server-slot queueing (`start − arrive`).
    pub queueing: i128,
    /// AM handler execution (exclusive of nested spans).
    pub handler: i128,
    /// Fault-injection retry penalties.
    pub retry: i128,
    /// Combining-ride exclusive time (publication linger etc.).
    pub combine: i128,
    /// Any other span class.
    pub other: i128,
}

impl Components {
    /// Sum of every component — equals the root's `dur()` exactly.
    pub fn total(&self) -> i128 {
        self.local
            + self.wire
            + self.queueing
            + self.handler
            + self.retry
            + self.combine
            + self.other
    }

    fn accumulate(&mut self, o: &Components) {
        self.local += o.local;
        self.wire += o.wire;
        self.queueing += o.queueing;
        self.handler += o.handler;
        self.retry += o.retry;
        self.combine += o.combine;
        self.other += o.other;
    }
}

/// Span classes whose exclusive time is the op's own (local) work.
fn is_op_class(class: &str) -> bool {
    OpClass::from_name(class).is_some_and(OpClass::is_op_root)
}

/// Analysis of one root span's tree.
#[derive(Debug, Clone)]
pub struct RootSummary {
    /// Index of the root in [`Analysis::spans`].
    pub root: usize,
    /// Number of spans in the tree (including the root).
    pub tree_size: usize,
    /// The decomposition; `comps.total() == spans[root].dur()` always.
    pub comps: Components,
    /// Children whose `[issue, end]` escapes their parent's interval.
    pub nesting_violations: usize,
}

/// A reconstructed trace forest.
#[derive(Debug)]
pub struct Analysis {
    /// All parsed spans, input order.
    pub spans: Vec<TraceSpan>,
    /// Indices of root spans (`parent == 0`), sorted by (issue, span id).
    pub roots: Vec<usize>,
    /// Indices of orphans: spans whose parent id is unknown. Reported,
    /// never silently dropped.
    pub orphans: Vec<usize>,
    /// Spans whose id duplicates an earlier span's (a malformed trace).
    pub duplicate_ids: usize,
    /// Per-root decompositions, same order as `roots`.
    pub per_root: Vec<RootSummary>,
}

impl Analysis {
    /// Fraction of spans attached to a rooted tree, in percent.
    pub fn rooted_pct(&self) -> f64 {
        if self.spans.is_empty() {
            return 100.0;
        }
        let rooted: usize = self.per_root.iter().map(|r| r.tree_size).sum();
        100.0 * rooted as f64 / self.spans.len() as f64
    }

    /// Total nesting violations across all trees.
    pub fn nesting_violations(&self) -> usize {
        self.per_root.iter().map(|r| r.nesting_violations).sum()
    }

    /// True when every root's components sum exactly to its duration.
    /// Holds algebraically; exposed so callers (tests, CI) can assert the
    /// implementation never drifts from the identity.
    pub fn accounting_exact(&self) -> bool {
        self.per_root
            .iter()
            .all(|r| r.comps.total() == self.spans[r.root].dur() as i128)
    }
}

/// Reconstruct trace trees and decompose every root.
pub fn analyze(spans: Vec<TraceSpan>) -> Analysis {
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut duplicate_ids = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if by_id.insert(s.span, i).is_some() {
            duplicate_ids += 1;
        }
    }
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut roots = Vec::new();
    let mut orphans = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 {
            roots.push(i);
        } else if let Some(&p) = by_id.get(&s.parent) {
            children.entry(p).or_default().push(i);
        } else {
            orphans.push(i);
        }
    }
    // Deterministic traversal order regardless of sink interleaving.
    roots.sort_by_key(|&i| (spans[i].issue, spans[i].span));
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| (spans[i].issue, spans[i].span));
    }

    let mut per_root = Vec::with_capacity(roots.len());
    for &root in &roots {
        let mut comps = Components::default();
        let mut tree_size = 0usize;
        let mut violations = 0usize;
        // Iterative DFS; the trace format cannot express cycles (ids are
        // allocated after the parent's), but cap depth defensively.
        let mut stack = vec![root];
        let mut seen = 0usize;
        while let Some(i) = stack.pop() {
            seen += 1;
            if seen > spans.len() + 1 {
                break; // corrupt parent links; orphan counting still holds
            }
            tree_size += 1;
            let s = &spans[i];
            let kid_durs: i128 = children
                .get(&i)
                .map(|ks| ks.iter().map(|&k| spans[k].dur() as i128).sum())
                .unwrap_or(0);
            if let Some(ks) = children.get(&i) {
                for &k in ks {
                    let c = &spans[k];
                    if c.issue < s.issue || c.end > s.end {
                        violations += 1;
                    }
                    stack.push(k);
                }
            }
            let excl = s.dur() as i128 - kid_durs;
            if is_op_class(&s.class) {
                comps.local += excl;
            } else {
                match s.class.as_str() {
                    "am_round_trip" => {
                        let wire = 2 * (s.arrive.saturating_sub(s.issue)) as i128;
                        let queue = s.start.saturating_sub(s.arrive) as i128;
                        comps.wire += wire;
                        comps.queueing += queue;
                        comps.handler += excl - wire - queue;
                    }
                    "retry" => comps.retry += excl,
                    "combine_ride" => comps.combine += excl,
                    // A versioned fast read is a pure one-sided wire op:
                    // no server slot, no handler. Its exclusive time (the
                    // GET legs, minus any nested fault-retry spans) is all
                    // wire — this is how the read class visibly migrates
                    // off the handler component when the fast path is on.
                    "versioned_read" => comps.wire += excl,
                    _ => comps.other += excl,
                }
            }
        }
        per_root.push(RootSummary {
            root,
            tree_size,
            comps,
            nesting_violations: violations,
        });
    }

    Analysis {
        spans,
        roots,
        orphans,
        duplicate_ids,
        per_root,
    }
}

/// Virtual nanoseconds rendered as microseconds with three decimals —
/// exact (ns resolution) and bit-stable across runs.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn us_i(ns: i128) -> String {
    if ns < 0 {
        format!("-{}", us(ns.unsigned_abs().min(u64::MAX as u128) as u64))
    } else {
        us(ns.min(u64::MAX as i128) as u64)
    }
}

/// Human-readable label for a root span: class plus (for op spans) the
/// decoded op kind and retry count packed in the tag.
pub fn root_label(s: &TraceSpan) -> String {
    if is_op_class(&s.class) {
        let (kind, retries, _) = unpack_op_tag(s.tag);
        let name = opkind::name(kind);
        if retries > 0 {
            format!("{}:{name} (retries {retries})", s.class)
        } else {
            format!("{}:{name}", s.class)
        }
    } else {
        s.class.clone()
    }
}

/// Render the plain-text analysis report: overall stats, a per-structure
/// component breakdown, and per-op-class top-`top_n` tables.
pub fn report(a: &Analysis, top_n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "spans: {}  roots: {}  orphans: {}  duplicate-ids: {}  rooted: {:.2}%  nesting-violations: {}\n",
        a.spans.len(),
        a.roots.len(),
        a.orphans.len(),
        a.duplicate_ids,
        a.rooted_pct(),
        a.nesting_violations(),
    ));
    if !a.orphans.is_empty() {
        out.push_str("orphans (span id -> missing parent id):\n");
        for &i in a.orphans.iter().take(20) {
            out.push_str(&format!(
                "  {:#x} -> {:#x} ({})\n",
                a.spans[i].span, a.spans[i].parent, a.spans[i].class
            ));
        }
        if a.orphans.len() > 20 {
            out.push_str(&format!("  ... and {} more\n", a.orphans.len() - 20));
        }
    }

    // Per-structure (root class) aggregate breakdown.
    let mut by_class: BTreeMap<&str, (usize, u64, Components)> = BTreeMap::new();
    for r in &a.per_root {
        let s = &a.spans[r.root];
        let e = by_class
            .entry(s.class.as_str())
            .or_insert((0, 0, Components::default()));
        e.0 += 1;
        e.1 += s.dur();
        e.2.accumulate(&r.comps);
    }
    out.push_str("\nper-structure breakdown (totals, us):\n");
    out.push_str(&format!(
        "{:<18} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "class",
        "roots",
        "total",
        "local",
        "wire",
        "queueing",
        "handler",
        "retry",
        "combine",
        "other"
    ));
    for (class, (n, dur, c)) in &by_class {
        out.push_str(&format!(
            "{:<18} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            class,
            n,
            us(*dur),
            us_i(c.local),
            us_i(c.wire),
            us_i(c.queueing),
            us_i(c.handler),
            us_i(c.retry),
            us_i(c.combine),
            us_i(c.other),
        ));
    }

    // Top-N slowest roots per class, with their decomposition.
    out.push_str(&format!("\ntop {top_n} roots per class (us):\n"));
    let mut per_class_roots: BTreeMap<&str, Vec<&RootSummary>> = BTreeMap::new();
    for r in &a.per_root {
        per_class_roots
            .entry(a.spans[r.root].class.as_str())
            .or_default()
            .push(r);
    }
    for (class, mut rs) in per_class_roots {
        rs.sort_by_key(|r| {
            (
                std::cmp::Reverse(a.spans[r.root].dur()),
                a.spans[r.root].span,
            )
        });
        out.push_str(&format!("  {class}:\n"));
        for r in rs.iter().take(top_n) {
            let s = &a.spans[r.root];
            out.push_str(&format!(
                "    {:<34} dur {:>10}  local {:>9} wire {:>9} queue {:>9} handler {:>9} retry {:>9} combine {:>9}  [{} spans, locale {}]\n",
                root_label(s),
                us(s.dur()),
                us_i(r.comps.local),
                us_i(r.comps.wire),
                us_i(r.comps.queueing),
                us_i(r.comps.handler),
                us_i(r.comps.retry),
                us_i(r.comps.combine),
                r.tree_size,
                s.src,
            ));
        }
    }
    out
}

/// Render a Chrome trace-event JSON document (Perfetto-loadable): one
/// process per locale; AM spans on one thread track per server slot,
/// everything else on that locale's `ops` track. Timestamps are virtual
/// microseconds at nanosecond resolution — deterministic byte output for
/// a deterministic trace.
pub fn chrome_trace(a: &Analysis) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut pids: BTreeMap<u64, ()> = BTreeMap::new();
    let mut tids: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for s in &a.spans {
        // AM handlers execute on `dest`; ops run on `src`.
        let (pid, tid, track) = if s.class == "am_round_trip" {
            (s.dest, 1 + s.tag, format!("slot {}", s.tag))
        } else {
            (s.src, 0, "ops".to_string())
        };
        pids.insert(pid, ());
        tids.entry((pid, tid)).or_insert(track);
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":\"{:#x}\",\"parent\":\"{:#x}\",\"trace\":\"{:#x}\",\"tag\":{}}}}}",
            json::jstr(&root_label(s)),
            pid,
            tid,
            us(s.issue),
            us(s.dur()),
            s.span,
            s.parent,
            s.trace,
            s.tag,
        ));
    }
    for (pid, _) in pids {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"locale {pid}\"}}}}"
        ));
    }
    for ((pid, tid), name) in tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json::jstr(&name)
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_nb::sim::telemetry::pack_op_tag;

    fn span(
        class: &str,
        issue: u64,
        arrive: u64,
        start: u64,
        end: u64,
        id: u64,
        parent: u64,
    ) -> TraceSpan {
        TraceSpan {
            class: class.into(),
            src: 0,
            dest: 1,
            issue,
            arrive,
            start,
            end,
            tag: 0,
            trace: if parent == 0 { id } else { 1 },
            span: id,
            parent,
        }
    }

    #[test]
    fn parse_line_roundtrips_span_ids_exactly() {
        // A span id above 2^53: would corrupt through an f64.
        let big = (200u64 << 48) | 12345;
        let line = format!(
            "{{\"class\": \"queue_op\", \"src\": 3, \"dest\": 3, \"issue\": 10, \
             \"arrive\": 10, \"start\": 10, \"end\": 50, \"tag\": 3, \
             \"trace\": {big}, \"span\": {big}, \"parent\": 0}}"
        );
        let s = parse_line(&line).unwrap();
        assert_eq!(s.span, big);
        assert_eq!(s.trace, big);
        assert_eq!(s.parent, 0);
        assert_eq!(s.dur(), 40);
    }

    #[test]
    fn decomposition_sums_exactly_to_root_duration() {
        // root [0,100] -> am [10,90] (wire 2x10, queue 5) -> handler op [45,70]
        let spans = vec![
            span("queue_op", 0, 0, 0, 100, 1, 0),
            span("am_round_trip", 10, 20, 25, 90, 2, 1),
            span("map_op", 45, 45, 45, 70, 3, 2),
        ];
        let a = analyze(spans);
        assert_eq!(a.roots.len(), 1);
        assert!(a.orphans.is_empty());
        assert_eq!(a.nesting_violations(), 0);
        let r = &a.per_root[0];
        assert_eq!(r.tree_size, 3);
        // root excl = 100-80=20; am excl = 80-25=55 -> wire 20, queue 5,
        // handler 30; inner op excl = 25.
        assert_eq!(r.comps.local, 20 + 25);
        assert_eq!(r.comps.wire, 20);
        assert_eq!(r.comps.queueing, 5);
        assert_eq!(r.comps.handler, 30);
        assert_eq!(r.comps.total(), 100);
        assert!(a.accounting_exact());
    }

    #[test]
    fn orphans_are_reported_not_dropped() {
        let spans = vec![
            span("queue_op", 0, 0, 0, 10, 1, 0),
            span("retry", 2, 3, 3, 5, 2, 99), // parent never emitted
        ];
        let a = analyze(spans);
        assert_eq!(a.roots.len(), 1);
        assert_eq!(a.orphans.len(), 1);
        assert_eq!(a.spans[a.orphans[0]].span, 2);
        assert!((a.rooted_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_violation_counted_but_accounting_stays_exact() {
        // Child sticks out past the root's end.
        let spans = vec![
            span("stack_op", 0, 0, 0, 10, 1, 0),
            span("am_round_trip", 5, 6, 6, 15, 2, 1),
        ];
        let a = analyze(spans);
        assert_eq!(a.nesting_violations(), 1);
        assert!(a.accounting_exact(), "telescoping holds regardless");
    }

    #[test]
    fn retry_and_combine_components_bucketed() {
        let spans = vec![
            span("map_op", 0, 0, 0, 100, 1, 0),
            span("retry", 10, 15, 15, 20, 2, 1),
            span("combine_ride", 30, 30, 30, 80, 3, 1),
        ];
        let a = analyze(spans);
        let r = &a.per_root[0];
        assert_eq!(r.comps.retry, 10);
        assert_eq!(r.comps.combine, 50);
        assert_eq!(r.comps.local, 40);
        assert_eq!(r.comps.total(), 100);
    }

    #[test]
    fn every_op_root_class_is_labelled_and_its_time_is_local() {
        // A sharded-map bulk-get root: the last root class and the
        // highest op kind.
        let mut root = span("sharded_map_op", 0, 0, 0, 100, 1, 0);
        root.tag = pack_op_tag(opkind::BULK_GET, 0, 0);
        let spans = vec![root, span("am_round_trip", 10, 20, 25, 90, 2, 1)];
        let a = analyze(spans);
        assert_eq!(root_label(&a.spans[a.roots[0]]), "sharded_map_op:bulk_get");
        let r = &a.per_root[0];
        assert_eq!(r.comps.local, 20);
        assert_eq!(r.comps.other, 0);
        assert_eq!(r.comps.total(), 100);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slot_tracks() {
        let mut am = span("am_round_trip", 10, 20, 25, 90, 2, 1);
        am.tag = 3; // server slot 3
        let spans = vec![span("queue_op", 0, 0, 0, 100, 1, 0), am];
        let doc = chrome_trace(&analyze(spans));
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 2 spans + 2 process_name (locales 0 and 1) + 2 thread_name.
        assert_eq!(events.len(), 6);
        let am_ev = events
            .iter()
            .find(|e| e.get("tid").and_then(|t| t.as_num()) == Some(4.0))
            .expect("AM event on tid 1+slot");
        assert_eq!(am_ev.get("pid").and_then(|p| p.as_num()), Some(1.0));
        assert_eq!(am_ev.get("ph").and_then(|p| p.as_str()), Some("X"));
    }

    #[test]
    fn report_renders_all_sections() {
        let spans = vec![
            span("queue_op", 0, 0, 0, 100, 1, 0),
            span("am_round_trip", 10, 20, 25, 90, 2, 1),
        ];
        let r = report(&analyze(spans), 5);
        assert!(r.contains("rooted: 100.00%"));
        assert!(r.contains("per-structure breakdown"));
        assert!(r.contains("queue_op"));
    }
}
