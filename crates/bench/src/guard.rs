//! The results guard: the `BENCH_results.json` row format and every check
//! made on it, stated once.
//!
//! `harness` renders its rows with [`render`], runs [`check_results`] on
//! the text and writes the file only when it passes, so a regressed result
//! fails the run and leaves the committed file as it was.
//! `validate_results` runs the same checks on a file already written, and
//! [`check_trace`] on a span trace. Every failure names the rule it broke.
//!
//! Rules on each row:
//!
//! * **schema** — the legacy fields (`name`, `locales`, `vtime_ns`,
//!   `ns_per_op`, `mops`, `am_count`, five chaos counters) with the right
//!   types; `comm` is the full counter object or null, consistent with
//!   `am_count`; `latency` maps op class → `{count, p50, p99, p999, max,
//!   mean}` with `p50 ≤ p99 ≤ p999 ≤ max`; an `engine` tag, when present,
//!   names the engine under validation (a proc run must tag every row);
//! * **chaos** — the five fault-injection counters are zero: nothing that
//!   writes results installs a fault plan, and one leaking into a baseline
//!   would skew every number;
//! * **vread** — the versioned-read counters are zero except on the A10
//!   `vread=on` rows, which need `fast > fallbacks` and
//!   `fallbacks ≤ retries`;
//! * **reclaim** — null except on A8 rows, which carry the backend's
//!   counters with `reclaimed ≤ retired`, hazards published under HP only,
//!   and, behind a stalled task, HP reclaiming while EBR reclaims nothing;
//! * **shard** — null except on A11 `sharded` rows, which carry the routing
//!   counters and the `sharded_map_op` latency class; from 2 locales on
//!   they route remote ops, and remote ops pay AMs.
//!
//! Rules across the sim rows. A pairwise rule applies when both twins are
//! present; a pinned series is required only when its family (`A1 `,
//! `A8 `, `A10 `, `A11 `) appears, so a single-ablation run validates:
//!
//! * **A1** — `scatter=on` sends exactly 2/6/14 AMs at 2/4/8 locales:
//!   (L−1) drain fan-outs plus (L−1) bulk frees, whatever the object count;
//! * **A7** — every `combining=on` row sends fewer AMs than its off twin;
//! * **A8** — behind a stalled task, HP's outstanding garbage stays below
//!   `max(EBR's, 1)`;
//! * **A10** — from 4 locales on, `vread=on` beats `vread=off` on ns/op;
//! * **A11** — from 4 locales on, `sharded` beats `legacy` on both ns/op
//!   and AM count.

use std::collections::BTreeMap;

use pgas_nb::sim::CommSnapshot;

use crate::json::{jnum, jstr, parse, Value};

/// One row of `BENCH_results.json`, as the harness measured it.
pub struct Record {
    /// Series name: the label plus any configuration qualifier.
    pub name: String,
    /// The row's sweep coordinate: locales, tasks, or hops (A6).
    pub locales: usize,
    /// Virtual makespan of the measured region.
    pub vtime_ns: u64,
    /// Virtual nanoseconds per operation.
    pub ns_per_op: f64,
    /// Millions of operations per virtual second.
    pub mops: f64,
    /// Full counter snapshot for rows measured with a runtime in hand; its
    /// `am_sent` is the row's `am_count`.
    pub comm: Option<CommSnapshot>,
    /// Per-op-class latency summary, `{}` when none was captured.
    pub latency: String,
    /// A8 rows: the backend's reclamation counters as a JSON object.
    pub reclaim: Option<String>,
    /// A11 sharded rows: the map's routing counters as a JSON object.
    pub shard: Option<String>,
}

/// Render `records` as a `BENCH_results.json` document of sim rows.
pub fn render(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let chaos = r.comm.unwrap_or_default();
        out.push_str(&format!(
            "  {{\"name\": {}, \"engine\": \"sim\", \"locales\": {}, \"vtime_ns\": {}, \
             \"ns_per_op\": {}, \"mops\": {}, \"am_count\": {}, \
             \"retries\": {}, \"gave_up\": {}, \"injected_drops\": {}, \
             \"injected_delays\": {}, \"injected_dups\": {}, \
             \"comm\": {}, \"latency\": {}, \"reclaim\": {}, \"shard\": {}}}{}\n",
            jstr(&r.name),
            r.locales,
            r.vtime_ns,
            jnum(r.ns_per_op),
            jnum(r.mops),
            r.comm.map_or("null".to_string(), |c| c.am_sent.to_string()),
            chaos.retries,
            chaos.gave_up,
            chaos.injected_drops,
            chaos.injected_delays,
            chaos.injected_dups,
            r.comm.map_or("null".to_string(), |c| c.to_json()),
            r.latency,
            r.reclaim.as_deref().unwrap_or("null"),
            r.shard.as_deref().unwrap_or("null"),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Counter keys every `comm` object must carry (the `counters!` list).
const COMM_KEYS: [&str; 25] = [
    "rdma_atomics",
    "cpu_atomics",
    "cpu_dcas",
    "am_sent",
    "am_handled",
    "am_batches",
    "am_batch_items",
    "combines",
    "combined_ops",
    "puts",
    "gets",
    "bytes_put",
    "bytes_got",
    "remote_allocs",
    "remote_frees",
    "bulk_frees",
    "bulk_freed_objects",
    "retries",
    "gave_up",
    "injected_drops",
    "injected_delays",
    "injected_dups",
    "vread_fast",
    "vread_retries",
    "vread_fallbacks",
];

/// The fault-injection counters every row repeats at top level.
const CHAOS_KEYS: [&str; 5] = [
    "retries",
    "gave_up",
    "injected_drops",
    "injected_delays",
    "injected_dups",
];

/// A1 `scatter=on` AMs per locale count.
const A1_SCATTER_AMS: [(u64, u64); 3] = [(2, 2), (4, 6), (8, 14)];

/// Series that must exist under their stable names whenever their family
/// appears in a sim file.
const PINNED: [&str; 10] = [
    "A1 scatter=on",
    "A1 scatter=off",
    "A8 stack ebr stalled_task",
    "A8 stack hp stalled_task",
    "A10 90% read vread=off",
    "A10 90% read vread=on",
    "A10 99% read vread=off",
    "A10 99% read vread=on",
    "A11 legacy zipf=0.99 mix=90/10",
    "A11 sharded zipf=0.99 mix=90/10",
];

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_num()
        .ok_or_else(|| format!("key {key:?} is not a number"))
}

fn num_or_null(v: &Value, key: &str) -> Result<Option<f64>, String> {
    let x = field(v, key)?;
    if x.is_null() {
        Ok(None)
    } else {
        x.as_num()
            .map(Some)
            .ok_or_else(|| format!("key {key:?} is neither number nor null"))
    }
}

fn name_of(row: &Value) -> &str {
    row.get("name").and_then(Value::as_str).unwrap_or("?")
}

/// Check a results document for `engine` (`"sim"` or `"proc"`); returns
/// the row count.
pub fn check_results(text: &str, engine: &str) -> Result<usize, String> {
    let doc = parse(text)?;
    let rows = doc.as_arr().ok_or("top level is not an array")?;
    if rows.is_empty() {
        return Err("results array is empty".into());
    }
    for row in rows {
        row.as_obj().ok_or("row is not an object")?;
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing/invalid name")?;
        let locales = num(row, "locales").map_err(|e| format!("row {name:?}: {e}"))?;
        check_row(row, name, locales, engine)
            .map_err(|e| format!("row {name:?} @{locales}: {e}"))?;
    }
    // A proc run regenerates none of the figures the series rules pin.
    if engine == "sim" {
        check_series(rows)?;
    }
    Ok(rows.len())
}

fn check_row(row: &Value, name: &str, locales: f64, engine: &str) -> Result<(), String> {
    match row.get("engine") {
        // Older sim files predate the tag.
        None if engine == "sim" => {}
        None => return Err(format!("missing engine tag (expected {engine:?})")),
        Some(v) => {
            let tag = v.as_str().ok_or("engine tag is not a string")?;
            if tag != engine {
                return Err(format!("engine {tag:?} in a file validated as {engine:?}"));
            }
        }
    }
    num(row, "vtime_ns")?;
    num_or_null(row, "ns_per_op")?;
    num_or_null(row, "mops")?;
    let am_count = num_or_null(row, "am_count")?;
    for key in CHAOS_KEYS {
        let n = num(row, key)?;
        if n != 0.0 {
            return Err(format!(
                "chaos: {key} = {n} — fault injections on a clean run"
            ));
        }
    }

    let comm = field(row, "comm")?;
    match (comm.is_null(), am_count) {
        (true, Some(_)) => return Err("am_count set but comm is null".into()),
        (false, None) => return Err("comm set but am_count is null".into()),
        (false, Some(am)) => check_comm(name, comm, am)?,
        (true, None) => {}
    }

    let lat = field(row, "latency")?;
    check_latency(lat)?;
    // A row measured with a runtime in hand must have latency samples:
    // every remote (or tracked local) operation records into some class.
    if !comm.is_null() && lat.as_obj().is_some_and(|m| m.is_empty()) {
        return Err("comm present but latency is empty".into());
    }
    check_reclaim(name, field(row, "reclaim")?)?;
    check_shard(name, locales, field(row, "shard")?, am_count, lat)
}

fn check_comm(name: &str, comm: &Value, am: f64) -> Result<(), String> {
    for key in COMM_KEYS {
        num(comm, key).map_err(|e| format!("comm: {e}"))?;
    }
    let am_sent = num(comm, "am_sent")?;
    if am_sent != am {
        return Err(format!(
            "am_count ({am}) disagrees with comm.am_sent ({am_sent})"
        ));
    }
    let fast = num(comm, "vread_fast")?;
    let retries = num(comm, "vread_retries")?;
    let fallbacks = num(comm, "vread_fallbacks")?;
    if name.contains("vread=on") {
        if fallbacks > retries {
            return Err(format!(
                "vread: {fallbacks} fallbacks exceed {retries} retries \
                 — every fallback needs a torn window first"
            ));
        }
        if fast <= fallbacks {
            return Err(format!(
                "vread: fast path barely validates ({fast} fast vs {fallbacks} fallbacks)"
            ));
        }
    } else if (fast, retries, fallbacks) != (0.0, 0.0, 0.0) {
        return Err(format!(
            "vread: counters nonzero outside an A10 vread=on row \
             (fast={fast} retries={retries} fallbacks={fallbacks})"
        ));
    }
    Ok(())
}

fn check_latency(lat: &Value) -> Result<(), String> {
    let map = lat.as_obj().ok_or("latency is not an object")?;
    for (class, h) in map {
        let ctx = |e: String| format!("latency[{class:?}]: {e}");
        let count = num(h, "count").map_err(ctx)?;
        let p50 = num(h, "p50").map_err(ctx)?;
        let p99 = num(h, "p99").map_err(ctx)?;
        let p999 = num(h, "p999").map_err(ctx)?;
        let max = num(h, "max").map_err(ctx)?;
        num(h, "mean").map_err(ctx)?;
        if count < 1.0 {
            return Err(ctx("empty class was emitted".into()));
        }
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            return Err(ctx(format!(
                "percentiles not ordered (p50={p50} p99={p99} p999={p999} max={max})"
            )));
        }
    }
    Ok(())
}

/// The A8 rows' per-backend reclamation counters.
fn check_reclaim(name: &str, reclaim: &Value) -> Result<(), String> {
    let is_a8 = name.starts_with("A8 ");
    if reclaim.is_null() {
        return if is_a8 {
            Err("reclaim: A8 row with null reclaim object".into())
        } else {
            Ok(())
        };
    }
    if !is_a8 {
        return Err("reclaim: non-A8 row carries a reclaim object".into());
    }
    let backend = reclaim
        .get("backend")
        .and_then(Value::as_str)
        .ok_or("reclaim: missing/invalid backend")?;
    if !matches!(backend, "ebr" | "local-ebr" | "hp") {
        return Err(format!("reclaim: unknown backend {backend:?}"));
    }
    let stalled = match reclaim.get("stalled") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("reclaim: missing/invalid stalled flag".into()),
    };
    let n = |key: &str| num(reclaim, key).map_err(|e| format!("reclaim: {e}"));
    let retired = n("retired")?;
    let reclaimed = n("reclaimed")?;
    let protects = n("hazard_protects")?;
    n("scans")?;
    n("stalled_outstanding")?;
    let stalled_reclaimed = n("stalled_reclaimed")?;
    if reclaimed > retired {
        return Err(format!(
            "reclaim: reclaimed ({reclaimed}) exceeds retired ({retired})"
        ));
    }
    if backend == "hp" && protects == 0.0 {
        return Err("reclaim: hp backend published no hazards".into());
    }
    if backend != "hp" && protects != 0.0 {
        return Err(format!(
            "reclaim: {backend} backend claims {protects} hazard publications"
        ));
    }
    if stalled && backend == "hp" && stalled_reclaimed == 0.0 {
        return Err("reclaim: hp made no progress behind the stalled task".into());
    }
    if stalled && backend == "ebr" && stalled_reclaimed != 0.0 {
        return Err(format!(
            "reclaim: ebr reclaimed {stalled_reclaimed} objects behind a stalled pin"
        ));
    }
    Ok(())
}

/// The A11 sharded rows' routing counters. A privatized map whose remote
/// ops are free is a routing bug, not a speedup.
fn check_shard(
    name: &str,
    locales: f64,
    shard: &Value,
    am_count: Option<f64>,
    lat: &Value,
) -> Result<(), String> {
    let is_sharded = name.starts_with("A11 sharded");
    if shard.is_null() {
        return if is_sharded {
            Err("shard: A11 sharded row with null shard object".into())
        } else {
            Ok(())
        };
    }
    if !is_sharded {
        return Err("shard: non-sharded row carries a shard object".into());
    }
    let n = |key: &str| num(shard, key).map_err(|e| format!("shard: {e}"));
    let local = n("local_ops")?;
    let remote = n("remote_ops")?;
    for key in ["bulk_local_items", "bulk_remote_items"] {
        n(key)?;
    }
    if local + remote == 0.0 {
        return Err("shard: row measured no point ops at all".into());
    }
    let ams = am_count.unwrap_or(0.0);
    if (remote > 0.0 || locales >= 2.0) && (remote == 0.0 || ams == 0.0) {
        return Err(format!(
            "shard: {remote} remote-shard ops and {ams} AMs at {locales} locales \
             — from 2 locales on ops go remote, and remote ops pay AMs"
        ));
    }
    if lat.get("sharded_map_op").is_none() {
        return Err("shard: latency class \"sharded_map_op\" is missing".into());
    }
    Ok(())
}

/// The row named `name` at `locales`, if present.
fn twin<'a>(rows: &'a [Value], name: &str, locales: f64) -> Option<&'a Value> {
    rows.iter()
        .find(|r| name_of(r) == name && r.get("locales").and_then(Value::as_num) == Some(locales))
}

/// The pinned series and the pairwise rules (rows already passed
/// [`check_row`]).
fn check_series(rows: &[Value]) -> Result<(), String> {
    let has = |prefix: &str| rows.iter().any(|r| name_of(r).starts_with(prefix));
    for series in PINNED {
        let family = &series[..=series.find(' ').expect("pinned names have a family prefix")];
        if has(family) && !rows.iter().any(|r| name_of(r) == series) {
            return Err(format!("pinned series {series:?} is missing"));
        }
    }
    if has("A1 ") {
        let got: BTreeMap<u64, u64> = rows
            .iter()
            .filter(|r| name_of(r) == "A1 scatter=on")
            .map(|r| Ok((num(r, "locales")? as u64, num(r, "am_count")? as u64)))
            .collect::<Result<_, String>>()?;
        let want = BTreeMap::from(A1_SCATTER_AMS);
        if got != want {
            return Err(format!(
                "A1 scatter=on AM counts {got:?}, pinned {want:?} \
                 — the bulk free path split its batches"
            ));
        }
    }

    for r in rows {
        let name = name_of(r);
        let locales = num(r, "locales")?;
        let pair = |from: &str, to: &str| twin(rows, &name.replace(from, to), locales);
        let at = |e: String| format!("row {name:?} @{locales}: {e}");
        if name.starts_with("A7 ") && name.ends_with("combining=on") {
            if let Some(off) = pair("combining=on", "combining=off") {
                let (on_ams, off_ams) = (num(r, "am_count")?, num(off, "am_count")?);
                if on_ams >= off_ams {
                    return Err(at(format!(
                        "A7: combining sent {on_ams} AMs, not fewer than the off twin's {off_ams}"
                    )));
                }
            }
        } else if name.starts_with("A8 ") && name.contains(" hp ") && name.ends_with("stalled_task")
        {
            if let Some(ebr) = pair(" hp ", " ebr ") {
                let hp_left = num(field(r, "reclaim")?, "stalled_outstanding")?;
                let ebr_left = num(field(ebr, "reclaim")?, "stalled_outstanding")?;
                if hp_left >= ebr_left.max(1.0) {
                    return Err(at(format!(
                        "A8: hp left {hp_left} objects outstanding behind the stall, \
                         not below ebr's {ebr_left}"
                    )));
                }
            }
        } else if name.starts_with("A10 ") && name.ends_with("vread=on") && locales >= 4.0 {
            if let Some(off) = pair("vread=on", "vread=off") {
                let (on_ns, off_ns) = (num(r, "ns_per_op")?, num(off, "ns_per_op")?);
                if on_ns >= off_ns {
                    return Err(at(format!(
                        "A10: fast reads cost {on_ns} ns/op, not below the DCAS reads' {off_ns}"
                    )));
                }
            }
        } else if name.starts_with("A11 sharded") && locales >= 4.0 {
            if let Some(legacy) = pair("sharded", "legacy") {
                let (ns, legacy_ns) = (num(r, "ns_per_op")?, num(legacy, "ns_per_op")?);
                let (ams, legacy_ams) = (num(r, "am_count")?, num(legacy, "am_count")?);
                if ns >= legacy_ns || ams >= legacy_ams {
                    return Err(at(format!(
                        "A11: sharded must beat legacy on ns/op ({ns} vs {legacy_ns}) \
                         and AMs ({ams} vs {legacy_ams})"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Check a JSON-lines span trace; returns the span count.
pub fn check_trace(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = |e: String| format!("trace line {}: {e}", i + 1);
        let span = parse(line).map_err(ctx)?;
        span.get("class")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing/invalid class".into()))?;
        for key in ["src", "dest", "tag", "trace", "span", "parent"] {
            num(&span, key).map_err(ctx)?;
        }
        let issue = num(&span, "issue").map_err(ctx)?;
        let arrive = num(&span, "arrive").map_err(ctx)?;
        let start = num(&span, "start").map_err(ctx)?;
        let end = num(&span, "end").map_err(ctx)?;
        if !(issue <= arrive && arrive <= start && start <= end) {
            return Err(ctx(format!(
                "span stamps not ordered: issue={issue} arrive={arrive} start={start} end={end}"
            )));
        }
        n += 1;
    }
    if n == 0 {
        return Err("trace file contains no spans".into());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: &str =
        r#"{"am_round_trip": {"count": 4, "p50": 1, "p99": 2, "p999": 2, "max": 3, "mean": 1.5}}"#;
    const SHARD_LAT: &str =
        r#"{"sharded_map_op": {"count": 4, "p50": 1, "p99": 2, "p999": 2, "max": 3, "mean": 1.5}}"#;

    fn row(name: &str, locales: usize, ns_per_op: f64, am_sent: u64) -> Record {
        Record {
            name: name.into(),
            locales,
            vtime_ns: 1000,
            ns_per_op,
            mops: 1.0,
            comm: Some(CommSnapshot {
                am_sent,
                ..Default::default()
            }),
            latency: LAT.into(),
            reclaim: None,
            shard: None,
        }
    }

    fn reclaim(backend: &str, outstanding: u64, reclaimed_during: u64) -> Option<String> {
        let protects = if backend == "hp" { 50 } else { 0 };
        Some(format!(
            r#"{{"backend": "{backend}", "retired": 100, "reclaimed": 100, "scans": 3, "hazard_protects": {protects}, "stalled": true, "stalled_outstanding": {outstanding}, "stalled_reclaimed": {reclaimed_during}}}"#
        ))
    }

    fn shard(local: u64, remote: u64) -> Option<String> {
        Some(format!(
            r#"{{"local_ops": {local}, "remote_ops": {remote}, "bulk_local_items": 0, "bulk_remote_items": 0}}"#
        ))
    }

    fn vread(fast: u64, retries: u64, fallbacks: u64) -> impl Fn(&mut Record) {
        move |r| {
            let c = r.comm.as_mut().expect("comm");
            (c.vread_fast, c.vread_retries, c.vread_fallbacks) = (fast, retries, fallbacks);
        }
    }

    /// A small file that passes every rule: each pinned series at 4
    /// locales (A1 at 2/4/8) beside its twin, and one unrelated row.
    fn fixture() -> Vec<Record> {
        let mut rows = vec![row("atomic-int net-atomics=on", 1, 100.0, 0)];
        for (l, ams) in A1_SCATTER_AMS {
            rows.push(row("A1 scatter=on", l as usize, 50.0, ams));
            rows.push(row("A1 scatter=off", l as usize, 500.0, 1000));
        }
        rows.push(row("A7 shared@L0 combining=off", 4, 900.0, 400));
        rows.push(row("A7 shared@L0 combining=on", 4, 300.0, 100));
        for (backend, left, during) in [("ebr", 64, 0), ("hp", 8, 56)] {
            rows.push(Record {
                comm: None,
                latency: "{}".into(),
                reclaim: reclaim(backend, left, during),
                ..row(&format!("A8 stack {backend} stalled_task"), 4, 10.0, 0)
            });
        }
        for pct in ["90%", "99%"] {
            rows.push(row(&format!("A10 {pct} read vread=off"), 4, 2000.0, 900));
            let mut on = row(&format!("A10 {pct} read vread=on"), 4, 400.0, 100);
            vread(800, 3, 1)(&mut on);
            rows.push(on);
        }
        rows.push(row("A11 legacy zipf=0.99 mix=90/10", 4, 3000.0, 5000));
        rows.push(Record {
            latency: SHARD_LAT.into(),
            shard: shard(600, 400),
            ..row("A11 sharded zipf=0.99 mix=90/10", 4, 700.0, 400)
        });
        rows
    }

    /// Doctor the fixture's row `name` @`locales` and expect the guard to
    /// fail with a message containing `rule`.
    fn fails(name: &str, locales: usize, doctor: impl FnOnce(&mut Record), rule: &str) {
        let mut rows = fixture();
        let r = rows
            .iter_mut()
            .find(|r| r.name == name && r.locales == locales)
            .expect("fixture row");
        doctor(r);
        let err = check_results(&render(&rows), "sim").expect_err("a doctored row must fail");
        assert!(err.contains(rule), "expected {rule:?}, got {err:?}");
    }

    #[test]
    fn fixture_passes_and_a_file_without_families_needs_no_pinned_series() {
        let rows = fixture();
        assert_eq!(check_results(&render(&rows), "sim"), Ok(rows.len()));
        assert_eq!(check_results(&render(&rows[..1]), "sim"), Ok(1));
    }

    #[test]
    fn pinned_series_is_required_once_its_family_appears() {
        let mut rows = fixture();
        rows.retain(|r| r.name != "A10 99% read vread=on");
        let err = check_results(&render(&rows), "sim").unwrap_err();
        assert!(
            err.contains("pinned series \"A10 99% read vread=on\""),
            "{err}"
        );
    }

    #[test]
    fn chaos_counters_are_zero_on_every_row() {
        let doctor = |r: &mut Record| r.comm.as_mut().expect("comm").injected_drops = 1;
        fails(
            "atomic-int net-atomics=on",
            1,
            doctor,
            "chaos: injected_drops",
        );
    }

    #[test]
    fn a1_scatter_on_ams_are_pinned() {
        let doctor = |r: &mut Record| r.comm.as_mut().expect("comm").am_sent = 7;
        fails("A1 scatter=on", 4, doctor, "A1 scatter=on AM counts");
    }

    #[test]
    fn a7_combining_sends_fewer_ams_than_its_off_twin() {
        let doctor = |r: &mut Record| r.comm.as_mut().expect("comm").am_sent = 400;
        fails("A7 shared@L0 combining=on", 4, doctor, "A7: combining sent");
    }

    #[test]
    fn a8_hp_reclaims_behind_a_stall() {
        let doctor = |r: &mut Record| r.reclaim = reclaim("hp", 8, 0);
        fails("A8 stack hp stalled_task", 4, doctor, "hp made no progress");
    }

    #[test]
    fn a8_ebr_reclaims_nothing_behind_a_stall() {
        let doctor = |r: &mut Record| r.reclaim = reclaim("ebr", 64, 5);
        fails(
            "A8 stack ebr stalled_task",
            4,
            doctor,
            "ebr reclaimed 5 objects",
        );
    }

    #[test]
    fn a8_hp_outstanding_stays_below_ebr() {
        let doctor = |r: &mut Record| r.reclaim = reclaim("hp", 64, 56);
        fails("A8 stack hp stalled_task", 4, doctor, "A8: hp left 64");
    }

    #[test]
    fn a10_fast_reads_outnumber_fallbacks() {
        fails(
            "A10 90% read vread=on",
            4,
            vread(1, 3, 1),
            "fast path barely validates",
        );
    }

    #[test]
    fn a10_fallbacks_stay_within_retries() {
        fails(
            "A10 90% read vread=on",
            4,
            vread(800, 3, 5),
            "fallbacks exceed",
        );
    }

    #[test]
    fn a10_on_beats_off_from_four_locales() {
        let doctor = |r: &mut Record| r.ns_per_op = 2500.0;
        fails("A10 99% read vread=on", 4, doctor, "A10: fast reads cost");
    }

    #[test]
    fn vread_counters_are_zero_outside_vread_on_rows() {
        fails(
            "A7 shared@L0 combining=on",
            4,
            vread(1, 0, 0),
            "vread: counters nonzero",
        );
    }

    #[test]
    fn a11_sharded_rows_carry_shard_counters() {
        let doctor = |r: &mut Record| r.shard = None;
        fails(
            "A11 sharded zipf=0.99 mix=90/10",
            4,
            doctor,
            "null shard object",
        );
    }

    #[test]
    fn a11_legacy_rows_carry_no_shard_counters() {
        let doctor = |r: &mut Record| r.shard = shard(1, 0);
        fails(
            "A11 legacy zipf=0.99 mix=90/10",
            4,
            doctor,
            "non-sharded row carries",
        );
    }

    #[test]
    fn a11_sharded_rows_route_remote_ops_over_ams() {
        let doctor = |r: &mut Record| r.shard = shard(1000, 0);
        fails(
            "A11 sharded zipf=0.99 mix=90/10",
            4,
            doctor,
            "0 remote-shard ops",
        );
        let doctor = |r: &mut Record| r.comm.as_mut().expect("comm").am_sent = 0;
        fails("A11 sharded zipf=0.99 mix=90/10", 4, doctor, "and 0 AMs");
    }

    #[test]
    fn a11_sharded_rows_carry_the_sharded_map_op_class() {
        let doctor = |r: &mut Record| r.latency = LAT.into();
        fails(
            "A11 sharded zipf=0.99 mix=90/10",
            4,
            doctor,
            "\"sharded_map_op\"",
        );
    }

    #[test]
    fn a11_sharded_beats_legacy_from_four_locales() {
        let doctor = |r: &mut Record| r.comm.as_mut().expect("comm").am_sent = 6000;
        fails(
            "A11 sharded zipf=0.99 mix=90/10",
            4,
            doctor,
            "A11: sharded must beat legacy",
        );
        let doctor = |r: &mut Record| r.ns_per_op = 3000.0;
        fails(
            "A11 sharded zipf=0.99 mix=90/10",
            4,
            doctor,
            "A11: sharded must beat legacy",
        );
    }

    #[test]
    fn trace_spans_carry_ordered_stamps() {
        let span = |end: u64| {
            format!(
                r#"{{"class": "am", "src": 0, "dest": 1, "issue": 1, "arrive": 2, "start": 3, "end": {end}, "tag": 0, "trace": 1, "span": 1, "parent": 0}}"#
            )
        };
        assert_eq!(check_trace(&span(4)), Ok(1));
        let err = check_trace(&span(2)).unwrap_err();
        assert!(err.contains("span stamps not ordered"), "{err}");
    }
}
