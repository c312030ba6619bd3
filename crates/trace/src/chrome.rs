//! chrome://tracing ("Trace Event Format") export and re-import.
//!
//! The export uses the JSON *object* form: `traceEvents` holds the per-rank
//! streams (pid 0, tid = rank, so Perfetto shows one timeline lane per
//! rank) and `metadata` embeds each rank's analytic-ledger snapshot plus
//! ring-drop counts, making the file self-contained for
//! `mfc-trace-report`'s ledger cross-check.
//!
//! Timestamps are microsecond doubles as the format requires; the float
//! kernel attributes (`flops`, `bytes_read`, `bytes_written`) round-trip
//! exactly because the JSON layer prints floats shortest-round-trip
//! (upstream's `float_roundtrip`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde_json::{json, Map, Value};

use crate::event::{EventKind, LedgerRow};
use crate::tracer::RankTrace;

/// Process id used for every rank lane (one simulated job = one process).
const PID: u64 = 0;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Render rank streams to a chrome-trace JSON value.
pub fn export(traces: &[RankTrace]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    events.push(json!({
        "name": "process_name", "ph": "M", "pid": PID, "tid": 0u64,
        "args": json!({"name": "mfc"})
    }));
    for t in traces {
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": PID, "tid": t.rank as u64,
            "args": json!({"name": format!("rank {}", t.rank)})
        }));
    }
    for t in traces {
        let tid = t.rank as u64;
        for e in &t.events {
            events.push(render_event(tid, e));
        }
    }
    let mut ledgers = Map::new();
    let mut dropped = Map::new();
    for t in traces {
        ledgers.insert(t.rank.to_string(), serde_json::to_value(&t.ledger));
        dropped.insert(t.rank.to_string(), json!(t.dropped));
    }
    json!({
        "traceEvents": events,
        "metadata": json!({
            "tool": "mfc-trace",
            "ranks": traces.len() as u64,
            "ledger": Value::Object(ledgers),
            "dropped": Value::Object(dropped)
        })
    })
}

fn render_event(tid: u64, e: &crate::event::Event) -> Value {
    let ts = us(e.ts_ns);
    match &e.kind {
        EventKind::Begin { name, cat, bytes } => {
            let mut args = Map::new();
            args.insert("seq", json!(e.seq));
            if *bytes > 0 {
                args.insert("bytes", json!(*bytes));
            }
            json!({
                "name": *name, "cat": cat.as_str(), "ph": "B",
                "ts": ts, "pid": PID, "tid": tid, "args": Value::Object(args)
            })
        }
        EventKind::End { name } => json!({
            "name": *name, "ph": "E", "ts": ts, "pid": PID, "tid": tid
        }),
        EventKind::Kernel {
            label,
            items,
            gangs,
            lanes,
            flops,
            bytes_read,
            bytes_written,
        } => json!({
            "name": *label, "cat": "kernel", "ph": "X",
            "ts": ts, "dur": us(e.dur_ns), "pid": PID, "tid": tid,
            "args": json!({
                "seq": e.seq, "items": *items, "gangs": *gangs, "lanes": *lanes,
                "flops": *flops,
                "bytes_read": *bytes_read, "bytes_written": *bytes_written
            })
        }),
        EventKind::Comm { op, peer, bytes } => json!({
            "name": op.as_str(), "cat": "comm", "ph": "X",
            "ts": ts, "dur": us(e.dur_ns), "pid": PID, "tid": tid,
            "args": json!({"seq": e.seq, "peer": *peer as u64, "bytes": *bytes})
        }),
        EventKind::Io { name, bytes } => json!({
            "name": *name, "cat": "io", "ph": "X",
            "ts": ts, "dur": us(e.dur_ns), "pid": PID, "tid": tid,
            "args": json!({"seq": e.seq, "bytes": *bytes})
        }),
        EventKind::Counter { name, value } => {
            let mut args = Map::new();
            args.insert(name.to_string(), json!(*value));
            json!({
                "name": *name, "ph": "C", "ts": ts, "pid": PID, "tid": tid,
                "args": Value::Object(args)
            })
        }
        EventKind::Instant { name, cat } => json!({
            "name": *name, "cat": cat.as_str(), "ph": "i", "s": "t",
            "ts": ts, "pid": PID, "tid": tid,
            "args": json!({"seq": e.seq})
        }),
    }
}

/// Serialize rank streams to a chrome-trace JSON string.
pub fn export_to_string(traces: &[RankTrace]) -> String {
    serde_json::to_string(&export(traces)).expect("trace serializes")
}

/// Write rank streams to `path` as chrome-trace JSON.
pub fn write_file(path: &Path, traces: &[RankTrace]) -> io::Result<()> {
    std::fs::write(path, export_to_string(traces))
}

/// One event as re-read from a chrome-trace file. Events keep the file's
/// array order per rank, which is the rank's emission order.
#[derive(Debug, Clone)]
pub struct ParsedEvent {
    pub name: String,
    pub cat: String,
    pub ph: char,
    pub ts_us: f64,
    pub dur_us: f64,
    pub args: Map,
}

/// A chrome-trace file decoded back into per-rank streams plus the
/// embedded metadata.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Per-rank event streams in file (= emission) order; metadata ("M")
    /// records are skipped.
    pub ranks: BTreeMap<u64, Vec<ParsedEvent>>,
    /// Embedded analytic-ledger snapshot per rank.
    pub ledgers: BTreeMap<u64, Vec<LedgerRow>>,
    /// Ring-drop count per rank (non-zero streams are incomplete).
    pub dropped: BTreeMap<u64, u64>,
}

/// Integer attributes every `cat: "kernel"` X event must carry.
const KERNEL_COUNT_ARGS: &[&str] = &["items", "gangs", "lanes"];
/// Float attributes every `cat: "kernel"` X event must carry.
const KERNEL_FLOAT_ARGS: &[&str] = &["flops", "bytes_read", "bytes_written"];

/// A kernel event with missing or non-numeric analytic attributes is a
/// malformed document, not a zero: the roofline/ledger cross-checks
/// downstream would otherwise aggregate garbage silently (and lookups
/// that assume the args must never be able to panic on foreign files).
fn check_kernel_args(args: &Map) -> Result<(), String> {
    for key in KERNEL_COUNT_ARGS {
        if args.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("kernel event missing numeric arg '{key}'"));
        }
    }
    for key in KERNEL_FLOAT_ARGS {
        if args.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("kernel event missing numeric arg '{key}'"));
        }
    }
    Ok(())
}

/// An event's time range: `ts` and `dur` (µs) non-negative and its end
/// `ts + dur` finite, as every exported event's is.
fn check_times(ts: f64, dur: f64) -> Result<(), String> {
    if ts < 0.0 || dur < 0.0 || !(ts + dur).is_finite() {
        return Err(format!(
            "ts {ts:?} / dur {dur:?} out of range (both >= 0, ts + dur finite)"
        ));
    }
    Ok(())
}

/// Decode a chrome-trace JSON string produced by [`export`].
pub fn parse_str(s: &str) -> Result<ParsedTrace, String> {
    let root: Value = serde_json::from_str(s).map_err(|e| format!("not JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut out = ParsedTrace::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let parsed = ParsedEvent {
            name: ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing name"))?
                .to_string(),
            cat: ev
                .get("cat")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            ph: ph.chars().next().unwrap_or('?'),
            ts_us: ev
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing ts"))?,
            dur_us: ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
            args: ev
                .get("args")
                .and_then(Value::as_object)
                .cloned()
                .unwrap_or_default(),
        };
        check_times(parsed.ts_us, parsed.dur_us).map_err(|e| format!("event {i}: {e}"))?;
        if parsed.ph == 'X' && parsed.cat == "kernel" {
            check_kernel_args(&parsed.args).map_err(|e| format!("event {i}: {e}"))?;
        }
        out.ranks.entry(tid).or_default().push(parsed);
    }
    if let Some(meta) = root.get("metadata") {
        if let Some(ledgers) = meta.get("ledger").and_then(Value::as_object) {
            for (rank, rows) in ledgers.iter() {
                let rank: u64 = rank.parse().map_err(|_| "non-numeric ledger rank key")?;
                let rows: Vec<LedgerRow> = serde_json::from_value(rows)
                    .map_err(|e| format!("rank {rank} ledger rows: {e}"))?;
                out.ledgers.insert(rank, rows);
            }
        }
        if let Some(dropped) = meta.get("dropped").and_then(Value::as_object) {
            for (rank, n) in dropped.iter() {
                let rank: u64 = rank.parse().map_err(|_| "non-numeric dropped rank key")?;
                out.dropped.insert(rank, n.as_u64().unwrap_or(0));
            }
        }
    }
    Ok(out)
}

/// Phases a conforming producer may emit.
const KNOWN_PH: &[&str] = &["B", "E", "X", "C", "i", "M"];

/// Structural schema check on a chrome-trace JSON document. Returns every
/// violation found (empty = valid).
pub fn validate_schema(root: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let Some(events) = root.get("traceEvents") else {
        return vec!["missing traceEvents".into()];
    };
    let Some(events) = events.as_array() else {
        return vec!["traceEvents is not an array".into()];
    };
    for (i, ev) in events.iter().enumerate() {
        let Some(obj) = ev.as_object() else {
            errs.push(format!("event {i}: not an object"));
            continue;
        };
        let ph = match obj.get("ph").and_then(Value::as_str) {
            Some(p) => p,
            None => {
                errs.push(format!("event {i}: missing ph"));
                continue;
            }
        };
        if !KNOWN_PH.contains(&ph) {
            errs.push(format!("event {i}: unknown ph {ph:?}"));
        }
        if obj.get("name").and_then(Value::as_str).is_none() {
            errs.push(format!("event {i}: missing name"));
        }
        if ph != "M" {
            if obj.get("ts").and_then(Value::as_f64).is_none() {
                errs.push(format!("event {i}: missing ts"));
            }
            if obj.get("pid").and_then(Value::as_u64).is_none()
                || obj.get("tid").and_then(Value::as_u64).is_none()
            {
                errs.push(format!("event {i}: missing pid/tid"));
            }
        }
        if ph == "X" && obj.get("dur").and_then(Value::as_f64).is_none() {
            errs.push(format!("event {i}: X event missing dur"));
        }
        if let Some(ts) = obj.get("ts").and_then(Value::as_f64) {
            let dur = obj.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
            if let Err(e) = check_times(ts, dur) {
                errs.push(format!("event {i}: {e}"));
            }
        }
        if ph == "X" && obj.get("cat").and_then(Value::as_str) == Some("kernel") {
            let args = obj.get("args").and_then(Value::as_object).cloned();
            if let Err(e) = check_kernel_args(&args.unwrap_or_default()) {
                errs.push(format!("event {i}: {e}"));
            }
        }
        if ph == "C"
            && obj
                .get("args")
                .and_then(Value::as_object)
                .map(|m| m.is_empty())
                .unwrap_or(true)
        {
            errs.push(format!("event {i}: counter missing args"));
        }
    }
    match root.get("metadata") {
        None => errs.push("missing metadata".into()),
        Some(meta) => {
            for key in ["ledger", "dropped"] {
                if meta.get(key).and_then(Value::as_object).is_none() {
                    errs.push(format!("metadata missing {key} object"));
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::tracer::Tracer;
    use std::time::{Duration, Instant};

    fn sample() -> Vec<RankTrace> {
        let tracer = Tracer::new();
        for rank in 0..2 {
            let h = tracer.handle(rank);
            let _step = h.span("step", Category::Phase);
            h.kernel(
                "weno_x",
                100,
                1.0 / 3.0,
                2.5,
                0.125,
                Instant::now(),
                Duration::from_micros(5),
            );
            h.comm(crate::event::CommOp::Recv, 1 - rank, 800, Instant::now());
            h.counter("dt", 1e-3);
            h.instant("retry", Category::Recovery);
            h.attach_ledger(vec![LedgerRow {
                label: "weno_x".into(),
                launches: 1,
                items: 100,
                flops: 1.0 / 3.0,
                bytes_read: 2.5,
                bytes_written: 0.125,
                wall_ns: 5000,
            }]);
        }
        tracer.snapshot()
    }

    #[test]
    fn export_passes_schema_validation() {
        let v = export(&sample());
        assert!(validate_schema(&v).is_empty(), "{:?}", validate_schema(&v));
    }

    #[test]
    fn export_parse_round_trip_is_exact() {
        let traces = sample();
        let s = export_to_string(&traces);
        let parsed = parse_str(&s).unwrap();
        assert_eq!(parsed.ranks.len(), 2);
        let r0 = &parsed.ranks[&0];
        let kernel = r0.iter().find(|e| e.cat == "kernel").unwrap();
        // float_roundtrip: the per-launch product survives JSON bitwise.
        let flops = kernel.args.get("flops").unwrap().as_f64().unwrap();
        assert_eq!(flops.to_bits(), (1.0_f64 / 3.0).to_bits());
        assert_eq!(parsed.ledgers[&0][0].label, "weno_x");
        assert_eq!(parsed.dropped[&0], 0);
    }

    #[test]
    fn schema_validation_flags_broken_documents() {
        assert!(!validate_schema(&json!({})).is_empty());
        let bad = json!({
            "traceEvents": json!([
                json!({"ph": "Q", "ts": 0.0, "pid": 0u64, "tid": 0u64})
            ]),
            "metadata": json!({"ledger": json!({}), "dropped": json!({})})
        });
        let errs = validate_schema(&bad);
        assert!(errs.iter().any(|e| e.contains("unknown ph")));
        assert!(errs.iter().any(|e| e.contains("missing name")));
    }

    #[test]
    fn kernel_event_with_bad_args_is_a_typed_parse_error() {
        // Regression: a well-formed chrome-trace document whose kernel
        // event lacks (or mistypes) the analytic args used to sail
        // through parsing, leaving downstream arg lookups to abort or
        // silently aggregate zeros. It must be a typed parse error and
        // a schema violation so `mfc-trace-report --validate` rejects.
        let doc = |args: Value| {
            json!({
                "traceEvents": json!([json!({
                    "name": "weno_x", "cat": "kernel", "ph": "X",
                    "ts": 0.0, "dur": 1.0, "pid": 0u64, "tid": 0u64,
                    "args": args
                })]),
                "metadata": json!({"ledger": json!({}), "dropped": json!({})})
            })
        };
        let missing = doc(json!({
            "seq": 0u64, "items": 10u64, "gangs": 1u64, "lanes": 1u64
        })); // no flops/bytes at all
        let non_numeric = doc(json!({
            "seq": 0u64, "items": 10u64, "gangs": 1u64, "lanes": 1u64,
            "flops": "lots", "bytes_read": 1.0, "bytes_written": 1.0
        }));
        for bad in [&missing, &non_numeric] {
            let text = serde_json::to_string(bad).unwrap();
            let err = parse_str(&text).unwrap_err();
            assert!(err.contains("kernel event missing numeric arg"), "{err}");
            let errs = validate_schema(bad);
            assert!(errs.iter().any(|e| e.contains("numeric arg")), "{errs:?}");
        }
        // The exporter's own output still parses, so strictness cannot
        // reject a healthy trace.
        assert!(parse_str(&export_to_string(&sample())).is_ok());
    }

    #[test]
    fn parse_keeps_emission_order() {
        let s = export_to_string(&sample());
        let parsed = parse_str(&s).unwrap();
        let names: Vec<&str> = parsed.ranks[&1].iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["step", "weno_x", "recv", "dt", "retry", "step"]);
    }
}
