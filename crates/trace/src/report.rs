//! Human-readable rendering of a parsed trace: the profile summary a
//! `nsys stats` / `rocprof --stats` run would print.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::aggregate::{aggregate_kernels, reconcile_trace, splits, KernelAgg};
use crate::chrome::ParsedTrace;

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.3} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.3} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.3} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Wall ns per item of a kernel's iteration space — the per-stage cost
/// (e.g. WENO ns per face-variable); `-` for a kernel that ran no items.
fn ns_per_item(a: &KernelAgg) -> String {
    if a.items == 0 {
        return "-".into();
    }
    format!("{:.2}", a.wall_us * 1e3 / a.items as f64)
}

/// Merge per-rank kernel aggregates into job-wide totals per label.
fn job_totals(trace: &ParsedTrace) -> BTreeMap<String, KernelAgg> {
    let mut out: BTreeMap<String, KernelAgg> = BTreeMap::new();
    for events in trace.ranks.values() {
        for (label, a) in aggregate_kernels(events) {
            let e = out.entry(label).or_default();
            e.launches += a.launches;
            e.items += a.items;
            e.flops += a.flops;
            e.bytes_read += a.bytes_read;
            e.bytes_written += a.bytes_written;
            e.wall_us += a.wall_us;
            e.gangs_max = e.gangs_max.max(a.gangs_max);
            e.lanes_max = e.lanes_max.max(a.lanes_max);
        }
    }
    out
}

/// Last-sampled `threads` counter per rank (the worker count each rank's
/// context scheduled kernels onto), if any rank emitted one.
fn threads_per_rank(trace: &ParsedTrace) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (rank, events) in &trace.ranks {
        for e in events {
            if e.ph == 'C' && e.name == "threads" {
                if let Some(v) = e.args.get("threads").and_then(|v| v.as_f64()) {
                    out.insert(*rank, v as u64);
                }
            }
        }
    }
    out
}

/// Scheduler view: rendered when the trace came from an ensemble run
/// (`mfc-serve` / `mfc-sched`) — timeline 0 carries the scheduler's
/// queue-depth / occupancy counters and resize instants, and each job's
/// timeline carries a `job` span with admit/cancel/deadline/failure
/// instants. Returns `None` for ordinary single-run traces.
fn sched_view(trace: &ParsedTrace) -> Option<String> {
    let mut max_queue: Option<f64> = None;
    let mut occupancy: Vec<f64> = Vec::new();
    let mut busy_max = 0.0f64;
    let mut resize_instants = 0u64;
    let mut connects = 0u64;
    let mut disconnects = 0u64;
    let mut drains = 0u64;
    if let Some(events) = trace.ranks.get(&0) {
        for e in events {
            let val = |n: &str| e.args.get(n).and_then(|v| v.as_f64());
            match (e.ph, e.name.as_str()) {
                ('C', "queue_depth") => {
                    if let Some(v) = val("queue_depth") {
                        max_queue = Some(max_queue.unwrap_or(0.0).max(v));
                    }
                }
                ('C', "running_jobs") => occupancy.extend(val("running_jobs")),
                ('C', "busy_workers") => {
                    if let Some(v) = val("busy_workers") {
                        busy_max = busy_max.max(v);
                    }
                }
                ('i', "resize") => resize_instants += 1,
                ('i', "client_connect") => connects += 1,
                ('i', "client_disconnect") | ('i', "client_disconnect_midframe") => {
                    disconnects += 1
                }
                ('i', "drain") | ('i', "shutdown") => drains += 1,
                _ => {}
            }
        }
    }

    struct JobRow {
        rank: u64,
        wall_us: f64,
        kernels: u64,
        share: u64,
        resizes: u64,
        outcome: &'static str,
    }
    let mut rows: Vec<JobRow> = Vec::new();
    for (rank, events) in &trace.ranks {
        let mut open: Option<f64> = None;
        let mut wall_us = 0.0f64;
        let mut seen_job = false;
        let mut kernels = 0u64;
        let mut thread_samples = 0u64;
        let mut share = 0u64;
        let mut outcome: &'static str = "done";
        for e in events {
            match (e.ph, e.name.as_str()) {
                ('B', "job") => {
                    seen_job = true;
                    open = Some(e.ts_us);
                }
                ('E', "job") => {
                    if let Some(t0) = open.take() {
                        wall_us += e.ts_us - t0;
                    }
                }
                ('X', _) if e.cat == "kernel" => kernels += 1,
                ('C', "threads") => {
                    if let Some(v) = e.args.get("threads").and_then(|v| v.as_f64()) {
                        thread_samples += 1;
                        share = v as u64;
                    }
                }
                ('i', "cancel") => outcome = "cancelled",
                ('i', "deadline") => outcome = "timed_out",
                ('i', "job_failed") => outcome = "failed",
                _ => {}
            }
        }
        if seen_job {
            rows.push(JobRow {
                rank: *rank,
                wall_us,
                kernels,
                share,
                resizes: thread_samples.saturating_sub(1),
                outcome,
            });
        }
    }
    if rows.is_empty() && max_queue.is_none() && occupancy.is_empty() {
        return None;
    }

    let mut out = String::new();
    let _ = writeln!(out, "\nscheduler view (ensemble run):");
    if let Some(q) = max_queue {
        let mean_occ = if occupancy.is_empty() {
            0.0
        } else {
            occupancy.iter().sum::<f64>() / occupancy.len() as f64
        };
        let _ = writeln!(
            out,
            "  queue depth max {q:.0}, mean running jobs {mean_occ:.2}, \
             busy workers max {busy_max:.0}, pool resizes {resize_instants}"
        );
    }
    if connects > 0 || disconnects > 0 {
        let _ = writeln!(
            out,
            "  daemon clients — {connects} connect(s), {disconnects} disconnect(s), \
             {drains} drain/shutdown command(s)"
        );
    }
    let _ = writeln!(
        out,
        "  {:>8} {:>12} {:>9} {:>11} {:>8} {:>10}",
        "timeline", "job ms", "kernels", "final share", "resizes", "outcome"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:>8} {:>12.3} {:>9} {:>11} {:>8} {:>10}",
            r.rank,
            r.wall_us / 1e3,
            r.kernels,
            r.share,
            r.resizes,
            r.outcome
        );
    }
    Some(out)
}

/// Render the full report: per-kernel aggregate table (sorted by wall
/// time), ledger reconciliation verdict, the per-rank comm/compute
/// split, and — for ensemble traces — the scheduler view.
pub fn render(trace: &ParsedTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mfc-trace report — {} rank(s)", trace.ranks.len());
    let threads = threads_per_rank(trace);
    if !threads.is_empty() {
        let per_rank: Vec<String> = threads
            .iter()
            .map(|(rank, n)| format!("rank {rank}: {n}"))
            .collect();
        let _ = writeln!(out, "worker threads — {}", per_rank.join(", "));
    }

    let totals = job_totals(trace);
    let mut rows: Vec<(&String, &KernelAgg)> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.wall_us.total_cmp(&a.1.wall_us));
    let total_wall: f64 = rows.iter().map(|(_, a)| a.wall_us).sum();
    let _ = writeln!(out, "\nper-kernel aggregate (all ranks):");
    let _ = writeln!(
        out,
        "  {:<26} {:>9} {:>14} {:>6} {:>6} {:>12} {:>12} {:>12} {:>9}   wall%",
        "kernel", "launches", "items", "gangs", "lanes", "flops", "read", "written", "ns/item"
    );
    for (label, a) in &rows {
        let _ = writeln!(
            out,
            "  {:<26} {:>9} {:>14} {:>6} {:>6} {:>12} {:>12} {:>12} {:>9} {:>6.1}%",
            label,
            a.launches,
            a.items,
            a.gangs_max,
            a.lanes_max,
            format!("{:.3e}", a.flops),
            fmt_bytes(a.bytes_read),
            fmt_bytes(a.bytes_written),
            ns_per_item(a),
            if total_wall > 0.0 {
                100.0 * a.wall_us / total_wall
            } else {
                0.0
            }
        );
    }

    let _ = writeln!(out, "\nledger cross-check:");
    match reconcile_trace(trace) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "  OK — traced per-kernel totals match the analytic ledger exactly"
            );
        }
        Err(errs) => {
            for e in &errs {
                let _ = writeln!(out, "  MISMATCH {e}");
            }
        }
    }

    let _ = writeln!(out, "\nper-rank comm/compute split (leaf events):");
    let _ = writeln!(
        out,
        "  {:>4} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "rank", "kernel ms", "comm ms", "io ms", "extent ms", "comm%"
    );
    for s in splits(trace) {
        let _ = writeln!(
            out,
            "  {:>4} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>6.1}%",
            s.rank,
            s.kernel_us / 1e3,
            s.comm_us / 1e3,
            s.io_us / 1e3,
            s.extent_us / 1e3,
            100.0 * s.comm_fraction()
        );
    }

    if let Some(view) = sched_view(trace) {
        out.push_str(&view);
    }

    for (rank, n) in &trace.dropped {
        if *n > 0 {
            let _ = writeln!(
                out,
                "\nwarning: rank {rank} ring dropped {n} event(s); stream truncated"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{export_to_string, parse_str};
    use crate::event::{Category, CommOp, LedgerRow};
    use crate::tracer::Tracer;
    use std::time::{Duration, Instant};

    #[test]
    fn report_contains_table_verdict_and_split() {
        let tracer = Tracer::new();
        for rank in 0..2 {
            let h = tracer.handle(rank);
            let _s = h.span("step", Category::Phase);
            h.kernel(
                "weno_x",
                50,
                125.0,
                400.0,
                80.0,
                Instant::now(),
                Duration::from_micros(10),
            );
            h.comm(CommOp::Recv, 1 - rank, 256, Instant::now());
            h.attach_ledger(vec![LedgerRow {
                label: "weno_x".into(),
                launches: 1,
                items: 50,
                flops: 125.0,
                bytes_read: 400.0,
                bytes_written: 80.0,
                wall_ns: 10_000,
            }]);
        }
        let parsed = parse_str(&export_to_string(&tracer.snapshot())).unwrap();
        let text = render(&parsed);
        assert!(text.contains("weno_x"));
        assert!(text.contains("OK — traced per-kernel totals match"));
        assert!(text.contains("comm/compute split"));
        assert!(text.contains("rank"));
    }

    #[test]
    fn ns_per_item_is_wall_over_items_and_dashes_empty_kernels() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        let us = Duration::from_micros;
        h.kernel("weno", 50, 1.0, 8.0, 8.0, Instant::now(), us(10));
        h.kernel("weno", 50, 1.0, 8.0, 8.0, Instant::now(), us(10));
        h.kernel("empty", 0, 0.0, 0.0, 0.0, Instant::now(), us(3));
        let parsed = parse_str(&export_to_string(&tracer.snapshot())).unwrap();
        let text = render(&parsed);
        // ns/item is the second-to-last column of a kernel row.
        let column = |label: &str| {
            let row = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("no {label} row:\n{text}"));
            let cells: Vec<&str> = row.split_whitespace().collect();
            cells[cells.len() - 2].to_string()
        };
        let weno = &job_totals(&parsed)["weno"];
        assert_eq!((weno.items, weno.wall_us), (100, 20.0));
        assert_eq!(column("weno"), "200.00", "20 us / 100 items:\n{text}");
        assert_eq!(column("empty"), "-", "{text}");
    }

    #[test]
    fn sched_view_counts_daemon_clients() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        h.counter("queue_depth", 1.0);
        h.instant("client_connect", Category::Phase);
        h.instant("client_connect", Category::Phase);
        h.instant("client_disconnect", Category::Phase);
        h.instant("client_disconnect_midframe", Category::Phase);
        h.instant("drain", Category::Phase);
        let parsed = parse_str(&export_to_string(&tracer.snapshot())).unwrap();
        let text = render(&parsed);
        assert!(text.contains("2 connect(s)"), "{text}");
        assert!(text.contains("2 disconnect(s)"), "{text}");
        assert!(text.contains("1 drain/shutdown command(s)"), "{text}");
    }

    #[test]
    fn report_flags_mismatches() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        h.kernel(
            "k",
            1,
            1.0,
            1.0,
            1.0,
            Instant::now(),
            Duration::from_nanos(5),
        );
        h.attach_ledger(vec![LedgerRow {
            label: "k".into(),
            launches: 1,
            items: 1,
            flops: 2.0,
            bytes_read: 1.0,
            bytes_written: 1.0,
            wall_ns: 5,
        }]);
        let parsed = parse_str(&export_to_string(&tracer.snapshot())).unwrap();
        assert!(render(&parsed).contains("MISMATCH"));
    }
}
