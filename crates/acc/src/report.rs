//! Human-readable summary of the ledger's fault-tolerance event log.

use crate::ledger::Ledger;

/// Render the fault-tolerance event log: one line per checkpoint,
/// detection, rollback, and replay, with per-event wall timing — the
/// resilience section of the `mfc-run` profile summary.
pub fn resilience_summary(ledger: &Ledger) -> String {
    let events = ledger.events();
    if events.is_empty() {
        return String::new();
    }
    let mut out = String::from("event           rank   step   wave   time(ms)  detail\n");
    for e in &events {
        out.push_str(&format!(
            "{:<15} {:>4} {:>6} {:>6} {:>10.3}  {}\n",
            e.kind.name(),
            e.rank,
            e.step,
            e.wave,
            e.wall.as_secs_f64() * 1e3,
            e.detail,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn resilience_summary_lists_events_in_order() {
        use crate::ledger::{ResilienceEvent, ResilienceEventKind};
        let l = Ledger::new();
        assert_eq!(resilience_summary(&l), "", "no events, no section");
        for (kind, step) in [
            (ResilienceEventKind::Checkpoint, 0),
            (ResilienceEventKind::FaultDetected, 6),
            (ResilienceEventKind::Rollback, 4),
            (ResilienceEventKind::Replay, 6),
        ] {
            l.record_event(ResilienceEvent {
                kind,
                rank: 0,
                step,
                wave: 1,
                wall: Duration::from_millis(2),
                detail: format!("at step {step}"),
            });
        }
        let text = resilience_summary(&l);
        let ck = text.find("checkpoint").unwrap();
        let fd = text.find("fault_detected").unwrap();
        let rb = text.find("rollback").unwrap();
        let rp = text.find("replay").unwrap();
        assert!(ck < fd && fd < rb && rb < rp);
        assert!(text.contains("2.000"));
    }
}
