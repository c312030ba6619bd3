//! The `mfc-serve` daemon wire protocol: line-delimited JSON over TCP.
//!
//! Every frame is one JSON object on one line. Requests carry a `cmd`
//! tag; responses always carry `"ok": true|false`, with failures typed
//! as `{"ok": false, "error": {"kind": ..., "message": ...}}` so a
//! client can react to backpressure (`queue_full`), admission rejection
//! (`rejected`), or a draining daemon (`draining`) without string
//! matching. A malformed frame is itself a typed error
//! (`malformed_frame`) — the server answers it and keeps the connection
//! open; it never aborts on client input.
//!
//! ```text
//! → {"cmd":"submit","job":{"case":"cases/sod.json","max_steps":20}}
//! ← {"ok":true,"id":0}
//! → {"cmd":"metrics"}
//! ← {"ok":true,"metrics":{"queued":0,"running":1,...}}
//! → {"cmd":"drain"}
//! ← {"ok":true,"draining":true,"metrics":{...}}
//! ```
//!
//! Request parsing is deliberately strict (hand-rolled over the JSON
//! tree rather than derived): an unknown `cmd`, a missing or mistyped
//! field, or stray top-level keys are all malformed frames — a typo
//! must never be silently accepted as a no-op by a long-running daemon.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::job::{JobSpec, JobState, SchedError};

/// One request frame (see the module docs for the wire form).
#[derive(Debug, Clone)]
pub enum Request {
    /// Validate and enqueue a job while the ensemble runs (streaming
    /// admission — the daemon-mode counterpart of a manifest entry).
    Submit(JobSpec),
    /// Report one job (by id) or every job the daemon has seen.
    Status(Option<u64>),
    /// Cooperatively cancel a queued or running job.
    Cancel(u64),
    /// Live occupancy/outcome counters (see [`MetricsSnapshot`]).
    Metrics,
    /// Stop admission; queued and running jobs finish, then the daemon
    /// flushes its ledger and exits 0.
    Drain,
    /// Cancel everything cooperatively at step boundaries, flush the
    /// ledger, exit 0.
    Shutdown,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit(job) => {
                json!({"cmd": "submit", "job": serde_json::to_value(job)}).to_string()
            }
            Request::Status(None) => json!({"cmd": "status"}).to_string(),
            Request::Status(Some(id)) => json!({"cmd": "status", "id": *id}).to_string(),
            Request::Cancel(id) => json!({"cmd": "cancel", "id": *id}).to_string(),
            Request::Metrics => json!({"cmd": "metrics"}).to_string(),
            Request::Drain => json!({"cmd": "drain"}).to_string(),
            Request::Shutdown => json!({"cmd": "shutdown"}).to_string(),
            Request::Ping => json!({"cmd": "ping"}).to_string(),
        }
    }
}

/// Typed failure of a single protocol exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame was not a well-formed request (bad JSON, unknown
    /// command, missing/mistyped fields). The connection survives.
    MalformedFrame { detail: String },
    /// The scheduler refused the command.
    Sched(SchedError),
}

impl ProtocolError {
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::MalformedFrame { .. } => "malformed_frame",
            ProtocolError::Sched(e) => e.kind(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::MalformedFrame { detail } => write!(f, "malformed frame: {detail}"),
            ProtocolError::Sched(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<SchedError> for ProtocolError {
    fn from(e: SchedError) -> Self {
        ProtocolError::Sched(e)
    }
}

fn malformed(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: detail.into(),
    }
}

/// Reject stray top-level keys: a daemon must not silently ignore a
/// mistyped field name in an operator command.
fn check_keys(obj: &serde_json::Map, allowed: &[&str]) -> Result<(), ProtocolError> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(malformed(format!("unknown field '{key}'")));
        }
    }
    Ok(())
}

fn required_id(obj: &serde_json::Map, cmd: &str) -> Result<u64, ProtocolError> {
    obj.get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed(format!("'{cmd}' needs a numeric job id")))
}

/// Decode one line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v: Value =
        serde_json::from_str(line.trim()).map_err(|e| malformed(format!("not JSON: {e}")))?;
    let obj = v
        .as_object()
        .ok_or_else(|| malformed("frame is not a JSON object"))?;
    let cmd = obj
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing string field 'cmd'"))?;
    match cmd {
        "submit" => {
            check_keys(obj, &["cmd", "job"])?;
            let job = obj
                .get("job")
                .ok_or_else(|| malformed("'submit' needs a 'job' object"))?;
            let spec: JobSpec =
                serde_json::from_value(job).map_err(|e| malformed(format!("bad job spec: {e}")))?;
            Ok(Request::Submit(spec))
        }
        "status" => {
            check_keys(obj, &["cmd", "id"])?;
            let id = match obj.get("id") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| malformed("'status' id must be numeric"))?,
                ),
            };
            Ok(Request::Status(id))
        }
        "cancel" => {
            check_keys(obj, &["cmd", "id"])?;
            Ok(Request::Cancel(required_id(obj, "cancel")?))
        }
        "metrics" => check_keys(obj, &["cmd"]).map(|()| Request::Metrics),
        "drain" => check_keys(obj, &["cmd"]).map(|()| Request::Drain),
        "shutdown" => check_keys(obj, &["cmd"]).map(|()| Request::Shutdown),
        "ping" => check_keys(obj, &["cmd"]).map(|()| Request::Ping),
        other => Err(malformed(format!("unknown command '{other}'"))),
    }
}

/// Live scheduler state, served by the `metrics` command and fed from
/// the same counters the scheduler's trace timeline records
/// (`queue_depth`, `running_jobs`, `busy_workers`) plus the terminal
/// ledger accounting.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct MetricsSnapshot {
    /// Global worker budget.
    pub budget: usize,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Jobs currently holding a worker share.
    pub running: usize,
    /// Σ shares over the running jobs (≤ budget).
    pub busy_workers: usize,
    /// budget − busy_workers.
    pub idle_workers: usize,
    /// Jobs accepted since startup (rejections don't count).
    pub submitted: u64,
    pub done: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub timed_out: u64,
    /// Σ worker-seconds consumed by terminal jobs.
    pub worker_seconds: f64,
    /// Admission is closed; the daemon exits once idle.
    pub draining: bool,
}

/// One job's row in a `status` reply: live state plus the terminal
/// accounting once the job finishes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusRow {
    pub id: u64,
    pub job: String,
    pub state: JobState,
    /// Steps taken (terminal jobs only — a running job's count lives on
    /// its worker thread).
    #[serde(default)]
    pub steps: Option<u64>,
    #[serde(default)]
    pub reason: Option<String>,
    #[serde(default)]
    pub output: Option<PathBuf>,
}

/// `{"ok":true, ...extra}` on one line.
pub fn ok_response(extra: Value) -> String {
    let mut m = serde_json::Map::new();
    m.insert("ok", Value::Bool(true));
    if let Some(add) = extra.as_object() {
        for (k, val) in add.iter() {
            m.insert(k.clone(), val.clone());
        }
    }
    Value::Object(m).to_string()
}

/// `{"ok":false,"error":{"kind":...,"message":...}}` on one line.
pub fn error_response(err: &ProtocolError) -> String {
    json!({
        "ok": false,
        "error": json!({ "kind": err.kind(), "message": err.to_string() })
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","job":{"case":"c.json"}}"#),
            Ok(Request::Submit(_))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status"}"#),
            Ok(Request::Status(None))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status","id":3}"#),
            Ok(Request::Status(Some(3)))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"cancel","id":1}"#),
            Ok(Request::Cancel(1))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"drain"}"#),
            Ok(Request::Drain)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"ping"}"#),
            Ok(Request::Ping)
        ));
    }

    #[test]
    fn requests_round_trip_through_to_line() {
        let mut spec = JobSpec::new("cases/sod.json");
        spec.priority = 3;
        spec.max_steps = Some(7);
        for req in [
            Request::Submit(spec),
            Request::Status(None),
            Request::Status(Some(4)),
            Request::Cancel(2),
            Request::Metrics,
            Request::Drain,
            Request::Shutdown,
            Request::Ping,
        ] {
            let line = req.to_line();
            let back = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            match (&req, &back) {
                (Request::Submit(a), Request::Submit(b)) => {
                    assert_eq!(a.case, b.case);
                    assert_eq!(a.priority, b.priority);
                    assert_eq!(a.max_steps, b.max_steps);
                }
                (Request::Status(a), Request::Status(b)) => assert_eq!(a, b),
                (Request::Cancel(a), Request::Cancel(b)) => assert_eq!(a, b),
                (Request::Metrics, Request::Metrics)
                | (Request::Drain, Request::Drain)
                | (Request::Shutdown, Request::Shutdown)
                | (Request::Ping, Request::Ping) => {}
                other => panic!("round-trip changed the variant: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_frames_are_typed_not_fatal() {
        for bad in [
            "not json at all",
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"cancel"}"#,               // missing id
            r#"{"cmd":"cancel","id":"twelve"}"#, // wrong type
            r#"{"cmd":"metrics","extra":1}"#,    // stray field
            r#"{"cmd":"submit"}"#,               // missing job
            r#"[1,2,3]"#,                        // not an object
            "",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind(), "malformed_frame", "{bad:?}");
            let rendered = error_response(&err);
            let v: Value = serde_json::from_str(&rendered).unwrap();
            assert_eq!(v["ok"].as_bool(), Some(false));
            assert_eq!(v["error"]["kind"].as_str(), Some("malformed_frame"));
        }
    }

    #[test]
    fn sched_errors_keep_their_kind_on_the_wire() {
        let err: ProtocolError = SchedError::QueueFull { cap: 4 }.into();
        let v: Value = serde_json::from_str(&error_response(&err)).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("queue_full"));
        let err: ProtocolError = SchedError::Draining.into();
        assert_eq!(err.kind(), "draining");
    }

    #[test]
    fn metrics_snapshot_roundtrips() {
        let m = MetricsSnapshot {
            budget: 4,
            queued: 2,
            running: 3,
            busy_workers: 4,
            idle_workers: 0,
            submitted: 9,
            done: 3,
            failed: 1,
            cancelled: 0,
            timed_out: 0,
            worker_seconds: 1.5,
            draining: false,
        };
        let line = ok_response(json!({ "metrics": serde_json::to_value(&m) }));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        let back: MetricsSnapshot = serde_json::from_value(&v["metrics"]).unwrap();
        assert_eq!(back, m);
    }
}
