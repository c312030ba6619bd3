//! `mfc-trace-report <trace.json>` — summarize and check a trace captured
//! with `mfc-run --trace`.

use mfc_trace::{chrome, nesting, Out};

const USAGE: &str = "usage: mfc-trace-report <trace.json> [--validate] [--reconcile]";

const HELP: &str = "\
mfc-trace-report — summarize a chrome-trace file captured by mfc-run --trace

usage: mfc-trace-report <trace.json> [flags]

Prints the per-kernel aggregate table, the exact cross-check against the
embedded analytic kernel ledger, and the measured per-rank comm/compute
split (the reproduction's Fig. 4 counterpart).

flags:
  --help       print this help and exit
  --validate   additionally schema-validate the chrome-trace JSON and
               check every rank's span stream is well-nested; any
               violation exits non-zero
  --reconcile  exit non-zero unless every rank's traced per-kernel totals
               match its analytic ledger exactly

exit codes:
  0  success (all requested checks passed)
  1  validation or reconciliation failure
  2  usage error
  3  I/O or parse failure
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut validate = false;
    let mut reconcile = false;
    let mut path: Option<String> = None;
    for arg in &args {
        match arg.as_str() {
            "--help" | "-h" => {
                write!(Out, "{HELP}");
                return;
            }
            "--validate" => validate = true,
            "--reconcile" => reconcile = true,
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    eprintln!("error: only one trace file may be given");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };

    let mut failed = false;
    if validate {
        let root: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {path} is not JSON: {e}");
                std::process::exit(3);
            }
        };
        let errs = chrome::validate_schema(&root);
        if errs.is_empty() {
            writeln!(Out, "schema: OK");
        } else {
            failed = true;
            for e in &errs {
                eprintln!("schema violation: {e}");
            }
        }
    }

    let parsed = match chrome::parse_str(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot parse {path}: {e}");
            std::process::exit(3);
        }
    };

    if validate {
        match nesting::check_trace(&parsed) {
            Ok(()) => writeln!(Out, "span nesting: OK"),
            Err(errs) => {
                failed = true;
                for e in &errs {
                    eprintln!("nesting violation: {e}");
                }
            }
        }
    }

    write!(Out, "{}", mfc_trace::report::render(&parsed));

    if reconcile {
        if let Err(errs) = mfc_trace::reconcile_trace(&parsed) {
            failed = true;
            for e in &errs {
                eprintln!("reconcile failure: {e}");
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
