//! `mfc-run <case.json>` — execute a JSON case file.

use mfc_cli::{admit, CaseFile, RunError, ADMISSION_RULES};
use mfc_mpsim::FailurePolicy;
use mfc_trace::Out;

const USAGE: &str = "usage: mfc-run <case.json> [--validate] [--dry-run] \
[--workers N] [--vector-width N] \
[--faults plan.json] \
[--checkpoint-every N] [--ckpt-keep N] [--failure-policy revive|shrink|spare] \
[--spares N] [--recovery ladder.json] [--max-retries N] \
[--trace out.json] [--io-wave N]";

const HELP: &str = "\
mfc-run — execute a JSON case file on the MFC reproduction solver

usage: mfc-run <case.json> [flags]

flags:
  --help                 print this help and exit
  --dry-run, --validate  admit the case (every check listed under
                         'admission' below) and report what was
                         established, without stepping or writing
                         anything: exit 0 (admissible), 2 (refused) or 3
                         (a named plan/ladder file is unreadable). The two
                         spellings are one code path
  --workers N            worker threads per rank for the gang-parallel
                         kernels (numerics.workers case key; default 1).
                         Results are bitwise identical at every count
  --vector-width N       SIMD lane width for the vectorized kernels
                         (numerics.vector_width case key; default 8).
                         8 (lane packets) or 1 (scalar); results are
                         bitwise identical at both widths
  --faults plan.json     fault-injection plan (mfc_mpsim::FaultPlan)
  --checkpoint-every N   checkpoint wave period in steps. Multi-rank,
                         checkpointed and fault-plan runs step every rank
                         through the one run loop; a non-zero N adds its
                         checkpoint layer
  --ckpt-keep N          checkpoint retention: keep the N newest committed
                         waves per rank (default 2; the newest committed
                         wave is never garbage-collected)
  --failure-policy P     what survivors do about a *permanent* rank death:
                         'revive' (transient semantics; a permanent loss is
                         unrecoverable), 'shrink' (survivor consensus on a
                         smaller decomposition, the last committed wave is
                         redistributed cross-shard), or 'spare' (promote an
                         idle hot spare into the vacant slot)
  --spares N             hot spare ranks provisioned outside the
                         decomposition for --failure-policy spare
  --recovery ladder.json numerical-recovery ladder (mfc_core::RecoveryPolicy
                         JSON) arming the health watchdog with graceful
                         degradation: retry with halved dt, Zhang-Shu
                         limiting, WENO3, Rusanov
  --max-retries N        per-step retry budget for the recovery ladder;
                         arms the default ladder when --recovery is absent
  --trace out.json       record a hierarchical span trace of the run and
                         write it as chrome-trace JSON (load in Perfetto /
                         chrome://tracing, or run mfc-trace-report on it):
                         per-rank timelines of step phases, every kernel
                         launch with its FLOP/byte attributes, messages,
                         collectives, I/O waves, and recovery activity
  --io-wave N            writer-wave width for file-per-process output
                         (io.wave case key; default 128, MFC's production
                         value). With the io.wave_files case key every
                         rank writes its block under <output.dir>/waves
                         for mfc-post; this combines with checkpointing,
                         fault plans and the recovery ladder, and a wave
                         file that cannot be written is exit 3
";

const EXIT_CODES: &str = "\
exit codes:
  0  success
  2  usage error or invalid case/configuration
  3  I/O failure (case file, plans, output directory, probes, VTK,
     checkpoint and wave files)
  4  numerical failure (health-watchdog abort after ladder exhaustion)
";

/// Parse a strictly positive count.
fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// Apply value-taking flag `name` to the loaded case file; `None` when
/// `v` is missing or not a value the flag can take. Range and consistency
/// rules are admission's, not the flag's.
fn apply(c: &mut CaseFile, name: &str, v: Option<&str>) -> Option<()> {
    match name {
        "--workers" => c.numerics.workers = positive(v?)?,
        "--vector-width" => c.numerics.vector_width = v?.parse().ok()?,
        "--faults" => c.run.faults = Some(v?.into()),
        "--checkpoint-every" => c.run.checkpoint_every = v?.parse().ok()?,
        "--ckpt-keep" => c.run.ckpt_keep = positive(v?)?,
        "--failure-policy" => c.run.failure_policy = FailurePolicy::from_flag(v?).ok()?,
        "--spares" => c.run.spares = v?.parse().ok()?,
        "--recovery" => c.run.recovery = Some(v?.into()),
        "--max-retries" => c.run.max_retries = Some(v?.parse().ok()?),
        "--trace" => c.run.trace = Some(v?.into()),
        "--io-wave" => c.io.wave = positive(v?)?,
        _ if name.starts_with("--") => die(&format!("unknown flag {name}")),
        _ => die("only one case file may be given"),
    }
    Some(())
}

/// Flags that take no value; every other `--flag` consumes the next
/// argument.
const SWITCHES: [&str; 2] = ["--validate", "--dry-run"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        write!(Out, "{HELP}\n{ADMISSION_RULES}\n{EXIT_CODES}");
        return;
    }
    // Locate the case file first (skipping flag values), so every flag
    // can then be applied to the loaded case as it is parsed.
    let mut it = args.iter();
    let mut path = None;
    while let (None, Some(arg)) = (path, it.next()) {
        if !arg.starts_with("--") {
            path = Some(arg);
        } else if !SWITCHES.contains(&arg.as_str()) {
            it.next();
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        eprintln!("see `mfc-run --help` or crates/cli/src/schema.rs for the schema");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&RunError::Io(format!("cannot read {path}: {e}"))));
    let mut case = CaseFile::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2)
    });

    // Command-line flags override the case file.
    let mut admit_only = false;
    let mut it = args.iter().filter(|a| !std::ptr::eq(*a, path));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--validate" | "--dry-run" => admit_only = true,
            name => {
                let value = it.next().map(String::as_str);
                if apply(&mut case, name, value).is_none() {
                    die(&format!("{name} needs a value it accepts"));
                }
            }
        }
    }

    let admitted = admit(&case).unwrap_or_else(|e| fail(&e));
    if admit_only {
        writeln!(Out, "{}", admitted.report());
        return;
    }
    writeln!(
        Out,
        "running case '{}' ({:?} cells, {} fluids)",
        case.name,
        case.cells,
        case.fluids.len()
    );
    let s = admitted.run().unwrap_or_else(|e| fail(&e));
    writeln!(
        Out,
        "done: {} steps, t = {:.4e}, {} cells, grind {:.1} ns/cell/PDE/RHS",
        s.steps, s.time, s.cells, s.grind_ns
    );
    if !s.resilience.is_empty() {
        writeln!(Out, "resilience events:");
        write!(Out, "{}", s.resilience);
    }
    if let Some(p) = s.vtk_path {
        writeln!(Out, "wrote {}", p.display());
    }
    if let Some(p) = &case.run.trace {
        writeln!(Out, "wrote trace {}", p.display());
    }
}

fn fail(e: &RunError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(e.exit_code())
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}
