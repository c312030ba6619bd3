//! `mfc-run <case.json>` — execute a JSON case file.

use mfc_cli::{dry_run, run_case, CaseFile, RunError};
use mfc_core::rhs::RhsMode;

const USAGE: &str = "usage: mfc-run <case.json> [--validate] [--dry-run] \
[--rhs-mode staged|fused] [--overlap] [--workers N] [--vector-width N] \
[--faults plan.json] \
[--checkpoint-every N] [--ckpt-keep N] [--failure-policy revive|shrink|spare] \
[--spares N] [--recovery ladder.json] [--max-retries N] \
[--trace out.json] [--io-wave N]";

const HELP: &str = "\
mfc-run — execute a JSON case file on the MFC reproduction solver

usage: mfc-run <case.json> [flags]

flags:
  --help                 print this help and exit
  --validate             parse and validate the case, run nothing
  --dry-run              full admission-grade validation without stepping:
                         schema, solver configuration, stopping criteria,
                         rank decomposition + halo extents, worker /
                         vector-width bounds, fault-plan and recovery
                         files; exits 0 (valid) or 2 (invalid). The same
                         check mfc-serve applies before admitting a job
  --rhs-mode MODE        sweep engine: 'staged' grid-sized buffers or the
                         'fused' pencil engine (default; bitwise identical)
  --overlap              distributed runs: overlap the halo exchange with
                         the interior RHS sweeps on async queues (the
                         paper's OpenACC overlap; bitwise identical to the
                         default exchange). numerics.overlap case key
  --workers N            worker threads per rank for the gang-parallel
                         kernels (numerics.workers case key; default 1).
                         Results are bitwise identical at every count
  --vector-width N       SIMD lane width for the vectorized kernels
                         (numerics.vector_width case key; default 4).
                         Must be a power of two in 1..=8; results are
                         bitwise identical at every width
  --faults plan.json     fault-injection plan (mfc_mpsim::FaultPlan)
  --checkpoint-every N   checkpoint wave period in steps. Multi-rank,
                         checkpointed and fault-plan runs all use the one
                         distributed driver; a non-zero N adds its
                         checkpoint layer (and needs run.steps)
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

exit codes:
  0  success
  2  usage error or invalid case/configuration
  3  I/O failure (case file, plans, output directory, probes, VTK,
     checkpoint and wave files)
  4  numerical failure (health-watchdog abort after ladder exhaustion)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut validate_only = false;
    let mut dry_run_only = false;
    let mut overlap = false;
    let mut workers: Option<usize> = None;
    let mut vector_width: Option<usize> = None;
    let mut rhs_mode: Option<RhsMode> = None;
    let mut faults: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut recovery: Option<String> = None;
    let mut ckpt_keep: Option<usize> = None;
    let mut failure_policy: Option<mfc_mpsim::FailurePolicy> = None;
    let mut spares: Option<usize> = None;
    let mut max_retries: Option<u32> = None;
    let mut trace: Option<String> = None;
    let mut io_wave: Option<usize> = None;
    let mut path: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            "--validate" => validate_only = true,
            "--dry-run" => dry_run_only = true,
            "--overlap" => overlap = true,
            "--vector-width" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => match mfc_acc::validate_width(n) {
                    Ok(()) => vector_width = Some(n),
                    Err(e) => die(&format!("--vector-width: {e}")),
                },
                _ => die("--vector-width needs a lane count (power of two, <=8)"),
            },
            "--workers" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => workers = Some(n),
                _ => die("--workers needs a positive thread count"),
            },
            "--rhs-mode" => match it.next().map(String::as_str) {
                Some("staged") => rhs_mode = Some(RhsMode::Staged),
                Some("fused") => rhs_mode = Some(RhsMode::Fused),
                _ => die("--rhs-mode needs 'staged' or 'fused'"),
            },
            "--faults" => match it.next() {
                Some(v) => faults = Some(v.clone()),
                None => die("--faults needs a plan file"),
            },
            "--checkpoint-every" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => checkpoint_every = Some(n),
                _ => die("--checkpoint-every needs a step count"),
            },
            "--ckpt-keep" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => ckpt_keep = Some(n),
                _ => die("--ckpt-keep needs a positive wave count"),
            },
            "--failure-policy" => match it.next() {
                Some(v) => match mfc_mpsim::FailurePolicy::from_flag(v) {
                    Ok(p) => failure_policy = Some(p),
                    Err(e) => die(&e),
                },
                None => die("--failure-policy needs 'revive', 'shrink', or 'spare'"),
            },
            "--spares" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => spares = Some(n),
                _ => die("--spares needs a rank count"),
            },
            "--recovery" => match it.next() {
                Some(v) => recovery = Some(v.clone()),
                None => die("--recovery needs a ladder file"),
            },
            "--max-retries" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => max_retries = Some(n),
                _ => die("--max-retries needs a retry count"),
            },
            "--trace" => match it.next() {
                Some(v) => trace = Some(v.clone()),
                None => die("--trace needs an output path"),
            },
            "--io-wave" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => io_wave = Some(n),
                _ => die("--io-wave needs a positive wave width"),
            },
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    die("only one case file may be given");
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        eprintln!("see `mfc-run --help` or crates/cli/src/lib.rs for the schema");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: i/o failure: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };
    let mut case = match CaseFile::from_json(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    // Command-line flags override the case file.
    if let Some(mode) = rhs_mode {
        case.numerics.mode = mode;
    }
    if overlap {
        case.numerics.overlap = true;
    }
    if let Some(n) = workers {
        case.numerics.workers = n;
    }
    if let Some(w) = vector_width {
        case.numerics.vector_width = w;
    }
    if let Some(plan) = faults {
        case.run.faults = Some(plan.into());
    }
    if let Some(every) = checkpoint_every {
        case.run.checkpoint_every = every;
    }
    if let Some(ladder) = recovery {
        case.run.recovery = Some(ladder.into());
    }
    if let Some(n) = ckpt_keep {
        case.run.ckpt_keep = n;
    }
    if let Some(p) = failure_policy {
        case.run.failure_policy = p;
    }
    if let Some(n) = spares {
        case.run.spares = n;
    }
    if let Some(n) = max_retries {
        case.run.max_retries = Some(n);
    }
    if let Some(t) = trace {
        case.run.trace = Some(t.into());
    }
    if let Some(w) = io_wave {
        case.io.wave = w;
    }
    if dry_run_only {
        match dry_run(&case) {
            Ok(r) => {
                println!(
                    "case '{}' admissible: {:?} cells x {} eqs, {} rank(s) as {:?} \
                     ({} ghost layers), {} worker(s), vector width {}, {}",
                    r.name,
                    r.cells,
                    r.neq,
                    r.ranks,
                    r.dims,
                    r.ghost_layers,
                    r.workers,
                    r.vector_width,
                    match r.t_end {
                        Some(t) => format!("until t = {t:.4e}"),
                        None => format!("{} steps", r.steps),
                    }
                );
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(match e {
                    RunError::Io(_) => 3,
                    _ => 2,
                });
            }
        }
    }
    if validate_only {
        match case
            .to_case()
            .and_then(|_| case.numerics.to_solver_config())
        {
            Ok(_) => {
                println!(
                    "case '{}' is valid ({:?} cells, {} fluids, {} patches)",
                    case.name,
                    case.cells,
                    case.fluids.len(),
                    case.patches.len()
                );
                return;
            }
            Err(e) => {
                eprintln!("error: invalid configuration: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "running case '{}' ({:?} cells, {} fluids)",
        case.name,
        case.cells,
        case.fluids.len()
    );
    match run_case(&case) {
        Ok(s) => {
            println!(
                "done: {} steps, t = {:.4e}, {} cells, grind {:.1} ns/cell/PDE/RHS",
                s.steps, s.time, s.cells, s.grind_ns
            );
            if !s.resilience.is_empty() {
                println!("resilience events:");
                print!("{}", s.resilience);
            }
            if let Some(p) = s.vtk_path {
                println!("wrote {}", p.display());
            }
            if let Some(p) = &case.run.trace {
                println!("wrote trace {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(match e {
                RunError::Config(_) => 2,
                RunError::Io(_) => 3,
                RunError::Numerical(_) => 4,
            });
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}
