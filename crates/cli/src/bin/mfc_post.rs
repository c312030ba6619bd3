//! `mfc-post` — host-side post-processing, the paper's "host code reads
//! the MPI I/O binary files and creates SILO files" step (§III-A).
//!
//! Reassembles per-rank wave files into the global field and writes a
//! legacy-VTK database.
//!
//! Usage:
//! ```text
//! mfc-post <dir> <step> <nx> <ny> <nz> <nfluids> <ndim> <px> <py> <pz> <out.vtk>
//! mfc-post --case <case.json> <step> <out.vtk>
//! ```
//!
//! The `--case` form admits the case file that produced the run exactly
//! as `mfc-run` did and takes the wave directory, global extents and
//! rank decomposition from that admission. Because
//! post-processing is a pure byte reshuffle — no kernels run — a case
//! file that explicitly pins `numerics.vector_width` is rejected here as
//! a config error: the key cannot affect this tool's output and its
//! presence usually means the wrong file was passed.

use mfc_cli::{admit, vtk_fields, CaseFile};
use mfc_core::eqidx::EqIdx;
use mfc_core::grid::Grid;
use mfc_core::output::{postprocess_wave_files, write_vtk_rectilinear};

const USAGE: &str = "usage: mfc-post <dir> <step> <nx> <ny> <nz> <nfluids> <ndim> <px> <py> <pz> <out.vtk>\n       mfc-post --case <case.json> <step> <out.vtk>";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct PostJob {
    dir: std::path::PathBuf,
    step: usize,
    n: [usize; 3],
    eq: EqIdx,
    dims: [usize; 3],
    out: std::path::PathBuf,
}

/// The `--case` form: everything about the run geometry comes from
/// admitting the case file, exactly as `mfc-run` did.
fn job_from_case(args: &[String]) -> PostJob {
    if args.len() != 3 {
        die("--case needs <case.json> <step> <out.vtk>");
    }
    let path = std::path::PathBuf::from(&args[0]);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(3);
    });
    let case =
        CaseFile::from_json(&text).unwrap_or_else(|e| die(&format!("invalid configuration: {e}")));
    let admitted = admit(&case).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    });
    // Post-processing runs no kernels, so a case that explicitly pins
    // the SIMD lane width is using the wrong knob for this tool.
    let raw: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("case file parse error: {e}")));
    if raw
        .get("numerics")
        .and_then(|n| n.get("vector_width"))
        .is_some()
    {
        die("numerics.vector_width is meaningless for post-processing \
             (no kernels run); remove it from the case file or use \
             `mfc-run --vector-width`");
    }
    let step = args[1].parse::<usize>().unwrap_or_else(|_| {
        die(&format!("'{}' is not a non-negative integer", args[1]));
    });
    PostJob {
        dir: admitted.wave_dir(),
        step,
        n: admitted.case().cells,
        eq: admitted.case().eq(),
        dims: admitted.dims(),
        out: std::path::PathBuf::from(&args[2]),
    }
}

/// The positional form: geometry spelled out on the command line.
fn job_from_args(args: &[String]) -> PostJob {
    if args.len() != 11 {
        die("expected 11 positional arguments");
    }
    let parse = |s: &String| -> usize {
        s.parse()
            .unwrap_or_else(|_| die(&format!("'{s}' is not a non-negative integer")))
    };
    let nfluids = parse(&args[5]);
    let ndim = parse(&args[6]);
    PostJob {
        dir: std::path::PathBuf::from(&args[0]),
        step: parse(&args[1]),
        n: [parse(&args[2]), parse(&args[3]), parse(&args[4])],
        eq: EqIdx::new(nfluids, ndim),
        dims: [parse(&args[7]), parse(&args[8]), parse(&args[9])],
        out: std::path::PathBuf::from(&args[10]),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let job = match args.first().map(|s| s.as_str()) {
        Some("--case") => job_from_case(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return;
        }
        _ => job_from_args(&args),
    };
    let PostJob {
        dir,
        step,
        n,
        eq,
        dims,
        out,
    } = job;

    let gf = match postprocess_wave_files(&dir, step, n, eq, dims) {
        Ok(gf) => gf,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "reassembled {}x{}x{} cells x {} equations from {} rank files",
        n[0],
        n[1],
        n[2],
        gf.neq,
        dims.iter().product::<usize>()
    );

    // Unit-box grid: cell extents are what visualization needs; physical
    // extents can be rescaled in the viewer.
    let grid = Grid::uniform(n, [0.0; 3], [1.0, 1.0, 1.0]);
    let fields = vtk_fields(&eq);
    let refs: Vec<(&str, usize)> = fields.iter().map(|(s, i)| (s.as_str(), *i)).collect();
    if let Err(e) = write_vtk_rectilinear(&out, &grid, &gf, &refs) {
        eprintln!("error writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());
}
