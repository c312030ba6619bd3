//! `mfc-post` — host-side post-processing, the paper's "host code reads
//! the MPI I/O binary files and creates SILO files" step (§III-A).
//!
//! Reassembles per-rank wave files into the global field and writes a
//! legacy-VTK database. Each wave file's header names the grid, the
//! fluids and the decomposition that wrote it, so any wave set
//! reassembles — including one written after the roster shrank.
//!
//! Usage:
//! ```text
//! mfc-post <dir> <step> <out.vtk>
//! mfc-post --case <case.json> <step> <out.vtk>
//! ```
//!
//! The `--case` form admits the case file that produced the run exactly
//! as `mfc-run` did and takes the wave directory from that admission.
//! Because post-processing is a pure byte reshuffle — no kernels run — a
//! case file that explicitly pins `numerics.vector_width` is rejected here
//! as a config error: the key cannot affect this tool's output and its
//! presence usually means the wrong file was passed.
//!
//! Exit codes: 0 ok, 2 usage or configuration, 3 I/O — a missing,
//! truncated or corrupt wave file (named on stderr), or an unwritable VTK.

use std::path::PathBuf;

use mfc_cli::{admit, vtk_fields, CaseFile};
use mfc_core::eqidx::EqIdx;
use mfc_core::grid::Grid;
use mfc_core::output::{postprocess_wave_files, write_vtk_rectilinear};
use mfc_trace::Out;

const USAGE: &str =
    "usage: mfc-post <dir> <step> <out.vtk>\n       mfc-post --case <case.json> <step> <out.vtk>";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail_io(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(3);
}

/// The `--case` form's wave directory, from admitting the case file
/// exactly as `mfc-run` did.
fn wave_dir_of_case(path: &str) -> PathBuf {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_io(&format!("cannot read {path}: {e}")));
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
    admitted.wave_dir()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, rest) = match args.first().map(|s| s.as_str()) {
        Some("--help") | Some("-h") => {
            writeln!(Out, "{USAGE}");
            return;
        }
        Some("--case") if args.len() == 4 => (wave_dir_of_case(&args[1]), &args[2..]),
        Some("--case") => die("--case needs <case.json> <step> <out.vtk>"),
        _ if args.len() == 3 => (PathBuf::from(&args[0]), &args[1..]),
        _ => die("expected <dir> <step> <out.vtk>"),
    };
    let step = rest[0]
        .parse::<usize>()
        .unwrap_or_else(|_| die(&format!("'{}' is not a non-negative integer", rest[0])));
    let out = PathBuf::from(&rest[1]);

    let (h, gf) = postprocess_wave_files(&dir, step).unwrap_or_else(|e| fail_io(&e.to_string()));
    let n = gf.n;
    writeln!(
        Out,
        "reassembled {}x{}x{} cells x {} equations from {} rank files",
        n[0],
        n[1],
        n[2],
        gf.neq,
        h.dims.iter().product::<usize>()
    );

    // Unit-box grid: cell extents are what visualization needs; physical
    // extents can be rescaled in the viewer.
    let grid = Grid::uniform(n, [0.0; 3], [1.0, 1.0, 1.0]);
    let fields = vtk_fields(&EqIdx::new(h.nf, h.ndim));
    let refs: Vec<(&str, usize)> = fields.iter().map(|(s, i)| (s.as_str(), *i)).collect();
    if let Err(e) = write_vtk_rectilinear(&out, &grid, &gf, &refs) {
        fail_io(&format!("writing {}: {e}", out.display()));
    }
    writeln!(Out, "wrote {}", out.display());
}
