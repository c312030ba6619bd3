//! Simulation output and post-processing (§III-A's I/O pipeline).
//!
//! MFC writes MPI-I/O binary files from the ranks, then host code reads
//! them back and produces SILO databases for Paraview/VisIt.  The
//! reproduction's pipeline:
//!
//! * each rank writes its interior block as a block file
//!   ([`crate::restart::save_interior`]) under the wave-throttled
//!   [`mfc_mpsim::WaveWriter`] (file-per-process; MFC's production wave
//!   width is [`mfc_mpsim::DEFAULT_WAVE_SIZE`] = 128 writers, overridable
//!   per run via `mfc-run --io-wave` / the `io.wave` case key),
//! * [`postprocess_wave_files`] plays the host role: it reassembles the
//!   global field from the per-rank files, taking the grid and the
//!   decomposition from the files' headers,
//! * [`write_vtk_rectilinear`] emits a legacy-VTK rectilinear dataset —
//!   the open substitute for SILO — loadable by Paraview/VisIt.

use std::io::{self, Write};
use std::path::Path;

use mfc_mpsim::WaveWriter;

use crate::domain::Domain;
use crate::grid::Grid;
use crate::par::GlobalField;
use crate::restart::{load_block, load_shard, BlockLayout, CheckpointError, CheckpointHeader};
use crate::state::StateField;

/// Serialize one rank's interior block in the canonical order
/// (equation-major, then z, y, x-fastest) — the payload of each wave file.
pub fn block_to_vec(q: &StateField) -> Vec<f64> {
    let dom = *q.domain();
    let mut out = Vec::with_capacity(dom.interior_cells() * dom.eq.neq());
    for e in 0..dom.eq.neq() {
        for (i, j, k) in dom.interior() {
            out.push(q.get(i, j, k, e));
        }
    }
    out
}

/// Reassemble the global field of output step `step` from the per-rank
/// wave files under `dir`, whichever roster wrote them: rank 0's header
/// names the grid, and [`load_block`] reads the set onto it. The returned
/// header describes the field (`dims` names the writers).
pub fn postprocess_wave_files(
    dir: &Path,
    step: usize,
) -> Result<(CheckpointHeader, GlobalField), CheckpointError> {
    let shard = |rank| WaveWriter::rank_path(dir, step, rank);
    let (first, _) = load_shard(shard(0))?;
    let dom = Domain::new(first.global, 0, first.domain().eq);
    let (h, q) = load_block(shard, 0, dom, BlockLayout::lone(first.global))?;
    let field = GlobalField {
        n: h.n,
        neq: dom.eq.neq(),
        data: q.as_slice().to_vec(),
    };
    Ok((h, field))
}

/// Write a legacy-VTK (ASCII) rectilinear dataset with one cell-data
/// scalar array per named field.
///
/// `fields` maps a name to an equation slot of `gf`.
pub fn write_vtk_rectilinear(
    path: &Path,
    grid: &Grid,
    gf: &GlobalField,
    fields: &[(&str, usize)],
) -> io::Result<()> {
    let [nx, ny, nz] = gf.n;
    if grid.x.n() != nx {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "grid/field extent mismatch on x: grid has {} cells, field {nx}",
                grid.x.n()
            ),
        ));
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "mfc-rs output")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET RECTILINEAR_GRID")?;
    writeln!(w, "DIMENSIONS {} {} {}", nx + 1, ny + 1, nz + 1)?;
    let write_coords =
        |w: &mut dyn Write, label: &str, faces: &[f64], n: usize| -> io::Result<()> {
            writeln!(w, "{label}_COORDINATES {} double", n + 1)?;
            for f in faces.iter().take(n + 1) {
                write!(w, "{f} ")?;
            }
            writeln!(w)
        };
    write_coords(&mut w, "X", grid.x.faces(), nx)?;
    write_coords(&mut w, "Y", grid.y.faces(), ny)?;
    write_coords(&mut w, "Z", grid.z.faces(), nz)?;
    writeln!(w, "CELL_DATA {}", nx * ny * nz)?;
    for (name, slot) in fields {
        if *slot >= gf.neq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("field slot {slot} out of range (neq = {})", gf.neq),
            ));
        }
        writeln!(w, "SCALARS {name} double 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    writeln!(w, "{}", gf.get(i, j, k, *slot))?;
                }
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::restart::save_interior;
    use mfc_mpsim::{block_extents, Comm, World};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mfc_output_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Write `c`'s `n`-cell block, value f(e, gi, gj), as its wave file for
    /// step 0, declaring `layout`.
    fn write_rank(c: &Comm, dir: &Path, eq: EqIdx, layout: BlockLayout, n: [usize; 3]) {
        let dom = Domain::new(n, 1, eq);
        let mut q = StateField::zeros(dom);
        for e in 0..eq.neq() {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    let (gi, gj) = (layout.off[0] + i, layout.off[1] + j);
                    let (pi, pj, pk) = dom.to_padded([i, j, 0]);
                    q.set(pi, pj, pk, e, (e * 1000 + gj * 100 + gi) as f64);
                }
            }
        }
        let path = WaveWriter::rank_path(dir, 0, c.rank());
        WaveWriter::paper_default()
            .write(c, 0, || save_interior(&path, &q, layout, 0.5, 3))
            .unwrap();
    }

    /// [`write_rank`] with the layout `dims` implies.
    fn write_block(c: &Comm, dir: &Path, eq: EqIdx, global: [usize; 3], dims: [usize; 3]) {
        let (off, n) = block_extents(c.rank(), dims, global, eq.ndim());
        write_rank(c, dir, eq, BlockLayout { global, dims, off }, n);
    }

    #[test]
    fn block_serialization_order_is_equation_major() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([3, 1, 1], 1, eq);
        let mut q = StateField::zeros(dom);
        for e in 0..eq.neq() {
            for i in 0..3 {
                q.set(i + 1, 0, 0, e, (e * 10 + i) as f64);
            }
        }
        let v = block_to_vec(&q);
        assert_eq!(v, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0]);
    }

    #[test]
    fn wave_files_reassemble_into_the_global_field() {
        let dir = tmpdir("reassemble");
        let eq = EqIdx::new(1, 2);
        // Each rank writes f(e, gi, gj) over its block; the headers alone
        // tell the reader the grid and the 2 x 2 decomposition.
        World::run(4, |c| write_block(&c, &dir, eq, [8, 6, 1], [2, 2, 1]));
        let (h, gf) = postprocess_wave_files(&dir, 0).unwrap();
        assert_eq!((gf.n, gf.neq, h.dims), ([8, 6, 1], eq.neq(), [2, 2, 1]));
        for e in 0..eq.neq() {
            for j in 0..6 {
                for i in 0..8 {
                    assert_eq!(gf.get(i, j, 0, e), (e * 1000 + j * 100 + i) as f64);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vtk_file_has_expected_structure() {
        let dir = tmpdir("vtk");
        let grid = Grid::uniform([4, 3, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let gf = GlobalField {
            n: [4, 3, 1],
            neq: 2,
            data: (0..24).map(|i| i as f64).collect(),
        };
        let path = dir.join("out.vtk");
        write_vtk_rectilinear(&path, &grid, &gf, &[("density", 0), ("pressure", 1)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("DATASET RECTILINEAR_GRID"));
        assert!(text.contains("DIMENSIONS 5 4 2"));
        assert!(text.contains("CELL_DATA 12"));
        assert!(text.contains("SCALARS density double 1"));
        assert!(text.contains("SCALARS pressure double 1"));
        // 12 cells per field, both fields present.
        let values: Vec<&str> = text.lines().collect();
        assert!(values.iter().any(|l| l.trim() == "11")); // density last cell
        assert!(values.iter().any(|l| l.trim() == "23")); // pressure last cell
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn postprocess_reports_missing_rank_file() {
        // Rank 0's file declares a 2-rank decomposition but only it is on
        // disk: the reassembly must name the missing file, not silently
        // zero-fill the absent block.
        let dir = tmpdir("missing");
        World::run(1, |c| {
            write_block(&c, &dir, EqIdx::new(1, 1), [8, 1, 1], [2, 1, 1])
        });
        let err = postprocess_wave_files(&dir, 0).expect_err("rank 1's file is missing");
        match &err {
            CheckpointError::Shard(path, cause) => {
                assert_eq!(*path, WaveWriter::rank_path(&dir, 0, 1));
                assert!(matches!(**cause, CheckpointError::Io(_)), "{err}");
            }
            other => panic!("expected a missing shard, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn postprocess_rejects_truncated_payload() {
        // Truncate a rank file mid-payload (a crashed writer): the block
        // comes back short and the reassembly must refuse it.
        let dir = tmpdir("truncated");
        World::run(1, |c| {
            write_block(&c, &dir, EqIdx::new(1, 1), [4, 1, 1], [1, 1, 1])
        });
        let path = WaveWriter::rank_path(&dir, 0, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = postprocess_wave_files(&dir, 0).expect_err("truncated payload must be rejected");
        assert!(
            matches!(&err, CheckpointError::Shard(_, cause)
                if matches!(**cause, CheckpointError::Truncated { .. })),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn postprocess_rejects_wrong_block_size() {
        // A file whose extent is not the block its decomposition implies.
        let dir = tmpdir("badblock");
        let eq = EqIdx::new(1, 1);
        World::run(1, |c| {
            write_rank(&c, &dir, eq, BlockLayout::lone([4, 1, 1]), [2, 1, 1])
        });
        assert!(postprocess_wave_files(&dir, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
