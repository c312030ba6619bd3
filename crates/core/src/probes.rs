//! Time-series probes: pointwise histories of primitive quantities
//! (MFC's `probe_wrt` facility).
//!
//! A [`ProbeSet`] holds fixed physical locations; on each call to
//! [`ProbeSet::sample`] it records `(t, rho, u…, p, alpha…)` at the
//! interior cell containing each point. Histories export as CSV.
//!
//! Each probe resolves to one cell of the global grid, so in a decomposed
//! run exactly one block owns it — a probe on a block face included — and
//! that block samples it ([`crate::run`]) and writes its CSV.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::domain::{Domain, MAX_EQ};
use crate::dtoa::TextWriter;
use crate::eos::cons_to_prim;
use crate::fluid::{Fluid, FluidTable};
use crate::grid::Grid;
use crate::solver::Solver;
use crate::state::StateField;

/// One probe's identity and location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Probe {
    pub name: String,
    pub x: [f64; 3],
}

/// Probes a run samples, and the directory their CSVs are written to.
#[derive(Debug, Clone)]
pub struct ProbeOutput {
    pub dir: PathBuf,
    pub probes: Vec<Probe>,
}

/// One recorded sample: time plus the full primitive vector.
#[derive(Debug, Clone)]
pub struct Sample {
    pub t: f64,
    pub prim: Vec<f64>,
}

/// A set of probes plus their recorded histories.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    probes: Vec<Probe>,
    /// Cell indices (ghost-inclusive) on the global grid, resolved once; a
    /// block at offset `off` holds cell `c` at `c - off`.
    cells: Vec<(usize, usize, usize)>,
    history: Vec<Vec<Sample>>,
}

impl ProbeSet {
    /// Resolve probe locations to cells of the global `grid`, ghost-padded
    /// like `dom` (any block of the run: they share the halo depth).
    ///
    /// # Panics
    /// If a probe lies outside the domain.
    pub fn new(probes: Vec<Probe>, dom: &Domain, grid: &Grid) -> Self {
        let cells = probes
            .iter()
            .map(|p| {
                let mut c = [0usize; 3];
                for (d, cd) in c.iter_mut().enumerate().take(dom.eq.ndim()) {
                    let ax = grid.axis(d);
                    assert!(
                        p.x[d] >= ax.x0() && p.x[d] <= ax.x1(),
                        "probe '{}' coordinate {} outside [{}, {}] on axis {d}",
                        p.name,
                        p.x[d],
                        ax.x0(),
                        ax.x1()
                    );
                    // Last face <= x.
                    let idx = ax
                        .faces()
                        .windows(2)
                        .position(|w| p.x[d] >= w[0] && p.x[d] <= w[1])
                        .unwrap_or(ax.n() - 1);
                    *cd = idx + dom.pad(d);
                }
                (c[0], c[1], c[2])
            })
            .collect();
        let n = probes.len();
        ProbeSet {
            probes,
            cells,
            history: vec![Vec::new(); n],
        }
    }

    /// Where probe `idx` lies in the block `dom` at global offset `off`,
    /// if that block owns it.
    fn local(&self, idx: usize, dom: &Domain, off: [usize; 3]) -> Option<(usize, usize, usize)> {
        let (i, j, k) = self.cells[idx];
        let mut c = [i, j, k];
        for (d, c) in c.iter_mut().enumerate() {
            let pad = dom.pad(d);
            *c = c
                .checked_sub(off[d])
                .filter(|&c| c >= pad && c < pad + dom.n[d])?;
        }
        Some((c[0], c[1], c[2]))
    }

    /// Record the current state at every probe.
    pub fn sample(&mut self, t: f64, fluids: &[Fluid], q: &StateField) {
        self.sample_block(t, fluids, q, [0; 3]);
    }

    /// Record the `n`-th sample of the run at every probe `blk` owns,
    /// dropping any later ones a rollback took back.
    pub(crate) fn record(&mut self, n: u64, blk: &Solver) {
        for h in &mut self.history {
            h.truncate(n as usize - 1);
        }
        self.sample_block(blk.time(), blk.fluids(), blk.state(), blk.layout().off);
    }

    fn sample_block(&mut self, t: f64, fluids: &[Fluid], q: &StateField, off: [usize; 3]) {
        let dom = *q.domain();
        let neq = dom.eq.neq();
        let fluids = FluidTable::new(fluids);
        let mut cons = [0.0; MAX_EQ];
        let mut prim = [0.0; MAX_EQ];
        for slot in 0..self.cells.len() {
            let Some((i, j, k)) = self.local(slot, &dom, off) else {
                continue;
            };
            q.load_cell(i, j, k, &mut cons[..neq]);
            cons_to_prim(&dom.eq, &fluids, &cons[..neq], &mut prim[..neq]);
            let prim = prim[..neq].to_vec();
            self.history[slot].push(Sample { t, prim });
        }
    }

    /// Recorded history of probe `idx`.
    pub fn history(&self, idx: usize) -> &[Sample] {
        &self.history[idx]
    }

    /// Extract one primitive slot's time series for probe `idx`.
    pub fn series(&self, idx: usize, slot: usize) -> Vec<(f64, f64)> {
        self.history[idx]
            .iter()
            .map(|s| (s.t, s.prim[slot]))
            .collect()
    }

    /// Write one probe's history as CSV (`t, q0, q1, ...`), each value
    /// `format!("{x}")`'s bytes.
    pub fn write_csv(&self, idx: usize, w: &mut impl Write) -> io::Result<()> {
        let mut buf = TextWriter::new(w);
        for s in &self.history[idx] {
            let row = std::iter::once(s.t).chain(s.prim.iter().copied());
            for (i, v) in row.enumerate() {
                buf.f64(v, if i == s.prim.len() { b'\n' } else { b',' })?;
            }
        }
        buf.flush()
    }

    /// Write the history of every probe `blk` owns to
    /// `<dir>/<name>_probe.csv`.
    pub fn write_csvs(&self, dir: &Path, blk: &Solver) -> io::Result<()> {
        for idx in 0..self.probes.len() {
            if self.local(idx, blk.domain(), blk.layout().off).is_some() {
                let path = dir.join(format!("{}_probe.csv", self.probes[idx].name));
                self.write_csv(idx, &mut std::fs::File::create(path)?)?;
            }
        }
        Ok(())
    }

    pub fn probe(&self, idx: usize) -> &Probe {
        &self.probes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::solver::{Solver, SolverConfig};
    use mfc_acc::Context;

    #[test]
    fn probe_resolves_to_the_containing_cell() {
        let case = presets::sod(10);
        let dom = case.domain(3);
        let grid = case.grid();
        let ps = ProbeSet::new(
            vec![Probe {
                name: "mid".into(),
                x: [0.55, 0.0, 0.0],
            }],
            &dom,
            &grid,
        );
        // x = 0.55 lies in cell 5 of 10 → padded index 8.
        assert_eq!(ps.cells[0], (8, 0, 0));
    }

    #[test]
    #[should_panic]
    fn probe_outside_domain_panics() {
        let case = presets::sod(10);
        let _ = ProbeSet::new(
            vec![Probe {
                name: "bad".into(),
                x: [2.0, 0.0, 0.0],
            }],
            &case.domain(3),
            &case.grid(),
        );
    }

    #[test]
    fn sod_probe_sees_the_shock_arrive() {
        let case = presets::sod(100);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let mut probes = ProbeSet::new(
            vec![Probe {
                name: "right".into(),
                x: [0.75, 0.0, 0.0],
            }],
            solver.domain(),
            solver.grid(),
        );
        let eq = case.eq();
        for _ in 0..400 {
            solver.step().unwrap();
            probes.sample(solver.time(), &case.fluids, solver.state());
            if solver.time() > 0.17 {
                break;
            }
        }
        let p_series = probes.series(0, eq.energy());
        let first = p_series.first().unwrap().1;
        let last = p_series.last().unwrap().1;
        // Initially at the low-pressure value; after the shock passes the
        // pressure jumps toward p* = 0.30313.
        assert!((first - 0.1).abs() < 1e-6, "first p = {first}");
        assert!(last > 0.27, "shock never arrived: p = {last}");
        // Monotone-ish arrival: max equals the post-shock plateau.
        let max = p_series.iter().map(|&(_, p)| p).fold(0.0, f64::max);
        assert!((max - 0.30313).abs() < 0.03, "plateau {max}");
    }

    /// The CSV bytes equal the per-value `write!` writer's, kept here as
    /// the reference, on values that exercise every text layout.
    #[test]
    fn csv_matches_the_per_value_writer() {
        let reference = |ps: &ProbeSet| {
            let mut out = Vec::new();
            for s in &ps.history[0] {
                write!(out, "{}", s.t).unwrap();
                for v in &s.prim {
                    write!(out, ",{v}").unwrap();
                }
                writeln!(out).unwrap();
            }
            out
        };
        let specials = [
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            -0.0,
            f64::from_bits(1),
            f64::MAX,
            1e-7,
            0.1 + 0.2,
            1e21,
            -123.456,
        ];
        let mut ps = ProbeSet {
            probes: Vec::new(),
            cells: Vec::new(),
            history: vec![Vec::new()],
        };
        for (n, t) in (0..40).map(|n| (n, n as f64 * 0.0123)) {
            let prim = (0..7)
                .map(|e| match (n + e) % 13 {
                    k if k < specials.len() => specials[k],
                    k => (k as f64).sqrt() * 1e3f64.powi(e as i32 - 3),
                })
                .collect();
            ps.history[0].push(Sample { t, prim });
        }
        let mut out = Vec::new();
        ps.write_csv(0, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            String::from_utf8(reference(&ps)).unwrap()
        );
    }

    #[test]
    fn csv_export_has_one_row_per_sample() {
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let mut probes = ProbeSet::new(
            vec![Probe {
                name: "a".into(),
                x: [0.25, 0.0, 0.0],
            }],
            solver.domain(),
            solver.grid(),
        );
        probes.sample(0.0, &case.fluids, solver.state());
        probes.sample(0.1, &case.fluids, solver.state());
        let mut out = Vec::new();
        probes.write_csv(0, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("0,"));
    }
}
