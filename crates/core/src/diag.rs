//! Diagnostics: conservation, error norms, and grind time.

use std::time::Duration;

use crate::axisym::Geometry;
use crate::domain::Domain;
use crate::grid::Grid;
use crate::state::StateField;

/// Integral of every conserved variable over the interior,
/// `sum_cells q dV` — must be constant in time under periodic BCs (up to
/// round-off), which is one of the validation suite's core assertions.
/// With a radial axis (axis 1) a cell's volume carries its centre radius:
/// `r dr dx` axisymmetric (per radian), `r dr dtheta dx` cylindrical.
pub fn conservation_totals(q: &StateField, grid: &Grid, geometry: Geometry) -> Vec<f64> {
    let dom = *q.domain();
    let neq = dom.eq.neq();
    let wx = grid.x.widths();
    let wy = grid.y.widths();
    let wz = grid.z.widths();
    let radial = geometry.has_radial_axis().then(|| grid.y.centers());
    let mut totals = vec![0.0; neq];
    for (i, j, k) in dom.interior() {
        let mut dv = wx[i - dom.pad(0)] * wy[j - dom.pad(1)] * wz[k - dom.pad(2)];
        if let Some(r) = radial {
            dv *= r[j - dom.pad(1)];
        }
        for (e, t) in totals.iter_mut().enumerate() {
            *t += q.get(i, j, k, e) * dv;
        }
    }
    totals
}

/// Discrete error norms of one equation against a reference function of
/// the cell-center coordinates.
pub struct ErrorNorms {
    pub l1: f64,
    pub l2: f64,
    pub linf: f64,
}

/// Compare `q[,,,eq_slot]` against `reference(x, y, z)` over the interior.
pub fn error_norms(
    q: &StateField,
    grid: &Grid,
    eq_slot: usize,
    reference: impl Fn(f64, f64, f64) -> f64,
) -> ErrorNorms {
    let dom = *q.domain();
    let (cx, cy, cz) = (grid.x.centers(), grid.y.centers(), grid.z.centers());
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut linf = 0.0f64;
    let mut n = 0usize;
    for (i, j, k) in dom.interior() {
        let x = cx[i - dom.pad(0)];
        let y = cy[j - dom.pad(1)];
        let z = cz[k - dom.pad(2)];
        let e = (q.get(i, j, k, eq_slot) - reference(x, y, z)).abs();
        l1 += e;
        l2 += e * e;
        linf = linf.max(e);
        n += 1;
    }
    ErrorNorms {
        l1: l1 / n as f64,
        l2: (l2 / n as f64).sqrt(),
        linf,
    }
}

/// Cell-centered z-vorticity of a 2-D (or a z-slice of a 3-D) primitive
/// field, by central differences over the interior; the boundary ring is
/// copied from its neighbours.
///
/// Returns interior-sized data, x-fastest.
pub fn vorticity_z(prim: &StateField, grid: &Grid, k_slice: usize) -> Vec<f64> {
    let dom = *prim.domain();
    let eq = dom.eq;
    assert!(eq.ndim() >= 2, "vorticity needs at least 2 dimensions");
    let (nx, ny) = (dom.n[0], dom.n[1]);
    let k = k_slice + dom.pad(2);
    let mut out = vec![0.0; nx * ny];
    for j in 0..ny {
        for i in 0..nx {
            // Clamped central differences (one-sided at the edges).
            let (im, ip) = (i.saturating_sub(1), (i + 1).min(nx - 1));
            let (jm, jp) = (j.saturating_sub(1), (j + 1).min(ny - 1));
            let dx = grid.x.centers()[ip] - grid.x.centers()[im];
            let dy = grid.y.centers()[jp] - grid.y.centers()[jm];
            let dv_dx = (prim.get(ip + dom.pad(0), j + dom.pad(1), k, eq.mom(1))
                - prim.get(im + dom.pad(0), j + dom.pad(1), k, eq.mom(1)))
                / dx.max(1e-300);
            let du_dy = (prim.get(i + dom.pad(0), jp + dom.pad(1), k, eq.mom(0))
                - prim.get(i + dom.pad(0), jm + dom.pad(1), k, eq.mom(0)))
                / dy.max(1e-300);
            out[i + nx * j] = dv_dx - du_dy;
        }
    }
    out
}

/// Total kinetic energy `sum 1/2 rho |u|^2 dV` over the interior of a
/// primitive field.
pub fn kinetic_energy(prim: &StateField, grid: &Grid) -> f64 {
    let dom = *prim.domain();
    let eq = dom.eq;
    let (wx, wy, wz) = (grid.x.widths(), grid.y.widths(), grid.z.widths());
    let mut ke = 0.0;
    for (i, j, k) in dom.interior() {
        let dv = wx[i - dom.pad(0)] * wy[j - dom.pad(1)] * wz[k - dom.pad(2)];
        let rho: f64 = (0..eq.nf()).map(|f| prim.get(i, j, k, eq.cont(f))).sum();
        let v2: f64 = (0..eq.ndim())
            .map(|d| prim.get(i, j, k, eq.mom(d)).powi(2))
            .sum();
        ke += 0.5 * rho * v2 * dv;
    }
    ke
}

/// 1-D kinetic-energy spectrum along x: for each y-row (of slice
/// `k_slice`), FFT the velocity components and accumulate
/// `1/2 (|u_hat|^2 + |v_hat|^2)` per mode. `dom.n[0]` must be a power of
/// two. Returns `n/2 + 1` modal energies.
pub fn ke_spectrum_x(prim: &StateField, k_slice: usize) -> Vec<f64> {
    let dom = *prim.domain();
    let eq = dom.eq;
    let (nx, ny) = (dom.n[0], dom.n[1]);
    assert!(nx.is_power_of_two(), "spectrum needs a power-of-two extent");
    let k = k_slice + dom.pad(2);
    let mut spectrum = vec![0.0; nx / 2 + 1];
    let mut line = vec![0.0; nx];
    for d in 0..eq.ndim().min(2) {
        for j in 0..ny {
            for (i, v) in line.iter_mut().enumerate() {
                *v = prim.get(i + dom.pad(0), j + dom.pad(1), k, eq.mom(d));
            }
            let spec = mfc_fft::rfft(&line);
            for (m, c) in spec.iter().enumerate() {
                // One-sided spectrum: double the interior bins.
                let w = if m == 0 || m == nx / 2 { 1.0 } else { 2.0 };
                spectrum[m] += 0.5 * w * c.norm_sqr() / (nx as f64 * nx as f64);
            }
        }
    }
    for s in spectrum.iter_mut() {
        *s /= ny as f64;
    }
    spectrum
}

/// Grind-time accounting, in the paper's metric: nanoseconds per grid
/// cell per PDE (equation) per right-hand-side evaluation (Figs. 5–7).
#[derive(Debug, Clone, Copy)]
pub struct GrindTime {
    pub cells: usize,
    pub equations: usize,
    pub rhs_evals: u64,
    pub wall: Duration,
}

impl GrindTime {
    /// ns / cell / PDE / RHS evaluation.
    pub fn ns_per_cell_eq_rhs(&self) -> f64 {
        self.wall.as_nanos() as f64
            / (self.cells as f64 * self.equations as f64 * self.rhs_evals.max(1) as f64)
    }
}

/// Convenience: grind time for a domain.
pub fn grind_time(dom: &Domain, rhs_evals: u64, wall: Duration) -> GrindTime {
    GrindTime {
        cells: dom.interior_cells(),
        equations: dom.eq.neq(),
        rhs_evals,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;

    #[test]
    fn conservation_totals_weight_by_volume() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([4, 1, 1], 2, eq);
        let grid = Grid::uniform([4, 1, 1], [0.0; 3], [2.0, 1.0, 1.0]); // dx = 0.5
        let mut q = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            q.set(i, j, k, 0, 3.0);
        }
        let t = conservation_totals(&q, &grid, Geometry::Cartesian);
        assert!((t[0] - 3.0 * 2.0).abs() < 1e-12); // rho * volume
    }

    #[test]
    fn conservation_totals_weight_by_radius_on_curvilinear_grids() {
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([2, 4, 1], 2, eq);
        // r in [1, 3], dr = 0.5: sum of r dr = (3^2 - 1^2) / 2 = 4.
        let grid = Grid::uniform([2, 4, 1], [0.0, 1.0, 0.0], [1.0, 3.0, 1.0]);
        let mut q = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            q.set(i, j, k, 0, 3.0);
        }
        for geometry in [Geometry::Axisymmetric, Geometry::Cylindrical3D] {
            let t = conservation_totals(&q, &grid, geometry);
            assert!((t[0] - 3.0 * 4.0).abs() < 1e-12, "{geometry:?}: {}", t[0]);
        }
        assert!((conservation_totals(&q, &grid, Geometry::Cartesian)[0] - 3.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_norms_of_exact_match_are_zero() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([8, 1, 1], 2, eq);
        let grid = Grid::uniform([8, 1, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let mut q = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            let x = grid.x.centers()[i - 2];
            q.set(i, j, k, 0, x * x);
        }
        let n = error_norms(&q, &grid, 0, |x, _, _| x * x);
        assert_eq!(n.linf, 0.0);
        assert_eq!(n.l1, 0.0);
    }

    #[test]
    fn norms_ordering_holds() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([16, 1, 1], 2, eq);
        let grid = Grid::uniform([16, 1, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let mut q = StateField::zeros(dom);
        for (idx, (i, j, k)) in dom.interior().enumerate() {
            q.set(i, j, k, 0, if idx == 5 { 1.0 } else { 0.0 });
        }
        let n = error_norms(&q, &grid, 0, |_, _, _| 0.0);
        assert!(n.l1 <= n.l2 && n.l2 <= n.linf);
    }

    #[test]
    fn vorticity_of_solid_body_rotation_is_twice_omega() {
        // u = -omega*y, v = omega*x => curl = 2*omega everywhere.
        let eq = EqIdx::new(1, 2);
        let n = 16;
        let dom = Domain::new([n, n, 1], 2, eq);
        let grid = Grid::uniform([n, n, 1], [-1.0, -1.0, 0.0], [1.0, 1.0, 1.0]);
        let omega = 3.0;
        let mut prim = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            let x = grid.x.centers()[i - 2];
            let y = grid.y.centers()[j - 2];
            prim.set(i, j, k, eq.cont(0), 1.0);
            prim.set(i, j, k, eq.mom(0), -omega * y);
            prim.set(i, j, k, eq.mom(1), omega * x);
            prim.set(i, j, k, eq.energy(), 1.0e5);
        }
        let w = vorticity_z(&prim, &grid, 0);
        // Interior points (edges are one-sided): exact for linear fields.
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                assert!((w[i + n * j] - 2.0 * omega).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn kinetic_energy_matches_manual_sum() {
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([4, 4, 1], 2, eq);
        let grid = Grid::uniform([4, 4, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let mut prim = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            prim.set(i, j, k, eq.cont(0), 2.0);
            prim.set(i, j, k, eq.mom(0), 3.0);
            prim.set(i, j, k, eq.mom(1), 4.0);
        }
        // 1/2 * 2 * 25 per unit volume over a unit box.
        let ke = kinetic_energy(&prim, &grid);
        assert!((ke - 25.0).abs() < 1e-12);
    }

    #[test]
    fn ke_spectrum_peaks_at_the_initialized_mode() {
        let eq = EqIdx::new(1, 2);
        let n = 32;
        let dom = Domain::new([n, 8, 1], 2, eq);
        let mut prim = StateField::zeros(dom);
        let k0 = 4;
        for (i, j, k) in dom.interior() {
            let x = (i - 2) as f64 / n as f64;
            prim.set(i, j, k, eq.cont(0), 1.0);
            prim.set(
                i,
                j,
                k,
                eq.mom(0),
                (2.0 * std::f64::consts::PI * k0 as f64 * x).sin(),
            );
        }
        let spec = ke_spectrum_x(&prim, 0);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
        // Parseval-ish: modal sum matches mean KE per unit volume for the
        // unit-amplitude sine (1/2 * <u^2> = 1/4).
        let total: f64 = spec.iter().sum();
        assert!((total - 0.25).abs() < 1e-10, "total = {total}");
    }

    #[test]
    fn grind_time_units() {
        let eq = EqIdx::new(2, 3);
        let dom = Domain::new([10, 10, 10], 3, eq);
        let g = grind_time(&dom, 100, Duration::from_millis(700));
        // 7e8 ns / (1000 cells * 7 eq * 100 rhs) = 1000 ns exactly.
        assert!((g.ns_per_cell_eq_rhs() - 1000.0).abs() < 1e-9);
    }
}
