//! Ghost-cell immersed boundary method (§VI-B's airfoil machinery).
//!
//! Solid bodies are described by a signed distance function (negative
//! inside).  After each ghost/BC fill, solid cells near the interface are
//! populated from their image point across the boundary with the normal
//! velocity reflected (slip wall), so the fluid sees an impermeable
//! surface without any mesh fitting.

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig};

use crate::domain::{Domain, MAX_EQ};
use crate::fluid::{Fluid, FluidTable};
use crate::grid::Grid;
use crate::state::StateField;

/// A rigid body immersed in the flow.
pub trait Body: Sync + Send {
    /// Signed distance: negative inside the solid, positive in the fluid.
    fn sdf(&self, x: [f64; 3]) -> f64;

    /// Outward unit normal, default via central differences of the SDF.
    fn normal(&self, x: [f64; 3]) -> [f64; 3] {
        let h = 1e-6;
        let mut n = [0.0; 3];
        for d in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[d] += h;
            xm[d] -= h;
            n[d] = (self.sdf(xp) - self.sdf(xm)) / (2.0 * h);
        }
        let mag = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt().max(1e-300);
        [n[0] / mag, n[1] / mag, n[2] / mag]
    }
}

/// A circle (2-D) / cylinder section.
#[derive(Debug, Clone, Copy)]
pub struct Circle {
    pub center: [f64; 2],
    pub radius: f64,
}

impl Body for Circle {
    fn sdf(&self, x: [f64; 3]) -> f64 {
        let dx = x[0] - self.center[0];
        let dy = x[1] - self.center[1];
        (dx * dx + dy * dy).sqrt() - self.radius
    }
}

/// A sphere (3-D).
#[derive(Debug, Clone, Copy)]
pub struct SphereBody {
    pub center: [f64; 3],
    pub radius: f64,
}

impl Body for SphereBody {
    fn sdf(&self, x: [f64; 3]) -> f64 {
        let d: f64 = (0..3).map(|d| (x[d] - self.center[d]).powi(2)).sum();
        d.sqrt() - self.radius
    }
}

/// A NACA 4-digit airfoil at an angle of attack (the NACA 2412 of §VI-B is
/// `NacaAirfoil::naca4(0.02, 0.4, 0.12, ...)`).
///
/// The signed distance is computed against a sampled surface polyline;
/// inside/outside comes from the thickness envelope around the camber
/// line. Accurate to the sampling resolution, which is plenty for a
/// diffuse ghost-cell treatment.
#[derive(Debug, Clone)]
pub struct NacaAirfoil {
    /// Leading-edge position.
    pub origin: [f64; 2],
    /// Chord length.
    pub chord: f64,
    /// Angle of attack in radians (positive nose-up; flow along +x).
    pub alpha: f64,
    /// Max camber (fraction of chord), e.g. 0.02 for NACA 2412.
    pub camber: f64,
    /// Camber position (fraction of chord), e.g. 0.4.
    pub camber_pos: f64,
    /// Thickness (fraction of chord), e.g. 0.12.
    pub thickness: f64,
    /// Sampled surface points in body coordinates.
    surface: Vec<[f64; 2]>,
}

impl NacaAirfoil {
    pub fn new(
        origin: [f64; 2],
        chord: f64,
        alpha_deg: f64,
        camber: f64,
        camber_pos: f64,
        thickness: f64,
    ) -> Self {
        let mut foil = NacaAirfoil {
            origin,
            chord,
            alpha: alpha_deg.to_radians(),
            camber,
            camber_pos,
            thickness,
            surface: Vec::new(),
        };
        // Cosine-clustered chordwise sampling (fine at the leading edge).
        let nsamp = 400;
        for i in 0..=nsamp {
            let theta = std::f64::consts::PI * i as f64 / nsamp as f64;
            let xc = 0.5 * (1.0 - theta.cos());
            let (yu, yl) = foil.surfaces_at(xc);
            foil.surface.push([xc, yu]);
            foil.surface.push([xc, yl]);
        }
        foil
    }

    /// NACA 2412 at 15° angle of attack, as in the paper's demo.
    pub fn naca2412(origin: [f64; 2], chord: f64) -> Self {
        NacaAirfoil::new(origin, chord, 15.0, 0.02, 0.4, 0.12)
    }

    /// Camber line at chord fraction `x`.
    fn camber_at(&self, x: f64) -> f64 {
        let (m, p) = (self.camber, self.camber_pos);
        if m == 0.0 {
            0.0
        } else if x < p {
            m / (p * p) * (2.0 * p * x - x * x)
        } else {
            m / ((1.0 - p) * (1.0 - p)) * ((1.0 - 2.0 * p) + 2.0 * p * x - x * x)
        }
    }

    /// Half-thickness at chord fraction `x` (closed trailing edge).
    fn half_thickness(&self, x: f64) -> f64 {
        let t = self.thickness;
        5.0 * t
            * (0.2969 * x.sqrt() - 0.1260 * x - 0.3516 * x * x + 0.2843 * x * x * x
                - 0.1036 * x * x * x * x)
    }

    /// Upper and lower surface y at chord fraction `x` (thin-camber
    /// approximation: thickness applied vertically).
    fn surfaces_at(&self, x: f64) -> (f64, f64) {
        let yc = self.camber_at(x);
        let yt = self.half_thickness(x);
        (yc + yt, yc - yt)
    }

    /// Physical → body (chord-fraction) coordinates.
    fn to_body(&self, x: [f64; 3]) -> [f64; 2] {
        let dx = x[0] - self.origin[0];
        let dy = x[1] - self.origin[1];
        let (c, s) = (self.alpha.cos(), self.alpha.sin());
        // Rotate by +alpha (nose-up AoA rotates the foil clockwise in
        // flow frame; equivalently rotate the point counterclockwise).
        [
            (dx * c - dy * s) / self.chord,
            (dx * s + dy * c) / self.chord,
        ]
    }
}

impl Body for NacaAirfoil {
    fn sdf(&self, x: [f64; 3]) -> f64 {
        let b = self.to_body(x);
        // Distance to the sampled surface.
        let mut d2 = f64::INFINITY;
        for p in &self.surface {
            let dx = b[0] - p[0];
            let dy = b[1] - p[1];
            d2 = d2.min(dx * dx + dy * dy);
        }
        let d = d2.sqrt() * self.chord;
        // Inside test via the thickness envelope.
        let inside = b[0] > 0.0 && b[0] < 1.0 && {
            let (yu, yl) = self.surfaces_at(b[0]);
            b[1] < yu && b[1] > yl
        };
        if inside {
            -d
        } else {
            d
        }
    }
}

/// The ghost-cell IBM operator.
pub struct GhostCellIbm {
    body: Box<dyn Body>,
}

impl GhostCellIbm {
    pub fn new(body: Box<dyn Body>) -> Self {
        GhostCellIbm { body }
    }

    pub fn body(&self) -> &dyn Body {
        self.body.as_ref()
    }

    /// Impose the slip-wall condition: populate solid cells near the
    /// interface from their image points with reflected normal velocity.
    ///
    /// Operates on *primitive-convertible* conservative data: the field is
    /// converted per-cell as needed.  Call after every ghost fill, before
    /// the RHS.
    pub fn apply(&self, ctx: &Context, grid: &Grid, fluids: &[Fluid], q: &mut StateField) {
        let dom = *q.domain();
        let eq = dom.eq;
        let neq = eq.neq();
        let centers = CellCenters::new(&dom, grid);
        let band = 2.0 * centers.max_width();
        let fluids = &FluidTable::new(fluids);

        // Pass 1: collect ghost-cell updates (reads unmodified field).
        let mut updates: Vec<((usize, usize, usize), [f64; MAX_EQ])> = Vec::new();
        for (i, j, k) in dom.interior() {
            let x = centers.at(i, j, k);
            let phi = self.body.sdf(x);
            if phi >= 0.0 {
                continue;
            }
            let mut cell = [0.0; MAX_EQ];
            if phi > -band {
                let n = self.body.normal(x);
                let ip = [
                    x[0] - 2.0 * phi * n[0],
                    x[1] - 2.0 * phi * n[1],
                    x[2] - 2.0 * phi * n[2],
                ];
                let mut prim_ip = [0.0; MAX_EQ];
                centers.interp_prim(q, fluids, ip, &mut prim_ip[..neq]);
                // Slip wall: reflect the normal velocity.
                let mut vn = 0.0;
                for d in 0..eq.ndim() {
                    vn += prim_ip[eq.mom(d)] * n[d];
                }
                for d in 0..eq.ndim() {
                    prim_ip[eq.mom(d)] -= 2.0 * vn * n[d];
                }
                crate::eos::prim_to_cons(&eq, fluids, &prim_ip[..neq], &mut cell[..neq]);
            } else {
                // Deep solid: freeze to zero velocity, keep thermodynamics.
                let mut prim = [0.0; MAX_EQ];
                let mut cons = [0.0; MAX_EQ];
                q.load_cell(i, j, k, &mut cons[..neq]);
                crate::eos::cons_to_prim(&eq, fluids, &cons[..neq], &mut prim[..neq]);
                for d in 0..eq.ndim() {
                    prim[eq.mom(d)] = 0.0;
                }
                crate::eos::prim_to_cons(&eq, fluids, &prim[..neq], &mut cell[..neq]);
            }
            updates.push(((i, j, k), cell));
        }

        // Pass 2: apply.
        let cost = KernelCost::new(KernelClass::Other, 30.0, 8.0 * neq as f64, 8.0 * neq as f64);
        let cfg = LaunchConfig::tuned("s_ibm_ghost_cells");
        ctx.launch(&cfg, cost, updates.len(), |u| {
            let ((i, j, k), cell) = &updates[u];
            q.store_cell(*i, *j, *k, &cell[..neq]);
        });
    }
}

/// Cached cell-center coordinates plus inverse lookup for interpolation.
struct CellCenters {
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    dom: Domain,
}

impl CellCenters {
    fn new(dom: &Domain, grid: &Grid) -> Self {
        let pad_centers = |axis: usize| -> Vec<f64> {
            let ax = grid.axis(axis);
            let ng = dom.pad(axis);
            let n = ax.n();
            (0..dom.ext(axis))
                .map(|i| {
                    let g = i as isize - ng as isize;
                    if g < 0 {
                        ax.centers()[0] + g as f64 * ax.widths()[0]
                    } else if g as usize >= n {
                        ax.centers()[n - 1] + (g as usize - n + 1) as f64 * ax.widths()[n - 1]
                    } else {
                        ax.centers()[g as usize]
                    }
                })
                .collect()
        };
        CellCenters {
            cx: pad_centers(0),
            cy: pad_centers(1),
            cz: pad_centers(2),
            dom: *dom,
        }
    }

    fn at(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [self.cx[i], self.cy[j], self.cz[k]]
    }

    fn max_width(&self) -> f64 {
        let w = |c: &[f64]| c.windows(2).map(|p| p[1] - p[0]).fold(0.0f64, f64::max);
        w(&self.cx).max(w(&self.cy)).max(w(&self.cz))
    }

    /// Index of the last center <= x (clamped to a valid lower cell).
    fn locate(c: &[f64], x: f64) -> usize {
        match c.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => i.min(c.len().saturating_sub(2)),
            Err(0) => 0,
            Err(i) => (i - 1).min(c.len().saturating_sub(2)),
        }
    }

    /// Trilinear interpolation of the *primitive* state at point `x`.
    fn interp_prim(&self, q: &StateField, fluids: &FluidTable, x: [f64; 3], out: &mut [f64]) {
        let eq = self.dom.eq;
        let neq = eq.neq();
        let i0 = Self::locate(&self.cx, x[0]);
        let j0 = if eq.ndim() >= 2 {
            Self::locate(&self.cy, x[1])
        } else {
            0
        };
        let k0 = if eq.ndim() >= 3 {
            Self::locate(&self.cz, x[2])
        } else {
            0
        };
        let fx = frac(&self.cx, i0, x[0]);
        let fy = if eq.ndim() >= 2 {
            frac(&self.cy, j0, x[1])
        } else {
            0.0
        };
        let fz = if eq.ndim() >= 3 {
            frac(&self.cz, k0, x[2])
        } else {
            0.0
        };

        out[..neq].fill(0.0);
        let mut cons = [0.0; MAX_EQ];
        let mut prim = [0.0; MAX_EQ];
        for (dk, wk) in [(0usize, 1.0 - fz), (1, fz)] {
            if wk == 0.0 && dk == 1 {
                continue;
            }
            for (dj, wj) in [(0usize, 1.0 - fy), (1, fy)] {
                if wj == 0.0 && dj == 1 {
                    continue;
                }
                for (di, wi) in [(0usize, 1.0 - fx), (1, fx)] {
                    if wi == 0.0 && di == 1 {
                        continue;
                    }
                    let w = wi * wj * wk;
                    if w == 0.0 {
                        continue;
                    }
                    let (ii, jj, kk) = (
                        (i0 + di).min(self.dom.ext(0) - 1),
                        (j0 + dj).min(self.dom.ext(1) - 1),
                        (k0 + dk).min(self.dom.ext(2) - 1),
                    );
                    q.load_cell(ii, jj, kk, &mut cons[..neq]);
                    crate::eos::cons_to_prim(&eq, fluids, &cons[..neq], &mut prim[..neq]);
                    for e in 0..neq {
                        out[e] += w * prim[e];
                    }
                }
            }
        }
    }
}

fn frac(c: &[f64], i0: usize, x: f64) -> f64 {
    if i0 + 1 >= c.len() {
        return 0.0;
    }
    ((x - c[i0]) / (c[i0 + 1] - c[i0])).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;

    #[test]
    fn circle_sdf_signs_and_distance() {
        let c = Circle {
            center: [0.0, 0.0],
            radius: 1.0,
        };
        assert!((c.sdf([2.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((c.sdf([0.0, 0.5, 0.0]) + 0.5).abs() < 1e-12);
        let n = c.normal([2.0, 0.0, 0.0]);
        assert!((n[0] - 1.0).abs() < 1e-5 && n[1].abs() < 1e-5);
    }

    #[test]
    fn naca_airfoil_contains_camber_line() {
        let foil = NacaAirfoil::new([0.0, 0.0], 1.0, 0.0, 0.02, 0.4, 0.12);
        // Mid-chord on the camber line: inside.
        let yc = foil.camber_at(0.5);
        assert!(foil.sdf([0.5, yc, 0.0]) < 0.0);
        // Far above: outside.
        assert!(foil.sdf([0.5, 0.5, 0.0]) > 0.0);
        // Ahead of the leading edge: outside.
        assert!(foil.sdf([-0.1, 0.0, 0.0]) > 0.0);
    }

    #[test]
    fn naca_thickness_is_symmetric_without_camber() {
        let foil = NacaAirfoil::new([0.0, 0.0], 1.0, 0.0, 0.0, 0.4, 0.12);
        let (yu, yl) = foil.surfaces_at(0.3);
        assert!((yu + yl).abs() < 1e-12);
        // Max thickness for t = 0.12 is 0.06 of chord near x = 0.30.
        assert!(yu > 0.055 && yu < 0.0605, "yu = {yu}");
    }

    #[test]
    fn angle_of_attack_rotates_body_frame() {
        let foil0 = NacaAirfoil::new([0.0, 0.0], 1.0, 0.0, 0.0, 0.4, 0.12);
        let foil15 = NacaAirfoil::new([0.0, 0.0], 1.0, 15.0, 0.0, 0.4, 0.12);
        // Nose-up pitch drops the aft section below the chord line: a
        // point below mid-chord that is outside the unrotated foil ends up
        // inside the pitched one.
        let x = [0.5, -0.13, 0.0];
        assert!(foil0.sdf(x) > 0.0, "sdf0={}", foil0.sdf(x));
        assert!(foil15.sdf(x) < 0.0, "sdf15={}", foil15.sdf(x));
    }

    #[test]
    fn ghost_cells_receive_reflected_velocity() {
        // Uniform rightward flow over a circle: after IBM application,
        // near-boundary solid cells on the upstream side should carry
        // leftward (reflected) normal velocity components.
        let cb = presets::uniform_flow(2, [32, 32, 1], [100.0, 0.0, 0.0]);
        let ctx = Context::serial();
        let dom = cb.domain(3);
        let grid = cb.grid();
        let mut q = cb.init_block(&ctx, &dom, &grid, [0, 0, 0]);
        let ibm = GhostCellIbm::new(Box::new(Circle {
            center: [0.5, 0.5],
            radius: 0.15,
        }));
        ibm.apply(&ctx, &grid, &cb.fluids, &mut q);
        let eq = cb.eq();
        // Upstream boundary cell: x just inside the circle on the -x side.
        // Find the interior cell nearest (0.36, 0.5).
        let i = (0.36f64 / (1.0 / 32.0)) as usize + 3;
        let j = 16 + 3;
        let mut cons = [0.0; MAX_EQ];
        q.load_cell(i, j, 0, &mut cons[..eq.neq()]);
        let mut prim = [0.0; MAX_EQ];
        crate::eos::cons_to_prim(
            &eq,
            &FluidTable::new(&cb.fluids),
            &cons[..eq.neq()],
            &mut prim[..eq.neq()],
        );
        let u = prim[eq.mom(0)];
        assert!(u < 0.0, "upstream ghost cell should reflect: u = {u}");
    }

    #[test]
    fn fluid_cells_are_untouched() {
        let cb = presets::uniform_flow(2, [16, 16, 1], [50.0, 0.0, 0.0]);
        let ctx = Context::serial();
        let dom = cb.domain(3);
        let grid = cb.grid();
        let mut q = cb.init_block(&ctx, &dom, &grid, [0, 0, 0]);
        let before = q.clone();
        let ibm = GhostCellIbm::new(Box::new(Circle {
            center: [0.5, 0.5],
            radius: 0.1,
        }));
        ibm.apply(&ctx, &grid, &cb.fluids, &mut q);
        let eq = cb.eq();
        // A cell far from the body keeps its exact state.
        for e in 0..eq.neq() {
            assert_eq!(q.get(4, 4, 0, e), before.get(4, 4, 0, e));
        }
    }
}
