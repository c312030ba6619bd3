//! Initial-condition patches and case construction (MFC's `patch_icpp`).

use crate::bc::BcSpec;
use crate::domain::Domain;
use crate::eos::{prim_to_cons, MAX_FLUIDS};
use crate::eqidx::{EqIdx, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::grid::Grid;
use crate::state::StateField;
use mfc_acc::Context;
use serde::{Deserialize, Serialize};

/// Geometric region of one patch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Region {
    /// Everything (the background patch).
    All,
    /// Axis-aligned box `[lo, hi)`.
    Box { lo: [f64; 3], hi: [f64; 3] },
    /// Sphere (circle in 2-D) of `radius` about `center`.
    Sphere { center: [f64; 3], radius: f64 },
    /// Half-space `x[axis] < bound` — shock-tube style initialization.
    HalfSpace { axis: usize, bound: f64 },
}

impl Region {
    pub fn contains(&self, x: [f64; 3]) -> bool {
        match *self {
            Region::All => true,
            Region::Box { lo, hi } => (0..3).all(|d| x[d] >= lo[d] && x[d] < hi[d]),
            Region::Sphere { center, radius } => {
                let d2: f64 = (0..3)
                    .map(|d| (x[d] - center[d]) * (x[d] - center[d]))
                    .sum();
                d2 < radius * radius
            }
            Region::HalfSpace { axis, bound } => x[axis] < bound,
        }
    }

    /// Signed distance to the region boundary (negative inside), used for
    /// diffuse-interface smearing. `None` for [`Region::All`], which has no
    /// boundary.
    pub fn signed_distance(&self, x: [f64; 3]) -> Option<f64> {
        match *self {
            Region::All => None,
            Region::Sphere { center, radius } => {
                let d2: f64 = (0..3)
                    .map(|d| (x[d] - center[d]) * (x[d] - center[d]))
                    .sum();
                Some(d2.sqrt() - radius)
            }
            Region::HalfSpace { axis, bound } => Some(x[axis] - bound),
            Region::Box { lo, hi } => {
                let mut out2 = 0.0;
                let mut inside = f64::NEG_INFINITY;
                for d in 0..3 {
                    let q = (lo[d] - x[d]).max(x[d] - hi[d]);
                    if q > 0.0 {
                        out2 += q * q;
                    }
                    inside = inside.max(q);
                }
                Some(if out2 > 0.0 { out2.sqrt() } else { inside })
            }
        }
    }
}

/// Primitive state painted by one patch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchState {
    /// Volume fraction per fluid (must sum to ~1).
    pub alpha: Vec<f64>,
    /// *Pure-fluid* density per fluid; partial densities are
    /// `alpha_i * rho_i`.
    pub rho: Vec<f64>,
    pub vel: [f64; 3],
    pub p: f64,
}

impl PatchState {
    /// Single-fluid helper.
    pub fn single(rho: f64, vel: [f64; 3], p: f64) -> Self {
        PatchState {
            alpha: vec![1.0],
            rho: vec![rho],
            vel,
            p,
        }
    }

    /// Two-fluid helper: `alpha0` of fluid 0, the rest fluid 1.
    pub fn two_fluid(alpha0: f64, rho: [f64; 2], vel: [f64; 3], p: f64) -> Self {
        PatchState {
            alpha: vec![alpha0, 1.0 - alpha0],
            rho: rho.to_vec(),
            vel,
            p,
        }
    }
}

/// One patch: a region painted with a state (later patches overwrite
/// earlier ones, like MFC's ordered patch list).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Patch {
    pub region: Region,
    pub state: PatchState,
}

/// Declarative case description; `build` produces the initialized solver
/// inputs.
#[derive(Debug, Clone)]
pub struct CaseBuilder {
    pub fluids: Vec<Fluid>,
    pub ndim: usize,
    pub cells: [usize; 3],
    pub lo: [f64; 3],
    pub hi: [f64; 3],
    pub patches: Vec<Patch>,
    pub bc: BcSpec,
    /// Interface smearing width in cells (diffuse-interface init); 0 = sharp.
    pub smear_cells: f64,
}

impl CaseBuilder {
    pub fn new(fluids: Vec<Fluid>, ndim: usize, cells: [usize; 3]) -> Self {
        let mut c = cells;
        for extent in c.iter_mut().skip(ndim) {
            *extent = 1;
        }
        CaseBuilder {
            fluids,
            ndim,
            cells: c,
            lo: [0.0; 3],
            hi: [1.0, 1.0, 1.0],
            patches: Vec::new(),
            bc: BcSpec::transmissive(),
            smear_cells: 0.0,
        }
    }

    pub fn extent(mut self, lo: [f64; 3], hi: [f64; 3]) -> Self {
        self.lo = lo;
        self.hi = hi;
        self
    }

    pub fn bc(mut self, bc: BcSpec) -> Self {
        self.bc = bc;
        self
    }

    pub fn patch(mut self, region: Region, state: PatchState) -> Self {
        self.patches.push(Patch { region, state });
        self
    }

    pub fn smear(mut self, cells: f64) -> Self {
        self.smear_cells = cells;
        self
    }

    pub fn eq(&self) -> EqIdx {
        EqIdx::new(self.fluids.len(), self.ndim)
    }

    /// Build the global grid.
    pub fn grid(&self) -> Grid {
        Grid::uniform(self.cells, self.lo, self.hi)
    }

    /// Build the (single-rank) domain with `ng` ghost layers.
    pub fn domain(&self, ng: usize) -> Domain {
        Domain::new(self.cells, ng, self.eq())
    }

    /// Paint the initial *conservative* state onto a block whose interior
    /// covers global cells `offset .. offset + dom.n` (offset in cells;
    /// `[0,0,0]` for single-rank runs). Each cell is painted in registers
    /// and converted straight into the field with [`prim_to_cons`], the
    /// per-cell conversion of every primitive→conservative pass; `ctx` and
    /// `grid` are unused (the global grid comes from `self.grid()`).
    pub fn init_block(
        &self,
        _ctx: &Context,
        dom: &Domain,
        _grid: &Grid,
        offset: [usize; 3],
    ) -> StateField {
        let eq = self.eq();
        assert_eq!(&eq, &dom.eq);
        let global = self.grid();
        let table = FluidTable::new(&self.fluids);
        let mut cons = StateField::zeros(*dom);
        let (neq, block) = (eq.neq(), dom.total_cells());
        let (n1, n2) = (dom.ext(0), dom.ext(1));
        let (mut prim, mut cell) = (eq.vars::<f64>(), eq.vars::<f64>());
        let states = self.patch_states();
        let out = cons.as_mut_slice();
        // Paint ghost-inclusive so initial BC fill is consistent even at
        // physical boundaries (clamped sampling). Inactive dimensions
        // sample at coordinate 0 so that, e.g., a circle centered at z = 0
        // works in 2-D.
        let center = |d: usize, i: usize| {
            let local = i as isize - dom.pad(d) as isize;
            if d < self.ndim {
                sample_center(&global, d, offset[d], local)
            } else {
                0.0
            }
        };
        for k in 0..dom.ext(2) {
            for j in 0..n2 {
                let (y, z) = (center(1, j), center(2, k));
                for i in 0..n1 {
                    let state = self.paint(&states, [center(0, i), y, z]);
                    for f in 0..eq.nf() {
                        prim[eq.cont(f)] = state.alpha[f].max(1e-8) * state.rho[f];
                    }
                    for d in 0..eq.ndim() {
                        prim[eq.mom(d)] = state.vel[d];
                    }
                    prim[eq.energy()] = state.p;
                    for a in 0..eq.n_adv() {
                        prim[eq.adv(a)] = state.alpha[a].clamp(1e-8, 1.0 - 1e-8);
                    }
                    prim_to_cons(&eq, &table, &prim[..neq], &mut cell[..neq]);
                    let at = i + n1 * (j + n2 * k);
                    for (e, v) in cell[..neq].iter().enumerate() {
                        out[at + e * block] = *v;
                    }
                }
            }
        }
        cons
    }

    /// The painted primitive state at physical point `x`, with optional
    /// smooth blending across the last patch's boundary.
    pub fn state_at(&self, x: [f64; 3]) -> CellState {
        self.paint(&self.patch_states(), x)
    }

    fn patch_states(&self) -> Vec<CellState> {
        self.patches
            .iter()
            .map(|p| CellState::of(&p.state))
            .collect()
    }

    /// [`CaseBuilder::state_at`] with each patch's state in `states`;
    /// inlined into the per-cell loop of [`CaseBuilder::init_block`].
    #[inline(always)]
    fn paint(&self, states: &[CellState], x: [f64; 3]) -> CellState {
        // Smooth blend over ~smear_cells cell widths.
        let h = (self.hi[0] - self.lo[0]) / self.cells[0] as f64;
        let w = self.smear_cells * h;
        let mut current: Option<CellState> = None;
        for (patch, state) in self.patches.iter().zip(states) {
            if self.smear_cells > 0.0 {
                if let Some(d) = patch.region.signed_distance(x) {
                    let t = 0.5 * (1.0 - (d / w).tanh()); // 1 inside, 0 outside
                    if t > 1e-9 {
                        current = Some(current.unwrap_or(*state).blend(state, t));
                    }
                    continue;
                }
            }
            if patch.region.contains(x) {
                current = Some(*state);
            }
        }
        current.expect("no patch covers the point; add a Region::All background patch first")
    }
}

/// One point's painted primitive state: a [`PatchState`] or a blend of
/// two, in fixed arrays of [`MAX_FLUIDS`] (unused fluids stay 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellState {
    pub alpha: [f64; MAX_FLUIDS],
    pub rho: [f64; MAX_FLUIDS],
    pub vel: [f64; 3],
    pub p: f64,
}

impl CellState {
    fn of(s: &PatchState) -> Self {
        let mut c = CellState {
            alpha: [0.0; MAX_FLUIDS],
            rho: [0.0; MAX_FLUIDS],
            vel: s.vel,
            p: s.p,
        };
        c.alpha[..s.alpha.len()].copy_from_slice(&s.alpha);
        c.rho[..s.rho.len()].copy_from_slice(&s.rho);
        c
    }

    /// `(1 - t) self + t other`, componentwise.
    fn blend(&self, other: &CellState, t: f64) -> CellState {
        let mix = |x: f64, y: f64| (1.0 - t) * x + t * y;
        CellState {
            alpha: std::array::from_fn(|f| mix(self.alpha[f], other.alpha[f])),
            rho: std::array::from_fn(|f| mix(self.rho[f], other.rho[f])),
            vel: std::array::from_fn(|d| mix(self.vel[d], other.vel[d])),
            p: mix(self.p, other.p),
        }
    }
}

/// Global cell-center coordinate along `axis` for local padded index
/// `local` of a block at cell `offset`, clamping into the grid (ghost
/// cells at physical boundaries sample the edge cell).
fn sample_center(grid: &Grid, axis: usize, offset: usize, local: isize) -> f64 {
    let ax = grid.axis(axis);
    let g = offset as isize + local;
    let n = ax.n() as isize;
    if g < 0 {
        ax.centers()[0] + g as f64 * ax.widths()[0]
    } else if g >= n {
        ax.centers()[(n - 1) as usize] + (g - n + 1) as f64 * ax.widths()[(n - 1) as usize]
    } else {
        ax.centers()[g as usize]
    }
}

/// Canonical cases used throughout tests, examples, and benchmarks.
pub mod presets {
    use super::*;
    use crate::bc::BcKind;

    /// Sod shock tube (air, gamma = 1.4) on `[0, 1]`.
    pub fn sod(n: usize) -> CaseBuilder {
        CaseBuilder::new(vec![Fluid::air()], 1, [n, 1, 1])
            .extent([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
            .bc(BcSpec::transmissive())
            .patch(Region::All, PatchState::single(0.125, [0.0; 3], 0.1))
            .patch(
                Region::HalfSpace {
                    axis: 0,
                    bound: 0.5,
                },
                PatchState::single(1.0, [0.0; 3], 1.0),
            )
    }

    /// Mach-1.46 air shock impinging a water droplet (2-D analog of
    /// §VI-A). Pre-shock air at rest, post-shock state from the
    /// Rankine–Hugoniot relations, water circle at the origin.
    pub fn shock_droplet_2d(n: usize) -> CaseBuilder {
        let air = Fluid::air();
        let water = Fluid::water();
        // Rankine-Hugoniot for M = 1.46 in air at (1.2 kg/m^3, 1 atm).
        let (rho1, p1) = (1.2, 101325.0);
        let m = 1.46;
        let g = 1.4;
        let p2 = p1 * (1.0 + 2.0 * g / (g + 1.0) * (m * m - 1.0));
        let rho2 = rho1 * ((g + 1.0) * m * m) / ((g - 1.0) * m * m + 2.0);
        let c1 = air.sound_speed(rho1, p1);
        let u2 = m * c1 * (1.0 - rho1 / rho2);
        CaseBuilder::new(vec![air, water], 2, [n, n, 1])
            .extent([-5.0e-3, -5.0e-3, 0.0], [5.0e-3, 5.0e-3, 1.0])
            .bc(BcSpec::transmissive())
            .smear(1.0)
            // Background: quiescent air.
            .patch(
                Region::All,
                PatchState::two_fluid(1.0 - 1e-6, [rho1, 1000.0], [0.0; 3], p1),
            )
            // Post-shock air left of the shock.
            .patch(
                Region::HalfSpace {
                    axis: 0,
                    bound: -2.5e-3,
                },
                PatchState::two_fluid(1.0 - 1e-6, [rho2, 1000.0], [u2, 0.0, 0.0], p2),
            )
            // Water droplet of radius 1 mm at the origin.
            .patch(
                Region::Sphere {
                    center: [0.0; 3],
                    radius: 1.0e-3,
                },
                PatchState::two_fluid(1e-6, [rho1, 1000.0], [0.0; 3], p1),
            )
    }

    /// Mach-2.4 shock in water hitting a cluster of air bubbles
    /// (down-scaled 2-D analog of §VI-C).
    pub fn shock_bubble_cloud_2d(n: usize, bubbles: &[([f64; 3], f64)]) -> CaseBuilder {
        let air = Fluid::air();
        let water = Fluid::water();
        let (rho1, p1) = (1000.0, 101325.0);
        // Strong pressure pulse instead of exact RH for the liquid.
        let p2 = 50.0 * p1;
        let mut cb = CaseBuilder::new(vec![air, water], 2, [n, n, 1])
            .extent([-5.0e-3, -5.0e-3, 0.0], [5.0e-3, 5.0e-3, 1.0])
            .bc(BcSpec::transmissive())
            .smear(1.0)
            .patch(
                Region::All,
                PatchState::two_fluid(1e-6, [1.2, rho1], [0.0; 3], p1),
            )
            .patch(
                Region::HalfSpace {
                    axis: 0,
                    bound: -3.5e-3,
                },
                PatchState::two_fluid(1e-6, [1.2, rho1 * 1.2], [50.0, 0.0, 0.0], p2),
            );
        for &(c, r) in bubbles {
            cb = cb.patch(
                Region::Sphere {
                    center: c,
                    radius: r,
                },
                PatchState::two_fluid(1.0 - 1e-6, [1.2, rho1], [0.0; 3], p1),
            );
        }
        cb
    }

    /// Uniform free stream (for free-stream-preservation and IBM tests).
    pub fn uniform_flow(ndim: usize, n: [usize; 3], vel: [f64; 3]) -> CaseBuilder {
        CaseBuilder::new(vec![Fluid::air()], ndim, n)
            .bc(BcSpec::all(BcKind::Transmissive))
            .patch(Region::All, PatchState::single(1.2, vel, 101325.0))
    }

    /// The representative two-phase problem of the scaling studies: a
    /// spherical air cavity in water, periodic box.
    pub fn two_phase_benchmark(ndim: usize, n: [usize; 3]) -> CaseBuilder {
        CaseBuilder::new(vec![Fluid::air(), Fluid::water()], ndim, n)
            .extent([0.0; 3], [1.0, 1.0, 1.0])
            .bc(BcSpec::periodic())
            .smear(1.0)
            .patch(
                Region::All,
                PatchState::two_fluid(1e-6, [1.2, 1000.0], [1.0, 0.5, 0.25], 1.0e5),
            )
            .patch(
                Region::Sphere {
                    center: [0.5, 0.5, if ndim == 3 { 0.5 } else { 0.0 }],
                    radius: 0.2,
                },
                PatchState::two_fluid(1.0 - 1e-6, [1.2, 1000.0], [1.0, 0.5, 0.25], 1.0e5),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_classify_points() {
        assert!(Region::All.contains([1e9; 3]));
        let b = Region::Box {
            lo: [0.0; 3],
            hi: [1.0; 3],
        };
        assert!(b.contains([0.5, 0.5, 0.0]));
        assert!(!b.contains([1.5, 0.5, 0.0]));
        let s = Region::Sphere {
            center: [0.0; 3],
            radius: 1.0,
        };
        assert!(s.contains([0.5, 0.5, 0.5]));
        assert!(!s.contains([1.0, 1.0, 0.0]));
        let h = Region::HalfSpace {
            axis: 1,
            bound: 0.0,
        };
        assert!(h.contains([5.0, -0.1, 0.0]));
        assert!(!h.contains([5.0, 0.1, 0.0]));
    }

    #[test]
    fn later_patches_overwrite() {
        let cb = presets::sod(16);
        let left = cb.state_at([0.25, 0.5, 0.5]);
        let right = cb.state_at([0.75, 0.5, 0.5]);
        assert_eq!(left.p, 1.0);
        assert_eq!(right.p, 0.1);
    }

    #[test]
    fn init_block_produces_expected_pressures() {
        let cb = presets::sod(32);
        let ctx = Context::serial();
        let dom = cb.domain(3);
        let grid = cb.grid();
        let cons = cb.init_block(&ctx, &dom, &grid, [0, 0, 0]);
        // Convert back and check pressure jump.
        let mut prim = StateField::zeros(dom);
        crate::state::cons_to_prim_field(&ctx, &cb.fluids, &cons, &mut prim);
        let eq = cb.eq();
        assert!((prim.get(5, 0, 0, eq.energy()) - 1.0).abs() < 1e-12);
        assert!((prim.get(30, 0, 0, eq.energy()) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn offset_block_sees_shifted_coordinates() {
        let cb = presets::sod(32);
        let ctx = Context::serial();
        let eq = cb.eq();
        let dom = Domain::new([16, 1, 1], 3, eq);
        let grid = cb.grid();
        // Right half block: all cells should carry the low-pressure state.
        let cons = cb.init_block(&ctx, &dom, &grid, [16, 0, 0]);
        let mut prim = StateField::zeros(dom);
        crate::state::cons_to_prim_field(&ctx, &cb.fluids, &cons, &mut prim);
        for i in 0..16 {
            assert!((prim.get(3 + i, 0, 0, eq.energy()) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn smeared_droplet_has_diffuse_interface() {
        let cb = presets::shock_droplet_2d(64);
        // Just inside/outside the droplet radius the blend is intermediate.
        let near = cb.state_at([1.0e-3, 0.0, 0.0]);
        assert!(
            near.alpha[0] > 0.3 && near.alpha[0] < 0.7,
            "alpha={}",
            near.alpha[0]
        );
        let center = cb.state_at([0.0, 0.0, 0.0]);
        assert!(center.alpha[1] > 0.99);
    }

    #[test]
    #[should_panic]
    fn missing_background_patch_panics() {
        let cb = CaseBuilder::new(vec![Fluid::air()], 1, [8, 1, 1]);
        let _ = cb.state_at([0.5, 0.5, 0.5]);
    }
}
