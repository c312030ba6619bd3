//! Viscous fluxes — the Navier–Stokes terms of the Coralic & Colonius
//! scheme MFC implements (the paper's §III-F validates against
//! Taylor–Green vortices, which require them).
//!
//! Face-based conservative discretization: at every face the full stress
//! tensor row for that face normal is evaluated with second-order central
//! differences (normal derivative across the face, transverse derivatives
//! averaged from the adjacent cell centers), with the Stokes hypothesis
//! `lambda = -2/3 mu` and volume-fraction-weighted mixture viscosity
//! `mu = sum_i alpha_i mu_i`.

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};

use crate::domain::{Domain, MAX_EQ};
use crate::eos::MAX_FLUIDS;
use crate::eqidx::EqIdx;
use crate::fluid::Fluid;
use crate::state::StateField;

/// Whether any component is viscous.
pub fn is_viscous(fluids: &[Fluid]) -> bool {
    fluids.iter().any(|f| f.viscosity > 0.0)
}

/// Add the viscous flux divergence to `rhs` over interior cells.
///
/// `prim` must have valid ghost values (one layer beyond each interior
/// face is touched by the transverse derivatives, well inside the WENO
/// halo). `widths[d]` are ghost-inclusive cell widths.
pub fn add_viscous_fluxes(
    ctx: &Context,
    dom: &Domain,
    fluids: &[Fluid],
    prim: &StateField,
    widths: &[Vec<f64>; 3],
    rhs: &mut StateField,
) {
    let eq = dom.eq;
    let ndim = eq.ndim();
    let cost = KernelCost::new(
        KernelClass::Other,
        (ndim * ndim * 20 + 30) as f64,
        8.0 * (4 * ndim * ndim) as f64,
        8.0 * (ndim + 1) as f64,
    );
    let cfg = LaunchConfig::tuned("s_viscous_flux");
    let kernel = ViscousKernel {
        eq,
        fluids,
        src: prim.as_slice(),
        widths: [&widths[0], &widths[1], &widths[2]],
        ndim,
        ny: dom.n[1],
        pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
        stride: [1, dom.ext(0), dom.ext(0) * dom.ext(1)],
        block: dom.total_cells(),
        rsl: ParSlice::new(rhs.as_mut_slice()),
    };
    ctx.launch_vec(&cfg, cost, dom.n[1] * dom.n[2], dom.n[0], &kernel);
}

/// A stencil cell of the viscous kernel: flat base index of the packet's
/// first lane plus the (ghost-inclusive) grid coordinates of that lane.
/// Lanes occupy `base..base + WIDTH` along the unit-stride x axis, so a
/// shift along any axis is a single base offset.
#[derive(Clone, Copy)]
struct CellRef {
    base: usize,
    c: [usize; 3],
}

/// Lane kernel of the viscous flux divergence: row = (j, k) interior
/// line, col = interior x offset. Every stencil access is unit-stride in
/// x, so shifted packets load ghost values exactly where the scalar
/// stencil would; transverse cell widths are uniform per packet and enter
/// as splats.
struct ViscousKernel<'a> {
    eq: EqIdx,
    fluids: &'a [Fluid],
    src: &'a [f64],
    widths: [&'a [f64]; 3],
    ndim: usize,
    /// Interior cells along y.
    ny: usize,
    pad: [usize; 3],
    /// Flat strides of the three axes.
    stride: [usize; 3],
    /// Ghost-inclusive cells per equation block.
    block: usize,
    rsl: ParSlice<'a>,
}

impl ViscousKernel<'_> {
    /// Shift a stencil cell along an axis by `s` (±1).
    #[inline(always)]
    fn shifted(&self, cell: CellRef, axis: usize, s: isize) -> CellRef {
        let mut c = cell.c;
        c[axis] = (c[axis] as isize + s) as usize;
        CellRef {
            base: (cell.base as isize + s * self.stride[axis] as isize) as usize,
            c,
        }
    }

    /// Cell width along `axis`: lane-varying along x, uniform (splat)
    /// transversally.
    #[inline(always)]
    fn width_at<L: Lane>(&self, axis: usize, cell: CellRef) -> L {
        if axis == 0 {
            L::load(&self.widths[0][cell.c[0]..])
        } else {
            L::splat(self.widths[axis][cell.c[axis]])
        }
    }

    /// Velocity component `d` at a stencil cell.
    #[inline(always)]
    fn vel<L: Lane>(&self, cell: CellRef, d: usize) -> L {
        L::load(&self.src[cell.base + self.eq.mom(d) * self.block..])
    }

    /// Mixture dynamic viscosity (volume-fraction weighted), per lane.
    #[inline(always)]
    fn mu_at<L: Lane>(&self, cell: CellRef) -> L {
        let eq = &self.eq;
        let neq = eq.neq();
        let mut p = [L::splat(0.0); MAX_EQ];
        for (e, v) in p.iter_mut().enumerate().take(neq) {
            *v = L::load(&self.src[cell.base + e * self.block..]);
        }
        let mut alphas = [L::splat(0.0); MAX_FLUIDS];
        eq.alphas(&p[..neq], &mut alphas[..eq.nf()]);
        let mut mu = L::splat(0.0);
        for (f, a) in self.fluids.iter().zip(&alphas[..eq.nf()]) {
            mu = mu + *a * L::splat(f.viscosity);
        }
        mu
    }

    /// Central derivative of velocity component `comp` along `axis`.
    #[inline(always)]
    fn cell_dudx<L: Lane>(&self, cell: CellRef, comp: usize, axis: usize) -> L {
        let lo = self.shifted(cell, axis, -1);
        let hi = self.shifted(cell, axis, 1);
        let h = self.width_at::<L>(axis, cell);
        (self.vel::<L>(hi, comp) - self.vel::<L>(lo, comp)) / (L::splat(2.0) * h)
    }

    /// Flux of j-momentum (and of energy) through the face between `cell`
    /// and its +1 neighbour along `axis`.
    #[inline(always)]
    fn face_flux<L: Lane>(&self, cell: CellRef, axis: usize, out: &mut [L; 4]) {
        let ndim = self.ndim;
        let nb = self.shifted(cell, axis, 1);
        let h = L::splat(0.5) * (self.width_at::<L>(axis, cell) + self.width_at::<L>(axis, nb));
        let mu = L::splat(0.5) * (self.mu_at::<L>(cell) + self.mu_at::<L>(nb));
        // Velocity gradients at the face: normal by a compact difference,
        // transverse by averaging the adjacent cell-centered centrals.
        let mut grad = [[L::splat(0.0); 3]; 3]; // grad[comp][axis2] = d u_comp / d x_axis2
        for (comp, grad_c) in grad.iter_mut().enumerate().take(ndim) {
            for (ax2, g) in grad_c.iter_mut().enumerate().take(ndim) {
                *g = if ax2 == axis {
                    (self.vel::<L>(nb, comp) - self.vel::<L>(cell, comp)) / h
                } else {
                    L::splat(0.5)
                        * (self.cell_dudx::<L>(cell, comp, ax2)
                            + self.cell_dudx::<L>(nb, comp, ax2))
                };
            }
        }
        let mut div = L::splat(0.0);
        for (d, g) in grad.iter().enumerate().take(ndim) {
            div = div + g[d];
        }
        for (j, o) in out.iter_mut().enumerate().take(ndim) {
            let mut tau = mu * (grad[j][axis] + grad[axis][j]);
            if j == axis {
                tau = tau - L::splat(2.0 / 3.0) * mu * div;
            }
            *o = tau;
        }
        // Energy flux: u_j (face average) * tau_{axis j}.
        let mut fe = L::splat(0.0);
        for (j, &oj) in out.iter().enumerate().take(ndim) {
            let uj = L::splat(0.5) * (self.vel::<L>(cell, j) + self.vel::<L>(nb, j));
            fe = fe + uj * oj;
        }
        out[ndim] = fe;
    }
}

impl LaneKernel for ViscousKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) {
        let eq = &self.eq;
        let i = col + self.pad[0];
        let j = row % self.ny + self.pad[1];
        let k = row / self.ny + self.pad[2];
        let base = i + self.stride[1] * j + self.stride[2] * k;
        let cell = CellRef { base, c: [i, j, k] };
        for axis in 0..self.ndim {
            let lo_cell = self.shifted(cell, axis, -1);
            let h = self.width_at::<L>(axis, cell);
            let mut f_hi = [L::splat(0.0); 4];
            let mut f_lo = [L::splat(0.0); 4];
            self.face_flux(cell, axis, &mut f_hi);
            self.face_flux(lo_cell, axis, &mut f_lo);
            for d in 0..self.ndim {
                self.rsl
                    .add_lanes(base + eq.mom(d) * self.block, (f_hi[d] - f_lo[d]) / h);
            }
            self.rsl.add_lanes(
                base + eq.energy() * self.block,
                (f_hi[self.ndim] - f_lo[self.ndim]) / h,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::grid::Grid;

    fn setup(n: usize, mu: f64) -> (Domain, [Vec<f64>; 3], Vec<Fluid>, StateField) {
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([n, n, 1], 3, eq);
        let grid = Grid::uniform([n, n, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let widths = [
            grid.x.widths_with_ghosts(dom.pad(0)),
            grid.y.widths_with_ghosts(dom.pad(1)),
            grid.z.widths_with_ghosts(dom.pad(2)),
        ];
        let fluids = vec![Fluid::air().with_viscosity(mu)];
        (dom, widths, fluids, StateField::zeros(dom))
    }

    #[test]
    fn uniform_flow_has_zero_viscous_flux() {
        let (dom, widths, fluids, mut prim) = setup(8, 0.1);
        let eq = dom.eq;
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    prim.set(i, j, k, eq.cont(0), 1.2);
                    prim.set(i, j, k, eq.mom(0), 30.0);
                    prim.set(i, j, k, eq.mom(1), -10.0);
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                }
            }
        }
        let mut rhs = StateField::zeros(dom);
        let ctx = Context::serial();
        add_viscous_fluxes(&ctx, &dom, &fluids, &prim, &widths, &mut rhs);
        let max = rhs.as_slice().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max < 1e-10, "max = {max}");
    }

    #[test]
    fn linear_shear_has_zero_momentum_diffusion_but_positive_dissipation() {
        // u_x = S*y: tau_xy = mu*S constant → momentum RHS = 0; the energy
        // RHS is d(u tau)/dy = S * mu * S > 0 (viscous heating).
        let (dom, widths, fluids, mut prim) = setup(8, 0.5);
        let eq = dom.eq;
        let s_rate = 2.0;
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    let y = (j as f64 - dom.pad(1) as f64 + 0.5) / 8.0;
                    prim.set(i, j, k, eq.cont(0), 1.2);
                    prim.set(i, j, k, eq.mom(0), s_rate * y);
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                }
            }
        }
        let mut rhs = StateField::zeros(dom);
        let ctx = Context::serial();
        add_viscous_fluxes(&ctx, &dom, &fluids, &prim, &widths, &mut rhs);
        let (i, j) = (4 + dom.pad(0), 4 + dom.pad(1));
        assert!(rhs.get(i, j, 0, eq.mom(0)).abs() < 1e-10);
        assert!(rhs.get(i, j, 0, eq.mom(1)).abs() < 1e-10);
        let want = fluids[0].viscosity * s_rate * s_rate / 8.0 * 8.0; // mu S^2
        let got = rhs.get(i, j, 0, eq.energy());
        assert!((got - want).abs() < 1e-8 * want, "got {got} want {want}");
    }

    #[test]
    fn sinusoidal_shear_diffuses_toward_mean() {
        // u_x = sin(2 pi y): RHS_x = -mu k^2 sin(2 pi y) / rho ... in
        // momentum form RHS = mu * d2u/dy2 = -mu k^2 u.
        let n = 32;
        let (dom, widths, fluids, mut prim) = setup(n, 0.1);
        let eq = dom.eq;
        let kwave = 2.0 * std::f64::consts::PI;
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    let y = (j as f64 - dom.pad(1) as f64 + 0.5) / n as f64;
                    prim.set(i, j, k, eq.cont(0), 1.0);
                    prim.set(i, j, k, eq.mom(0), (kwave * y).sin());
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                }
            }
        }
        let mut rhs = StateField::zeros(dom);
        let ctx = Context::serial();
        add_viscous_fluxes(&ctx, &dom, &fluids, &prim, &widths, &mut rhs);
        for j in 0..n {
            let y = (j as f64 + 0.5) / n as f64;
            let u = (kwave * y).sin();
            let want = -fluids[0].viscosity * kwave * kwave * u;
            let got = rhs.get(8 + dom.pad(0), j + dom.pad(1), 0, eq.mom(0));
            assert!(
                (got - want).abs() < 0.02 * fluids[0].viscosity * kwave * kwave,
                "j={j}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn mixture_viscosity_weighted_by_volume_fraction() {
        let eq = EqIdx::new(2, 1);
        let dom = Domain::new([8, 1, 1], 3, eq);
        let fluids = vec![
            Fluid::air().with_viscosity(2.0),
            Fluid::water().with_viscosity(10.0),
        ];
        let mut prim = StateField::zeros(dom);
        for i in 0..dom.ext(0) {
            prim.set(i, 0, 0, eq.cont(0), 1.2 * 0.25);
            prim.set(i, 0, 0, eq.cont(1), 1000.0 * 0.75);
            prim.set(i, 0, 0, eq.energy(), 1.0e5);
            prim.set(i, 0, 0, eq.adv(0), 0.25);
        }
        let c = [4, dom.pad(1), dom.pad(2)];
        let mut rhs = StateField::zeros(dom);
        let kernel = ViscousKernel {
            eq,
            fluids: &fluids,
            src: prim.as_slice(),
            widths: [&[], &[], &[]],
            ndim: 1,
            ny: 1,
            pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
            stride: [1, dom.ext(0), dom.ext(0) * dom.ext(1)],
            block: dom.total_cells(),
            rsl: ParSlice::new(rhs.as_mut_slice()),
        };
        let base = c[0] + dom.ext(0) * (c[1] + dom.ext(1) * c[2]);
        let mu: f64 = kernel.mu_at(CellRef { base, c });
        assert!((mu - (0.25 * 2.0 + 0.75 * 10.0)).abs() < 1e-12);
        assert!(is_viscous(&fluids));
        assert!(!is_viscous(&[Fluid::air()]));
    }
}
