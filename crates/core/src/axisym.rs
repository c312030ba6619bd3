//! Axisymmetric (cylindrical r–z) geometric source terms.
//!
//! MFC supports Cartesian, axisymmetric, and cylindrical coordinates
//! (§III-A).  In axisymmetric form (x = axial, y = radial), the divergence
//! picks up a `1/r` term that appears as a geometric source on the
//! conservative equations:
//!
//! ```text
//! d q/dt + dF^x/dx + dF^r/dr = -(u_r / r) * G(q),
//! G = [alpha_i rho_i, rho u_x, rho u_r, rho E + p]
//! ```
//!
//! The volume-fraction rows need no geometric source: their `1/r` terms
//! cancel between the conservative flux and the `alpha div(u)` closure.

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};
use serde::{Deserialize, Serialize};

use crate::domain::{Domain, MAX_EQ};
use crate::eos::cons_to_prim;
use crate::eqidx::EqIdx;
use crate::fluid::{Fluid, FluidTable};
use crate::riemann::face_state;
use crate::state::{convert_flops, StateField};

/// Coordinate system of the governing equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Geometry {
    Cartesian,
    /// 2-D axisymmetric: axis 0 is axial, axis 1 is radial.
    Axisymmetric,
    /// Full 3-D cylindrical: axis 0 = axial (z), axis 1 = radial (r),
    /// axis 2 = azimuthal (theta, periodic). The azimuthal cell width is
    /// `r * dtheta`, applied by the flux divergence; the geometric
    /// sources below add the centrifugal/Coriolis-type terms.
    Cylindrical3D,
}

impl Geometry {
    /// Whether axis 1 is a radial coordinate (cylindrical volume terms).
    pub fn has_radial_axis(self) -> bool {
        !matches!(self, Geometry::Cartesian)
    }
}

/// The cells at flat index `cell..` of the conservative field `src`,
/// converted to primitives in registers.
#[inline(always)]
fn load_prim<L: Lane>(
    eq: &EqIdx,
    fluids: &FluidTable,
    src: &[f64],
    cell: usize,
    block: usize,
) -> [L; MAX_EQ] {
    let neq = eq.neq();
    let (mut c, mut p) = ([L::splat(0.0); MAX_EQ], [L::splat(0.0); MAX_EQ]);
    for (e, v) in c.iter_mut().enumerate().take(neq) {
        *v = L::load(&src[cell + e * block..]);
    }
    cons_to_prim(eq, fluids, &c[..neq], &mut p[..neq]);
    p
}

/// Add the axisymmetric geometric source of the conservative state `cons`
/// to `rhs` over interior cells (each cell is converted to primitives
/// in-kernel, by the same per-cell conversion as every primitive field).
///
/// `radii` holds the ghost-inclusive radial (y) cell-center coordinates;
/// they must be positive over the interior.
pub fn axisym_source(
    ctx: &Context,
    dom: &Domain,
    fluids: &[Fluid],
    cons: &StateField,
    radii: &[f64],
    rhs: &mut StateField,
) {
    let eq = dom.eq;
    assert!(eq.ndim() >= 2, "axisymmetric source needs a radial axis");
    let neq = eq.neq();
    let cost = KernelCost::new(
        KernelClass::Other,
        (3 * neq + 10) as f64 + convert_flops(dom),
        8.0 * neq as f64,
        8.0 * neq as f64,
    );
    let cfg = LaunchConfig::tuned("s_axisym_source");
    let kernel = AxisymKernel {
        eq,
        fluids: &FluidTable::new(fluids),
        src: cons.as_slice(),
        radii,
        ny: dom.n[1],
        pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
        ext1: dom.ext(0),
        ext2: dom.ext(1),
        block: dom.total_cells(),
        rsl: ParSlice::new(rhs.as_mut_slice()),
    };
    ctx.launch_vec(&cfg, cost, dom.n[1] * dom.n[2], dom.n[0], &kernel);
}

/// Lane kernel of [`axisym_source`]: row = (j, k) interior line, col =
/// interior x offset. The radius is uniform per row and enters as a
/// splat; the per-cell face-state evaluation is the generic
/// [`face_state`], so each lane is bitwise the scalar source of its cell.
struct AxisymKernel<'a> {
    eq: EqIdx,
    fluids: &'a FluidTable,
    src: &'a [f64],
    radii: &'a [f64],
    /// Interior cells along y.
    ny: usize,
    pad: [usize; 3],
    ext1: usize,
    ext2: usize,
    /// Ghost-inclusive cells per equation block.
    block: usize,
    rsl: ParSlice<'a>,
}

impl LaneKernel for AxisymKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) {
        let eq = &self.eq;
        let neq = eq.neq();
        let i = col + self.pad[0];
        let j = row % self.ny + self.pad[1];
        let k = row / self.ny + self.pad[2];
        let r = self.radii[j];
        debug_assert!(r > 0.0, "non-positive radius {r} at j={j}");
        let cell = i + self.ext1 * (j + self.ext2 * k);
        let p = load_prim::<L>(eq, self.fluids, self.src, cell, self.block);
        let fs = face_state(eq, self.fluids, &p[..neq], 1);
        let ur = p[eq.mom(1)];
        let factor = -ur / L::splat(r);
        for f in 0..eq.nf() {
            let e = eq.cont(f);
            self.rsl.add_lanes(cell + e * self.block, factor * p[e]);
        }
        for d in 0..eq.ndim() {
            let e = eq.mom(d);
            self.rsl
                .add_lanes(cell + e * self.block, factor * fs.rho * p[e]);
        }
        self.rsl
            .add_lanes(cell + eq.energy() * self.block, factor * (fs.rho_e + fs.p));
    }
}

/// Add the full 3-D cylindrical geometric sources over interior cells:
///
/// ```text
/// S[alpha_i rho_i] = -(alpha_i rho_i) u_r / r
/// S[rho u_z]       = -(rho u_z u_r) / r
/// S[rho u_r]       =  (rho u_theta^2 - rho u_r^2) / r
/// S[rho u_theta]   = -2 rho u_r u_theta / r
/// S[rho E]         = -(rho E + p) u_r / r
/// ```
///
/// (With `u_theta = 0` this reduces to [`axisym_source`]; the volume-
/// fraction rows need no source for the same cancellation reason.) Like
/// [`axisym_source`], it reads the conservative state `cons`.
pub fn cylindrical_source(
    ctx: &Context,
    dom: &Domain,
    fluids: &[Fluid],
    cons: &StateField,
    radii: &[f64],
    rhs: &mut StateField,
) {
    let eq = dom.eq;
    assert_eq!(eq.ndim(), 3, "3-D cylindrical needs all three axes");
    let neq = eq.neq();
    let cost = KernelCost::new(
        KernelClass::Other,
        (3 * neq + 16) as f64 + convert_flops(dom),
        8.0 * neq as f64,
        8.0 * neq as f64,
    );
    let cfg = LaunchConfig::tuned("s_cylindrical_source");
    let kernel = CylindricalKernel {
        eq,
        fluids: &FluidTable::new(fluids),
        src: cons.as_slice(),
        radii,
        ny: dom.n[1],
        pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
        ext1: dom.ext(0),
        ext2: dom.ext(1),
        block: dom.total_cells(),
        rsl: ParSlice::new(rhs.as_mut_slice()),
    };
    ctx.launch_vec(&cfg, cost, dom.n[1] * dom.n[2], dom.n[0], &kernel);
}

/// Lane kernel of [`cylindrical_source`] — same decode and splat-radius
/// structure as [`AxisymKernel`] with the three-axis source rows.
struct CylindricalKernel<'a> {
    eq: EqIdx,
    fluids: &'a FluidTable,
    src: &'a [f64],
    radii: &'a [f64],
    /// Interior cells along y.
    ny: usize,
    pad: [usize; 3],
    ext1: usize,
    ext2: usize,
    /// Ghost-inclusive cells per equation block.
    block: usize,
    rsl: ParSlice<'a>,
}

impl LaneKernel for CylindricalKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) {
        let eq = &self.eq;
        let neq = eq.neq();
        let i = col + self.pad[0];
        let j = row % self.ny + self.pad[1];
        let k = row / self.ny + self.pad[2];
        let r = self.radii[j];
        debug_assert!(r > 0.0, "non-positive radius {r} at j={j}");
        let cell = i + self.ext1 * (j + self.ext2 * k);
        let p = load_prim::<L>(eq, self.fluids, self.src, cell, self.block);
        let fs = face_state(eq, self.fluids, &p[..neq], 1);
        let (uz, ur, ut) = (p[eq.mom(0)], p[eq.mom(1)], p[eq.mom(2)]);
        let inv_r = L::splat(1.0 / r);
        for f in 0..eq.nf() {
            let e = eq.cont(f);
            self.rsl
                .add_lanes(cell + e * self.block, -p[e] * ur * inv_r);
        }
        self.rsl
            .add_lanes(cell + eq.mom(0) * self.block, -fs.rho * uz * ur * inv_r);
        self.rsl.add_lanes(
            cell + eq.mom(1) * self.block,
            fs.rho * (ut * ut - ur * ur) * inv_r,
        );
        self.rsl.add_lanes(
            cell + eq.mom(2) * self.block,
            L::splat(-2.0) * fs.rho * ur * ut * inv_r,
        );
        self.rsl.add_lanes(
            cell + eq.energy() * self.block,
            -(fs.rho_e + fs.p) * ur * inv_r,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::state::prim_to_cons_field;

    /// A uniform single-fluid state with velocity `u`, as conservatives.
    fn uniform(dom: Domain, rho: f64, u: [f64; 2]) -> StateField {
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    prim.set(i, j, k, eq.cont(0), rho);
                    prim.set(i, j, k, eq.mom(0), u[0]);
                    prim.set(i, j, k, eq.mom(1), u[1]);
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                }
            }
        }
        let mut cons = StateField::zeros(dom);
        prim_to_cons_field(&Context::serial(), &[Fluid::air()], &prim, &mut cons);
        cons
    }

    #[test]
    fn zero_radial_velocity_gives_zero_source() {
        let dom = Domain::new([4, 4, 1], 2, EqIdx::new(1, 2));
        let ctx = Context::serial();
        let cons = uniform(dom, 1.2, [100.0, 0.0]); // axial only
        let radii: Vec<f64> = (0..dom.ext(1)).map(|j| 0.5 + j as f64).collect();
        let mut rhs = StateField::zeros(dom);
        axisym_source(&ctx, &dom, &[Fluid::air()], &cons, &radii, &mut rhs);
        assert!(rhs.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn source_scales_inversely_with_radius() {
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([4, 4, 1], 2, eq);
        let ctx = Context::serial();
        let cons = uniform(dom, 1.0, [0.0, 2.0]); // radial outflow
        let radii: Vec<f64> = (0..dom.ext(1)).map(|j| 1.0 + j as f64).collect();
        let mut rhs = StateField::zeros(dom);
        axisym_source(&ctx, &dom, &[Fluid::air()], &cons, &radii, &mut rhs);
        // Mass source = -rho u_r / r; at j=2 (r=3), j=3 (r=4).
        let a = rhs.get(2, 2, 0, eq.cont(0));
        let b = rhs.get(2, 3, 0, eq.cont(0));
        assert!((a - (-2.0 / 3.0)).abs() < 1e-12, "a={a}");
        assert!((b - (-2.0 / 4.0)).abs() < 1e-12, "b={b}");
    }
}
