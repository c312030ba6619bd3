//! The flow state: a flattened, x-coalesced 4-D array plus sweep kernels.

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};
use mfc_layout::Flat4D;

use crate::domain::Domain;
use crate::eos::{cons_to_prim, prim_to_cons};
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};

/// The state of one block: ghost-inclusive cells × equations, stored as a
/// single contiguous [`Flat4D`] with x fastest and the equation index
/// slowest — the packed layout the paper converged on for all hot kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct StateField {
    dom: Domain,
    data: Flat4D,
}

impl StateField {
    pub fn zeros(dom: Domain) -> Self {
        StateField {
            dom,
            data: Flat4D::zeros(dom.dims4()),
        }
    }

    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.dom
    }

    /// Ghost-inclusive element access.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize, e: usize) -> f64 {
        self.data.get(i, j, k, e)
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, k: usize, e: usize, v: f64) {
        self.data.set(i, j, k, e, v);
    }

    /// Copy one cell's state vector into stack scratch.
    #[inline(always)]
    pub fn load_cell(&self, i: usize, j: usize, k: usize, out: &mut [f64]) {
        for (e, o) in out.iter_mut().enumerate().take(self.dom.eq.neq()) {
            *o = self.data.get(i, j, k, e);
        }
    }

    /// Write one cell's state vector back.
    #[inline(always)]
    pub fn store_cell(&mut self, i: usize, j: usize, k: usize, cell: &[f64]) {
        for (e, &v) in cell.iter().enumerate().take(self.dom.eq.neq()) {
            self.data.set(i, j, k, e, v);
        }
    }

    /// The contiguous 3-D block of one equation.
    #[inline]
    pub fn eq_slice(&self, e: usize) -> &[f64] {
        let d = self.data.dims();
        let block = d.n1 * d.n2 * d.n3;
        &self.data.as_slice()[e * block..(e + 1) * block]
    }

    /// Mutable variant of [`StateField::eq_slice`].
    #[inline]
    pub fn eq_slice_mut(&mut self, e: usize) -> &mut [f64] {
        let d = self.data.dims();
        let block = d.n1 * d.n2 * d.n3;
        &mut self.data.as_mut_slice()[e * block..(e + 1) * block]
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    #[inline]
    pub fn flat(&self) -> &Flat4D {
        &self.data
    }

    /// `self = a*x + b*y` elementwise — the SSP-RK stage combination.
    pub fn lincomb(&mut self, a: f64, x: &StateField, b: f64, y: &StateField) {
        let out = self.data.as_mut_slice();
        let xs = x.data.as_slice();
        let ys = y.data.as_slice();
        assert_eq!(out.len(), xs.len());
        assert_eq!(out.len(), ys.len());
        for ((o, &xv), &yv) in out.iter_mut().zip(xs).zip(ys) {
            *o = a * xv + b * yv;
        }
    }

    /// `self += s * other` elementwise.
    pub fn axpy(&mut self, s: f64, other: &StateField) {
        let out = self.data.as_mut_slice();
        let os = other.data.as_slice();
        assert_eq!(out.len(), os.len());
        for (o, &v) in out.iter_mut().zip(os) {
            *o += s * v;
        }
    }

    /// `self = a*q0 + b*(self + dt*rhs)` elementwise — the tail of an SSP-RK
    /// stage in one pass and in place. Per element this is the operation
    /// sequence of `axpy(dt, rhs)` followed by `lincomb(a, q0, b, ..)` on a
    /// copy, so the result is bitwise theirs without the field-sized
    /// temporary or the two extra sweeps over memory.
    pub fn ssp_combine(&mut self, a: f64, q0: &StateField, b: f64, dt: f64, rhs: &StateField) {
        let out = self.data.as_mut_slice();
        let q0s = q0.data.as_slice();
        let rs = rhs.data.as_slice();
        assert_eq!(out.len(), q0s.len());
        assert_eq!(out.len(), rs.len());
        for ((o, &q0v), &rv) in out.iter_mut().zip(q0s).zip(rs) {
            let stage = *o + dt * rv;
            *o = a * q0v + b * stage;
        }
    }

    pub fn fill(&mut self, v: f64) {
        self.data.as_mut_slice().fill(v);
    }
}

/// Approximate FLOPs of one cell's conservative→primitive conversion
/// (divisions counted as 4): nf adds + ndim (div + mul-adds) + mixture
/// evaluation + pressure. Used for ledger accounting only.
pub(crate) fn convert_flops(dom: &Domain) -> f64 {
    (4 * dom.eq.nf() + 7 * dom.eq.ndim() + 10) as f64
}

/// Convert a whole field conservative→primitive (ghosts included; callers
/// run it after the ghost fill so sweeps can reconstruct across faces).
pub fn cons_to_prim_field(
    ctx: &Context,
    fluids: &[Fluid],
    cons: &StateField,
    prim: &mut StateField,
) {
    convert_cells(ctx, fluids, cons, prim, true);
}

/// Convert a whole field primitive→conservative.
pub fn prim_to_cons_field(
    ctx: &Context,
    fluids: &[Fluid],
    prim: &StateField,
    cons: &mut StateField,
) {
    convert_cells(ctx, fluids, prim, cons, false);
}

/// Convert every cell of `src` into `out`, one x row per launch row.
fn convert_cells(
    ctx: &Context,
    fluids: &[Fluid],
    src: &StateField,
    out: &mut StateField,
    to_prim: bool,
) {
    let dom = *src.domain();
    assert_eq!(out.domain(), &dom);
    let neq = dom.eq.neq();
    let d3 = dom.dims3();
    let cost = KernelCost::new(
        KernelClass::Other,
        convert_flops(&dom),
        8.0 * neq as f64,
        8.0 * neq as f64,
    );
    let cfg = LaunchConfig::tuned(if to_prim {
        "s_convert_to_primitive"
    } else {
        "s_convert_to_conservative"
    });
    // Lane-tiled over the x-coalesced cell index: each equation is a
    // contiguous block, so a packet loads `WIDTH` consecutive cells of
    // each variable with unit stride.
    let table = FluidTable::new(fluids);
    with_eq_layout!(dom.eq, eq => {
        let kernel = ConvertKernel {
            eq,
            fluids: &table,
            src: src.as_slice(),
            out: ParSlice::new(out.as_mut_slice()),
            row_len: d3.n1,
            block: d3.len(),
            to_prim,
        };
        ctx.launch_vec(&cfg, cost, d3.n2 * d3.n3, d3.n1, &kernel)
    });
}

/// Lane kernel of the conversions: row = ghost-inclusive x line, col =
/// offset within it.
/// The per-cell EOS arithmetic is the generic [`cons_to_prim`] /
/// [`prim_to_cons`], so each lane is bitwise the scalar conversion of its
/// own cell; `to_prim` selects the direction uniformly per launch.
struct ConvertKernel<'a, E> {
    eq: E,
    fluids: &'a FluidTable,
    src: &'a [f64],
    out: ParSlice<'a>,
    /// Cells per x line.
    row_len: usize,
    /// Cells per equation block.
    block: usize,
    to_prim: bool,
}

impl<E: EqLayout> LaneKernel for ConvertKernel<'_, E> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) {
        let idx = row * self.row_len + col;
        let eq = &self.eq;
        let neq = eq.neq();
        let (mut a, mut b) = (eq.vars::<L>(), eq.vars::<L>());
        let (a, b) = (&mut a.as_mut()[..neq], &mut b.as_mut()[..neq]);
        for (e, v) in a.iter_mut().enumerate() {
            *v = L::load(&self.src[idx + e * self.block..]);
        }
        if self.to_prim {
            cons_to_prim(eq, self.fluids, a, b);
        } else {
            prim_to_cons(eq, self.fluids, a, b);
        }
        for (e, v) in b.iter().enumerate() {
            self.out.set_lanes(idx + e * self.block, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;

    fn dom() -> Domain {
        Domain::new([4, 3, 1], 2, EqIdx::new(2, 2))
    }

    fn sample_prim_field(dom: Domain) -> StateField {
        let mut s = StateField::zeros(dom);
        let eq = dom.eq;
        let d3 = dom.dims3();
        for k in 0..d3.n3 {
            for j in 0..d3.n2 {
                for i in 0..d3.n1 {
                    let a = 0.2 + 0.6 * (i as f64 / d3.n1 as f64);
                    s.set(i, j, k, eq.cont(0), 1.2 * a);
                    s.set(i, j, k, eq.cont(1), 1000.0 * (1.0 - a));
                    s.set(i, j, k, eq.mom(0), 10.0 + i as f64);
                    s.set(i, j, k, eq.mom(1), -3.0 + j as f64);
                    s.set(i, j, k, eq.energy(), 1.0e5 * (1.0 + 0.1 * k as f64));
                    s.set(i, j, k, eq.adv(0), a);
                }
            }
        }
        s
    }

    #[test]
    fn eq_slice_is_contiguous_block_per_equation() {
        let mut s = StateField::zeros(dom());
        s.set(0, 0, 0, 1, 42.0);
        assert_eq!(s.eq_slice(1)[0], 42.0);
        assert_eq!(s.eq_slice(0)[0], 0.0);
    }

    #[test]
    fn field_conversion_round_trip() {
        let ctx = Context::serial();
        let fluids = [Fluid::air(), Fluid::water()];
        let prim = sample_prim_field(dom());
        let mut cons = StateField::zeros(dom());
        let mut back = StateField::zeros(dom());
        prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        cons_to_prim_field(&ctx, &fluids, &cons, &mut back);
        let err = prim
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| (a - b).abs() / a.abs().max(1.0))
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "round-trip err {err}");
    }

    #[test]
    fn conversions_land_in_ledger() {
        let ctx = Context::serial();
        let fluids = [Fluid::air(), Fluid::water()];
        let prim = sample_prim_field(dom());
        let mut cons = StateField::zeros(dom());
        prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        let stats = ctx.ledger().kernel("s_convert_to_conservative").unwrap();
        assert_eq!(stats.items as usize, dom().total_cells());
    }

    #[test]
    fn lincomb_and_axpy() {
        let d = dom();
        let mut a = StateField::zeros(d);
        let mut x = StateField::zeros(d);
        let mut y = StateField::zeros(d);
        x.fill(2.0);
        y.fill(3.0);
        a.lincomb(0.5, &x, 2.0, &y); // 1 + 6 = 7
        assert!(a.as_slice().iter().all(|&v| v == 7.0));
        a.axpy(-1.0, &x);
        assert!(a.as_slice().iter().all(|&v| v == 5.0));
    }

    #[test]
    fn load_store_cell_round_trip() {
        let d = dom();
        let mut s = StateField::zeros(d);
        // EqIdx(2, 2) has neq = 6.
        let cell = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        s.store_cell(2, 1, 0, &cell);
        let mut back = [0.0; 6];
        s.load_cell(2, 1, 0, &mut back);
        assert_eq!(cell, back);
    }
}
