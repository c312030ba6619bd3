//! The flow state: a flattened, x-coalesced 4-D array plus sweep kernels.

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};

use crate::domain::Domain;
use crate::eos::{cons_to_prim, prim_to_cons};
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};

/// The state of one block: ghost-inclusive cells × equations, stored as one
/// contiguous array with x fastest and the equation index slowest — the
/// packed layout the paper converged on for all hot kernels. Element
/// `(i, j, k, e)` sits at `i + n1*(j + n2*(k + n3*e))`, where `n1`, `n2`,
/// `n3` are the ghost-inclusive extents, fixed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct StateField {
    dom: Domain,
    /// Ghost-inclusive extents `[n1, n2, n3]` of `dom`.
    ext: [usize; 3],
    data: Vec<f64>,
}

impl StateField {
    pub fn zeros(dom: Domain) -> Self {
        StateField {
            dom,
            ext: [dom.ext(0), dom.ext(1), dom.ext(2)],
            data: vec![0.0; dom.total_cells() * dom.eq.neq()],
        }
    }

    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.dom
    }

    /// Linear index of element `(i, j, k, e)`.
    #[inline(always)]
    fn idx(&self, i: usize, j: usize, k: usize, e: usize) -> usize {
        let [n1, n2, n3] = self.ext;
        debug_assert!(
            i < n1 && j < n2 && k < n3 && e < self.dom.eq.neq(),
            "index ({i},{j},{k},{e}) out of bounds for {:?} x {}",
            self.ext,
            self.dom.eq.neq()
        );
        i + n1 * (j + n2 * (k + n3 * e))
    }

    /// Ghost-inclusive element access.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize, e: usize) -> f64 {
        self.data[self.idx(i, j, k, e)]
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, k: usize, e: usize, v: f64) {
        let at = self.idx(i, j, k, e);
        self.data[at] = v;
    }

    /// Copy one cell's state vector into stack scratch.
    #[inline(always)]
    pub fn load_cell(&self, i: usize, j: usize, k: usize, out: &mut [f64]) {
        for (e, o) in out.iter_mut().enumerate().take(self.dom.eq.neq()) {
            *o = self.get(i, j, k, e);
        }
    }

    /// Write one cell's state vector back.
    #[inline(always)]
    pub fn store_cell(&mut self, i: usize, j: usize, k: usize, cell: &[f64]) {
        for (e, &v) in cell.iter().enumerate().take(self.dom.eq.neq()) {
            self.set(i, j, k, e, v);
        }
    }

    /// The contiguous 3-D block of one equation.
    #[inline]
    pub fn eq_slice(&self, e: usize) -> &[f64] {
        let block = self.dom.total_cells();
        &self.data[e * block..(e + 1) * block]
    }

    /// Mutable variant of [`StateField::eq_slice`].
    #[inline]
    pub fn eq_slice_mut(&mut self, e: usize) -> &mut [f64] {
        let block = self.dom.total_cells();
        &mut self.data[e * block..(e + 1) * block]
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
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
            row_len: dom.ext(0),
            block: dom.total_cells(),
            to_prim,
        };
        ctx.launch_vec(&cfg, cost, dom.ext(1) * dom.ext(2), dom.ext(0), &kernel)
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
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    let a = 0.2 + 0.6 * (i as f64 / dom.ext(0) as f64);
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
    fn spatial_index_is_fortran_ordered() {
        // Ghost-inclusive 4 x 4 x 4 cells: x fastest, then y, then z.
        let d = Domain::new([2, 2, 2], 1, EqIdx::new(1, 3));
        let [n1, n2, n3] = [d.ext(0), d.ext(1), d.ext(2)];
        assert_eq!([n1, n2, n3], [4, 4, 4]);
        let mut s = StateField::zeros(d);
        for (at, v) in [
            ((1, 0, 0), 1.0),
            ((0, 1, 0), 2.0),
            ((0, 0, 1), 3.0),
            ((3, 3, 3), 4.0),
        ] {
            s.set(at.0, at.1, at.2, 0, v);
        }
        let q = s.as_slice();
        assert_eq!(
            (q[1], q[n1], q[n1 * n2], q[n1 * n2 * n3 - 1]),
            (1.0, 2.0, 3.0, 4.0)
        );
        assert_eq!(q.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn linear_index_is_fortran_ordered() {
        // Ghost-inclusive 8 x 7 x 1 cells, 6 equations; equations slowest.
        let d = dom();
        let [n1, n2, n3, neq] = [d.ext(0), d.ext(1), d.ext(2), d.eq.neq()];
        assert_eq!([n1, n2, n3, neq], [8, 7, 1, 6]);
        let mut s = StateField::zeros(d);
        assert_eq!(s.as_slice().len(), d.total_cells() * neq);
        s.set(1, 0, 0, 0, 1.0);
        s.set(0, 0, 0, 1, 2.0);
        s.set(n1 - 1, n2 - 1, n3 - 1, neq - 1, 3.0);
        let q = s.as_slice();
        assert_eq!((q[1], q[d.total_cells()], q[q.len() - 1]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn first_index_is_contiguous() {
        let d = dom();
        let [n1, n2, neq] = [d.ext(0), d.ext(1), d.eq.neq()];
        let mut s = StateField::zeros(d);
        let code = |i: usize, j: usize, e: usize| (1000 * e + 10 * j + i) as f64;
        for e in 0..neq {
            for j in 0..n2 {
                for i in 0..n1 {
                    s.set(i, j, 0, e, code(i, j, e));
                }
            }
        }
        for e in 0..neq {
            for j in 0..n2 {
                let at = n1 * (j + n2 * e);
                let line: Vec<f64> = (0..n1).map(|i| code(i, j, e)).collect();
                assert_eq!(&s.as_slice()[at..at + n1], &line[..]);
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut s = StateField::zeros(dom());
        s.set(5, 3, 0, 4, 9.0);
        assert_eq!(s.get(5, 3, 0, 4), 9.0);
        assert_eq!(s.as_slice().iter().filter(|&&v| v != 0.0).count(), 1);
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
