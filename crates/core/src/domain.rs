//! Local domain extents and ghost-cell bookkeeping.

use crate::eqidx::EqIdx;

/// Upper bound on the state-vector length (`2*MAX_FLUIDS + ndim` with
/// `ndim <= 3`), used for stack-allocated per-cell scratch in kernels —
/// the compile-time-sized "private arrays" of §III-D.
pub const MAX_EQ: usize = 2 * crate::eos::MAX_FLUIDS + 3;

/// The cell extents of one (rank-local) block plus its ghost width.
///
/// Ghost layers exist only along active dimensions: a 1-D problem carries
/// no y/z ghosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// Interior cells per axis (unused axes have extent 1).
    pub n: [usize; 3],
    /// Ghost layers on each side of each active axis (3 for WENO5).
    pub ng: usize,
    /// Equation layout.
    pub eq: EqIdx,
}

impl Domain {
    pub fn new(n: [usize; 3], ng: usize, eq: EqIdx) -> Self {
        for (d, &nd) in n.iter().enumerate().take(eq.ndim()) {
            assert!(nd >= 1, "axis {d} must have at least one cell");
            assert!(
                nd >= ng,
                "axis {d}: {nd} interior cells cannot feed {ng} ghost layers"
            );
        }
        for (d, &nd) in n.iter().enumerate().skip(eq.ndim()) {
            assert_eq!(nd, 1, "inactive axis {d} must have extent 1");
        }
        Domain { n, ng, eq }
    }

    /// Ghost padding along axis `d` (0 on inactive axes).
    #[inline(always)]
    pub fn pad(&self, d: usize) -> usize {
        if d < self.eq.ndim() {
            self.ng
        } else {
            0
        }
    }

    /// Ghost-inclusive extent along axis `d`.
    #[inline(always)]
    pub fn ext(&self, d: usize) -> usize {
        self.n[d] + 2 * self.pad(d)
    }

    /// Number of interior cells.
    pub fn interior_cells(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Number of ghost-inclusive cells.
    pub fn total_cells(&self) -> usize {
        self.ext(0) * self.ext(1) * self.ext(2)
    }

    /// Iterate interior cell coordinates in ghost-inclusive indices,
    /// x-fastest.
    pub fn interior(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (px, py, pz) = (self.pad(0), self.pad(1), self.pad(2));
        let n = self.n;
        (0..n[2]).flat_map(move |k| {
            (0..n[1]).flat_map(move |j| (0..n[0]).map(move |i| (i + px, j + py, k + pz)))
        })
    }

    /// Map an interior coordinate (0-based, no ghosts) to ghost-inclusive.
    #[inline(always)]
    pub fn to_padded(&self, c: [usize; 3]) -> (usize, usize, usize) {
        (c[0] + self.pad(0), c[1] + self.pad(1), c[2] + self.pad(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghosts_only_on_active_axes() {
        let d = Domain::new([16, 1, 1], 3, EqIdx::new(2, 1));
        assert_eq!(d.ext(0), 22);
        assert_eq!(d.ext(1), 1);
        assert_eq!(d.ext(2), 1);
        assert_eq!(d.pad(1), 0);
    }

    #[test]
    fn dims4_includes_equations() {
        let eq = EqIdx::new(2, 2);
        let d = Domain::new([8, 4, 1], 2, eq);
        assert_eq!((d.ext(0), d.ext(1), d.ext(2)), (12, 8, 1));
        let q = crate::state::StateField::zeros(d);
        assert_eq!(q.as_slice().len(), 12 * 8 * eq.neq());
    }

    #[test]
    fn interior_iterates_every_cell_once() {
        let d = Domain::new([3, 2, 1], 2, EqIdx::new(1, 2));
        let cells: Vec<_> = d.interior().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], (2, 2, 0));
        assert_eq!(cells[1], (3, 2, 0)); // x fastest
        assert_eq!(*cells.last().unwrap(), (4, 3, 0));
    }

    #[test]
    #[should_panic]
    fn rejects_block_thinner_than_halo() {
        let _ = Domain::new([2, 1, 1], 3, EqIdx::new(1, 1));
    }

    #[test]
    #[should_panic]
    fn rejects_extent_on_inactive_axis() {
        let _ = Domain::new([8, 4, 1], 2, EqIdx::new(1, 1));
    }
}
