//! Dimension and stride bookkeeping shared by every layout type.

/// A coordinate sweep direction, named after the physical axis it
/// corresponds to in the solver.
///
/// MFC reconstructs and solves Riemann problems dimension-by-dimension;
/// before each sweep the state is re-laid-out so that the sweep direction is
/// the fastest-varying (coalesced) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    X,
    Y,
    Z,
}

impl Dir {
    /// All three directions in sweep order.
    pub const ALL: [Dir; 3] = [Dir::X, Dir::Y, Dir::Z];

    /// The 0-based axis number: x → 0, y → 1, z → 2.
    #[inline]
    pub fn axis(self) -> usize {
        match self {
            Dir::X => 0,
            Dir::Y => 1,
            Dir::Z => 2,
        }
    }
}

/// Extents of a 3-D block, `(n1, n2, n3)` with `n1` fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
}

impl Dims3 {
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        Dims3 { n1, n2, n3 }
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index with Fortran ordering (`i1` fastest).
    #[inline(always)]
    pub fn idx(&self, i1: usize, i2: usize, i3: usize) -> usize {
        debug_assert!(i1 < self.n1 && i2 < self.n2 && i3 < self.n3);
        i1 + self.n1 * (i2 + self.n2 * i3)
    }

    /// Extent along a sweep direction.
    #[inline]
    pub fn extent(&self, dir: Dir) -> usize {
        match dir {
            Dir::X => self.n1,
            Dir::Y => self.n2,
            Dir::Z => self.n3,
        }
    }
}

/// Extents of a 4-D block, `(n1, n2, n3, n4)` with `n1` fastest.
///
/// By convention the fourth index is the *field* (equation) index, matching
/// the paper's `v_temp(k, l, q, j)` with `j` the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims4 {
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
    pub n4: usize,
}

impl Dims4 {
    pub fn new(n1: usize, n2: usize, n3: usize, n4: usize) -> Self {
        Dims4 { n1, n2, n3, n4 }
    }

    /// 4-D dims from a spatial block plus a field count.
    pub fn from_spatial(d: Dims3, nf: usize) -> Self {
        Dims4::new(d.n1, d.n2, d.n3, nf)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3 * self.n4
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index with Fortran ordering (`i1` fastest).
    #[inline(always)]
    pub fn idx(&self, i1: usize, i2: usize, i3: usize, i4: usize) -> usize {
        debug_assert!(
            i1 < self.n1 && i2 < self.n2 && i3 < self.n3 && i4 < self.n4,
            "index ({i1},{i2},{i3},{i4}) out of bounds for {self:?}"
        );
        i1 + self.n1 * (i2 + self.n2 * (i3 + self.n3 * i4))
    }

    /// The spatial part of the extents.
    pub fn spatial(&self) -> Dims3 {
        Dims3::new(self.n1, self.n2, self.n3)
    }

    /// Extents after the `(1,2,3,4) → (3,2,1,4)` index permutation performed
    /// by the GEAM transposes of Listings 3–4.
    pub fn permuted_3214(&self) -> Dims4 {
        Dims4::new(self.n3, self.n2, self.n1, self.n4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims3_linear_index_is_fortran_ordered() {
        let d = Dims3::new(4, 3, 2);
        assert_eq!(d.len(), 24);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(1, 0, 0), 1); // first index fastest
        assert_eq!(d.idx(0, 1, 0), 4);
        assert_eq!(d.idx(0, 0, 1), 12);
        assert_eq!(d.idx(3, 2, 1), 23);
    }

    #[test]
    fn dims4_linear_index_is_fortran_ordered() {
        let d = Dims4::new(4, 3, 2, 5);
        assert_eq!(d.len(), 120);
        assert_eq!(d.idx(1, 0, 0, 0), 1);
        assert_eq!(d.idx(0, 0, 0, 1), 24); // field index slowest
        assert_eq!(d.idx(3, 2, 1, 4), 119);
    }

    #[test]
    fn dims4_permutation_swaps_first_and_third() {
        let d = Dims4::new(4, 3, 2, 5);
        assert_eq!(d.permuted_3214(), Dims4::new(2, 3, 4, 5));
    }

    #[test]
    fn dims3_extent_matches_direction() {
        let d = Dims3::new(4, 3, 2);
        assert_eq!(d.extent(Dir::X), 4);
        assert_eq!(d.extent(Dir::Y), 3);
        assert_eq!(d.extent(Dir::Z), 2);
    }
}
