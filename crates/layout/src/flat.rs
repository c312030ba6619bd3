//! The flattened, coalesced 4-D array that replaces the `scalar_field`
//! layout inside hot kernels.

use crate::dims::Dims4;

/// A dense 4-D array of `f64` with Fortran ordering (first index fastest).
///
/// This is the "flattened multidimensional array" of §III-C: packing the
/// state into one of these (instead of an array of per-field allocations)
/// is what gave the paper its six-fold WENO speedup, because the compiler
/// can reason about one contiguous allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Flat4D {
    dims: Dims4,
    data: Vec<f64>,
}

impl Flat4D {
    /// A zero-initialized array.
    pub fn zeros(dims: Dims4) -> Self {
        Flat4D {
            dims,
            data: vec![0.0; dims.len()],
        }
    }

    /// An array filled from a function of the (i1, i2, i3, i4) coordinate.
    pub fn from_fn(dims: Dims4, mut f: impl FnMut(usize, usize, usize, usize) -> f64) -> Self {
        let mut a = Flat4D::zeros(dims);
        for i4 in 0..dims.n4 {
            for i3 in 0..dims.n3 {
                for i2 in 0..dims.n2 {
                    for i1 in 0..dims.n1 {
                        a.data[dims.idx(i1, i2, i3, i4)] = f(i1, i2, i3, i4);
                    }
                }
            }
        }
        a
    }

    #[inline]
    pub fn dims(&self) -> Dims4 {
        self.dims
    }

    #[inline(always)]
    pub fn get(&self, i1: usize, i2: usize, i3: usize, i4: usize) -> f64 {
        self.data[self.dims.idx(i1, i2, i3, i4)]
    }

    #[inline(always)]
    pub fn set(&mut self, i1: usize, i2: usize, i3: usize, i4: usize, v: f64) {
        let idx = self.dims.idx(i1, i2, i3, i4);
        self.data[idx] = v;
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The contiguous line `a[.., i2, i3, i4]` along the first (coalesced)
    /// index — the stencil line a WENO sweep reads.
    #[inline]
    pub fn line(&self, i2: usize, i3: usize, i4: usize) -> &[f64] {
        let start = self.dims.idx(0, i2, i3, i4);
        &self.data[start..start + self.dims.n1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_index_is_contiguous() {
        let a = Flat4D::from_fn(Dims4::new(4, 2, 2, 2), |i1, i2, i3, i4| {
            (i1 + 10 * i2 + 100 * i3 + 1000 * i4) as f64
        });
        let line = a.line(1, 1, 1);
        assert_eq!(line, &[1110.0, 1111.0, 1112.0, 1113.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut a = Flat4D::zeros(Dims4::new(3, 3, 3, 3));
        a.set(2, 1, 0, 2, 9.0);
        assert_eq!(a.get(2, 1, 0, 2), 9.0);
    }
}
