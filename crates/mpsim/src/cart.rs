//! 3-D block ("cuboid") cartesian decomposition (§III-A).
//!
//! MFC splits the domain into near-cubic 3-D blocks rather than slabs or
//! pencils: for a fixed process count the cube minimizes the
//! surface-to-volume ratio and therefore the halo-exchange volume.

/// Factor `n` ranks into `[p1, p2, p3]` as close to a cube as possible,
/// weighted by the global extents so blocks end up near-cubic in *cells*.
///
/// Among all factorizations `p1*p2*p3 = n`, picks the one minimizing the
/// total halo surface of a `gx × gy × gz` domain.
pub fn best_block_dims(n: usize, extents: [usize; 3]) -> [usize; 3] {
    assert!(n > 0);
    let [gx, gy, gz] = extents.map(|e| e.max(1) as f64);
    let mut best = [n, 1, 1];
    let mut best_surface = f64::INFINITY;
    let mut best_aspect = f64::INFINITY;
    for p1 in 1..=n {
        if !n.is_multiple_of(p1) {
            continue;
        }
        let rem = n / p1;
        for p2 in 1..=rem {
            if !rem.is_multiple_of(p2) {
                continue;
            }
            let p3 = rem / p2;
            // Per-block extents.
            let (bx, by, bz) = (gx / p1 as f64, gy / p2 as f64, gz / p3 as f64);
            // Decomposing along an axis of extent 1 is useless.
            if (bx < 1.0 && p1 > 1) || (by < 1.0 && p2 > 1) || (bz < 1.0 && p3 > 1) {
                continue;
            }
            // Total exchanged face area per block (both faces per split axis).
            let mut surface = 0.0;
            if p1 > 1 {
                surface += 2.0 * by * bz;
            }
            if p2 > 1 {
                surface += 2.0 * bx * bz;
            }
            if p3 > 1 {
                surface += 2.0 * bx * by;
            }
            // Tie-break equal surfaces toward cubic blocks (what
            // MPI_Dims_create produces): smallest block aspect ratio wins.
            let aspect = bx.max(by).max(bz) / bx.min(by).min(bz);
            if surface < best_surface * (1.0 - 1e-12)
                || (surface < best_surface * (1.0 + 1e-12) && aspect < best_aspect)
            {
                best_surface = surface;
                best_aspect = aspect;
                best = [p1, p2, p3];
            }
        }
    }
    best
}

/// A decomposition whose thinnest rank cannot source a full halo slab.
///
/// `pack_send_slab` ships the `ng` interior layers adjacent to each split
/// face. On a rank whose local extent along that axis is below `ng`, those
/// layers would overlap the *opposite* ghost region, silently sending
/// stale ghost data as if it were interior; on an unsplit axis the
/// boundary fill reads the same `ng` interior layers and the block is
/// refused outright. Such decompositions are a configuration error,
/// rejected before any rank is spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompositionError {
    /// Axis whose blocks are too thin.
    pub axis: usize,
    /// Rank count along that axis.
    pub ranks: usize,
    /// Global cell count along that axis.
    pub global: usize,
    /// Thinnest per-rank extent along that axis (`global / ranks`).
    pub thinnest: usize,
    /// Required halo depth.
    pub ng: usize,
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decomposition leaves axis {} ({} cells over {} ranks) with blocks as thin as \
             {} cells, below the {}-layer halo depth; a ghost fill would read the \
             opposite ghost region",
            self.axis, self.global, self.ranks, self.thinnest, self.ng
        )
    }
}

impl std::error::Error for DecompositionError {}

/// Validate that every rank of a `dims` decomposition of a `global` domain
/// is at least `ng` cells wide along each of the `ndim` active axes.
///
/// The thinnest block along an axis is `global / p` (the remainder goes to
/// the low ranks), so the check is exact, not conservative. Unsplit axes
/// (`p == 1`) are held to it too: their ghost layers are filled from the
/// same `ng` interior layers by the boundary conditions. Axes beyond
/// `ndim` carry no ghosts and are not constrained.
pub fn validate_halo_extents(
    dims: [usize; 3],
    global: [usize; 3],
    ndim: usize,
    ng: usize,
) -> Result<(), DecompositionError> {
    for axis in 0..ndim.min(3) {
        let p = dims[axis].max(1);
        if global[axis] / p < ng {
            return Err(DecompositionError {
                axis,
                ranks: p,
                global: global[axis],
                thinnest: global[axis] / p,
                ng,
            });
        }
    }
    Ok(())
}

/// A cartesian topology over `size = p1*p2*p3` ranks.
///
/// Rank ordering is x-fastest: `rank = c1 + p1*(c2 + p2*c3)`.
#[derive(Debug, Clone)]
pub struct CartComm {
    dims: [usize; 3],
    periodic: [bool; 3],
    rank: usize,
}

impl CartComm {
    pub fn new(rank: usize, dims: [usize; 3], periodic: [bool; 3]) -> Self {
        let size = dims[0] * dims[1] * dims[2];
        assert!(rank < size, "rank {rank} outside {dims:?} topology");
        CartComm {
            dims,
            periodic,
            rank,
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's coordinates in the topology.
    pub fn coords(&self) -> [usize; 3] {
        let [p1, p2, _] = self.dims;
        [self.rank % p1, (self.rank / p1) % p2, self.rank / (p1 * p2)]
    }

    /// Rank at the given coordinates.
    pub fn rank_of(&self, coords: [usize; 3]) -> usize {
        let [p1, p2, p3] = self.dims;
        debug_assert!(coords[0] < p1 && coords[1] < p2 && coords[2] < p3);
        coords[0] + p1 * (coords[1] + p2 * coords[2])
    }

    /// Neighbour along `axis` in direction `dir` (-1 or +1), or `None` at a
    /// non-periodic boundary (`MPI_Cart_shift` returning `MPI_PROC_NULL`).
    pub fn neighbor(&self, axis: usize, dir: i32) -> Option<usize> {
        assert!(axis < 3 && (dir == 1 || dir == -1));
        let mut c = self.coords();
        let p = self.dims[axis];
        let cur = c[axis] as i64 + dir as i64;
        let wrapped = if cur < 0 || cur >= p as i64 {
            if !self.periodic[axis] {
                return None;
            }
            ((cur % p as i64) + p as i64) as usize % p
        } else {
            cur as usize
        };
        c[axis] = wrapped;
        Some(self.rank_of(c))
    }

    /// Split a global extent into this rank's `(offset, length)` along
    /// `axis`, distributing the remainder to the low ranks (MPC convention).
    pub fn local_extent(&self, axis: usize, global: usize) -> (usize, usize) {
        let p = self.dims[axis];
        let c = self.coords()[axis];
        let base = global / p;
        let rem = global % p;
        let len = base + usize::from(c < rem);
        let offset = c * base + c.min(rem);
        (offset, len)
    }
}

/// The `(offset, extent)` cell block a rank owns under a decomposition:
/// `local_extent` applied per axis for the first `ndim` axes, with the
/// trailing degenerate axes pinned to `(0, 1)` exactly as the distributed
/// drivers lay ranks out. A pure function of `(rank, dims)`, so recovery
/// code can locate *another* rank's checkpoint shard — including ranks of
/// a decomposition that no longer exists after a shrink.
pub fn block_extents(
    rank: usize,
    dims: [usize; 3],
    global: [usize; 3],
    ndim: usize,
) -> ([usize; 3], [usize; 3]) {
    let cart = CartComm::new(rank, dims, [false; 3]);
    let mut off = [0usize; 3];
    let mut n = [1usize; 3];
    for d in 0..ndim {
        let (o, len) = cart.local_extent(d, global[d]);
        off[d] = o;
        n[d] = len;
    }
    (off, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_dims_prefers_cubes_for_cubic_domains() {
        assert_eq!(best_block_dims(8, [256, 256, 256]), [2, 2, 2]);
        assert_eq!(best_block_dims(64, [512, 512, 512]), [4, 4, 4]);
    }

    #[test]
    fn best_dims_respects_anisotropy() {
        // A domain long in x should be split along x first.
        let d = best_block_dims(4, [1024, 32, 32]);
        assert_eq!(d, [4, 1, 1]);
    }

    #[test]
    fn best_dims_handles_2d_domains() {
        let d = best_block_dims(16, [512, 512, 1]);
        assert_eq!(d[2], 1);
        assert_eq!(d[0] * d[1], 16);
    }

    #[test]
    fn coords_round_trip() {
        let dims = [3, 4, 5];
        for rank in 0..60 {
            let c = CartComm::new(rank, dims, [false; 3]);
            assert_eq!(c.rank_of(c.coords()), rank);
        }
    }

    #[test]
    fn neighbors_in_non_periodic_topology() {
        let c = CartComm::new(0, [2, 2, 1], [false; 3]);
        assert_eq!(c.neighbor(0, 1), Some(1));
        assert_eq!(c.neighbor(0, -1), None);
        assert_eq!(c.neighbor(1, 1), Some(2));
        assert_eq!(c.neighbor(2, 1), None);
    }

    #[test]
    fn neighbors_wrap_when_periodic() {
        let c = CartComm::new(0, [3, 1, 1], [true, false, false]);
        assert_eq!(c.neighbor(0, -1), Some(2));
        assert_eq!(c.neighbor(0, 1), Some(1));
    }

    #[test]
    fn local_extents_tile_the_axis_exactly() {
        let dims = [4, 1, 1];
        let global = 103; // deliberately not divisible
        let mut covered = vec![false; global];
        for rank in 0..4 {
            let c = CartComm::new(rank, dims, [false; 3]);
            let (off, len) = c.local_extent(0, global);
            for (i, cell) in covered.iter_mut().enumerate().skip(off).take(len) {
                assert!(!*cell, "cell {i} covered twice");
                *cell = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn thin_rank_decompositions_are_rejected() {
        // Regression (thin-rank halo bug): a 2-cell-wide rank under a
        // 3-layer halo would pack ghost cells into its send slab.
        let err = validate_halo_extents([4, 1, 1], [8, 8, 1], 2, 3).unwrap_err();
        assert_eq!(err.axis, 0);
        assert_eq!(err.thinnest, 2);
        assert_eq!(err.ng, 3);
        // 1-cell-wide ranks fail too.
        assert!(validate_halo_extents([1, 8, 1], [16, 8, 1], 2, 2).is_err());
        // Exactly ng cells per rank is fine, as are inactive axes.
        assert!(validate_halo_extents([4, 1, 1], [12, 8, 1], 2, 3).is_ok());
        // The remainder convention means global/p is the thinnest block:
        // 13 cells over 4 ranks -> 4,3,3,3, rejected at ng=4 not ng=3.
        assert!(validate_halo_extents([4, 1, 1], [13, 1, 1], 1, 3).is_ok());
        assert!(validate_halo_extents([4, 1, 1], [13, 1, 1], 1, 4).is_err());
    }

    #[test]
    fn thin_unsplit_active_axes_are_rejected() {
        // Regression: a single rank with fewer interior cells than ghost
        // layers passed here and then panicked in `Domain::new`.
        let err = validate_halo_extents([1, 1, 1], [2, 1, 1], 1, 3).unwrap_err();
        assert_eq!((err.axis, err.ranks, err.thinnest), (0, 1, 2));
        assert!(validate_halo_extents([1, 1, 1], [3, 1, 1], 1, 3).is_ok());
        // The thin axis of a 2-D case counts; the unused third does not.
        let err = validate_halo_extents([2, 1, 1], [64, 2, 1], 2, 3).unwrap_err();
        assert_eq!(err.axis, 1);
        assert!(validate_halo_extents([2, 1, 1], [64, 3, 1], 2, 3).is_ok());
    }

    #[test]
    fn block_extents_tile_the_domain_exactly() {
        let dims = [2, 3, 1];
        let global = [10, 7, 1];
        let mut covered = [false; 70];
        for rank in 0..6 {
            let (off, n) = block_extents(rank, dims, global, 2);
            assert_eq!(off[2], 0);
            assert_eq!(n[2], 1);
            for j in off[1]..off[1] + n[1] {
                for i in off[0]..off[0] + n[0] {
                    let idx = j * 10 + i;
                    assert!(!covered[idx], "cell ({i},{j}) covered twice");
                    covered[idx] = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn remainder_goes_to_low_ranks() {
        let c0 = CartComm::new(0, [3, 1, 1], [false; 3]);
        let c2 = CartComm::new(2, [3, 1, 1], [false; 3]);
        assert_eq!(c0.local_extent(0, 10), (0, 4));
        assert_eq!(c2.local_extent(0, 10), (7, 3));
    }
}
