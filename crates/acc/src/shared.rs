//! Disjoint-write shared views for gang-parallel kernel bodies.
//!
//! A `Fn + Sync` kernel body cannot capture `&mut [f64]`, yet every sweep
//! kernel writes strided slots of a shared output buffer (one face, one
//! cell, one line at a time). [`ParSlice`] is the device-memory analog: a
//! shared view whose slots are written through relaxed atomic stores —
//! plain `mov`s on every 64-bit platform, so the store is the exact bit
//! pattern of the `f64` and the kernel arithmetic is untouched. It writes
//! lane by lane, though, so a lane packet never becomes one vector store.
//!
//! Which launches use it: every `launch_par` / `launch_vec` body that
//! writes a field (the primitive conversion, the health scan's primitive
//! store, the viscous and axisymmetric RHS kernels, the exec tests), and a
//! [`crate::Context::gang_vec_scope`] /
//! [`crate::Context::gang_vec_units`] launch that forks. Those gang
//! launches take their outputs instead of capturing them and hand each gang
//! an [`AddView`] of them: the buffers themselves (`&mut [f64]`, with
//! vector loads and stores) when the launch runs as one gang on the calling
//! thread, so the exclusive borrow is the compiler's to check, and one
//! `ParSlice` per buffer, shared by every gang, when it forks.
//!
//! The determinism contract matches a device global-memory buffer: each
//! index must be written by **at most one** gang per launch. Under that
//! contract the final buffer contents are independent of gang count and
//! scheduling, which is what makes multi-worker launches bitwise identical
//! to [`crate::Context::serial`]. A violated contract cannot cause UB
//! (every access is atomic) — it shows up as nondeterminism, which the
//! thread-equivalence suite would catch.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::vector::Lane;

// `ParSlice::new` reinterprets `&mut [f64]` as `&[AtomicU64]`; both must
// agree on size and alignment (they do on every target with 64-bit
// atomics).
const _: () = assert!(
    std::mem::size_of::<AtomicU64>() == std::mem::size_of::<f64>()
        && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<f64>()
);

/// A shared, disjoint-write view of an `f64` buffer for gang bodies.
#[derive(Clone, Copy)]
pub struct ParSlice<'a> {
    words: &'a [AtomicU64],
}

impl<'a> ParSlice<'a> {
    /// Borrow `s` as a shared gang-writable view. The `&mut` receiver
    /// guarantees no other live borrow observes the buffer mid-launch.
    #[inline]
    pub fn new(s: &'a mut [f64]) -> Self {
        // SAFETY: AtomicU64 and f64 have identical size and alignment
        // (asserted above), the exclusive borrow is held for 'a, and every
        // subsequent access goes through atomic operations.
        let words = unsafe { &*(s as *mut [f64] as *const [AtomicU64]) };
        ParSlice { words }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read slot `i` (the exact bits last stored).
    #[inline(always)]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.words[i].load(Ordering::Relaxed))
    }

    /// Write slot `i`. At most one gang may write a given slot per launch.
    #[inline(always)]
    pub fn set(&self, i: usize, v: f64) {
        self.words[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// `slot += v` for a slot owned by the calling gang (read-modify-write
    /// without atomicity across gangs — ownership is the contract).
    #[inline(always)]
    pub fn add(&self, i: usize, v: f64) {
        self.set(i, self.get(i) + v);
    }

    /// Lane store into `L::WIDTH` consecutive slots starting at `i`.
    #[inline(always)]
    pub fn set_lanes<L: Lane>(&self, i: usize, v: L) {
        for lane in 0..L::WIDTH {
            self.set(i + lane, v.lane(lane));
        }
    }

    /// Lanewise `+=` into consecutive slots starting at `i`. Lane order is
    /// immaterial: the slots are disjoint.
    #[inline(always)]
    pub fn add_lanes<L: Lane>(&self, i: usize, v: L) {
        for lane in 0..L::WIDTH {
            self.add(i + lane, v.lane(lane));
        }
    }
}

/// A gang body's accumulating view of one launch output: the buffer itself
/// when the launch runs as one gang, a [`ParSlice`] when it forks. Both
/// perform the same `slot + v` per slot, and the same plain store, so a
/// body written once against this trait gives identical bits through
/// either.
pub trait AddView {
    /// `slot i += v`.
    fn add(&mut self, i: usize, v: f64);

    /// Lanewise `+=` into the `L::WIDTH` consecutive slots from `i`.
    fn add_lanes<L: Lane>(&mut self, i: usize, v: L);

    /// `slot i = v`, whatever the slot held.
    fn store(&mut self, i: usize, v: f64);

    /// Lanewise store into the `L::WIDTH` consecutive slots from `i`.
    fn store_lanes<L: Lane>(&mut self, i: usize, v: L);

    /// `slot i + b = f(b, slot i + b)` for every `b < n`: one row of
    /// consecutive slots, `b` ascending.
    fn map_row(&mut self, i: usize, n: usize, f: impl FnMut(usize, f64) -> f64);

    /// `slot i + b += v(b)` for every `b < n`.
    #[inline(always)]
    fn add_row(&mut self, i: usize, n: usize, mut v: impl FnMut(usize) -> f64) {
        self.map_row(i, n, |b, x| x + v(b));
    }
}

/// The one-gang view: plain loads and stores, a lane packet as one vector
/// load, add and store, and a row as one slice.
impl AddView for &mut [f64] {
    #[inline(always)]
    fn add(&mut self, i: usize, v: f64) {
        self[i] += v;
    }

    #[inline(always)]
    fn add_lanes<L: Lane>(&mut self, i: usize, v: L) {
        let dst = &mut self[i..];
        (L::load(dst) + v).store(dst);
    }

    #[inline(always)]
    fn store(&mut self, i: usize, v: f64) {
        self[i] = v;
    }

    #[inline(always)]
    fn store_lanes<L: Lane>(&mut self, i: usize, v: L) {
        v.store(&mut self[i..]);
    }

    #[inline(always)]
    fn map_row(&mut self, i: usize, n: usize, mut f: impl FnMut(usize, f64) -> f64) {
        for (b, d) in self[i..i + n].iter_mut().enumerate() {
            *d = f(b, *d);
        }
    }
}

/// The forked view: each gang adds only into slots it owns.
impl AddView for ParSlice<'_> {
    #[inline(always)]
    fn add(&mut self, i: usize, v: f64) {
        ParSlice::add(self, i, v);
    }

    #[inline(always)]
    fn add_lanes<L: Lane>(&mut self, i: usize, v: L) {
        ParSlice::add_lanes(self, i, v);
    }

    #[inline(always)]
    fn store(&mut self, i: usize, v: f64) {
        ParSlice::set(self, i, v);
    }

    #[inline(always)]
    fn store_lanes<L: Lane>(&mut self, i: usize, v: L) {
        ParSlice::set_lanes(self, i, v);
    }

    #[inline(always)]
    fn map_row(&mut self, i: usize, n: usize, mut f: impl FnMut(usize, f64) -> f64) {
        for b in 0..n {
            self.set(i + b, f(b, self.get(i + b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_bits() {
        let mut buf = vec![0.0f64; 8];
        let v = ParSlice::new(&mut buf);
        for (i, x) in [1.5, -0.0, f64::MIN_POSITIVE, 3.0e300, f64::INFINITY]
            .iter()
            .enumerate()
        {
            v.set(i, *x);
            assert_eq!(v.get(i).to_bits(), x.to_bits());
        }
        v.add(0, 2.5);
        assert_eq!(v.get(0), 4.0);
        assert_eq!(buf[0], 4.0);
    }

    #[test]
    fn concurrent_disjoint_writes_land() {
        let mut buf = vec![0.0f64; 4096];
        let v = ParSlice::new(&mut buf);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in (t..4096).step_by(4) {
                        v.set(i, i as f64);
                    }
                });
            }
        });
        assert!(buf.iter().enumerate().all(|(i, &x)| x == i as f64));
    }

    /// The plain and shared views add, store and map the same bits, lane
    /// packets, rows and single slots alike, at both widths.
    #[test]
    fn plain_and_shared_views_add_identical_bits() {
        fn adds<V: AddView>(mut v: V) {
            v.add_lanes(
                1,
                crate::VecF64::<8>::from_lanes(|l| 0.1 * l as f64 - 1e-17),
            );
            v.add_lanes(3, crate::VecF64::<8>::from_lanes(|l| 1e3 / (l + 1) as f64));
            v.add_lanes(5, 0.3);
            v.add_row(2, 9, |b| (b as f64).sqrt() * 1e-5);
            v.add(12, -0.7);
            v.store_lanes(13, crate::VecF64::<8>::from_lanes(|l| -0.0 * l as f64));
            v.store_lanes(21, 2.5);
            v.store(22, f64::NAN);
            v.map_row(14, 7, |b, x| 0.3 * x + (b as f64).sqrt());
        }
        let start: Vec<f64> = (0..24).map(|i| (i as f64 * 0.77).sin()).collect();
        let (mut plain, mut shared) = (start.clone(), start);
        adds(&mut plain[..]);
        adds(ParSlice::new(&mut shared));
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&shared));
    }
}
