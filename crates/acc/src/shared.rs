//! Disjoint-write shared views for gang-parallel kernel bodies.
//!
//! A `Fn + Sync` kernel body cannot capture `&mut [f64]`, yet every sweep
//! kernel writes strided slots of a shared output buffer (one face, one
//! cell, one line at a time). [`ParSlice`] is the device-memory analog: a
//! shared view whose slots are written through relaxed atomic stores —
//! plain `mov`s on every 64-bit platform, so the store is the exact bit
//! pattern of the `f64` and the kernel arithmetic is untouched.
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

    /// Lane load of `L::WIDTH` consecutive slots starting at `i`.
    #[inline(always)]
    pub fn get_lanes<L: Lane>(&self, i: usize) -> L {
        L::from_lanes(|lane| self.get(i + lane))
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
}
