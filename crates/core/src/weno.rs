//! WENO reconstruction (Jiang–Shu), the most expensive kernel family.
//!
//! Reconstruction is componentwise on primitive variables, line-by-line
//! along the sweep direction, exactly like MFC.  The field-level kernel
//! consumes a direction-coalesced [`Flat4D`] buffer so the stencil reads
//! are unit-stride — the access pattern whose absence costs 10x (§III-C).

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};
use mfc_layout::Flat4D;
use serde::{Deserialize, Serialize};

/// Reconstruction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WenoOrder {
    /// Piecewise-constant (first-order) — baseline and fallback.
    First,
    /// Third-order WENO, 2 ghost layers.
    Weno3,
    /// Fifth-order WENO with Jiang–Shu weights, 3 ghost layers.
    Weno5,
    /// Fifth-order WENO-Z (Borges et al.): the tau-5 global smoothness
    /// ratio keeps fifth order at smooth critical points, where classic
    /// JS weights degrade.
    Weno5Z,
    /// Fifth-order mapped WENO (WENO-M, Henrick et al.): Jiang-Shu
    /// weights pushed through a mapping that restores the optimal weights
    /// faster near smooth extrema. MFC exposes exactly this trio
    /// (wenojs / wenom / wenoz).
    Weno5M,
}

impl WenoOrder {
    /// Ghost layers the stencil needs on each side.
    pub fn ghost_layers(self) -> usize {
        match self {
            WenoOrder::First => 1,
            WenoOrder::Weno3 => 2,
            WenoOrder::Weno5 | WenoOrder::Weno5Z | WenoOrder::Weno5M => 3,
        }
    }

    /// Approximate FLOPs per reconstructed face value (both sides),
    /// counted from the arithmetic below; feeds the roofline ledger.
    pub fn flops_per_face(self) -> f64 {
        match self {
            WenoOrder::First => 2.0,
            WenoOrder::Weno3 => 2.0 * 26.0,
            WenoOrder::Weno5 => 2.0 * 72.0,
            WenoOrder::Weno5Z => 2.0 * 78.0,
            WenoOrder::Weno5M => 2.0 * 92.0,
        }
    }
}

/// Jiang–Shu smoothness regularization.
const EPS: f64 = 1e-6;

/// Fifth-order upwind-biased value at the right face of the center cell,
/// from the five cell averages `v[0..5]` (center at `v[2]`).
///
/// Generic over [`Lane`] — like every face function here — with scalar
/// literals broadcast via `splat` around the identical op sequence, so
/// each packed lane computes bitwise the `f64` result for its face.
#[inline(always)]
pub fn weno5_face<L: Lane>(v: &[L; 5]) -> L {
    // Candidate stencil reconstructions at x_{i+1/2}.
    let q0 = (L::splat(2.0) * v[0] - L::splat(7.0) * v[1] + L::splat(11.0) * v[2]) / L::splat(6.0);
    let q1 = (-v[1] + L::splat(5.0) * v[2] + L::splat(2.0) * v[3]) / L::splat(6.0);
    let q2 = (L::splat(2.0) * v[2] + L::splat(5.0) * v[3] - v[4]) / L::splat(6.0);
    // Smoothness indicators.
    let b0 = L::splat(13.0 / 12.0) * sq(v[0] - L::splat(2.0) * v[1] + v[2])
        + L::splat(0.25) * sq(v[0] - L::splat(4.0) * v[1] + L::splat(3.0) * v[2]);
    let b1 = L::splat(13.0 / 12.0) * sq(v[1] - L::splat(2.0) * v[2] + v[3])
        + L::splat(0.25) * sq(v[1] - v[3]);
    let b2 = L::splat(13.0 / 12.0) * sq(v[2] - L::splat(2.0) * v[3] + v[4])
        + L::splat(0.25) * sq(L::splat(3.0) * v[2] - L::splat(4.0) * v[3] + v[4]);
    // Nonlinear weights from the optimal linear weights (1/10, 6/10, 3/10).
    let a0 = L::splat(0.1) / sq(L::splat(EPS) + b0);
    let a1 = L::splat(0.6) / sq(L::splat(EPS) + b1);
    let a2 = L::splat(0.3) / sq(L::splat(EPS) + b2);
    (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2)
}

/// WENO-Z regularization (larger than JS's to keep the tau ratio clean).
const EPS_Z: f64 = 1e-40;

/// Fifth-order WENO-Z value at the right face of the center cell.
#[inline(always)]
pub fn weno5z_face<L: Lane>(v: &[L; 5]) -> L {
    let q0 = (L::splat(2.0) * v[0] - L::splat(7.0) * v[1] + L::splat(11.0) * v[2]) / L::splat(6.0);
    let q1 = (-v[1] + L::splat(5.0) * v[2] + L::splat(2.0) * v[3]) / L::splat(6.0);
    let q2 = (L::splat(2.0) * v[2] + L::splat(5.0) * v[3] - v[4]) / L::splat(6.0);
    let b0 = L::splat(13.0 / 12.0) * sq(v[0] - L::splat(2.0) * v[1] + v[2])
        + L::splat(0.25) * sq(v[0] - L::splat(4.0) * v[1] + L::splat(3.0) * v[2]);
    let b1 = L::splat(13.0 / 12.0) * sq(v[1] - L::splat(2.0) * v[2] + v[3])
        + L::splat(0.25) * sq(v[1] - v[3]);
    let b2 = L::splat(13.0 / 12.0) * sq(v[2] - L::splat(2.0) * v[3] + v[4])
        + L::splat(0.25) * sq(L::splat(3.0) * v[2] - L::splat(4.0) * v[3] + v[4]);
    // Global fifth-order smoothness indicator.
    let tau5 = (b0 - b2).abs();
    let a0 = L::splat(0.1) * (L::splat(1.0) + tau5 / (b0 + L::splat(EPS_Z)));
    let a1 = L::splat(0.6) * (L::splat(1.0) + tau5 / (b1 + L::splat(EPS_Z)));
    let a2 = L::splat(0.3) * (L::splat(1.0) + tau5 / (b2 + L::splat(EPS_Z)));
    (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2)
}

/// Henrick's mapping: pulls a nonlinear weight toward its optimal value
/// `g` at fifth order, `g_k(w) = w (g + g^2 - 3 g w + w^2) / (g^2 + w (1 - 2 g))`.
#[inline(always)]
fn henrick_map<L: Lane>(w: L, g: f64) -> L {
    // The scalar-only subexpressions (`g + g*g`, `3g`, `g*g`, `1 - 2g`)
    // are splat after evaluation: float ops on the scalar constant are
    // deterministic, so this matches the inline scalar evaluation order.
    w * (L::splat(g + g * g) - L::splat(3.0 * g) * w + w * w)
        / (L::splat(g * g) + w * L::splat(1.0 - 2.0 * g))
}

/// Fifth-order mapped WENO (WENO-M) value at the right face of the
/// center cell.
#[inline(always)]
pub fn weno5m_face<L: Lane>(v: &[L; 5]) -> L {
    let q0 = (L::splat(2.0) * v[0] - L::splat(7.0) * v[1] + L::splat(11.0) * v[2]) / L::splat(6.0);
    let q1 = (-v[1] + L::splat(5.0) * v[2] + L::splat(2.0) * v[3]) / L::splat(6.0);
    let q2 = (L::splat(2.0) * v[2] + L::splat(5.0) * v[3] - v[4]) / L::splat(6.0);
    let b0 = L::splat(13.0 / 12.0) * sq(v[0] - L::splat(2.0) * v[1] + v[2])
        + L::splat(0.25) * sq(v[0] - L::splat(4.0) * v[1] + L::splat(3.0) * v[2]);
    let b1 = L::splat(13.0 / 12.0) * sq(v[1] - L::splat(2.0) * v[2] + v[3])
        + L::splat(0.25) * sq(v[1] - v[3]);
    let b2 = L::splat(13.0 / 12.0) * sq(v[2] - L::splat(2.0) * v[3] + v[4])
        + L::splat(0.25) * sq(L::splat(3.0) * v[2] - L::splat(4.0) * v[3] + v[4]);
    // JS weights first...
    let a0 = L::splat(0.1) / sq(L::splat(EPS) + b0);
    let a1 = L::splat(0.6) / sq(L::splat(EPS) + b1);
    let a2 = L::splat(0.3) / sq(L::splat(EPS) + b2);
    let sum = a0 + a1 + a2;
    // ...then the Henrick map and renormalization.
    let m0 = henrick_map(a0 / sum, 0.1);
    let m1 = henrick_map(a1 / sum, 0.6);
    let m2 = henrick_map(a2 / sum, 0.3);
    (m0 * q0 + m1 * q1 + m2 * q2) / (m0 + m1 + m2)
}

/// Third-order variant from three cell averages (center at `v[1]`).
#[inline(always)]
pub fn weno3_face<L: Lane>(v: &[L; 3]) -> L {
    let q0 = (-v[0] + L::splat(3.0) * v[1]) / L::splat(2.0);
    let q1 = (v[1] + v[2]) / L::splat(2.0);
    let b0 = sq(v[1] - v[0]);
    let b1 = sq(v[2] - v[1]);
    let a0 = L::splat(1.0 / 3.0) / sq(L::splat(EPS) + b0);
    let a1 = L::splat(2.0 / 3.0) / sq(L::splat(EPS) + b1);
    (a0 * q0 + a1 * q1) / (a0 + a1)
}

#[inline(always)]
fn sq<L: Lane>(x: L) -> L {
    x * x
}

/// Reconstruct left/right states at every face of one padded line.
///
/// `v` holds `n + 2*ng` cell values (`ng = order.ghost_layers()`);
/// `left[m]`/`right[m]` receive the states on either side of face `m`
/// (between padded cells `ng-1+m` and `ng+m`) for `m in 0..=n`.
pub fn reconstruct_line(
    order: WenoOrder,
    v: &[f64],
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
) {
    let ng = order.ghost_layers();
    assert_eq!(v.len(), n + 2 * ng, "padded line length mismatch");
    reconstruct_line_padded(order, v, ng, n, left, right);
}

/// [`reconstruct_line`] with an explicit pad width, which may exceed the
/// stencil's ghost requirement (a WENO5-sized line temporarily degraded to
/// WENO3 by the recovery ladder): the stencil just ignores the extra
/// layers. This is the per-pencil entry point of the fused sweep engine at
/// every lane width; it runs the exact same face arithmetic as the staged
/// field kernel.
///
/// The order is matched once per line and each arm is a plain loop over
/// the line's stencil windows with no index arithmetic or bounds check
/// left inside — the shape LLVM's loop vectoriser turns into packed
/// arithmetic at the host's width. Explicit lane packets
/// ([`face_pair`] at a packed `L`) ran the fused WENO stage 1.3–1.4x
/// slower than that on the bench host, and lanes cannot change a value,
/// so the fused engine does not use them here.
pub fn reconstruct_line_padded(
    order: WenoOrder,
    v: &[f64],
    pad: usize,
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
) {
    assert!(
        pad >= order.ghost_layers(),
        "line pad {pad} narrower than the stencil"
    );
    assert_eq!(v.len(), n + 2 * pad, "padded line length mismatch");
    assert!(left.len() > n && right.len() > n);
    match order {
        WenoOrder::First => line_faces::<2>(v, pad, n, left, right, |w| (w[0], w[1])),
        WenoOrder::Weno3 => line_faces::<4>(v, pad, n, left, right, pair3),
        WenoOrder::Weno5 => line_faces::<6>(v, pad, n, left, right, |w| pair5(w, weno5_face)),
        WenoOrder::Weno5Z => line_faces::<6>(v, pad, n, left, right, |w| pair5(w, weno5z_face)),
        WenoOrder::Weno5M => line_faces::<6>(v, pad, n, left, right, |w| pair5(w, weno5m_face)),
    }
}

/// Faces `0..=n` of a padded line from its `K`-cell stencil windows:
/// window `m` is cells `c - K/2 + 1 ..= c + K/2` around the face's left
/// cell `c = pad - 1 + m`.
#[inline(always)]
fn line_faces<const K: usize>(
    v: &[f64],
    pad: usize,
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
    pair: impl Fn(&[f64; K]) -> (f64, f64),
) {
    let cells = &v[pad - K / 2..][..n + K];
    for ((w, l), r) in cells.windows(K).zip(&mut left[..=n]).zip(&mut right[..=n]) {
        let w: &[f64; K] = w.try_into().expect("windows(K) yields K cells");
        (*l, *r) = pair(w);
    }
}

/// Left/right WENO3 values at a face from its 4-cell window (the right
/// state is the mirrored stencil).
#[inline(always)]
fn pair3<L: Lane>(w: &[L; 4]) -> (L, L) {
    (
        weno3_face(&[w[0], w[1], w[2]]),
        weno3_face(&[w[3], w[2], w[1]]),
    )
}

/// Left/right fifth-order values at a face from its 6-cell window, for
/// any of the three fifth-order `face` functions.
#[inline(always)]
fn pair5<L: Lane>(w: &[L; 6], face: impl Fn(&[L; 5]) -> L) -> (L, L) {
    (
        face(&[w[0], w[1], w[2], w[3], w[4]]),
        face(&[w[5], w[4], w[3], w[2], w[1]]),
    )
}

/// Field-level WENO sweep: reconstruct every variable along every line of a
/// direction-coalesced buffer.
///
/// `packed` has extents `(n + 2*ng, m2, m3, nv)`; `left`/`right` receive
/// `(n + 1, m2, m3, nv)` face states.  One ledger item = one face of one
/// variable (what a device thread computes).
pub fn reconstruct_sweep(
    ctx: &Context,
    order: WenoOrder,
    packed: &Flat4D,
    n: usize,
    left: &mut Flat4D,
    right: &mut Flat4D,
) {
    let ng = order.ghost_layers();
    let pd = packed.dims();
    // Derive the pad from the buffer so a wider-than-necessary buffer (a
    // WENO5-sized domain temporarily degraded to WENO3 by the recovery
    // ladder) reconstructs in place: the stencil just ignores the extra
    // ghost layers.
    assert!(
        pd.n1 > n && (pd.n1 - n).is_multiple_of(2),
        "packed extent {} incompatible with {n} interior cells",
        pd.n1
    );
    let pad = (pd.n1 - n) / 2;
    assert!(
        pad >= ng,
        "packed pad {pad} narrower than the {ng}-layer stencil"
    );
    let nlines = pd.n2 * pd.n3 * pd.n4;
    let fd = left.dims();
    assert_eq!((fd.n1, fd.n2, fd.n3, fd.n4), (n + 1, pd.n2, pd.n3, pd.n4));
    assert_eq!(right.dims(), left.dims());

    let cost = KernelCost::new(
        KernelClass::Weno,
        order.flops_per_face(),
        8.0 * (2 * ng + 1) as f64, // stencil footprint per face
        2.0 * 8.0,                 // left + right
    );
    let cfg = LaunchConfig::tuned("s_weno_reconstruct");
    // Lane-tiled launch: one row per line, lanes packed along the face
    // index (the unit-stride direction of the coalesced buffer), exactly
    // the `vector`-level mapping of the paper's gang/vector kernels. Item
    // count and ordering match the scalar launch, so the ledger is
    // unchanged and the outputs are bitwise identical at every width.
    let kernel = WenoSweepKernel {
        order,
        src: packed.as_slice(),
        lout: ParSlice::new(left.as_mut_slice()),
        rout: ParSlice::new(right.as_mut_slice()),
        ext: pd.n1,
        nf1: fd.n1,
        pad,
    };
    ctx.launch_vec(&cfg, cost, nlines, n + 1, &kernel);
}

/// Lane kernel of [`reconstruct_sweep`]: row = line, col = face index.
struct WenoSweepKernel<'a> {
    order: WenoOrder,
    src: &'a [f64],
    lout: ParSlice<'a>,
    rout: ParSlice<'a>,
    /// Padded line extent of `src`.
    ext: usize,
    /// Face-line extent of the outputs.
    nf1: usize,
    pad: usize,
}

impl LaneKernel for WenoSweepKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, line: usize, m: usize) {
        let v = &self.src[line * self.ext..(line + 1) * self.ext];
        let (lv, rv) = face_pair::<L>(self.order, v, self.pad - 1 + m);
        self.lout.set_lanes(line * self.nf1 + m, lv);
        self.rout.set_lanes(line * self.nf1 + m, rv);
    }
}

/// Left/right reconstructed values at face `m` of a padded line, with the
/// center cell at `c = pad - 1 + m` — the single per-face arithmetic both
/// the full and region-restricted sweeps share.
///
/// At a packed width each stencil slot becomes one unit-stride lane load
/// at its offset from `c`, so lane `i` sees exactly the scalar stencil of
/// face `m + i`. The furthest slots are `c - 2` and `c + 3` (WENO5), which
/// stay inside the `pad >= ghost_layers()` padding for every full packet
/// the sweeps tile (`m + WIDTH - 1 <= n`).
#[inline(always)]
fn face_pair<L: Lane>(order: WenoOrder, v: &[f64], c: usize) -> (L, L) {
    let at = |d: isize| L::load(&v[(c as isize + d) as usize..]);
    match order {
        WenoOrder::First => (at(0), at(1)),
        WenoOrder::Weno3 => pair3(&[at(-1), at(0), at(1), at(2)]),
        WenoOrder::Weno5 => pair5(&[at(-2), at(-1), at(0), at(1), at(2), at(3)], weno5_face),
        WenoOrder::Weno5Z => pair5(&[at(-2), at(-1), at(0), at(1), at(2), at(3)], weno5z_face),
        WenoOrder::Weno5M => pair5(&[at(-2), at(-1), at(0), at(1), at(2), at(3)], weno5m_face),
    }
}

/// Region-restricted [`reconstruct_sweep`]: reconstruct only faces
/// `f_lo..f_lo + f_count` along the sweep axis, on the transverse line
/// window `t1_lo..t1_lo + t1_n` × `t2_lo..t2_lo + t2_n` (padded sweep
/// coordinates), for every variable. Face values land at their absolute
/// indices in `left`/`right` through the identical per-face arithmetic,
/// so the restricted faces are bitwise identical to a full sweep — the
/// overlapped stepping mode builds its interior and shell passes from
/// this.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_sweep_region(
    ctx: &Context,
    order: WenoOrder,
    packed: &Flat4D,
    n: usize,
    f_lo: usize,
    f_count: usize,
    t1_lo: usize,
    t1_n: usize,
    t2_lo: usize,
    t2_n: usize,
    left: &mut Flat4D,
    right: &mut Flat4D,
) {
    let ng = order.ghost_layers();
    let pd = packed.dims();
    assert!(
        pd.n1 > n && (pd.n1 - n).is_multiple_of(2),
        "packed extent {} incompatible with {n} interior cells",
        pd.n1
    );
    let pad = (pd.n1 - n) / 2;
    assert!(
        pad >= ng,
        "packed pad {pad} narrower than the {ng}-layer stencil"
    );
    assert!(f_lo + f_count <= n + 1, "face window outside the sweep");
    assert!(t1_lo + t1_n <= pd.n2 && t2_lo + t2_n <= pd.n3);
    let fd = left.dims();
    assert_eq!((fd.n1, fd.n2, fd.n3, fd.n4), (n + 1, pd.n2, pd.n3, pd.n4));
    assert_eq!(right.dims(), left.dims());
    if f_count == 0 || t1_n == 0 || t2_n == 0 {
        return;
    }

    let cost = KernelCost::new(
        KernelClass::Weno,
        order.flops_per_face(),
        8.0 * (2 * ng + 1) as f64,
        2.0 * 8.0,
    );
    let cfg = LaunchConfig::tuned("s_weno_reconstruct");
    let rlines = t1_n * t2_n * pd.n4;
    // Same lane mapping as the full sweep: rows are restricted lines,
    // lanes pack along the face window, packets never leave it.
    let kernel = WenoRegionKernel {
        order,
        src: packed.as_slice(),
        lout: ParSlice::new(left.as_mut_slice()),
        rout: ParSlice::new(right.as_mut_slice()),
        ext: pd.n1,
        nf1: fd.n1,
        pad,
        f_lo,
        t1_lo,
        t1_n,
        t2_lo,
        t2_n,
        n2: pd.n2,
        n3: pd.n3,
    };
    ctx.launch_vec(&cfg, cost, rlines, f_count, &kernel);
}

/// Lane kernel of [`reconstruct_sweep_region`]: row = restricted line
/// index, col = offset into the face window.
struct WenoRegionKernel<'a> {
    order: WenoOrder,
    src: &'a [f64],
    lout: ParSlice<'a>,
    rout: ParSlice<'a>,
    ext: usize,
    nf1: usize,
    pad: usize,
    f_lo: usize,
    t1_lo: usize,
    t1_n: usize,
    t2_lo: usize,
    t2_n: usize,
    n2: usize,
    n3: usize,
}

impl LaneKernel for WenoRegionKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, lr: usize, col: usize) {
        let m = self.f_lo + col;
        let t1i = self.t1_lo + lr % self.t1_n;
        let rest = lr / self.t1_n;
        let t2i = self.t2_lo + rest % self.t2_n;
        let e = rest / self.t2_n;
        let line = t1i + self.n2 * (t2i + self.n3 * e);
        let v = &self.src[line * self.ext..(line + 1) * self.ext];
        let (lv, rv) = face_pair::<L>(self.order, v, self.pad - 1 + m);
        self.lout.set_lanes(line * self.nf1 + m, lv);
        self.rout.set_lanes(line * self.nf1 + m, rv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_layout::Dims4;

    /// Cell average of `f` over `[a, b]` via Simpson (plenty for tests).
    fn cell_avg(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
        (f(a) + 4.0 * f(0.5 * (a + b)) + f(b)) / 6.0
    }

    fn weno_line_error(order: WenoOrder, n: usize, f: impl Fn(f64) -> f64 + Copy) -> f64 {
        let ng = order.ghost_layers();
        let h = 1.0 / n as f64;
        let v: Vec<f64> = (0..n + 2 * ng)
            .map(|i| {
                let a = (i as f64 - ng as f64) * h;
                cell_avg(f, a, a + h)
            })
            .collect();
        let mut left = vec![0.0; n + 1];
        let mut right = vec![0.0; n + 1];
        reconstruct_line(order, &v, n, &mut left, &mut right);
        // Compare to exact face values.
        (0..=n)
            .map(|m| {
                let x = m as f64 * h;
                (left[m] - f(x)).abs().max((right[m] - f(x)).abs())
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn weno5_exact_for_quadratics() {
        // Every 3-cell candidate reconstructs quadratics exactly from cell
        // averages, so the nonlinear combination is exact too.
        let err = weno_line_error(WenoOrder::Weno5, 16, |x| 3.0 * x * x - 2.0 * x + 1.0);
        assert!(err < 1e-12, "err = {err}");
    }

    #[test]
    fn weno3_exact_for_linear() {
        let err = weno_line_error(WenoOrder::Weno3, 16, |x| 4.0 * x - 7.0);
        assert!(err < 1e-12, "err = {err}");
    }

    #[test]
    fn weno5_converges_at_high_order() {
        let f = |x: f64| (2.0 * std::f64::consts::PI * x).sin();
        let e1 = weno_line_error(WenoOrder::Weno5, 32, f);
        let e2 = weno_line_error(WenoOrder::Weno5, 64, f);
        let rate = (e1 / e2).log2();
        assert!(rate > 4.0, "observed rate {rate} (e1={e1}, e2={e2})");
    }

    #[test]
    fn weno3_converges_at_third_order() {
        let f = |x: f64| (2.0 * std::f64::consts::PI * x).sin();
        let e1 = weno_line_error(WenoOrder::Weno3, 64, f);
        let e2 = weno_line_error(WenoOrder::Weno3, 128, f);
        let rate = (e1 / e2).log2();
        assert!(rate > 2.0, "observed rate {rate}");
    }

    #[test]
    fn weno5_is_essentially_non_oscillatory_at_a_step() {
        let n = 32;
        let ng = 3;
        let v: Vec<f64> = (0..n + 2 * ng)
            .map(|i| if i < (n + 2 * ng) / 2 { 1.0 } else { 0.0 })
            .collect();
        let mut left = vec![0.0; n + 1];
        let mut right = vec![0.0; n + 1];
        reconstruct_line(WenoOrder::Weno5, &v, n, &mut left, &mut right);
        for m in 0..=n {
            assert!(
                left[m] > -1e-6 && left[m] < 1.0 + 1e-6,
                "left[{m}]={}",
                left[m]
            );
            assert!(right[m] > -1e-6 && right[m] < 1.0 + 1e-6);
        }
    }

    #[test]
    fn constant_states_reconstruct_exactly() {
        for order in [
            WenoOrder::First,
            WenoOrder::Weno3,
            WenoOrder::Weno5,
            WenoOrder::Weno5Z,
            WenoOrder::Weno5M,
        ] {
            let ng = order.ghost_layers();
            let n = 8;
            let v = vec![5.5; n + 2 * ng];
            let mut l = vec![0.0; n + 1];
            let mut r = vec![0.0; n + 1];
            reconstruct_line(order, &v, n, &mut l, &mut r);
            assert!(l.iter().chain(r.iter()).all(|&x| (x - 5.5).abs() < 1e-13));
        }
    }

    #[test]
    fn wenoz_converges_at_fifth_order() {
        let f = |x: f64| (2.0 * std::f64::consts::PI * x).sin();
        let e1 = weno_line_error(WenoOrder::Weno5Z, 32, f);
        let e2 = weno_line_error(WenoOrder::Weno5Z, 64, f);
        let rate = (e1 / e2).log2();
        assert!(rate > 4.3, "observed rate {rate} (e1={e1}, e2={e2})");
    }

    #[test]
    fn wenoz_beats_js_at_smooth_critical_points() {
        // f' = f'' = 0 at x = 0.5. At large amplitude the smoothness
        // indicators dwarf JS's epsilon, so its weights genuinely deviate
        // from optimal there and accuracy degrades; WENO-Z's tau-5 ratio
        // keeps the weights near-optimal. (At small amplitudes JS hides
        // behind epsilon = 1e-6 and both are fine.)
        let amp = 1.0e4;
        let f = move |x: f64| amp * (x - 0.5).powi(3) + 0.1 * amp;
        let e_js = weno_line_error(WenoOrder::Weno5, 32, f) / amp;
        let e_z = weno_line_error(WenoOrder::Weno5Z, 32, f) / amp;
        assert!(e_z < e_js * 0.8, "Z {e_z} vs JS {e_js}");
    }

    #[test]
    fn wenom_converges_at_fifth_order_and_maps_are_consistent() {
        // The Henrick map is the identity at the optimal weights.
        for g in [0.1, 0.6, 0.3] {
            assert!((henrick_map(g, g) - g).abs() < 1e-14);
        }
        let f = |x: f64| (2.0 * std::f64::consts::PI * x).sin();
        let e1 = weno_line_error(WenoOrder::Weno5M, 32, f);
        let e2 = weno_line_error(WenoOrder::Weno5M, 64, f);
        let rate = (e1 / e2).log2();
        assert!(rate > 4.3, "observed rate {rate}");
    }

    #[test]
    fn wenom_is_essentially_non_oscillatory_at_a_step() {
        let n = 32;
        let ng = 3;
        let v: Vec<f64> = (0..n + 2 * ng)
            .map(|i| if i < (n + 2 * ng) / 2 { 2.0 } else { -1.0 })
            .collect();
        let mut left = vec![0.0; n + 1];
        let mut right = vec![0.0; n + 1];
        reconstruct_line(WenoOrder::Weno5M, &v, n, &mut left, &mut right);
        for m in 0..=n {
            assert!(left[m] > -1.04 && left[m] < 2.04, "left[{m}]={}", left[m]);
            assert!(right[m] > -1.04 && right[m] < 2.04);
        }
    }

    #[test]
    fn wenoz_is_essentially_non_oscillatory_at_a_step() {
        let n = 32;
        let ng = 3;
        let v: Vec<f64> = (0..n + 2 * ng)
            .map(|i| if i < (n + 2 * ng) / 2 { 1.0 } else { 0.0 })
            .collect();
        let mut left = vec![0.0; n + 1];
        let mut right = vec![0.0; n + 1];
        reconstruct_line(WenoOrder::Weno5Z, &v, n, &mut left, &mut right);
        for m in 0..=n {
            assert!(left[m] > -0.01 && left[m] < 1.01, "left[{m}]={}", left[m]);
            assert!(right[m] > -0.01 && right[m] < 1.01);
        }
    }

    #[test]
    fn sweep_kernel_matches_line_function() {
        let n = 12;
        let ng = 3;
        let dims = Dims4::new(n + 2 * ng, 3, 2, 2);
        let packed = Flat4D::from_fn(dims, |i1, i2, i3, i4| {
            ((i1 * 7 + i2 * 3 + i3 * 11 + i4 * 5) % 13) as f64 * 0.5
        });
        let fdims = Dims4::new(n + 1, 3, 2, 2);
        let mut left = Flat4D::zeros(fdims);
        let mut right = Flat4D::zeros(fdims);
        let ctx = Context::serial();
        reconstruct_sweep(&ctx, WenoOrder::Weno5, &packed, n, &mut left, &mut right);

        let mut lref = vec![0.0; n + 1];
        let mut rref = vec![0.0; n + 1];
        for i4 in 0..2 {
            for i3 in 0..2 {
                for i2 in 0..3 {
                    reconstruct_line(
                        WenoOrder::Weno5,
                        packed.line(i2, i3, i4),
                        n,
                        &mut lref,
                        &mut rref,
                    );
                    for m in 0..=n {
                        assert_eq!(left.get(m, i2, i3, i4), lref[m]);
                        assert_eq!(right.get(m, i2, i3, i4), rref[m]);
                    }
                }
            }
        }
        // Ledger saw one item per face per line.
        let stats = ctx.ledger().kernel("s_weno_reconstruct").unwrap();
        assert_eq!(stats.items as usize, (n + 1) * 3 * 2 * 2);
    }
}
