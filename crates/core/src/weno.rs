//! WENO reconstruction (Jiang–Shu), the most expensive kernel family.
//!
//! Reconstruction is componentwise on primitive variables, line-by-line
//! along the sweep direction, exactly like MFC. The line kernel reads a
//! gathered, unit-stride pencil line — the access pattern whose absence
//! costs 10x (§III-C).
//!
//! The arithmetic is per *cell*, like MFC's `s_weno`: one function per
//! order returns the centre cell's (left-face, right-face) values, with
//! the smoothness indicators computed once and shared by both faces and
//! the nonlinear weights carried in common-denominator form — the same
//! weights as the textbook `d_k / (eps + beta_k)^2`, one division per face
//! value instead of seven. The line kernel walks the cells of a line; it
//! is the WENO stage of both sweep loop orders ([`crate::fused`]).

use serde::{Deserialize, Serialize};

use crate::isa::{self, Tier};

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

    /// FLOPs per reconstructed face of one variable (both sides — one
    /// cell evaluation), counted from the per-cell arithmetic below: every
    /// add, subtract, multiply and abs is one operation and a division
    /// four, the weighting of [`crate::riemann::RiemannSolver::flops_per_face`].
    /// Feeds the roofline ledger.
    pub fn flops_per_face(self) -> f64 {
        match self {
            WenoOrder::First => 2.0,
            // 8 shared (2 differences, 2 beta, 4 s) + 2 x (9 + 1 division).
            WenoOrder::Weno3 => 34.0,
            // 35 shared (7 differences, 17 beta, 6 s, 3 P, 2 candidate
            // differences) + 2 x (15 + 1 division).
            WenoOrder::Weno5 => 73.0,
            // As WENO5 with 14 operations of weight factors (tau5, t, P,
            // g) for 9.
            WenoOrder::Weno5Z => 78.0,
            // WENO5 + 2 x (26 + 4 divisions) to normalise and map.
            WenoOrder::Weno5M => 157.0,
        }
    }
}

/// Jiang–Shu smoothness regularization.
const EPS: f64 = 1e-6;

/// WENO-Z regularization (larger than JS's to keep the tau ratio clean).
const EPS_Z: f64 = 1e-40;

/// Optimal linear weights of the three fifth-order candidate stencils,
/// far (fully upwind) stencil first.
const D5: [f64; 3] = [0.1, 0.6, 0.3];

#[inline(always)]
fn sq(x: f64) -> f64 {
    x * x
}

/// `[x1*x2, x0*x2, x0*x1]`: multiplying weights `d_k / x_k` through by
/// `x0*x1*x2` turns them into `d_k * P_k` — the same weights once
/// normalised, with no division.
#[inline(always)]
fn cross_products(x: [f64; 3]) -> [f64; 3] {
    [x[1] * x[2], x[0] * x[2], x[0] * x[1]]
}

/// Offset of a fifth-order face value from the centre cell's average
/// `vc`. The face value is `c1 + w0 (c0 - c1) + w2 (c2 - c1)`: the
/// central candidate corrected toward its neighbours by their normalised
/// weights (`w1` is what is left of one). `lin6` is `6 (c1 - vc)`, `far3`
/// is `3 (c0 - c1)` and `near6` is `6 (c2 - c1)`; `a` are the
/// un-normalised weights, far stencil first. The candidates' common `1/6`
/// rides in the one division, and the weights are normalised before they
/// meet the data, so the offset keeps the magnitude of the data however
/// small the `a_k` are.
#[inline(always)]
fn offset5(lin6: f64, far3: f64, near6: f64, a: [f64; 3]) -> f64 {
    let sixth = 1.0 / 6.0;
    let inv = sixth / (a[0] + a[1] + a[2]);
    lin6 * sixth + (a[0] * inv) * (far3 + far3) + (a[2] * inv) * near6
}

/// The fifth-order skeleton every scheme shares: (left-face, right-face)
/// values of the centre cell `v[2]`.
///
/// Everything is written on the stencil's first differences (MFC's `dvd`
/// on a uniform line), so a constant stencil reconstructs to its value
/// exactly. The smoothness indicators — four times Jiang–Shu's,
/// `13/3 (second difference)^2 + (one-sided slope)^2`; `factors` scales
/// its regularisation by the same 4, which cancels in the normalised
/// weights — are computed once and shared by both faces. `factors` maps
/// them to common-denominator weight factors `g` (`g[k]` belongs to the
/// candidate stencil starting at cell `k`); each side scales them by the
/// optimal weights' ratios to the central one, far stencil first, and
/// `weights` has the last word before [`offset5`] normalises them.
///
/// Mirror symmetry is bitwise: reversing `v` negates and reverses `d`,
/// maps `dd` to `[-dd[2], dd[1], -dd[0]]`, so (with `factors` symmetric)
/// reverses `b` and `g`, swaps `lo` and `hi` with a sign, and thereby
/// turns each side's offset into the exact negative of the other's.
#[inline(always)]
fn cell5(
    v: &[f64; 5],
    factors: impl Fn([f64; 3]) -> [f64; 3],
    weights: impl Fn([f64; 3]) -> [f64; 3],
) -> (f64, f64) {
    let d = [v[1] - v[0], v[2] - v[1], v[3] - v[2], v[4] - v[3]];
    // Second differences about cells 1, 2 and (sign reversed) 3.
    let dd = [d[1] - d[0], d[2] - d[1], d[2] - d[3]];
    let c = 13.0 / 3.0;
    let g = factors([
        c * sq(dd[0]) + sq(3.0 * d[1] - d[0]),
        c * sq(dd[1]) + sq(d[2] + d[1]),
        c * sq(dd[2]) + sq(3.0 * d[2] - d[3]),
    ]);
    // Candidate differences: right face `3 (c0 - c1)` and `6 (c2 - c1)`,
    // left face the same two with the roles swapped.
    let (lo, hi) = (dd[0] - dd[1], dd[1] + dd[2]);
    let (far, near) = (D5[0] / D5[1], D5[2] / D5[1]);
    (
        v[2] - offset5(
            d[2] + 2.0 * d[1],
            hi,
            lo,
            weights([far * g[2], g[1], near * g[0]]),
        ),
        v[2] + offset5(
            d[1] + 2.0 * d[2],
            lo,
            hi,
            weights([far * g[0], g[1], near * g[2]]),
        ),
    )
}

/// Jiang–Shu weight factors `1 / (eps + beta_k)^2` in common-denominator
/// form, from four times the smoothness indicators.
#[inline(always)]
fn js_factors(b4: [f64; 3]) -> [f64; 3] {
    cross_products(b4.map(|b| sq(4.0 * EPS + b)))
}

/// Fifth-order Jiang–Shu reconstruction of one cell from the five cell
/// averages `v` (centre `v[2]`): its (left-face, right-face) values. One
/// division per face value.
#[inline(always)]
pub fn weno5_cell(v: &[f64; 5]) -> (f64, f64) {
    cell5(v, js_factors, |a| a)
}

/// Fifth-order WENO-Z reconstruction of one cell: weights
/// `d_k (1 + tau5 / (beta_k + eps))` in common-denominator form,
/// `d_k (t_k + tau5) P_k` with `t_k = beta_k + eps`.
#[inline(always)]
pub fn weno5z_cell(v: &[f64; 5]) -> (f64, f64) {
    cell5(
        v,
        |b4| {
            // Global fifth-order smoothness indicator.
            let tau5 = (b4[0] - b4[2]).abs();
            let t = b4.map(|b| b + 4.0 * EPS_Z);
            let p = cross_products(t);
            [
                (t[0] + tau5) * p[0],
                (t[1] + tau5) * p[1],
                (t[2] + tau5) * p[2],
            ]
        },
        |a| a,
    )
}

/// Henrick's mapping: pulls a nonlinear weight toward its optimal value
/// `g` at fifth order, `g_k(w) = w (g + g^2 - 3 g w + w^2) / (g^2 + w (1 - 2 g))`.
#[inline(always)]
fn henrick_map(w: f64, g: f64) -> f64 {
    w * ((g + g * g) - (3.0 * g) * w + w * w) / ((g * g) + w * (1.0 - 2.0 * g))
}

/// Fifth-order mapped WENO (WENO-M) reconstruction of one cell: the
/// shared Jiang–Shu factors, normalised per side and pushed through the
/// Henrick map (which keeps its own divisions).
#[inline(always)]
pub fn weno5m_cell(v: &[f64; 5]) -> (f64, f64) {
    cell5(v, js_factors, |a| {
        let inv = 1.0 / (a[0] + a[1] + a[2]);
        [
            henrick_map(a[0] * inv, D5[0]),
            henrick_map(a[1] * inv, D5[1]),
            henrick_map(a[2] * inv, D5[2]),
        ]
    })
}

/// Third-order reconstruction of one cell from three cell averages
/// (centre `v[1]`): its (left-face, right-face) values. The two
/// smoothness indicators are shared by both faces; the candidates are
/// `centre + d_k / 2`, the `1/2` riding in the division.
#[inline(always)]
pub fn weno3_cell(v: &[f64; 3]) -> (f64, f64) {
    let d = [v[1] - v[0], v[2] - v[1]];
    let s = d.map(|dk| sq(EPS + sq(dk)));
    let (w0, w1) = (1.0 / 3.0, 2.0 / 3.0);
    // Offset toward the `e[1]` side from weights `a`, far stencil first.
    let offset = |e: [f64; 2], a: [f64; 2]| {
        let inv = 0.5 / (a[0] + a[1]);
        (a[0] * inv) * e[0] + (a[1] * inv) * e[1]
    };
    (
        v[1] - offset([d[1], d[0]], [w0 * s[0], w1 * s[1]]),
        v[1] + offset(d, [w0 * s[1], w1 * s[0]]),
    )
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
/// layers. This is the WENO stage of the sweep engine at both lane widths
/// and in both loop orders.
///
/// The line body is compiled once per tier [`crate::isa::WENO`] ships and
/// runs the widest entry the CPU supports; every entry is bitwise
/// identical.
pub fn reconstruct_line_padded(
    order: WenoOrder,
    v: &[f64],
    pad: usize,
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
) {
    reconstruct_line_padded_at(isa::WENO.tier(), order, v, pad, n, left, right);
}

/// [`reconstruct_line_padded`] through its `tier` entry, whatever the
/// process would pick — for benchmarks and the entry-equivalence test.
///
/// # Panics
/// If the WENO stage does not ship `tier` or the CPU cannot run it.
#[doc(hidden)]
pub fn reconstruct_line_padded_at(
    tier: Tier,
    order: WenoOrder,
    v: &[f64],
    pad: usize,
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
) {
    isa::WENO.run_at(
        tier,
        #[inline(always)]
        || line_body(order, v, pad, n, left, right),
    );
}

/// The order is matched once per line and each arm is a plain loop over
/// the line's cell stencils with no index arithmetic or bounds check
/// left inside — the shape LLVM's loop vectoriser turns into packed
/// arithmetic at the width of whichever entry it is inlined into.
#[inline(always)]
fn line_body(
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
        WenoOrder::First => line_cells::<1>(v, pad, n, left, right, |w| (w[0], w[0])),
        WenoOrder::Weno3 => line_cells::<3>(v, pad, n, left, right, weno3_cell),
        WenoOrder::Weno5 => line_cells::<5>(v, pad, n, left, right, weno5_cell),
        WenoOrder::Weno5Z => line_cells::<5>(v, pad, n, left, right, weno5z_cell),
        WenoOrder::Weno5M => line_cells::<5>(v, pad, n, left, right, weno5m_cell),
    }
}

/// Faces `0..=n` of a padded line from the `K`-cell stencils of its
/// `n + 2` cells `pad - 1 ..= pad + n`: cell `pad - 1 + j` gives the
/// left state of face `j` (its right-face value) and the right state of
/// face `j - 1` (its left-face value). The two end cells feed one face
/// each and stay outside the loop — scalar, with the side nobody reads
/// dead code: folding them into packets through stack scratch ran
/// 96-cell lines 10–40 % slower (EXPERIMENTS.md).
#[inline(always)]
fn line_cells<const K: usize>(
    v: &[f64],
    pad: usize,
    n: usize,
    left: &mut [f64],
    right: &mut [f64],
    cell: impl Fn(&[f64; K]) -> (f64, f64),
) {
    let stencil = |w: &[f64]| cell(w.try_into().expect("windows(K) yields K cells"));
    let cells = &v[pad - 1 - K / 2..][..n + 1 + K];
    left[0] = stencil(&cells[..K]).1;
    for ((w, l), r) in cells[1..n + K]
        .windows(K)
        .zip(&mut left[1..=n])
        .zip(&mut right[..n])
    {
        (*r, *l) = stencil(w);
    }
    right[n] = stencil(&cells[n + 1..]).0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    const ORDERS: [WenoOrder; 5] = [
        WenoOrder::First,
        WenoOrder::Weno3,
        WenoOrder::Weno5,
        WenoOrder::Weno5Z,
        WenoOrder::Weno5M,
    ];

    /// (left-face, right-face) values of the centre cell of a 5-cell
    /// stencil through the per-cell function `order` runs.
    fn cell(order: WenoOrder, v: &[f64; 5]) -> (f64, f64) {
        match order {
            WenoOrder::First => (v[2], v[2]),
            WenoOrder::Weno3 => weno3_cell(&[v[1], v[2], v[3]]),
            WenoOrder::Weno5 => weno5_cell(v),
            WenoOrder::Weno5Z => weno5z_cell(v),
            WenoOrder::Weno5M => weno5m_cell(v),
        }
    }

    /// The textbook division form in plain `f64` (Jiang & Shu 1996, Borges
    /// et al. 2008, Henrick et al. 2005), one face side at a time: the
    /// candidates of the centre cell's right face and their normalised
    /// nonlinear weights. Independent of everything above but the
    /// constants.
    fn textbook_right(order: WenoOrder, v: &[f64; 5]) -> (Vec<f64>, Vec<f64>) {
        let (q, alpha): (Vec<f64>, Vec<f64>) = match order {
            WenoOrder::First => (vec![v[2]], vec![1.0]),
            WenoOrder::Weno3 => {
                let q = vec![(-v[1] + 3.0 * v[2]) / 2.0, (v[2] + v[3]) / 2.0];
                let b = [(v[2] - v[1]).powi(2), (v[3] - v[2]).powi(2)];
                let d = [1.0 / 3.0, 2.0 / 3.0];
                (q, (0..2).map(|k| d[k] / (EPS + b[k]).powi(2)).collect())
            }
            _ => {
                let q = vec![
                    (2.0 * v[0] - 7.0 * v[1] + 11.0 * v[2]) / 6.0,
                    (-v[1] + 5.0 * v[2] + 2.0 * v[3]) / 6.0,
                    (2.0 * v[2] + 5.0 * v[3] - v[4]) / 6.0,
                ];
                let b = [
                    13.0 / 12.0 * (v[0] - 2.0 * v[1] + v[2]).powi(2)
                        + 0.25 * (v[0] - 4.0 * v[1] + 3.0 * v[2]).powi(2),
                    13.0 / 12.0 * (v[1] - 2.0 * v[2] + v[3]).powi(2) + 0.25 * (v[1] - v[3]).powi(2),
                    13.0 / 12.0 * (v[2] - 2.0 * v[3] + v[4]).powi(2)
                        + 0.25 * (3.0 * v[2] - 4.0 * v[3] + v[4]).powi(2),
                ];
                let js: Vec<f64> = (0..3).map(|k| D5[k] / (EPS + b[k]).powi(2)).collect();
                let alpha = match order {
                    WenoOrder::Weno5 => js,
                    WenoOrder::Weno5Z => {
                        let tau5 = (b[0] - b[2]).abs();
                        (0..3)
                            .map(|k| D5[k] * (1.0 + tau5 / (b[k] + EPS_Z)))
                            .collect()
                    }
                    _ => {
                        let sum: f64 = js.iter().sum();
                        (0..3)
                            .map(|k| {
                                let (w, g) = (js[k] / sum, D5[k]);
                                w * (g + g * g - 3.0 * g * w + w * w)
                                    / (g * g + w * (1.0 - 2.0 * g))
                            })
                            .collect()
                    }
                };
                (q, alpha)
            }
        };
        let sum: f64 = alpha.iter().sum();
        (q, alpha.iter().map(|a| a / sum).collect())
    }

    fn reversed(v: &[f64; 5]) -> [f64; 5] {
        [v[4], v[3], v[2], v[1], v[0]]
    }

    /// Stencil shapes the property tests draw from, all of magnitude
    /// `scale`: free values, a constant, a step at any position, and small
    /// variations on a large offset.
    fn stencil(kind: usize, base: &[f64], scale: f64) -> [f64; 5] {
        let at = |k: usize| match kind {
            0 => base[k],
            1 => base[0],
            2 => {
                if (k as f64) < 2.5 + 3.0 * base[2] {
                    base[0]
                } else {
                    base[1]
                }
            }
            _ => 1.0 + 1e-3 * base[k],
        };
        [0, 1, 2, 3, 4].map(|k| scale * at(k))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Common-denominator weights on first differences against the
        /// textbook form: same value to rounding at every magnitude the
        /// solver can meet, finite, and inside the candidates' hull.
        #[test]
        fn cells_match_the_textbook_division_form(
            base in proptest::collection::vec(-1.0f64..1.0, 5),
            exp in -300i32..=12,
            kind in 0usize..4,
        ) {
            let scale = 10f64.powi(exp);
            let v = stencil(kind, &base, scale);
            let tol = 1e-12 * scale;
            for order in ORDERS {
                let (left, right) = cell(order, &v);
                for (got, w) in [(left, reversed(&v)), (right, v)] {
                    let (q, omega) = textbook_right(order, &w);
                    let want: f64 = q.iter().zip(&omega).map(|(q, w)| q * w).sum();
                    prop_assert!(got.is_finite(), "{order:?} {v:?}: {got}");
                    prop_assert!(
                        (got - want).abs() <= tol,
                        "{order:?} {v:?}: {got:e} vs textbook {want:e}"
                    );
                    let lo = q.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(
                        lo - tol <= got && got <= hi + tol,
                        "{order:?} {v:?}: {got:e} outside [{lo:e}, {hi:e}]"
                    );
                }
            }
        }

        /// The left face of a cell is the right face of the mirrored cell,
        /// to the bit: a mirror-symmetric flow stays mirror-symmetric.
        #[test]
        fn mirrored_stencil_swaps_the_pair_bitwise(
            base in proptest::collection::vec(-1.0f64..1.0, 5),
            exp in -300i32..=12,
            kind in 0usize..4,
        ) {
            let v = stencil(kind, &base, 10f64.powi(exp));
            for order in ORDERS {
                let (left, right) = cell(order, &v);
                let (mleft, mright) = cell(order, &reversed(&v));
                prop_assert!(
                    left.to_bits() == mright.to_bits() && right.to_bits() == mleft.to_bits(),
                    "{order:?} {v:?}: ({left:e}, {right:e}) vs mirrored ({mleft:e}, {mright:e})"
                );
            }
        }

        /// Every entry of the line kernel is one source compiled per tier
        /// without contraction: identical bits on every order, line length
        /// and magnitude, and on every entry the left face of a line is the
        /// right face of the mirrored line. Tiers the CPU cannot run are
        /// skipped with a note on stderr.
        #[test]
        fn avx2_entry_matches_the_baseline_entry_bitwise(
            base in proptest::collection::vec(-1.0f64..1.0, 16),
            exp in -300i32..=12,
            kind in 0usize..4,
            n in 0usize..260,
        ) {
            let pad = 3;
            let scale = 10f64.powi(exp);
            let len = n + 2 * pad;
            let step = (base[2] + 1.0) * len as f64 / 2.0;
            let v: Vec<f64> = (0..len)
                .map(|i| scale * match kind {
                    0 => base[i % 16],
                    1 => base[0],
                    2 => if (i as f64) < step { base[0] } else { base[1] },
                    _ => 1.0 + 1e-3 * base[i % 16],
                })
                .collect();
            let mirror: Vec<f64> = v.iter().rev().copied().collect();
            for order in ORDERS {
                let at = |tier, v: &[f64]| {
                    let (mut l, mut r) = (vec![0.0; n + 1], vec![0.0; n + 1]);
                    reconstruct_line_padded_at(tier, order, v, pad, n, &mut l, &mut r);
                    (l, r)
                };
                let (lb, rb) = at(Tier::Baseline, &v);
                for tier in isa::WENO.entries_or_skip() {
                    let (l, r) = at(tier, &v);
                    let (ml, mr) = at(tier, &mirror);
                    for m in 0..=n {
                        prop_assert!(
                            l[m].to_bits() == lb[m].to_bits() && r[m].to_bits() == rb[m].to_bits(),
                            "{order:?} n={n} face {m}: {} ({:e}, {:e}) vs baseline ({:e}, {:e})",
                            tier.name(), l[m], r[m], lb[m], rb[m]
                        );
                        prop_assert!(
                            l[m].to_bits() == mr[n - m].to_bits()
                                && r[m].to_bits() == ml[n - m].to_bits(),
                            "{order:?} n={n} face {m}: {} ({:e}, {:e}) vs mirrored ({:e}, {:e})",
                            tier.name(), l[m], r[m], mr[n - m], ml[n - m]
                        );
                    }
                }
            }
        }
    }
}
