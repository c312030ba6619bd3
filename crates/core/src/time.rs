//! Strong-stability-preserving Runge–Kutta time integration.
//!
//! The RK tail acts on interior cells only. `q^n` is kept as an
//! interior-only copy, and each stage's combine is one gang-split launch
//! over the interior x rows of `q`, `q^n` and the RHS, recorded in the
//! ledger like every other kernel. Ghosts are not state:
//! every one is refilled by the BCs or the halo exchange before it is
//! read, so the combine neither reads the RHS's nor writes `q`'s.

use std::ops::Range;
use std::time::Instant;

use mfc_acc::{AddView, Context, KernelClass, KernelCost, Lane, LaneGangBody};
use serde::{Deserialize, Serialize};

use crate::domain::Domain;
use crate::state::StateField;

/// Time integration scheme (MFC's `time_stepper` 1/2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeScheme {
    /// Forward Euler.
    Rk1,
    /// SSP-RK2 (Heun).
    Rk2,
    /// SSP-RK3 (Shu–Osher) — MFC's default with WENO5.
    Rk3,
}

impl TimeScheme {
    pub fn stages(self) -> usize {
        match self {
            TimeScheme::Rk1 => 1,
            TimeScheme::Rk2 => 2,
            TimeScheme::Rk3 => 3,
        }
    }

    /// Formal order of accuracy.
    pub fn order(self) -> usize {
        self.stages()
    }
}

/// Scratch states of one RK step.
pub struct RkWorkspace {
    /// The interior of `q^n`, an `ng = 0` field: [`rk_step`] takes it
    /// before its first stage under every scheme, the stage combines read
    /// it, and a rejected step restores from it ([`RkWorkspace::restore`]).
    /// Until a step reaches `rk_step` it still holds the previous step's
    /// `q^{n-1}`.
    pub q0: StateField,
    /// Stage RHS; only its interior is read.
    pub rhs: StateField,
}

impl RkWorkspace {
    pub fn new(template: &StateField) -> Self {
        let dom = *template.domain();
        RkWorkspace {
            q0: StateField::zeros(Domain::new(dom.n, 0, dom.eq)),
            rhs: StateField::zeros(dom),
        }
    }

    /// Put `q` back on the `q^n` the last [`rk_step`] started from: its
    /// interior from [`RkWorkspace::q0`], every ghost `0.0` — the state a
    /// re-sharded [`crate::restart::load_block`] leaves, refilled by the
    /// BCs and the halo exchange before it is read.
    pub fn restore(&self, q: &mut StateField) {
        let dom = *q.domain();
        let nx = dom.n[0];
        let out = q.as_mut_slice();
        out.fill(0.0);
        for (line, src) in row_starts(dom, 0).zip(self.q0.as_slice().chunks_exact(nx)) {
            out[line..line + nx].copy_from_slice(src);
        }
    }
}

/// Advance `q` by one step of `scheme` with step `dt` on a serial context:
/// [`rk_step_in`]'s kernels, unrecorded anywhere a caller sees.
pub fn rk_step(
    scheme: TimeScheme,
    dt: f64,
    q: &mut StateField,
    ws: &mut RkWorkspace,
    eval_rhs: impl FnMut(&mut StateField, &mut StateField),
) {
    rk_step_in(&Context::serial(), scheme, dt, q, ws, eval_rhs);
}

/// Advance `q` by one step of `scheme` with step `dt`, launching the tail
/// on `ctx`.
///
/// `eval_rhs(q, rhs)` must fill ghost cells of `q` (BCs/halo) and then the
/// interior of `rhs`; it is called once per stage. Before it first runs,
/// `ws.q0` takes `q^n`'s interior (one `s_rk_snapshot` launch), whatever
/// the scheme. After each call, one `s_rk_combine` launch updates the
/// interior of `q`: `q + dt*rhs` in stage 1, `a*q0 + b*(q + dt*rhs)` after
/// it, per element in that order. No ghost of `q` is written and no ghost
/// of `rhs` is read, so after the step each ghost of `q` holds the last
/// fill `eval_rhs` gave it.
pub fn rk_step_in(
    ctx: &Context,
    scheme: TimeScheme,
    dt: f64,
    q: &mut StateField,
    ws: &mut RkWorkspace,
    mut eval_rhs: impl FnMut(&mut StateField, &mut StateField),
) {
    let dom = *q.domain();
    assert_eq!(ws.rhs.domain(), &dom);
    assert_eq!(ws.q0.domain().n, dom.n);
    let snapshot = Tail::Snapshot { q: q.as_slice() };
    launch_rows(ctx, dom, ws.q0.as_mut_slice(), snapshot);
    // q^{n+1} = a q0 + b (q_s + dt L(q_s)) after stage 1's forward Euler:
    // SSP-RK2 (Heun) and SSP-RK3 (Shu–Osher).
    let tails: &[(f64, f64)] = match scheme {
        TimeScheme::Rk1 => &[],
        TimeScheme::Rk2 => &[(0.5, 0.5)],
        TimeScheme::Rk3 => &[(0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)],
    };
    let stages = std::iter::once(None).chain(tails.iter().copied().map(Some));
    for ab in stages {
        eval_rhs(q, &mut ws.rhs);
        let (q0, rhs) = (ws.q0.as_slice(), ws.rhs.as_slice());
        launch_rows(
            ctx,
            dom,
            q.as_mut_slice(),
            Tail::Combine { q0, rhs, dt, ab },
        );
    }
}

/// One launch of the RK tail over the interior.
#[derive(Clone, Copy)]
enum Tail<'a> {
    /// `q0 = q` (the launch writes `q0`).
    Snapshot { q: &'a [f64] },
    /// One stage's combine in place (the launch writes `q`):
    /// `stage = q + dt*rhs`, then `q = a*q0 + b*stage` when `ab` is
    /// `Some((a, b))`, else `q = stage`. Plain multiplies and adds in that
    /// order, no FMA, so every element is bitwise the whole-array `axpy` →
    /// `lincomb` sequence at any worker count.
    Combine {
        q0: &'a [f64],
        rhs: &'a [f64],
        dt: f64,
        ab: Option<(f64, f64)>,
    },
}

/// Launch `tail` over the interior x rows of a block of `dom` (every
/// equation's), split into gangs across `ctx`'s workers; `out` is the
/// field it writes. Each row is one loop over slices, which the compiler
/// vectorizes: lane packets, with a bounds check per packet, ran the
/// cache-resident 1-D combine slower. So the lane width does not enter,
/// and the launch is recorded at one lane. One ledger row, one item per
/// interior cell.
fn launch_rows(ctx: &Context, dom: Domain, out: &mut [f64], tail: Tail) {
    let t0 = Instant::now();
    let (label, flops, read) = match tail {
        Tail::Snapshot { .. } => ("s_rk_snapshot", 0.0, 8.0),
        Tail::Combine { ab: None, .. } => ("s_rk_combine", 2.0, 16.0),
        Tail::Combine { ab: Some(_), .. } => ("s_rk_combine", 5.0, 24.0),
    };
    let neq = dom.eq.neq();
    let cost = KernelCost::new(
        KernelClass::Other,
        flops * neq as f64,
        read * neq as f64,
        8.0 * neq as f64,
    );
    let rows = dom.n[1] * dom.n[2] * neq;
    let elems = (rows * dom.n[0]) as u64;
    let body = RowWalk { dom, tail };
    let gangs = ctx.gang_vec_scope(
        rows,
        elems,
        &mut vec![(); ctx.workers()],
        [out],
        &body,
        |()| {},
    );
    let cells = dom.interior_cells() as u64;
    ctx.record(label, cost, cells, gangs, 1, t0, t0.elapsed());
}

/// Ghost-inclusive starts of the interior x rows `first, first + 1, ..`
/// of `dom`: row `r` is line `(j, k)` of equation `e` with
/// `r = j + n2*(k + n3*e)`, and starts at `r * n1` in an `ng = 0` field.
/// One division per call, none per row.
fn row_starts(dom: Domain, first: usize) -> impl Iterator<Item = usize> {
    let [_, n2, n3] = dom.n;
    let (mut j, mut k, mut e) = (first % n2, first / n2 % n3, first / (n2 * n3));
    let pad = [0, 1, 2].map(|d| dom.pad(d));
    let ext = [0, 1, 2].map(|d| dom.ext(d));
    std::iter::from_fn(move || {
        let line = pad[0] + ext[0] * (j + pad[1] + ext[1] * (k + pad[2] + ext[2] * e));
        j += 1;
        if j == n2 {
            j = 0;
            k += 1;
            if k == n3 {
                k = 0;
                e += 1;
            }
        }
        Some(line)
    })
}

/// A [`Tail`] over a gang's interior rows of `dom`.
struct RowWalk<'a> {
    dom: Domain,
    tail: Tail<'a>,
}

impl LaneGangBody<(), (), 1> for RowWalk<'_> {
    fn run<L: Lane, O: AddView>(
        &self,
        _gang: usize,
        range: Range<usize>,
        _: &mut (),
        [out]: &mut [O; 1],
    ) {
        let n = self.dom.n[0];
        let lines = row_starts(self.dom, range.start);
        for (r, at) in range.zip(lines) {
            let at0 = r * n;
            match self.tail {
                Tail::Snapshot { q } => {
                    let q = &q[at..at + n];
                    out.map_row(at0, n, |c, _| q[c]);
                }
                Tail::Combine { q0, rhs, dt, ab } => {
                    let (q0, rhs) = (&q0[at0..at0 + n], &rhs[at..at + n]);
                    match ab {
                        Some((a, b)) => {
                            out.map_row(at, n, |c, x| a * q0[c] + b * (x + dt * rhs[c]))
                        }
                        None => out.map_row(at, n, |c, x| x + dt * rhs[c]),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;

    fn scalar_field(v: f64) -> StateField {
        let dom = Domain::new([1, 1, 1], 1, EqIdx::new(1, 1));
        let mut s = StateField::zeros(dom);
        s.set(1, 0, 0, 0, v);
        s
    }

    /// Integrate dy/dt = lambda y and check the convergence order against
    /// the exact exponential.
    fn decay_error(scheme: TimeScheme, dt: f64) -> f64 {
        let lambda = -1.0;
        let mut q = scalar_field(1.0);
        let mut ws = RkWorkspace::new(&q);
        let steps = (1.0 / dt).round() as usize;
        for _ in 0..steps {
            rk_step(scheme, dt, &mut q, &mut ws, |q, rhs| {
                let v = q.get(1, 0, 0, 0);
                rhs.fill(0.0);
                rhs.set(1, 0, 0, 0, lambda * v);
            });
        }
        (q.get(1, 0, 0, 0) - (-1.0f64).exp()).abs()
    }

    #[test]
    fn rk_schemes_converge_at_design_order() {
        for (scheme, min_rate) in [
            (TimeScheme::Rk1, 0.9),
            (TimeScheme::Rk2, 1.9),
            (TimeScheme::Rk3, 2.9),
        ] {
            let e1 = decay_error(scheme, 0.05);
            let e2 = decay_error(scheme, 0.025);
            let rate = (e1 / e2).log2();
            assert!(
                rate > min_rate,
                "{scheme:?}: rate {rate} (e1={e1:.2e}, e2={e2:.2e})"
            );
        }
    }

    /// A field of values that round differently under any reassociation.
    fn noise(dom: Domain, seed: u64) -> StateField {
        let mut x = 0x9e3779b97f4a7c15u64 ^ seed;
        let mut f = StateField::zeros(dom);
        for v in f.as_mut_slice() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.0e5;
        }
        f
    }

    /// The bits of `f`'s interior and of its ghosts, each in storage order.
    fn split_bits(f: &StateField) -> (Vec<u64>, Vec<u64>) {
        let dom = *f.domain();
        let inside = |c: usize, d: usize| (dom.pad(d)..dom.pad(d) + dom.n[d]).contains(&c);
        let (mut interior, mut ghosts) = (Vec::new(), Vec::new());
        for e in 0..dom.eq.neq() {
            for k in 0..dom.ext(2) {
                for j in 0..dom.ext(1) {
                    for i in 0..dom.ext(0) {
                        let bits = f.get(i, j, k, e).to_bits();
                        if inside(i, 0) && inside(j, 1) && inside(k, 2) {
                            interior.push(bits);
                        } else {
                            ghosts.push(bits);
                        }
                    }
                }
            }
        }
        (interior, ghosts)
    }

    /// The whole-array `axpy` → copy → `lincomb` sequence the stage tail
    /// replaced, over every element of `q`, ghosts included.
    fn reference_step(
        scheme: TimeScheme,
        dt: f64,
        q: &mut StateField,
        mut eval: impl FnMut(&mut StateField, &mut StateField),
    ) {
        fn axpy(q: &mut StateField, s: f64, x: &StateField) {
            for (o, &v) in q.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *o += s * v;
            }
        }
        fn lincomb(q: &mut StateField, a: f64, x: &StateField, b: f64, y: &StateField) {
            let out = q.as_mut_slice().iter_mut();
            for ((o, &xv), &yv) in out.zip(x.as_slice()).zip(y.as_slice()) {
                *o = a * xv + b * yv;
            }
        }
        let q0 = q.clone();
        let mut rhs = StateField::zeros(*q.domain());
        let tails: &[(f64, f64)] = match scheme {
            TimeScheme::Rk1 => &[],
            TimeScheme::Rk2 => &[(0.5, 0.5)],
            TimeScheme::Rk3 => &[(0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)],
        };
        eval(q, &mut rhs);
        axpy(q, dt, &rhs);
        for &(a, b) in tails {
            eval(q, &mut rhs);
            axpy(q, dt, &rhs);
            let tmp = q.clone();
            lincomb(q, a, &q0, b, &tmp);
        }
    }

    /// The in-place interior stage combine is bitwise the whole-array
    /// `axpy` → copy → `lincomb` sequence on the interior, and never writes
    /// a ghost of `q`.
    #[test]
    fn in_place_stage_combine_matches_the_three_call_sequence_bitwise() {
        let dom = Domain::new([7, 5, 1], 2, EqIdx::new(2, 2));
        let (q_init, rhs0) = (noise(dom, 0), noise(dom, 1));
        let dt = 3.7e-4;
        let eval = |q: &mut StateField, rhs: &mut StateField| {
            // A state-dependent RHS, so each stage sees the previous one.
            for ((r, &qv), &r0) in rhs
                .as_mut_slice()
                .iter_mut()
                .zip(q.as_slice())
                .zip(rhs0.as_slice())
            {
                *r = r0 - 0.3 * qv;
            }
        };
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = q_init.clone();
            let mut ws = RkWorkspace::new(&q);
            rk_step(scheme, dt, &mut q, &mut ws, eval);
            let mut want = q_init.clone();
            reference_step(scheme, dt, &mut want, eval);
            let ((got, ghosts), (want, _)) = (split_bits(&q), split_bits(&want));
            assert_eq!(got, want, "{scheme:?}");
            assert_eq!(
                ghosts,
                split_bits(&q_init).1,
                "{scheme:?}: a ghost of q moved"
            );
        }
    }

    /// `rk_step_in` never reads a ghost of the RHS — NaN sentinels there —
    /// and never writes one of `q`: its interior bits are the whole-array
    /// reference's in 1-, 2- and 3-D, under every scheme, on 1 and 2
    /// workers (forked gangs) and at widths 1 and 8, with one
    /// snapshot and one combine per stage in the ledger.
    #[test]
    fn rk_tail_reads_no_rhs_ghost_and_writes_no_q_ghost() {
        let dt = 2.9e-4;
        for (n, eq) in [
            ([211, 1, 1], EqIdx::new(2, 1)),
            ([37, 9, 1], EqIdx::new(2, 2)),
            ([13, 6, 5], EqIdx::new(2, 3)),
        ] {
            let dom = Domain::new(n, 3, eq);
            let (q_init, rhs0) = (noise(dom, 2), noise(dom, 3));
            let eval = |q: &mut StateField, rhs: &mut StateField| {
                rhs.fill(f64::NAN);
                for e in 0..eq.neq() {
                    for (i, j, k) in dom.interior() {
                        let v = rhs0.get(i, j, k, e) - 0.3 * q.get(i, j, k, e);
                        rhs.set(i, j, k, e, v);
                    }
                }
            };
            for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
                let mut want = q_init.clone();
                reference_step(scheme, dt, &mut want, eval);
                let want = split_bits(&want).0;
                for workers in [1, 2] {
                    for width in [1, 8] {
                        let at = format!("{n:?} {scheme:?} workers {workers} width {width}");
                        let ctx = Context::with_workers(workers).with_vector_width(width);
                        let mut q = q_init.clone();
                        let mut ws = RkWorkspace::new(&q);
                        rk_step_in(&ctx, scheme, dt, &mut q, &mut ws, eval);
                        let (got, ghosts) = split_bits(&q);
                        assert!(got == want, "{at}: interior differs");
                        assert!(ghosts == split_bits(&q_init).1, "{at}: a ghost moved");
                        let launches = |label| ctx.ledger().kernel(label).unwrap().launches;
                        assert_eq!(launches("s_rk_snapshot"), 1, "{at}");
                        assert_eq!(launches("s_rk_combine"), scheme.stages() as u64, "{at}");
                    }
                }
            }
        }
    }

    /// A rejected step's restore: the interior of the `q^n` the step
    /// started from, every ghost `0.0`.
    #[test]
    fn restore_puts_back_the_interior_and_zeroes_the_ghosts() {
        let dom = Domain::new([11, 4, 3], 2, EqIdx::new(1, 3));
        let q_init = noise(dom, 4);
        let mut q = q_init.clone();
        let mut ws = RkWorkspace::new(&q);
        rk_step(TimeScheme::Rk3, 0.1, &mut q, &mut ws, |_, rhs| {
            rhs.fill(f64::NAN)
        });
        ws.restore(&mut q);
        let (interior, ghosts) = split_bits(&q);
        assert!(interior == split_bits(&q_init).0);
        assert!(ghosts.iter().all(|&b| b == 0));
    }

    #[test]
    fn rhs_called_once_per_stage() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(1.0);
            let mut ws = RkWorkspace::new(&q);
            let mut calls = 0;
            rk_step(scheme, 0.01, &mut q, &mut ws, |_, rhs| {
                calls += 1;
                rhs.fill(0.0);
            });
            assert_eq!(calls, scheme.stages());
        }
    }

    #[test]
    fn zero_rhs_preserves_state_exactly() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(3.25);
            let mut ws = RkWorkspace::new(&q);
            rk_step(scheme, 0.1, &mut q, &mut ws, |_, rhs| rhs.fill(0.0));
            assert_eq!(q.get(1, 0, 0, 0), 3.25, "{scheme:?}");
        }
    }
}
