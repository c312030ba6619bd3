//! Physical boundary conditions: ghost-cell population.
//!
//! Applied axis-by-axis over the full (ghost-inclusive) transverse extent,
//! so edge/corner ghost regions are filled consistently by the sequence of
//! sweeps — the same strategy as MFC's `s_populate_variables_buffers`.

use std::time::Instant;

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig};
use serde::{Deserialize, Serialize};

use crate::state::StateField;

/// Boundary condition applied at one face of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BcKind {
    /// Wrap around to the opposite side.
    Periodic,
    /// Slip wall: mirror the state, negate the normal velocity/momentum.
    Reflective,
    /// No-slip wall: mirror the state, negate every velocity/momentum
    /// component (viscous walls).
    NoSlip,
    /// Zero-gradient outflow (copy the nearest interior cell).
    Transmissive,
}

/// Boundary conditions for every face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BcSpec {
    pub lo: [BcKind; 3],
    pub hi: [BcKind; 3],
}

impl BcSpec {
    pub fn all(kind: BcKind) -> Self {
        BcSpec {
            lo: [kind; 3],
            hi: [kind; 3],
        }
    }

    pub fn periodic() -> Self {
        Self::all(BcKind::Periodic)
    }

    pub fn reflective() -> Self {
        Self::all(BcKind::Reflective)
    }

    pub fn transmissive() -> Self {
        Self::all(BcKind::Transmissive)
    }

    /// Whether both faces of `axis` are periodic (then the distributed
    /// topology wraps too).
    pub fn axis_periodic(&self, axis: usize) -> bool {
        self.lo[axis] == BcKind::Periodic && self.hi[axis] == BcKind::Periodic
    }
}

/// Fill every ghost layer of `field` (works on conservative or primitive
/// data: the reflective sign flip targets the `mom(axis)` slot, which holds
/// momentum resp. velocity — both flip).
///
/// `skip` marks axes whose ghosts are owned by the halo exchange (interior
/// block faces of a distributed run); `skip = [(false,false); 3]` applies
/// physical BCs everywhere.
///
/// Each face is one `s_populate_buffers` launch whose items are its ghost
/// cells, but the copy runs by whole rows: per variable, each line along
/// `axis` fills its ghost layers innermost (x), or each ghost row (y) or
/// plane (z) is one contiguous copy of its source.
pub fn apply_bcs(ctx: &Context, field: &mut StateField, bc: &BcSpec, skip: [(bool, bool); 3]) {
    let dom = *field.domain();
    let (ng, eq) = (dom.ng, dom.eq);
    let neq = eq.neq();
    let cost = KernelCost::new(KernelClass::Other, 1.0, 8.0 * neq as f64, 8.0 * neq as f64);
    let cfg = LaunchConfig::tuned("s_populate_buffers");
    let block = dom.total_cells();

    for (axis, &(skip_lo, skip_hi)) in skip.iter().enumerate().take(eq.ndim()) {
        let n = dom.n[axis];
        // Cells between neighbours along `axis`. A slab — one x row (x),
        // one z plane (y) or the whole block (z) — holds whole lines along
        // `axis`, so each slab fills its ghosts from its own cells.
        let stride = [1, dom.ext(0), dom.ext(0) * dom.ext(1)][axis];
        let slab = stride * dom.ext(axis);
        let plane = block / dom.ext(axis);

        for (is_hi, skipped) in [(false, skip_lo), (true, skip_hi)] {
            if skipped {
                continue;
            }
            let kind = if is_hi { bc.hi[axis] } else { bc.lo[axis] };
            // (ghost, source) offsets in a slab of each ghost layer, in
            // layer order.
            let layers: Vec<(usize, usize)> = (0..ng)
                .map(|g| match (kind, is_hi) {
                    (BcKind::Periodic, false) => (ng - 1 - g, ng + n - 1 - g),
                    (BcKind::Periodic, true) => (ng + n + g, ng + g),
                    (BcKind::Reflective | BcKind::NoSlip, false) => (ng - 1 - g, ng + g),
                    (BcKind::Reflective | BcKind::NoSlip, true) => (ng + n + g, ng + n - 1 - g),
                    (BcKind::Transmissive, false) => (ng - 1 - g, ng),
                    (BcKind::Transmissive, true) => (ng + n + g, ng + n - 1),
                })
                .map(|(gi, si)| (gi * stride, si * stride))
                .collect();
            let t0 = Instant::now();
            let data = field.as_mut_slice();
            for e in 0..neq {
                let flip = match kind {
                    BcKind::Reflective => e == eq.mom(axis),
                    BcKind::NoSlip => (0..eq.ndim()).any(|d| e == eq.mom(d)),
                    _ => false,
                };
                for lines in data[e * block..(e + 1) * block].chunks_exact_mut(slab) {
                    for &(gi, si) in &layers {
                        // x: one value per layer, read and written
                        // directly — a row loop over rows of one value
                        // ran slower here than the per-item fill.
                        if stride == 1 {
                            let v = lines[si];
                            lines[gi] = if flip { -v } else { v };
                        } else {
                            lines.copy_within(si..si + stride, gi);
                            if flip {
                                lines[gi..gi + stride].iter_mut().for_each(|v| *v = -*v);
                            }
                        }
                    }
                }
            }
            ctx.record(cfg.label, cost, (plane * ng) as u64, 1, 1, t0, t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;

    fn field_1d(n: usize, ng: usize) -> StateField {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([n, 1, 1], ng, eq);
        let mut s = StateField::zeros(dom);
        for i in 0..n {
            for e in 0..eq.neq() {
                s.set(ng + i, 0, 0, e, (10 * (i + 1) + e) as f64);
            }
        }
        s
    }

    /// The per-item ghost fill the row-wise one replaced: one item per
    /// ghost cell, every variable through `get`/`set`, layers outermost.
    fn apply_bcs_per_item(field: &mut StateField, bc: &BcSpec, skip: [(bool, bool); 3]) {
        let dom = *field.domain();
        let ng = dom.ng;
        for (axis, &(skip_lo, skip_hi)) in skip.iter().enumerate().take(dom.eq.ndim()) {
            let n = dom.n[axis];
            let t1 = if axis == 0 { dom.ext(1) } else { dom.ext(0) };
            let t2 = if axis == 2 { dom.ext(1) } else { dom.ext(2) };
            let plane = t1 * t2;
            for (is_hi, skipped) in [(false, skip_lo), (true, skip_hi)] {
                if skipped {
                    continue;
                }
                let kind = if is_hi { bc.hi[axis] } else { bc.lo[axis] };
                for item in 0..plane * ng {
                    let (g, r) = (item / plane, item % plane);
                    let (a, b) = (r % t1, r / t1);
                    let (gi, si, flip) = match (kind, is_hi) {
                        (BcKind::Periodic, false) => (ng - 1 - g, ng + n - 1 - g, 0u8),
                        (BcKind::Periodic, true) => (ng + n + g, ng + g, 0),
                        (BcKind::Reflective, false) => (ng - 1 - g, ng + g, 1),
                        (BcKind::Reflective, true) => (ng + n + g, ng + n - 1 - g, 1),
                        (BcKind::NoSlip, false) => (ng - 1 - g, ng + g, 2),
                        (BcKind::NoSlip, true) => (ng + n + g, ng + n - 1 - g, 2),
                        (BcKind::Transmissive, false) => (ng - 1 - g, ng, 0),
                        (BcKind::Transmissive, true) => (ng + n + g, ng + n - 1, 0),
                    };
                    let at = |along: usize| match axis {
                        0 => (along, a, b),
                        1 => (a, along, b),
                        _ => (a, b, along),
                    };
                    let (gi3, si3) = (at(gi), at(si));
                    for e in 0..dom.eq.neq() {
                        let mut v = field.get(si3.0, si3.1, si3.2, e);
                        let is_momentum = (0..dom.eq.ndim()).any(|d| e == dom.eq.mom(d));
                        if (flip == 1 && e == dom.eq.mom(axis)) || (flip == 2 && is_momentum) {
                            v = -v;
                        }
                        field.set(gi3.0, gi3.1, gi3.2, e, v);
                    }
                }
            }
        }
    }

    /// The row-wise fill writes bitwise what the per-item reference writes
    /// — every kind on every face, mixed kinds per axis, skipped faces, a
    /// NaN's sign, extents of `8k + r` cells and an axis exactly as long as
    /// its ghost layers — and records the same `s_populate_buffers` items.
    #[test]
    fn row_wise_fill_matches_the_per_item_reference_bitwise() {
        use BcKind::*;
        let kinds = [Periodic, Reflective, NoSlip, Transmissive];
        let skips = [
            [(false, false); 3],
            [(true, false), (false, true), (false, false)],
            [(false, false), (true, true), (false, true)],
        ];
        for (ndim, cells) in [(1, [19, 1, 1]), (2, [13, 10, 1]), (3, [17, 9, 3])] {
            let eq = EqIdx::new(2, ndim);
            let dom = Domain::new(cells, 3, eq);
            let mut field = StateField::zeros(dom);
            for (x, v) in field.as_mut_slice().iter_mut().enumerate() {
                *v = ((x * 2654435761) % 10007) as f64 - 5003.5;
            }
            field.as_mut_slice()[dom.ext(0) + 4] = -f64::NAN;
            for (c, skip) in skips.iter().enumerate() {
                for (t, &kind) in kinds.iter().enumerate() {
                    let bc = BcSpec {
                        lo: [kind, kinds[(t + 1) % 4], kinds[(t + 2) % 4]],
                        hi: [kinds[(t + c) % 4], kind, kinds[(t + 3) % 4]],
                    };
                    let ctx = Context::serial();
                    let (mut rows, mut items) = (field.clone(), field.clone());
                    apply_bcs(&ctx, &mut rows, &bc, *skip);
                    apply_bcs_per_item(&mut items, &bc, *skip);
                    for (x, (r, i)) in rows.as_slice().iter().zip(items.as_slice()).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            i.to_bits(),
                            "{ndim}-D {bc:?} {skip:?}: slot {x}"
                        );
                    }
                    let (mut launches, mut ghosts) = (0, 0);
                    for (d, &(lo, hi)) in skip.iter().enumerate().take(ndim) {
                        for skipped in [lo, hi] {
                            if !skipped {
                                launches += 1;
                                ghosts += (dom.total_cells() / dom.ext(d) * dom.ng) as u64;
                            }
                        }
                    }
                    let stats = ctx.ledger().kernel("s_populate_buffers").unwrap();
                    assert_eq!((stats.launches, stats.items), (launches, ghosts));
                }
            }
        }
    }

    #[test]
    fn periodic_wraps() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(&ctx, &mut s, &BcSpec::periodic(), [(false, false); 3]);
        // lo ghosts = last interior cells
        assert_eq!(s.get(1, 0, 0, 0), s.get(5, 0, 0, 0)); // ghost ng-1 = interior n-1
        assert_eq!(s.get(0, 0, 0, 0), s.get(4, 0, 0, 0));
        // hi ghosts = first interior cells
        assert_eq!(s.get(6, 0, 0, 0), s.get(2, 0, 0, 0));
        assert_eq!(s.get(7, 0, 0, 0), s.get(3, 0, 0, 0));
    }

    #[test]
    fn reflective_mirrors_and_flips_momentum() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        let eq = EqIdx::new(1, 1);
        apply_bcs(&ctx, &mut s, &BcSpec::reflective(), [(false, false); 3]);
        // ghost ng-1 mirrors interior 0
        assert_eq!(s.get(1, 0, 0, 0), s.get(2, 0, 0, 0));
        assert_eq!(s.get(1, 0, 0, eq.mom(0)), -s.get(2, 0, 0, eq.mom(0)));
        assert_eq!(s.get(1, 0, 0, eq.energy()), s.get(2, 0, 0, eq.energy()));
        // ghost 0 mirrors interior 1
        assert_eq!(s.get(0, 0, 0, 0), s.get(3, 0, 0, 0));
        // hi side
        assert_eq!(s.get(6, 0, 0, 0), s.get(5, 0, 0, 0));
        assert_eq!(s.get(7, 0, 0, eq.mom(0)), -s.get(4, 0, 0, eq.mom(0)));
    }

    #[test]
    fn noslip_flips_every_velocity_component() {
        let ctx = Context::serial();
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([3, 3, 1], 2, eq);
        let mut s = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            s.set(i, j, k, 0, 1.0);
            s.set(i, j, k, eq.mom(0), 5.0);
            s.set(i, j, k, eq.mom(1), -2.0);
            s.set(i, j, k, eq.energy(), 9.0);
        }
        apply_bcs(
            &ctx,
            &mut s,
            &BcSpec::all(BcKind::NoSlip),
            [(false, false); 3],
        );
        // x-lo ghost mirrors interior 0 with BOTH velocities negated.
        assert_eq!(s.get(1, 2, 0, eq.mom(0)), -5.0);
        assert_eq!(s.get(1, 2, 0, eq.mom(1)), 2.0);
        assert_eq!(s.get(1, 2, 0, eq.energy()), 9.0);
        // Wall-tangential velocity also flips (unlike Reflective).
        let mut r = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            r.set(i, j, k, eq.mom(1), -2.0);
            r.set(i, j, k, 0, 1.0);
            r.set(i, j, k, eq.energy(), 9.0);
        }
        apply_bcs(&ctx, &mut r, &BcSpec::reflective(), [(false, false); 3]);
        assert_eq!(r.get(1, 2, 0, eq.mom(1)), -2.0); // tangential kept
    }

    #[test]
    fn transmissive_copies_edge_cell() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(&ctx, &mut s, &BcSpec::transmissive(), [(false, false); 3]);
        for g in 0..2 {
            assert_eq!(s.get(g, 0, 0, 0), s.get(2, 0, 0, 0));
            assert_eq!(s.get(6 + g, 0, 0, 0), s.get(5, 0, 0, 0));
        }
    }

    #[test]
    fn skip_leaves_ghosts_untouched() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(
            &ctx,
            &mut s,
            &BcSpec::periodic(),
            [(true, false), (false, false), (false, false)],
        );
        assert_eq!(s.get(0, 0, 0, 0), 0.0); // lo skipped
        assert_ne!(s.get(6, 0, 0, 0), 0.0); // hi filled
    }

    #[test]
    fn corners_filled_in_2d() {
        let ctx = Context::serial();
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([3, 3, 1], 2, eq);
        let mut s = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            s.set(i, j, k, 0, 7.0);
        }
        apply_bcs(&ctx, &mut s, &BcSpec::periodic(), [(false, false); 3]);
        // A corner ghost cell must carry interior data after both sweeps.
        assert_eq!(s.get(0, 0, 0, 0), 7.0);
        assert_eq!(s.get(6, 6, 0, 0), 7.0);
    }
}
