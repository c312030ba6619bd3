//! The feature matrix: every axis a run's result may depend on, declared
//! once, and a deterministic greedy generator whose array of members
//! holds every pair of axis values some admissible member can hold (and
//! every triple of the axis groups in [`TRIPLES`]).
//!
//! A member is one run, and this file is the one place members run. Its
//! case file is built from its axis values and admitted by
//! [`mfc_cli::admit`]; the axes a case file cannot express — loop order,
//! limiter and the immersed body — are applied to the admitted config and
//! solver. Every member runs against three oracles:
//!
//! 1. **bits**: its final state and clock equal, bit for bit, those of its
//!    reference — the same physics on 1 rank, 1 worker, lane width 1,
//!    pencil-major, without checkpoint waves;
//! 2. **golden**: a shipped case at its own size reproduces the field
//!    digest of `tests/golden/<case>.json` at its step;
//! 3. **conservation**: a member with `conservation = true` keeps its
//!    partial densities, momentum and energy to round-off.
//!
//! A member's id is its list of axis values; a failure prints it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::TAU;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mfc::core::axisym::Geometry;
use mfc::core::bc::BcKind;
use mfc::core::filter::apply_azimuthal_filter;
use mfc::core::fluid::Fluid;
use mfc::core::ibm::{GhostCellIbm, SphereBody};
use mfc::core::limiter::Limiter;
use mfc::core::output::block_to_vec;
use mfc::core::par::{run_ranks, ResilienceOpts};
use mfc::core::restart::Crc32;
use mfc::core::rhs::RhsMode;
use mfc::core::riemann::RiemannSolver;
use mfc::core::time::TimeScheme;
use mfc::core::weno::WenoOrder;
use mfc::core::StepControl;
use mfc::fft::LowpassPlan;
use mfc::{Context, Solver};
use mfc_cli::{admit, BcConfig, CaseFile};
use serde_json::{json, Value};

/// Geometry and dimension in one axis: a geometry fixes the dimension it
/// runs in, and the azimuthal filter exists only on cylindrical 3-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Geo {
    Cart1,
    Cart2,
    Cart3,
    Axisym,
    Cyl3,
    Cyl3Filter,
}

/// One boundary kind on every face, or `Mixed`: reflective/transmissive
/// on x, periodic on y, transmissive/no-slip on z — on a curvilinear grid,
/// whose radial axis y `admit` refuses to make periodic, periodic on x and
/// the azimuth, reflective/transmissive on r. `admit` refuses `Periodic`
/// there too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bc {
    Periodic,
    Reflective,
    NoSlip,
    Transmissive,
    Mixed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dt {
    Cfl,
    Fixed,
}

/// Cells per active axis: a whole number of 8-line pencil batches, or
/// `8k + r` — a short last pencil on every sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extent {
    Whole,
    Remainder,
}

/// Declares the axes: `Ax` names them (`ALL` in order), `AXES` gives each
/// one's name and value count, `Member` gets one typed accessor per axis,
/// and `is::axis(v)` turns a typed value into the `(axis, index)` pin that
/// `Member::with` and `Member::holds` take.
macro_rules! axes {
    ($($name:ident: $ty:ty = [$($v:expr),+ $(,)?];)+) => {
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ax { $($name),+ }

        const ALL: &[Ax] = &[$(Ax::$name),+];
        const AXES: &[(&str, usize)] = &[$((stringify!($name), [$($v),+].len())),+];

        impl Member {
            $(fn $name(&self) -> $ty {
                [$($v),+][self.v[Ax::$name as usize] as usize]
            })+
        }

        fn label(axis: usize, v: u8) -> String {
            $(if axis == Ax::$name as usize {
                return format!("{:?}", [$($v),+][v as usize]);
            })+
            unreachable!("axis {axis}")
        }

        // A pin for every axis value, whether or not a test names it.
        #[allow(dead_code)]
        mod is {
            use super::*;
            $(pub fn $name(x: $ty) -> (Ax, u8) {
                let at = [$($v),+].iter().position(|v| *v == x);
                (Ax::$name, at.expect("not a value of the axis") as u8)
            })+
        }
    };
}

// Value 0 of every execution axis (`waves` .. `loop_order`) is the
// reference member's.
axes! {
    geometry: Geo = [Geo::Cart1, Geo::Cart2, Geo::Cart3, Geo::Axisym, Geo::Cyl3, Geo::Cyl3Filter];
    // 1 and 2 fluids run the `ConstEq` layouts, 3 the run-time `EqIdx`.
    fluids: usize = [1, 2, 3];
    bc: Bc = [Bc::Periodic, Bc::Reflective, Bc::NoSlip, Bc::Transmissive, Bc::Mixed];
    dt: Dt = [Dt::Cfl, Dt::Fixed];
    scheme: TimeScheme = [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3];
    order: WenoOrder = [
        WenoOrder::First,
        WenoOrder::Weno3,
        WenoOrder::Weno5,
        WenoOrder::Weno5Z,
        WenoOrder::Weno5M,
    ];
    riemann: RiemannSolver = [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov];
    limiter: Limiter = [Limiter::FirstOrderFallback, Limiter::ZhangShu];
    viscous: bool = [false, true];
    // A body needs the lone solver (RULES).
    ibm: bool = [false, true];
    extent: Extent = [Extent::Whole, Extent::Remainder];
    // Checkpoint waves run the rank driver, on 1 rank too.
    waves: bool = [false, true];
    // 8 ranks split a 3-D grid along all three axes.
    ranks: usize = [1, 2, 4, 8];
    workers: usize = [1, 2, 4];
    width: usize = [1, 8];
    loop_order: RhsMode = [RhsMode::Fused, RhsMode::Staged];
    // Not a feature of the program but of the member: whether its
    // conserved totals are checked. Pairing it with every other axis value
    // puts a conservation check on every order, solver, worker count, ...
    conservation: bool = [false, true];
}

const N: usize = AXES.len();

/// What a member may hold beyond what `admit` accepts; each rule names the
/// axes it reads so the search can apply it as soon as they are set.
struct Rule {
    reads: &'static [Ax],
    ok: fn(&Member) -> bool,
}

const RULES: &[Rule] = &[
    // A body and the azimuthal filter are applied by the lone solver:
    // 1 rank, no checkpoint waves.
    Rule {
        reads: &[Ax::ibm, Ax::geometry, Ax::ranks, Ax::waves],
        ok: |m| !(m.ibm() || m.geometry() == Geo::Cyl3Filter) || (m.ranks() == 1 && !m.waves()),
    },
    // `admit` refuses a periodic radial axis; stated here as well so the
    // search drops such a member before it walks the free axes.
    Rule {
        reads: &[Ax::geometry, Ax::bc],
        ok: |m| {
            m.bc() != Bc::Periodic || matches!(m.geometry(), Geo::Cart1 | Geo::Cart2 | Geo::Cart3)
        },
    },
    // A body overwrites the cells it covers: the conservation oracle needs
    // a periodic member without one. (`admit` makes every periodic member
    // Cartesian: a radial axis cannot be periodic.)
    Rule {
        reads: &[Ax::conservation, Ax::bc, Ax::ibm],
        ok: |m| !m.conservation() || (m.bc() == Bc::Periodic && !m.ibm()),
    },
];

/// Axis groups whose every admissible triple the array holds: the
/// rank-dependent cylindrical dt once hid in a geometry × dt × ranks cell
/// that no pair pins down.
const TRIPLES: &[[Ax; 3]] = &[[Ax::geometry, Ax::dt, Ax::ranks]];

/// Steps of a generated member, and the checkpoint-wave period of a member
/// with waves.
const STEPS: usize = 3;
const WAVE_EVERY: u64 = 2;

/// Where a member's physics comes from.
#[derive(Debug, Clone)]
enum Physics {
    /// Built from the member's own axis values.
    Generated,
    /// `cases/<name>.json` at its own size for `steps` steps; its digest is
    /// checked against the golden record.
    Shipped { name: &'static str, steps: usize },
    /// One of the benchmark's workloads, at reduced size.
    Bench {
        name: &'static str,
        steps: usize,
        case: fn() -> CaseFile,
    },
}

/// One run of the array: a value per axis and where its physics comes from.
#[derive(Debug, Clone)]
struct Member {
    v: [u8; N],
    physics: Physics,
}

const UNSET: u8 = u8::MAX;

/// `axis=value`, as an id prints it.
fn pin(axis: usize, v: u8) -> String {
    format!("{}={}", AXES[axis].0, label(axis, v))
}

/// Whether `v` holds every `(axis, value)` of `pins`.
fn holds(v: &[u8; N], pins: &[(Ax, u8)]) -> bool {
    pins.iter().all(|&(a, x)| v[a as usize] == x)
}

impl Member {
    fn generated(v: [u8; N]) -> Member {
        Member {
            v,
            physics: Physics::Generated,
        }
    }

    fn holds(&self, pins: &[(Ax, u8)]) -> bool {
        holds(&self.v, pins)
    }

    /// The member with `pins` applied.
    fn with(&self, pins: &[(Ax, u8)]) -> Member {
        let mut m = self.clone();
        for &(a, x) in pins {
            m.v[a as usize] = x;
        }
        m
    }

    /// The axis values, after the name of a fixed member's physics.
    fn id(&self) -> String {
        let name = match self.physics {
            Physics::Generated => String::new(),
            Physics::Shipped { name, .. } | Physics::Bench { name, .. } => format!("[{name}] "),
        };
        let values: Vec<String> = (0..N).map(|a| pin(a, self.v[a])).collect();
        name + &values.join(" ")
    }

    /// The same physics on the reference execution: value 0 of every
    /// execution axis, `waves` .. `loop_order`.
    fn reference(&self) -> Member {
        let mut r = self.clone();
        r.v[Ax::waves as usize..=Ax::loop_order as usize].fill(0);
        r
    }

    /// The member's case file: its physics, with the execution axes a case
    /// file expresses (ranks, waves, workers, lane width).
    fn case_file(&self) -> CaseFile {
        let mut cf = self.source();
        cf.run.ranks = self.ranks();
        cf.run.checkpoint_every = if self.waves() { WAVE_EVERY } else { 0 };
        cf.numerics.workers = self.workers();
        cf.numerics.vector_width = self.width();
        cf
    }

    /// The case file of the member's physics, as its source writes it.
    fn source(&self) -> CaseFile {
        let (mut cf, steps) = match self.physics {
            Physics::Generated => (generated(self), STEPS),
            Physics::Shipped { name, steps } => (shipped_case(name), steps),
            Physics::Bench { steps, case, .. } => (case(), steps),
        };
        cf.run.steps = steps;
        cf.run.t_end = None;
        cf
    }
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn from_json(v: Value) -> CaseFile {
    serde_json::from_value(&v).unwrap()
}

fn shipped_case(name: &str) -> CaseFile {
    CaseFile::from_path(&repo().join(format!("cases/{name}.json"))).unwrap()
}

fn resized(name: &str, cells: [usize; 3]) -> CaseFile {
    CaseFile {
        cells,
        ..shipped_case(name)
    }
}

/// The benchmark's `grind3d` / `dist3d_r2` physics — an air bubble in a
/// periodic box of water, CFL 0.4 — at 16³.
fn bubble() -> CaseFile {
    let state = |a: f64| json!({"alpha": [a, 1.0 - a], "rho": [1.2, 1000.0], "vel": [1.0, 0.5, 0.25], "p": 1.0e5});
    let sphere = json!({"center": [0.5, 0.5, 0.5], "radius": 0.2});
    from_json(json!({
        "name": "bubble",
        "fluids": [Fluid::air(), Fluid::water()],
        "ndim": 3,
        "cells": [16, 16, 16],
        "bc": "periodic",
        "smear_cells": 1.0,
        "patches": [
            json!({"region": "all", "state": state(1.0e-6)}),
            json!({"region": json!({"sphere": sphere}), "state": state(1.0 - 1.0e-6)})
        ],
        "numerics": json!({"cfl": 0.4}),
    }))
}

/// A generated member's physics: a box of gas in water (one fluid: a
/// denser, higher-pressure box of air) in a moving background, on an
/// annulus r in [0.2, 1.2] for the curvilinear geometries.
fn generated(m: &Member) -> CaseFile {
    let geo = m.geometry();
    let (ndim, geometry) = match geo {
        Geo::Cart1 => (1, Geometry::Cartesian),
        Geo::Cart2 => (2, Geometry::Cartesian),
        Geo::Cart3 => (3, Geometry::Cartesian),
        Geo::Axisym => (2, Geometry::Axisymmetric),
        Geo::Cyl3 | Geo::Cyl3Filter => (3, Geometry::Cylindrical3D),
    };
    let remainder = m.extent() == Extent::Remainder;
    let mut cells = [1; 3];
    cells[..ndim].fill([32, 16, 8][ndim - 1] + if remainder { 3 } else { 0 });
    if geo == Geo::Cyl3Filter {
        // The filter's FFT needs a power-of-two azimuthal extent.
        cells[2] = 8;
    }
    let (lo, hi) = match geometry {
        Geometry::Cartesian => ([0.0; 3], [1.0; 3]),
        Geometry::Axisymmetric => ([0.0, 0.2, 0.0], [1.0, 1.2, 1.0]),
        Geometry::Cylindrical3D => ([0.0, 0.2, 0.0], [1.0, 1.2, TAU]),
    };
    let nf = m.fluids();
    let mu = if m.viscous() { 1.0e-2 } else { 0.0 };
    let fluids: Vec<Fluid> = [Fluid::air(), Fluid::water(), Fluid::new(1.67, 0.0)][..nf]
        .iter()
        .map(|f| f.with_viscosity(mu))
        .collect();
    // Volume fractions: fluid `major`, traces of the others.
    let alpha = |major: usize| -> Vec<f64> {
        let mut alpha = vec![1.0e-6; nf];
        alpha[major] = 1.0 - 1.0e-6 * (nf - 1) as f64;
        alpha
    };
    let state = |major: usize, rho0: f64, p: f64| json!({"alpha": alpha(major), "rho": [rho0, 1000.0, 0.2][..nf].to_vec(), "vel": [20.0, -10.0, 5.0], "p": p});
    let (outside, inside) = match nf {
        1 => (state(0, 1.2, 1.0e5), state(0, 1.6, 1.4e5)),
        _ => (state(1, 1.2, 1.0e5), state(0, 1.2, 1.2e5)),
    };
    let at = |f: f64| -> Vec<f64> { (0..3).map(|d| lo[d] + f * (hi[d] - lo[d])).collect() };
    use BcKind::*;
    let bc = match m.bc() {
        Bc::Periodic => BcConfig::Uniform(Periodic),
        Bc::Reflective => BcConfig::Uniform(Reflective),
        Bc::NoSlip => BcConfig::Uniform(NoSlip),
        Bc::Transmissive => BcConfig::Uniform(Transmissive),
        Bc::Mixed if geometry.has_radial_axis() => BcConfig::Full {
            lo: [Periodic, Reflective, Periodic],
            hi: [Periodic, Transmissive, Periodic],
        },
        Bc::Mixed => BcConfig::Full {
            lo: [Reflective, Periodic, Transmissive],
            hi: [Transmissive, Periodic, NoSlip],
        },
    };
    // A fixed dt is a fifth of the acoustic limit of the fastest fluid
    // (water, ~1.5 km/s) on the narrowest cell, the azimuthal r dtheta of
    // the innermost ring included.
    let narrowest = (0..ndim)
        .map(|d| {
            let r = if d == 2 && geometry == Geometry::Cylindrical3D {
                lo[1]
            } else {
                1.0
            };
            r * (hi[d] - lo[d]) / cells[d] as f64
        })
        .fold(f64::INFINITY, f64::min);
    let dt = (m.dt() == Dt::Fixed).then_some(0.2 * narrowest / 2000.0);
    from_json(json!({
        "name": "member",
        "fluids": fluids,
        "ndim": ndim,
        "cells": cells,
        "lo": lo,
        "hi": hi,
        "bc": bc,
        "smear_cells": 1.0,
        "patches": [
            json!({"region": "all", "state": outside}),
            json!({"region": json!({"box": json!({"lo": at(0.3), "hi": at(0.7)})}), "state": inside})
        ],
        "numerics": json!({
            "order": m.order(),
            "solver": m.riemann(),
            "geometry": geometry,
            "scheme": format!("{:?}", m.scheme()).to_lowercase(),
            "dt": dt,
        }),
    }))
}

/// The axis values a case file holds; the axes it cannot express are 0.
fn classify(cf: &CaseFile) -> [u8; N] {
    let geo = match (cf.numerics.geometry, cf.ndim) {
        (Geometry::Cartesian, 1) => Geo::Cart1,
        (Geometry::Cartesian, 2) => Geo::Cart2,
        (Geometry::Cartesian, _) => Geo::Cart3,
        (Geometry::Axisymmetric, _) => Geo::Axisym,
        (Geometry::Cylindrical3D, _) => Geo::Cyl3,
    };
    let bc = match cf.bc {
        BcConfig::Uniform(BcKind::Periodic) => Bc::Periodic,
        BcConfig::Uniform(BcKind::Reflective) => Bc::Reflective,
        BcConfig::Uniform(BcKind::NoSlip) => Bc::NoSlip,
        BcConfig::Uniform(BcKind::Transmissive) => Bc::Transmissive,
        BcConfig::Full { .. } => Bc::Mixed,
    };
    let whole = cf.cells[..cf.ndim].iter().all(|n| n % 8 == 0);
    let num = &cf.numerics;
    let mut v = [0; N];
    for (a, x) in [
        is::geometry(geo),
        is::fluids(cf.fluids.len()),
        is::bc(bc),
        is::dt(if num.dt.is_some() { Dt::Fixed } else { Dt::Cfl }),
        is::scheme(num.scheme().unwrap()),
        is::order(num.order),
        is::riemann(num.solver),
        is::viscous(cf.fluids.iter().any(|f| f.viscosity > 0.0)),
        is::extent(if whole {
            Extent::Whole
        } else {
            Extent::Remainder
        }),
        is::waves(cf.run.checkpoint_every > 0),
        is::ranks(cf.run.ranks.max(1)),
        is::workers(num.workers),
        is::width(num.vector_width),
    ] {
        v[a as usize] = x;
    }
    v
}

/// A fixed member: the axis values of `physics`' case file, `pins` applied.
fn fixed(physics: Physics, pins: &[(Ax, u8)]) -> Member {
    let m = Member { v: [0; N], physics };
    Member {
        v: classify(&m.source()),
        ..m
    }
    .with(pins)
}

/// The fixed members: the benchmark's traffic at reduced size, then every
/// shipped case at its golden step count under three executions.
fn fixed_members() -> Vec<Member> {
    let bench = |name, steps, case| Physics::Bench { name, steps, case };
    let cons = is::conservation(true);
    let mut out = vec![
        // grind3d: 1 worker, the default width, pencil-major.
        fixed(bench("grind3d", 2, bubble), &[cons]),
        fixed(bench("sod1d", 20, || resized("sod", [128, 1, 1])), &[]),
        fixed(
            bench("dist3d_r2", 5, bubble),
            &[is::ranks(2), is::waves(true), cons],
        ),
        // serve_stream's two job kinds, each on 1 worker.
        fixed(bench("serve_sod", 15, || resized("sod", [512, 1, 1])), &[]),
        fixed(
            bench("serve_droplet", 4, || {
                resized("shock_droplet_2d", [48, 48, 1])
            }),
            &[],
        ),
    ];
    for (name, steps) in [
        ("sod", 12),
        ("taylor_green", 6),
        ("shock_droplet_2d", 5),
        ("bubble_cloud_2d", 5),
        ("shock_droplet_3d", 5),
    ] {
        for pins in shipped_executions() {
            out.push(fixed(Physics::Shipped { name, steps }, &pins));
        }
    }
    out
}

/// The three executions every shipped case runs under.
fn shipped_executions() -> [[(Ax, u8); 4]; 3] {
    let (staged, fused) = (
        is::loop_order(RhsMode::Staged),
        is::loop_order(RhsMode::Fused),
    );
    [
        [is::ranks(2), is::workers(4), is::width(8), staged],
        [is::ranks(1), is::workers(4), is::width(1), fused],
        [is::ranks(1), is::workers(1), is::width(8), staged],
    ]
}

/// Whether the set axes of `v` break no rule whose axes are all set.
fn consistent(v: &[u8; N]) -> bool {
    RULES
        .iter()
        .all(|r| r.reads.iter().any(|&a| v[a as usize] == UNSET) || (r.ok)(&Member::generated(*v)))
}

/// Some admissible generated member agreeing with the set axes of
/// `partial`: a depth-first search over the unset axes, lowest values
/// first, that keeps the rules and ends in `admit`. The axes a rule reads
/// go first, so an unsatisfiable partial member fails before the free
/// axes are enumerated; a refusal by `admit` alone costs a walk of the
/// free axes, so the generated extents are chosen for every rank count
/// and order to pass it.
fn complete(partial: &[u8; N]) -> Option<Member> {
    fn go(v: &mut [u8; N], order: &[usize]) -> Option<Member> {
        let Some((&a, rest)) = order.split_first() else {
            let m = Member::generated(*v);
            return admit(&m.case_file()).is_ok().then_some(m);
        };
        if v[a] != UNSET {
            return go(v, rest);
        }
        for x in 0..AXES[a].1 as u8 {
            v[a] = x;
            if consistent(v) {
                if let Some(m) = go(v, rest) {
                    v[a] = UNSET;
                    return Some(m);
                }
            }
        }
        v[a] = UNSET;
        None
    }
    let ruled = |a: &usize| {
        RULES
            .iter()
            .any(|r| r.reads.iter().any(|&x| x as usize == *a))
    };
    let (mut order, free): (Vec<usize>, Vec<usize>) = (0..N).partition(ruled);
    order.extend(free);
    let mut v = *partial;
    consistent(&v).then(|| go(&mut v, &order)).flatten()
}

/// One coverage target: two or three `(axis, value)` pairs, axes ascending.
type Target = Vec<(Ax, u8)>;

/// Every combination of values of `axes`.
fn tuples(axes: &[Ax]) -> Vec<Target> {
    let Some((&a, rest)) = axes.split_first() else {
        return vec![vec![]];
    };
    let tails = tuples(rest);
    (0..AXES[a as usize].1 as u8)
        .flat_map(|x| {
            tails
                .iter()
                .map(move |t| [vec![(a, x)], t.clone()].concat())
        })
        .collect()
}

fn pinned(pins: &[(Ax, u8)]) -> [u8; N] {
    let mut v = [UNSET; N];
    for &(a, x) in pins {
        v[a as usize] = x;
    }
    v
}

/// Every pair of axis values, and every triple of the [`TRIPLES`] groups,
/// that some admissible member can hold.
fn admissible_targets() -> BTreeSet<Target> {
    let pairs = (0..N).flat_map(|i| ALL[i + 1..].iter().flat_map(move |&b| tuples(&[ALL[i], b])));
    let triples = TRIPLES.iter().flat_map(|group| {
        let mut axes = *group;
        axes.sort();
        tuples(&axes)
    });
    pairs
        .chain(triples)
        .filter(|t| complete(&pinned(t)).is_some())
        .collect()
}

/// The array: the fixed members, then greedy generated members until every
/// admissible target is held. Each new member starts from the first target
/// not yet held and sets the remaining axes in declaration order, each to
/// the lowest value that holds the most open targets and still completes
/// to an admissible member.
fn generate() -> Vec<Member> {
    let mut open = admissible_targets();
    let mut members = fixed_members();
    for m in &members {
        open.retain(|t| !holds(&m.v, t));
    }
    while let Some(seed) = open.first() {
        let mut v = pinned(seed);
        for a in 0..N {
            if v[a] != UNSET {
                continue;
            }
            let mut best = None;
            for x in 0..AXES[a].1 as u8 {
                v[a] = x;
                let gain = open.iter().filter(|t| holds(&v, t)).count();
                if best.is_none_or(|(g, _)| gain > g) && complete(&v).is_some() {
                    best = Some((gain, x));
                }
            }
            v[a] = best.expect("an open target always completes").1;
        }
        open.retain(|t| !holds(&v, t));
        members.push(Member::generated(v));
    }
    members
}

/// The array, generated once per test binary.
fn array() -> &'static [Member] {
    static ARRAY: OnceLock<Vec<Member>> = OnceLock::new();
    ARRAY.get_or_init(generate)
}

/// Whether `m` keeps every rule and `admit` accepts its case file.
fn admissible(m: &Member) -> bool {
    consistent(&m.v) && admit(&m.case_file()).is_ok()
}

/// What a run leaves: the final interior (equation-major, global order),
/// its clock, and — run as a lone block — the largest relative drift of
/// the conserved totals.
struct Outcome {
    data: Vec<f64>,
    t: f64,
    steps: u64,
    drift: Option<f64>,
}

/// Run `m` as admitted: the rank driver when admission says it is
/// distributed, else a lone solver with the member's body and filter.
fn run(m: &Member) -> Result<Outcome, String> {
    let adm = admit(&m.case_file()).map_err(|e| e.to_string())?;
    let case = adm.case();
    let mut cfg = adm.solver_config();
    cfg.rhs.mode = m.loop_order();
    cfg.rhs.limiter = m.limiter();
    if adm.distributed() {
        static RUN: AtomicUsize = AtomicUsize::new(0);
        let run = RUN.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mfc_matrix_{}_{run}", std::process::id()));
        let every = if m.waves() { WAVE_EVERY } else { 0 };
        let opts = ResilienceOpts::fault_free(&dir, every);
        let ran = run_ranks(case, cfg, adm.ranks(), adm.stop(), None, &opts);
        let _ = std::fs::remove_dir_all(&dir);
        let (field, stats) = ran.map_err(|e| e.to_string())?;
        return Ok(Outcome {
            data: field.data,
            t: stats.time,
            steps: stats.steps,
            drift: None,
        });
    }
    let ctx = Context::with_workers(cfg.workers).with_vector_width(cfg.vector_width);
    let mut solver = Solver::new(case, cfg, ctx);
    if m.ibm() {
        // A sphere off the centre of the domain, over the gas box's corner.
        let at = |d: usize| if d < case.ndim { 0.72 } else { 0.5 };
        let center = [0, 1, 2].map(|d| case.lo[d] + at(d) * (case.hi[d] - case.lo[d]));
        let radius = 0.15 * (case.hi[0] - case.lo[0]);
        solver = solver.with_body(GhostCellIbm::new(Box::new(SphereBody { center, radius })));
    }
    let filter =
        (m.geometry() == Geo::Cyl3Filter).then(|| LowpassPlan::new(case.cells[1], case.cells[2]));
    let before = solver.conservation();
    let filtered = |s: &mut Solver| {
        if let Some(plan) = &filter {
            let ctx = s.context().clone();
            apply_azimuthal_filter(&ctx, plan, s.state_mut());
        }
        StepControl::Continue
    };
    solver
        .run(adm.stop(), None, filtered)
        .map_err(|e| e.to_string())?;
    let after = solver.conservation();
    // Partial densities, momentum and energy; the volume fractions are
    // advected non-conservatively.
    let drift = (0..=case.eq().energy())
        .map(|e| (after[e] - before[e]).abs() / before[e].abs().max(1e-30))
        .fold(0.0, f64::max);
    Ok(Outcome {
        data: block_to_vec(solver.state()),
        t: solver.time(),
        steps: solver.steps(),
        drift: Some(drift),
    })
}

/// The CRC-32 digest `tests/golden.rs` records of an interior field.
fn digest(data: &[f64]) -> String {
    let mut crc = Crc32::new();
    for v in data {
        crc.update(&v.to_le_bytes());
    }
    format!("{:08x}", crc.finish())
}

fn golden_digest(name: &str, steps: usize) -> String {
    let path = repo().join(format!("tests/golden/{name}.json"));
    let record: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    record["digests"][steps - 1].as_str().unwrap().to_string()
}

/// Run `m` and its reference through the three oracles; references are
/// shared through `refs`, keyed by id.
fn check(m: &Member, refs: &mut BTreeMap<String, Outcome>) -> Result<(), String> {
    let got = run(m)?;
    let r = m.reference();
    let want = match refs.entry(r.id()) {
        Entry::Occupied(known) => known.into_mut(),
        Entry::Vacant(slot) => slot.insert(run(&r).map_err(|e| format!("reference: {e}"))?),
    };
    if got.steps != want.steps || got.t.to_bits() != want.t.to_bits() {
        return Err(format!(
            "clock: {} steps to t = {:e}, reference {} steps to t = {:e}",
            got.steps, got.t, want.steps, want.t
        ));
    }
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&got.data) != bits(&want.data) {
        let diff =
            (got.data.iter().zip(&want.data)).fold(0.0, |m: f64, (a, b)| m.max((a - b).abs()));
        return Err(format!(
            "state differs from the reference by up to {diff:e}"
        ));
    }
    if let Physics::Shipped { name, steps } = m.physics {
        let (have, golden) = (digest(&got.data), golden_digest(name, steps));
        if have != golden {
            return Err(format!("digest {have}, golden {golden} at step {steps}"));
        }
    }
    let drift = want.drift.expect("a reference runs as a lone block");
    if m.conservation() && (drift.is_nan() || drift >= 1e-11) {
        return Err(format!("conserved totals drifted by {drift:e}"));
    }
    Ok(())
}

/// Run every member through the oracles; panics listing each failing id.
fn check_all<'a>(members: impl IntoIterator<Item = &'a Member>) {
    let mut refs = BTreeMap::new();
    let mut failures = Vec::new();
    let mut count = 0;
    for m in members {
        count += 1;
        let checked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(m, &mut refs)));
        let outcome = checked.unwrap_or_else(|p| {
            let msg = (p.downcast_ref::<String>().cloned())
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(format!("panicked: {}", msg.unwrap_or_default()))
        });
        if let Err(e) = outcome {
            failures.push(format!("{}\n    {e}", m.id()));
        }
    }
    assert!(count > 0, "no member selected");
    assert!(
        failures.is_empty(),
        "{} of {count} members failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn array_holds_every_admissible_pair_and_is_deterministic() {
    let members = array();
    let targets = admissible_targets();
    let missing: Vec<_> = targets
        .iter()
        .filter(|t| !members.iter().any(|m| m.holds(t)))
        .collect();
    assert!(missing.is_empty(), "targets no member holds: {missing:?}");
    for m in members {
        assert!(admissible(m), "inadmissible member {}", m.id());
    }
    // The rule that drops a periodic radial axis early states what
    // `admit` refuses.
    for m in members
        .iter()
        .filter(|m| !matches!(m.geometry(), Geo::Cart1 | Geo::Cart2 | Geo::Cart3))
    {
        let periodic = m.with(&[is::bc(Bc::Periodic)]);
        assert!(
            admit(&periodic.case_file()).is_err(),
            "admitted {}",
            periodic.id()
        );
    }
    let again: Vec<String> = generate().iter().map(|m| m.id()).collect();
    let ids: Vec<String> = members.iter().map(|m| m.id()).collect();
    assert_eq!(ids, again, "the generator is not deterministic");
    eprintln!(
        "{} members hold all {} admissible targets",
        members.len(),
        targets.len()
    );
}

/// Every `cases/*.json` has a member under each of the three shipped
/// executions; nothing is run here, `fixed_members_pass_their_oracles`
/// runs them.
#[test]
fn every_shipped_case_has_its_three_members() {
    let stems = std::fs::read_dir(repo().join("cases")).unwrap().map(|e| {
        let path = e.unwrap().path();
        path.file_stem().unwrap().to_string_lossy().into_owned()
    });
    for stem in stems {
        for pins in shipped_executions() {
            let held = array().iter().any(|m| {
                matches!(m.physics, Physics::Shipped { name, .. } if name == stem) && m.holds(&pins)
            });
            let pins: Vec<String> = pins.iter().map(|&(a, x)| pin(a as usize, x)).collect();
            assert!(
                held,
                "cases/{stem}.json has no member at {}",
                pins.join(" ")
            );
        }
    }
}

#[test]
fn generated_members_pass_their_oracles() {
    check_all(
        array()
            .iter()
            .filter(|m| matches!(m.physics, Physics::Generated)),
    );
}

#[test]
fn fixed_members_pass_their_oracles() {
    check_all(
        array()
            .iter()
            .filter(|m| !matches!(m.physics, Physics::Generated)),
    );
}
