//! Output checks, written against the *file formats* the binaries emit
//! (legacy-VTK text, probe CSV) and textbook physics — nothing here links
//! the solver, so a check cannot pass by sharing a bug with it.

use std::collections::BTreeMap;

/// The cell data of a legacy-VTK rectilinear file.
#[derive(Debug, Default)]
pub struct Vtk {
    /// Node coordinates along x (cells + 1 entries).
    pub x_nodes: Vec<f64>,
    pub fields: BTreeMap<String, Vec<f64>>,
}

impl Vtk {
    pub fn field(&self, name: &str) -> Result<&[f64], String> {
        self.fields
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("vtk has no field '{name}'"))
    }
}

fn take_floats<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    n: usize,
    what: &str,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tok = tokens
            .next()
            .ok_or_else(|| format!("vtk truncated inside {what}"))?;
        out.push(
            tok.parse::<f64>()
                .map_err(|_| format!("vtk: bad number '{tok}' in {what}"))?,
        );
    }
    Ok(out)
}

fn take_count<'a>(tokens: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<usize, String> {
    tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("vtk: missing count after {what}"))
}

/// Parse the `X_COORDINATES` and every `SCALARS` block of an ASCII
/// rectilinear-grid file as written by `mfc-run` with `output.vtk`.
pub fn parse_vtk(text: &str) -> Result<Vtk, String> {
    let mut vtk = Vtk::default();
    let mut cells: Option<usize> = None;
    let mut tokens = text.split_ascii_whitespace();
    while let Some(tok) = tokens.next() {
        match tok {
            "X_COORDINATES" => {
                let n = take_count(&mut tokens, tok)?;
                tokens.next(); // data type
                vtk.x_nodes = take_floats(&mut tokens, n, tok)?;
            }
            "CELL_DATA" => cells = Some(take_count(&mut tokens, tok)?),
            "SCALARS" => {
                let name = tokens
                    .next()
                    .ok_or("vtk: SCALARS without a name")?
                    .to_string();
                let n = cells.ok_or("vtk: SCALARS before CELL_DATA")?;
                // "<type> <ncomp> LOOKUP_TABLE default"
                if tokens.nth(2) != Some("LOOKUP_TABLE") {
                    return Err(format!("vtk: field '{name}' has no LOOKUP_TABLE line"));
                }
                tokens.next();
                let data = take_floats(&mut tokens, n, &name)?;
                vtk.fields.insert(name, data);
            }
            _ => {}
        }
    }
    if vtk.fields.is_empty() {
        return Err("vtk holds no cell fields".into());
    }
    Ok(vtk)
}

/// Exact solution of a Sod-type Riemann problem (left rarefaction, contact,
/// right shock) for a single ideal gas at rest on both sides.
#[derive(Debug, Clone)]
pub struct SodExact {
    gamma: f64,
    left: (f64, f64),
    right: (f64, f64),
    u_star: f64,
    rho_star_l: f64,
    rho_star_r: f64,
    shock_speed: f64,
    head: f64,
    tail: f64,
}

impl SodExact {
    /// `left` / `right` are (density, pressure); requires `p_l > p_r`.
    pub fn new(gamma: f64, left: (f64, f64), right: (f64, f64)) -> Self {
        let (rho_l, p_l) = left;
        let (rho_r, p_r) = right;
        let c_l = (gamma * p_l / rho_l).sqrt();
        let c_r = (gamma * p_r / rho_r).sqrt();
        let g1 = (gamma - 1.0) / (2.0 * gamma);
        let rarefaction_l = |p: f64| 2.0 * c_l / (gamma - 1.0) * ((p / p_l).powf(g1) - 1.0);
        let shock_r = |p: f64| {
            let a = 2.0 / ((gamma + 1.0) * rho_r);
            let b = (gamma - 1.0) / (gamma + 1.0) * p_r;
            (p - p_r) * (a / (p + b)).sqrt()
        };
        // f(p) = f_L + f_R is increasing with a root in (p_r, p_l).
        let (mut lo, mut hi) = (p_r, p_l);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if rarefaction_l(mid) + shock_r(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p_star = 0.5 * (lo + hi);
        let u_star = 0.5 * (shock_r(p_star) - rarefaction_l(p_star));
        let gr = (gamma - 1.0) / (gamma + 1.0);
        let pr = p_star / p_r;
        SodExact {
            gamma,
            left,
            right,
            u_star,
            rho_star_l: rho_l * (p_star / p_l).powf(1.0 / gamma),
            rho_star_r: rho_r * (pr + gr) / (gr * pr + 1.0),
            shock_speed: c_r
                * ((gamma + 1.0) / (2.0 * gamma) * pr + (gamma - 1.0) / (2.0 * gamma)).sqrt(),
            head: -c_l,
            tail: u_star - c_l * (p_star / p_l).powf(g1),
        }
    }

    /// Density on the ray `xi = (x - x0) / t`.
    pub fn density(&self, xi: f64) -> f64 {
        let g = self.gamma;
        if xi < self.head {
            self.left.0
        } else if xi < self.tail {
            let c_l = -self.head;
            self.left.0
                * (2.0 / (g + 1.0) - (g - 1.0) / ((g + 1.0) * c_l) * xi).powf(2.0 / (g - 1.0))
        } else if xi < self.u_star {
            self.rho_star_l
        } else if xi < self.shock_speed {
            self.rho_star_r
        } else {
            self.right.0
        }
    }
}

/// L1 density error of a 1-D VTK snapshot against the exact Sod solution
/// with the diaphragm at `x0`, at time `t`.
pub fn sod_l1_error(vtk: &Vtk, x0: f64, t: f64) -> Result<f64, String> {
    let rho = vtk.field("alpha_rho_0")?;
    if vtk.x_nodes.len() != rho.len() + 1 {
        return Err(format!(
            "vtk: {} x nodes for {} cells",
            vtk.x_nodes.len(),
            rho.len()
        ));
    }
    let exact = SodExact::new(1.4, (1.0, 1.0), (0.125, 0.1));
    let mut err = 0.0;
    for (i, r) in rho.iter().enumerate() {
        if !r.is_finite() {
            return Err(format!("non-finite density in cell {i}"));
        }
        let (a, b) = (vtk.x_nodes[i], vtk.x_nodes[i + 1]);
        err += (r - exact.density((0.5 * (a + b) - x0) / t)).abs() * (b - a);
    }
    Ok(err)
}

/// Largest relative departure of pressure and velocity from the uniform
/// (`p`, `vel`) a two-fluid stiffened-gas VTK snapshot should hold
/// (interface equilibrium), with the stiffened-gas mixture rules
/// `Gamma = sum a_i/(g_i-1)`, `Pi = sum a_i g_i pi_i/(g_i-1)` applied to
/// the conservative fields in the file.
pub fn equilibrium_defect(
    vtk: &Vtk,
    fluids: [(f64, f64); 2],
    p: f64,
    vel: [f64; 3],
) -> Result<f64, String> {
    let ar0 = vtk.field("alpha_rho_0")?;
    let ar1 = vtk.field("alpha_rho_1")?;
    let mom = [
        vtk.field("momentum_0")?,
        vtk.field("momentum_1")?,
        vtk.field("momentum_2")?,
    ];
    let energy = vtk.field("energy")?;
    let alpha0 = vtk.field("alpha_0")?;
    let big_gamma = |f: (f64, f64)| 1.0 / (f.0 - 1.0);
    let big_pi = |f: (f64, f64)| f.0 * f.1 / (f.0 - 1.0);
    let mut worst = 0.0f64;
    for c in 0..energy.len() {
        let rho = ar0[c] + ar1[c];
        let (a0, a1) = (alpha0[c], 1.0 - alpha0[c]);
        let mut kinetic = 0.0;
        for d in 0..3 {
            let u = mom[d][c] / rho;
            kinetic += 0.5 * rho * u * u;
            worst = worst.max(((u - vel[d]) / vel[d]).abs());
        }
        let gam = a0 * big_gamma(fluids[0]) + a1 * big_gamma(fluids[1]);
        let pi = a0 * big_pi(fluids[0]) + a1 * big_pi(fluids[1]);
        let pc = (energy[c] - kinetic - pi) / gam;
        if !pc.is_finite() {
            return Err(format!("non-finite pressure in cell {c}"));
        }
        worst = worst.max(((pc - p) / p).abs());
    }
    Ok(worst)
}

/// Same defect from a probe CSV (`t, alpha_rho x nf, velocity x ndim, p,
/// alpha x nf-1` per row). Returns (rows, worst relative defect).
pub fn probe_equilibrium_defect(
    csv: &str,
    nf: usize,
    ndim: usize,
    p: f64,
    vel: [f64; 3],
) -> Result<(usize, f64), String> {
    let mut worst = 0.0f64;
    let mut rows = 0;
    for line in csv.lines().filter(|l| !l.trim().is_empty()) {
        let cols: Vec<f64> = line
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad probe value '{c}'"))
            })
            .collect::<Result<_, _>>()?;
        if cols.len() != 1 + nf + ndim + 1 + (nf - 1) {
            return Err(format!("probe row has {} columns", cols.len()));
        }
        if cols.iter().any(|v| !v.is_finite()) {
            return Err("non-finite probe sample".into());
        }
        for d in 0..ndim {
            worst = worst.max(((cols[1 + nf + d] - vel[d]) / vel[d]).abs());
        }
        worst = worst.max(((cols[1 + nf + ndim] - p) / p).abs());
        rows += 1;
    }
    Ok((rows, worst))
}

/// Sum of a field (total partial mass up to the uniform cell volume).
pub fn field_sum(vtk: &Vtk, names: &[&str]) -> Result<f64, String> {
    let mut total = 0.0;
    for name in names {
        total += vtk.field(name)?.iter().sum::<f64>();
    }
    Ok(total)
}

/// Simulation time from `mfc-run`'s `done: N steps, t = 1.2345e-2, ...`.
pub fn done_time(stdout: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.starts_with("done:"))?;
    let rest = line.split("t = ").nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sod_star_state_matches_the_textbook() {
        // Toro, Riemann Solvers, Table 4.2 test 1 (x0 aside).
        let s = SodExact::new(1.4, (1.0, 1.0), (0.125, 0.1));
        assert!((s.u_star - 0.92745).abs() < 1e-5, "{}", s.u_star);
        assert!((s.rho_star_l - 0.42632).abs() < 1e-5, "{}", s.rho_star_l);
        assert!((s.rho_star_r - 0.26557).abs() < 1e-5, "{}", s.rho_star_r);
        assert!((s.shock_speed - 1.75216).abs() < 1e-5, "{}", s.shock_speed);
    }

    #[test]
    fn sod_sampler_is_piecewise_as_expected() {
        let s = SodExact::new(1.4, (1.0, 1.0), (0.125, 0.1));
        assert_eq!(s.density(-2.0), 1.0);
        assert_eq!(s.density(2.0), 0.125);
        assert_eq!(s.density(0.5), s.rho_star_l);
        assert_eq!(s.density(1.5), s.rho_star_r);
        // The fan joins its neighbours continuously and falls monotonically.
        assert!((s.density(s.head + 1e-12) - 1.0).abs() < 1e-9);
        assert!((s.density(s.tail - 1e-12) - s.rho_star_l).abs() < 1e-9);
        let mid = s.density(0.5 * (s.head + s.tail));
        assert!(s.rho_star_l < mid && mid < 1.0);
    }

    fn vtk_text(rho: &[f64]) -> String {
        let n = rho.len();
        let nodes: Vec<String> = (0..=n)
            .map(|i| format!("{}", i as f64 / n as f64))
            .collect();
        let vals: Vec<String> = rho.iter().map(|v| v.to_string()).collect();
        format!(
            "# vtk DataFile Version 3.0\nmfc-rs output\nASCII\nDATASET RECTILINEAR_GRID\n\
             DIMENSIONS {} 2 2\nX_COORDINATES {} double\n{}\nY_COORDINATES 2 double\n0 1\n\
             Z_COORDINATES 2 double\n0 1\nCELL_DATA {n}\nSCALARS alpha_rho_0 double 1\n\
             LOOKUP_TABLE default\n{}\n",
            n + 1,
            n + 1,
            nodes.join(" "),
            vals.join("\n")
        )
    }

    #[test]
    fn vtk_round_trip_and_l1_error_of_the_exact_profile_is_zero() {
        let n = 400;
        let (x0, t) = (0.47, 0.12);
        let exact = SodExact::new(1.4, (1.0, 1.0), (0.125, 0.1));
        let rho: Vec<f64> = (0..n)
            .map(|i| exact.density(((i as f64 + 0.5) / n as f64 - x0) / t))
            .collect();
        let vtk = parse_vtk(&vtk_text(&rho)).unwrap();
        assert_eq!(vtk.x_nodes.len(), n + 1);
        assert!(sod_l1_error(&vtk, x0, t).unwrap() < 1e-12);
        // A shifted diaphragm is an error of the order of the shift.
        let off = sod_l1_error(&vtk, x0 + 0.05, t).unwrap();
        assert!(off > 0.01, "{off}");
        assert!(
            parse_vtk("ASCII\nCELL_DATA 4\nSCALARS a double 1\nLOOKUP_TABLE default\n1 2\n")
                .is_err()
        );
    }

    #[test]
    fn probe_rows_are_checked_against_the_equilibrium() {
        let good = "1e-6,0.4,651.5,1.0,0.5,0.25,100000.00000001,0.35\n";
        let (rows, d) = probe_equilibrium_defect(good, 2, 3, 1.0e5, [1.0, 0.5, 0.25]).unwrap();
        assert_eq!(rows, 1);
        assert!(d < 1e-9);
        let bad = "1e-6,0.4,651.5,1.0,0.5,0.26,100000.0,0.35\n";
        let (_, d) = probe_equilibrium_defect(bad, 2, 3, 1.0e5, [1.0, 0.5, 0.25]).unwrap();
        assert!(d > 1e-3);
        assert!(probe_equilibrium_defect("1,2,3\n", 2, 3, 1.0, [1.0; 3]).is_err());
    }

    #[test]
    fn done_line_time_is_parsed() {
        let out = "running case 'x'\ndone: 500 steps, t = 6.9646e-3, 16384 cells, grind 47.5 ns\n";
        assert_eq!(done_time(out), Some(6.9646e-3));
        assert_eq!(done_time("nothing"), None);
    }
}
