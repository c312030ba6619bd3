//! Order statistics and the two-point grind estimate.

/// Median / quartiles / count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartile distance as a share of the median — the spread the
    /// regression bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so this harness and the PR driver agree on what
/// "spread" means. Fewer than two samples have no spread.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    let med = median(&v);
    if n < 2 {
        return Summary {
            median: med,
            q1: med,
            q3: med,
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: med,
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// The percentile a run's timing samples are reduced to: the fast decile
/// (the minimum of up to ten samples, the second of up to twenty, ..).
pub const FAST: f64 = 0.10;

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The paper's grind time (ns per cell per equation per RHS evaluation)
/// from two runs of the same case that differ only in step count: the
/// difference cancels process start-up, initialisation and output.
pub fn two_point_grind_ns(
    wall_full_s: f64,
    wall_one_step_s: f64,
    steps: u64,
    cells: u64,
    neq: u64,
    stages: u64,
) -> f64 {
    let work = (steps - 1) as f64 * cells as f64 * neq as f64 * stages as f64;
    (wall_full_s - wall_one_step_s) * 1e9 / work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = summarize(&[4.2]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.2, 4.2, 4.2, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn two_point_grind_cancels_fixed_cost() {
        // 1000 cells x 3 eq x 3 stages at 10 ns each, 0.5 s fixed cost.
        let per_step = 1000.0 * 3.0 * 3.0 * 10e-9;
        let one = 0.5 + per_step;
        let full = 0.5 + 41.0 * per_step;
        let g = two_point_grind_ns(full, one, 41, 1000, 3, 3);
        assert!((g - 10.0).abs() < 1e-9, "{g}");
    }
}
