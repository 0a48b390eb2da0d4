//! The arithmetic of the ruler: percentiles, the better-5 % slice rank,
//! Python-compatible quartiles, and the steadiness/compare rule.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the values (mean of the middle two when even); sorts them.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// By how much of `base` the value `new` is worse (negative: better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

/// Share of the slices that the reported one leaves on its better side.
pub const BETTER_RANK: f64 = 0.05;

/// The slice rule: of the per-slice values, the one at the better 5 %
/// rank — 3rd best of 60, 2nd best of 25, best of 4.
///
/// Interference (stolen CPU, a neighbour's cache traffic) only ever
/// slows a slice, so the fast edge of the distribution is the program's
/// own speed; a rank just inside the edge, not the edge itself, keeps
/// one lucky slice from setting the number.
pub fn better_rank(values: &[f64], better: Better) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let k = ((BETTER_RANK * v.len() as f64).ceil() as usize).max(1);
    Some(v[k - 1])
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method): `(q1, q2, q3)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4i64;
    let m = ld as i64 + 1;
    let q = |i: i64| {
        // As CPython does it: clamp the index first, then take the
        // remainder against the clamped index (it may be negative or
        // exceed n at the ends, which extrapolates).
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Median and inter-quartile spread of one metric over one set of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Summary { median, q1, q3 })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule the benchmark check applies to two sets of runs: a spread
/// wider than the bound cannot resolve a difference of that size
/// (`unresolved`); otherwise the second median may be worse than the
/// first by at most the bound.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if better.worse_by(a.median, b.median) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}
