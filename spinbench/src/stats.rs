//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice: every caller checks for samples first.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `q` percentile.
#[must_use]
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// A set of timing samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Wraps raw samples.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Appends another set.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q` percentile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it. The median needs only one sample.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() || (q > 0.5 && !reportable(self.values.len(), q)) {
            return None;
        }
        self.sort();
        Some(nearest_rank(&self.values, q))
    }

    /// The median (`None` without samples).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// The largest sample.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// The raw samples in insertion order (ascending once a percentile
    /// has been taken).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Median of a small set of figures (e.g. per-window percentiles or
/// repeated set-up times).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples leave 9 beyond the nearest-rank p99; 1000 leave 10.
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!reportable(999, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(reportable(1000, 0.99));
        // p95 needs 200, p50 needs 20 under the same rule.
        assert!(!reportable(199, 0.95));
        assert!(reportable(200, 0.95));
        assert!(reportable(20, 0.5));
    }

    #[test]
    fn unreportable_percentiles_are_withheld() {
        let mut s = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(s.median(), Some(500.0));
        s.push(1000.0);
        assert_eq!(s.percentile(0.99), Some(990.0));
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(s.values().iter().filter(|&&v| v > 990.0).count(), 10);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
