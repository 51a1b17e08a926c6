//! A sparse integer histogram, used for datathread run-length
//! distributions and BSHR occupancy profiles.

use std::collections::BTreeMap;

/// A sparse histogram over `u64` keys.
///
/// # Examples
///
/// ```
/// use ds_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(3);
/// h.record(10);
/// assert_eq!(h.count(3), 2);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.max(), Some(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.buckets.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// The number of observations of exactly `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(&value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The largest observed value, if any.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// The smallest observed value, if any.
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Arithmetic mean of the observations, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.buckets.iter().map(|(&v, &n)| v as f64 * n as f64).sum();
        sum / self.total as f64
    }

    /// The smallest value `v` such that at least `q` (in `[0,1]`) of the
    /// observations are `<= v`. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let threshold = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&v, &n) in &self.buckets {
            seen += n;
            if seen >= threshold {
                return Some(v);
            }
        }
        self.max()
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &n)| (v, n))
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl Extend<u64> for Histogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn mean_weights_by_count() {
        let mut h = Histogram::new();
        h.record_n(1, 3);
        h.record_n(5, 1);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(7, 0);
        assert!(h.is_empty());
        assert_eq!(h.count(7), 0);
    }

    #[test]
    fn iter_is_sorted() {
        let mut h = Histogram::new();
        h.extend([9, 1, 5, 1]);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 2), (5, 1), (9, 1)]);
    }
}
