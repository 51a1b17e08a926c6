//! The statistics every host-time number goes through.
//!
//! Host speed on a shared machine moves in multi-second epochs, so the
//! median of a run's reps follows the epoch the run happened to sit
//! in. The *fast-fifth mean* — the mean of the fastest fifth of the
//! reps — asks instead "how fast does this code go when the host lets
//! it", which repeats far better (README, "Why fast-fifth").

/// Sorted copy of `xs` (ascending; NaNs are a caller bug).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Mean of the smallest `max(1, n / 5)` values: for durations, the
/// fastest fifth. `0.0` for an empty slice.
pub fn fast_fifth_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let k = (v.len() / 5).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice:
/// the smallest value with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero).
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let m = percentile(&v, 0.5);
    if m == 0.0 {
        0.0
    } else {
        (percentile(&v, 0.75) - percentile(&v, 0.25)) / m
    }
}

/// A small deterministic generator (SplitMix64) for everything the
/// benchmark generates itself from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so two
    /// drivers never replay each other's numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_fifth_on_known_vectors() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fast_fifth_mean(&ten), 1.5, "two fastest of ten");
        assert_eq!(
            fast_fifth_mean(&[5.0, 3.0, 9.0]),
            3.0,
            "fewer than five: the minimum"
        );
        assert_eq!(fast_fifth_mean(&[]), 0.0);
        let mut shuffled = ten.clone();
        shuffled.reverse();
        assert_eq!(fast_fifth_mean(&shuffled), 1.5, "order does not matter");
    }

    #[test]
    fn percentiles_and_iqr_on_known_vectors() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(
            percentile(&v, 0.8),
            48.0,
            "twelve samples beyond p80 of sixty"
        );
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 60.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iqr_frac(&[1.0, 2.0, 3.0, 4.0]), (3.0 - 1.0) / 2.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_shuffles_are_permutations() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
    }
}
