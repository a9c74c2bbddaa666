//! Median and tail of a timing sample.
//!
//! The tail is the highest whole percentile from p50 to p99 that still has
//! at least [`MIN_BEYOND`] samples strictly beyond it, so a tail is never
//! one or two outliers. Percentiles use the nearest-rank definition: the p-th
//! percentile of `n` sorted samples is the one at 1-based rank
//! `ceil(p / 100 * n)`.

/// Highest tail percentile. Higher percentiles of wall time on a shared
/// host measure the host, not the program.
pub const TAIL_MAX: usize = 99;

/// Lowest tail percentile: below the median is no tail.
pub const TAIL_MIN: usize = 50;

/// Samples that must lie beyond a percentile for it to serve as the tail.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest-rank p50).
    pub median: f64,
    /// The tail value.
    pub tail: f64,
    /// Which percentile the tail is; `100` when fewer than
    /// `MIN_BEYOND + 1` samples exist and the tail is the maximum.
    pub tail_pct: f64,
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// The tail percentile for `n` samples: the highest whole percentile in
/// `TAIL_MIN..=TAIL_MAX` with at least `MIN_BEYOND` samples beyond its
/// rank, or `None` if none has.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (TAIL_MIN..=TAIL_MAX)
        .rev()
        .find(|&p| n >= MIN_BEYOND && n - rank(p, n) >= MIN_BEYOND)
}

/// Summarize `samples` (any order). `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |p: usize| sorted[rank(p, n) - 1];
    let (tail, tail_pct) = match tail_percentile(n) {
        Some(p) => (at(p), p as f64),
        None => (sorted[n - 1], 100.0),
    };
    Some(Summary {
        n,
        median: at(50),
        tail,
        tail_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: scan every candidate percentile, count the samples strictly
    /// greater in rank than its nearest-rank position in a sorted vector.
    fn oracle(samples: &[f64]) -> (f64, f64, f64) {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        // Smallest rank r with r / n >= p / 100.
        let pick = |p: usize| (1..=n).find(|&r| 100 * r >= p * n).unwrap();
        let median = v[pick(50) - 1];
        for p in (50..=99).rev() {
            let r = pick(p);
            if n - r >= 10 {
                return (median, v[r - 1], p as f64);
            }
        }
        (median, v[n - 1], 100.0)
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn matches_sorted_vector_oracle() {
        let mut seed = 9;
        for n in (1..=400).chain([999, 1000, 1001, 1009, 1010, 1011, 2500]) {
            let xs: Vec<f64> = (0..n).map(|_| lcg(&mut seed) * 100.0).collect();
            let s = summarize(&xs).unwrap();
            let (median, tail, pct) = oracle(&xs);
            assert_eq!(
                (s.median, s.tail, s.tail_pct),
                (median, tail, pct),
                "n = {n}"
            );
            assert_eq!(s.n, n);
        }
    }

    #[test]
    fn at_least_ten_samples_beyond_the_tail() {
        // 20 samples: p50 is rank 10 with 10 beyond; p75 (rank 15) has 5.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.tail_pct, s.tail), (50.0, 10.0));
        // 1010 samples: p99 is rank 1000 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(summarize(&xs).unwrap().tail_pct, 99.0);
        // 1009 samples: p99 is rank 999 with 10 beyond as well.
        assert_eq!(tail_percentile(1009), Some(99));
        // 1000 samples: p99 has exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples: p99 rank 990 leaves 9 beyond; p98 (rank 980) has 19.
        assert_eq!(tail_percentile(999), Some(98));
        // 32 samples: p68 is rank 22 with 10 beyond; p69 is rank 23.
        assert_eq!(tail_percentile(32), Some(68));
        // 21 samples: p52 is rank 11 with 10 beyond.
        assert_eq!(tail_percentile(21), Some(52));
        // Too few samples for any percentile: the tail is the maximum.
        assert_eq!(tail_percentile(19), None);
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
        assert!(summarize(&[]).is_none());
    }
}
