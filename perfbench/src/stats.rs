//! Order statistics and digests used by every workload.

use std::collections::BTreeMap;

use cira_analysis::{BucketStats, CoverageCurve};

/// Nearest-rank percentile of `values` (`q` in `0.0..=1.0`); sorts in
/// place. Returns `NaN` for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median by the midpoint rule (mean of the two middle values for an
/// even count), so it moves with every run instead of snapping to one
/// sample. Returns `NaN` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Latency samples kept in strata. Offline, a stratum is one benchmark
/// (the benchmarks differ in cost, so pooled samples form one cluster
/// per benchmark and a pooled percentile jumps between clusters from run
/// to run), and a run's percentile is the mean over benchmarks. On the
/// serve workloads a stratum is one second of the timed phase, and a
/// run's percentile is the median over seconds: a burst of the host's
/// disk traffic slows the `fsync` behind PARK in the seconds it falls
/// in, and the median leaves those seconds out while they are fewer than
/// half.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    strata: BTreeMap<u32, Vec<f64>>,
}

impl Samples {
    /// Adds one sample to `stratum`.
    pub fn push(&mut self, stratum: u32, value: f64) {
        self.strata.entry(stratum).or_default().push(value);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: Samples) {
        for (k, v) in other.strata {
            self.strata.entry(k).or_default().extend(v);
        }
    }

    /// Samples in all strata.
    pub fn len(&self) -> usize {
        self.strata.values().map(Vec::len).sum()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Strata holding samples.
    pub fn strata(&self) -> usize {
        self.strata.len()
    }

    /// Each stratum's nearest-rank percentile `q`.
    fn per_stratum(&self, q: f64) -> Vec<f64> {
        self.strata
            .values()
            .map(|v| percentile(&mut v.clone(), q))
            .collect()
    }

    /// The mean over strata of each stratum's nearest-rank percentile
    /// `q`; `NaN` when there are no samples.
    pub fn percentile(&self, q: f64) -> f64 {
        self.per_stratum(q).iter().sum::<f64>() / self.strata.len() as f64
    }

    /// The median over strata of each stratum's nearest-rank percentile
    /// `q`; `NaN` when there are no samples.
    pub fn median_percentile(&self, q: f64) -> f64 {
        median(&mut self.per_stratum(q))
    }
}

/// An order-independent digest of a [`BucketStats`] (it iterates a hash
/// map): equal statistics always give equal digests.
pub fn digest(stats: &BucketStats) -> u64 {
    let mut sum = mix(stats.total_refs().to_bits() ^ mix(stats.total_mispredicts().to_bits()));
    for (key, cell) in stats.iter() {
        sum = sum.wrapping_add(mix(
            key ^ mix(cell.refs.to_bits() ^ mix(cell.mispredicts.to_bits()))
        ));
    }
    sum
}

/// splitmix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Misprediction coverage at a 20% low-confidence budget (the paper's
/// headline operating point), in percent.
pub fn coverage20(stats: &BucketStats) -> f64 {
    CoverageCurve::from_buckets(stats).coverage_at(20.0)
}

/// The simulated-statistics sentinels of a workload: exact functions of
/// the seeded inputs, which a speed-only change must leave identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sentinels {
    /// Mispredictions per 1000 scored records.
    pub mpki: f64,
    /// Mean coverage at 20% over the workload's cells.
    pub coverage20_pct: f64,
}

impl Sentinels {
    /// Folds `(records, mispredicts, coverage sum, statistics summed)`
    /// parts, one per input.
    pub fn fold(parts: impl IntoIterator<Item = (u64, u64, f64, usize)>) -> Sentinels {
        let (mut records, mut misses, mut cov, mut n) = (0u64, 0u64, 0.0, 0usize);
        for (r, m, c, k) in parts {
            records += r;
            misses += m;
            cov += c;
            n += k;
        }
        Sentinels {
            mpki: misses as f64 * 1000.0 / records.max(1) as f64,
            coverage20_pct: cov / n.max(1) as f64,
        }
    }

    /// From one mechanism's statistics per input.
    pub fn of_stats(stats: impl IntoIterator<Item = BucketStats>) -> Sentinels {
        Sentinels::fold(stats.into_iter().map(|s| {
            (
                s.total_refs() as u64,
                s.total_mispredicts() as u64,
                coverage20(&s),
                1,
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [7.0], 0.9), 7.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn stratified_percentile_is_the_mean_of_per_stratum_percentiles() {
        let mut s = Samples::default();
        assert!(s.percentile(0.5).is_nan());
        // Two strata of different sizes and levels: pooled, the median
        // would depend on which stratum has more samples.
        for v in [1.0, 2.0, 3.0] {
            s.push(0, v);
        }
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            s.push(7, v);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.strata(), 2);
        assert_eq!(s.percentile(0.5), (2.0 + 30.0) / 2.0);
        assert_eq!(s.percentile(0.9), (3.0 + 50.0) / 2.0);
        let mut t = Samples::default();
        t.push(0, 4.0);
        s.extend(t);
        assert_eq!(s.len(), 9);
        assert_eq!(s.percentile(0.5), (2.0 + 30.0) / 2.0);
    }

    #[test]
    fn median_percentile_leaves_out_a_minority_of_slow_strata() {
        let mut s = Samples::default();
        assert!(s.median_percentile(0.9).is_nan());
        // Four ordinary seconds and one slowed by a burst: the mean over
        // seconds moves with the burst, the median does not.
        for sec in 0..5u32 {
            let slow = if sec == 2 { 10.0 } else { 1.0 };
            for v in 1..=10 {
                s.push(sec, f64::from(v) * slow);
            }
        }
        assert_eq!(s.strata(), 5);
        assert_eq!(s.median_percentile(0.9), 9.0);
        assert_eq!(s.median_percentile(0.5), 5.0);
        assert!(s.percentile(0.9) > 9.0);
    }

    #[test]
    fn digest_ignores_iteration_order() {
        let mut a = BucketStats::new();
        let mut b = BucketStats::new();
        for k in 0..100u64 {
            a.record_batch(k, k + 1, k / 3);
        }
        for k in (0..100u64).rev() {
            b.record_batch(k, k + 1, k / 3);
        }
        assert_eq!(digest(&a), digest(&b));
        b.record_batch(5, 1, 0);
        assert_ne!(digest(&a), digest(&b));
    }
}
