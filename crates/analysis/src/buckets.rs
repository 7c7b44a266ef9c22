//! Bucketed prediction statistics.
//!
//! Every experiment in the paper reduces to the same bookkeeping: group
//! dynamic branches by some *key* — the static branch PC (§2), the CIR
//! pattern read from a table (§4), or a reduced counter value (§5) — and
//! count, per key, how many predictions and how many mispredictions
//! occurred. [`BucketStats`] is that bookkeeping, with `f64` weights so
//! that multiple benchmarks can be combined with the paper's
//! equal-dynamic-branch normalization (§1.2).

use std::collections::HashMap;

/// Accumulated references and mispredictions for one bucket key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BucketCell {
    /// Weighted number of dynamic branches that read this key.
    pub refs: f64,
    /// Weighted number of those that were mispredicted.
    pub mispredicts: f64,
}

impl BucketCell {
    /// Misprediction rate within the bucket (0 for an empty bucket).
    pub fn miss_rate(&self) -> f64 {
        if self.refs > 0.0 {
            self.mispredicts / self.refs
        } else {
            0.0
        }
    }
}

/// Per-key prediction statistics.
///
/// # Examples
///
/// ```
/// use cira_analysis::BucketStats;
///
/// let mut stats = BucketStats::new();
/// stats.observe(0, false); // key 0, correctly predicted
/// stats.observe(0, true);  // key 0, mispredicted
/// stats.observe(7, true);
/// assert_eq!(stats.total_refs(), 3.0);
/// assert_eq!(stats.total_mispredicts(), 2.0);
/// assert_eq!(stats.cell(0).unwrap().miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStats {
    cells: HashMap<u64, BucketCell>,
    total_refs: f64,
    total_miss: f64,
}

impl BucketStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic branch with unit weight.
    pub fn observe(&mut self, key: u64, mispredicted: bool) {
        self.observe_weighted(key, mispredicted, 1.0);
    }

    /// Records one dynamic branch with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn observe_weighted(&mut self, key: u64, mispredicted: bool, weight: f64) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "weight must be finite and >= 0"
        );
        let cell = self.cells.entry(key).or_default();
        cell.refs += weight;
        self.total_refs += weight;
        if mispredicted {
            cell.mispredicts += weight;
            self.total_miss += weight;
        }
    }

    /// Records a pre-aggregated batch of unit-weight observations for one
    /// key: `refs` dynamic branches of which `mispredicts` missed.
    ///
    /// Integer counts below 2^53 are exact in `f64`, so folding per-key
    /// totals in any order produces bit-identical statistics to calling
    /// [`observe`](Self::observe) once per branch — the property the
    /// execution engine's batched replay kernel relies on.
    ///
    /// # Panics
    ///
    /// Panics if `mispredicts > refs`.
    pub fn record_batch(&mut self, key: u64, refs: u64, mispredicts: u64) {
        assert!(
            mispredicts <= refs,
            "mispredicts ({mispredicts}) cannot exceed refs ({refs})"
        );
        if refs == 0 {
            return;
        }
        let cell = self.cells.entry(key).or_default();
        cell.refs += refs as f64;
        cell.mispredicts += mispredicts as f64;
        self.total_refs += refs as f64;
        self.total_miss += mispredicts as f64;
    }

    /// Merges raw weighted counts for one key — the inverse of [`iter`]
    /// (`from_cells ∘ iter` is the identity), used to reconstruct statistics
    /// shipped cell-by-cell over the `cira-serve` wire protocol.
    ///
    /// # Panics
    ///
    /// Panics if either count is negative or non-finite, or if
    /// `mispredicts > refs`.
    ///
    /// [`iter`]: Self::iter
    pub fn merge_cell(&mut self, key: u64, refs: f64, mispredicts: f64) {
        assert!(
            refs >= 0.0 && refs.is_finite() && mispredicts >= 0.0 && mispredicts.is_finite(),
            "cell counts must be finite and >= 0"
        );
        assert!(
            mispredicts <= refs,
            "mispredicts ({mispredicts}) cannot exceed refs ({refs})"
        );
        let cell = self.cells.entry(key).or_default();
        cell.refs += refs;
        cell.mispredicts += mispredicts;
        self.total_refs += refs;
        self.total_miss += mispredicts;
    }

    /// The cell for `key`, if any branch ever read it.
    pub fn cell(&self, key: u64) -> Option<&BucketCell> {
        self.cells.get(&key)
    }

    /// Number of distinct keys observed.
    pub fn distinct_keys(&self) -> usize {
        self.cells.len()
    }

    /// Total weighted references.
    pub fn total_refs(&self) -> f64 {
        self.total_refs
    }

    /// Total weighted mispredictions.
    pub fn total_mispredicts(&self) -> f64 {
        self.total_miss
    }

    /// Overall misprediction rate.
    pub fn miss_rate(&self) -> f64 {
        if self.total_refs > 0.0 {
            self.total_miss / self.total_refs
        } else {
            0.0
        }
    }

    /// Iterates `(key, cell)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BucketCell)> {
        self.cells.iter().map(|(k, c)| (*k, c))
    }

    /// Returns a copy scaled so that `total_refs() == 1.0` (no-op on an
    /// empty accumulator).
    pub fn normalized(&self) -> BucketStats {
        if self.total_refs == 0.0 {
            return self.clone();
        }
        let s = 1.0 / self.total_refs;
        let mut out = BucketStats::new();
        for (k, c) in self.iter() {
            let cell = out.cells.entry(k).or_default();
            cell.refs = c.refs * s;
            cell.mispredicts = c.mispredicts * s;
        }
        out.total_refs = 1.0;
        out.total_miss = self.total_miss * s;
        out
    }

    /// Adds `other` into `self`, scaled by `weight`.
    pub fn merge_weighted(&mut self, other: &BucketStats, weight: f64) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "weight must be finite and >= 0"
        );
        for (k, c) in other.iter() {
            let cell = self.cells.entry(k).or_default();
            cell.refs += c.refs * weight;
            cell.mispredicts += c.mispredicts * weight;
        }
        self.total_refs += other.total_refs * weight;
        self.total_miss += other.total_miss * weight;
    }

    /// Combines per-benchmark statistics with the paper's normalization:
    /// each input is scaled so it contributes the same number of dynamic
    /// branches (§1.2 "each benchmark, in effect, executes the same number
    /// of conditional branches").
    pub fn combine_equal_weight<'a, I>(parts: I) -> BucketStats
    where
        I: IntoIterator<Item = &'a BucketStats>,
    {
        let mut out = BucketStats::new();
        for p in parts {
            out.merge_weighted(&p.normalized(), 1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = BucketStats::new();
        assert_eq!(s.total_refs(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.distinct_keys(), 0);
        assert!(s.cell(0).is_none());
    }

    #[test]
    fn observe_accumulates() {
        let mut s = BucketStats::new();
        s.observe(1, true);
        s.observe(1, false);
        s.observe(2, false);
        assert_eq!(s.distinct_keys(), 2);
        assert_eq!(s.total_refs(), 3.0);
        assert_eq!(s.total_mispredicts(), 1.0);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_observation() {
        let mut s = BucketStats::new();
        s.observe_weighted(5, true, 2.5);
        assert_eq!(s.cell(5).unwrap().refs, 2.5);
        assert_eq!(s.cell(5).unwrap().mispredicts, 2.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_rejected() {
        BucketStats::new().observe_weighted(0, false, -1.0);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut s = BucketStats::new();
        for i in 0..10 {
            s.observe(i % 3, i % 4 == 0);
        }
        let n = s.normalized();
        assert!((n.total_refs() - 1.0).abs() < 1e-12);
        assert!((n.miss_rate() - s.miss_rate()).abs() < 1e-12);
    }

    #[test]
    fn normalized_empty_is_empty() {
        let s = BucketStats::new().normalized();
        assert_eq!(s.total_refs(), 0.0);
    }

    #[test]
    fn equal_weight_combination_balances_benchmarks() {
        // Benchmark A: 1000 branches, 10% miss. Benchmark B: 10 branches,
        // 50% miss. Equal weighting => overall miss = (0.1 + 0.5) / 2.
        let mut a = BucketStats::new();
        for i in 0..1000 {
            a.observe(0, i % 10 == 0);
        }
        let mut b = BucketStats::new();
        for i in 0..10 {
            b.observe(1, i % 2 == 0);
        }
        let c = BucketStats::combine_equal_weight([&a, &b]);
        assert!((c.miss_rate() - 0.3).abs() < 1e-9, "got {}", c.miss_rate());
        assert!((c.total_refs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_weighted_accumulates_cells() {
        let mut a = BucketStats::new();
        a.observe(3, true);
        let mut b = BucketStats::new();
        b.observe(3, false);
        b.observe(4, true);
        a.merge_weighted(&b, 2.0);
        assert_eq!(a.cell(3).unwrap().refs, 3.0);
        assert_eq!(a.cell(4).unwrap().mispredicts, 2.0);
        assert_eq!(a.total_refs(), 5.0);
    }

    #[test]
    fn record_batch_matches_per_branch_observation() {
        let mut a = BucketStats::new();
        for i in 0..1000 {
            a.observe(i % 5, i % 7 == 0);
        }
        let mut b = BucketStats::new();
        for key in 0..5u64 {
            let refs = (0..1000u64).filter(|i| i % 5 == key).count() as u64;
            let miss = (0..1000u64).filter(|i| i % 5 == key && i % 7 == 0).count() as u64;
            b.record_batch(key, refs, miss);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn record_batch_zero_refs_is_noop() {
        let mut s = BucketStats::new();
        s.record_batch(3, 0, 0);
        assert_eq!(s.distinct_keys(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn record_batch_rejects_excess_misses() {
        BucketStats::new().record_batch(0, 1, 2);
    }

    #[test]
    fn bucket_cell_miss_rate_handles_empty() {
        assert_eq!(BucketCell::default().miss_rate(), 0.0);
    }

    #[test]
    fn merge_cell_reconstructs_from_iter() {
        let mut a = BucketStats::new();
        for i in 0..500 {
            a.observe(i % 7, i % 3 == 0);
        }
        let mut b = BucketStats::new();
        for (k, c) in a.iter() {
            b.merge_cell(k, c.refs, c.mispredicts);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn merge_cell_rejects_excess_misses() {
        BucketStats::new().merge_cell(0, 1.0, 2.0);
    }
}
