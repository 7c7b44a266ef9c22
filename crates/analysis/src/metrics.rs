//! Confusion-matrix metrics for online high/low confidence estimators.
//!
//! The paper evaluates confidence sets with coverage curves; follow-on work
//! (Grunwald, Klauser, Manne & Pleszkun, ISCA 1998) standardized four
//! derived metrics which we also report, treating "low confidence" as the
//! positive class for misprediction detection:
//!
//! * **SENS** (sensitivity) — fraction of mispredictions flagged low.
//! * **SPEC** (specificity) — fraction of correct predictions flagged high.
//! * **PVN** (predictive value of a negative/low signal) — probability a
//!   low-confidence prediction is actually wrong.
//! * **PVP** (predictive value of a positive/high signal) — probability a
//!   high-confidence prediction is actually right.

use std::fmt;

use cira_core::{Confidence, LowRule};

use crate::buckets::BucketStats;

/// Counts of (confidence signal × prediction correctness) outcomes.
///
/// # Examples
///
/// ```
/// use cira_analysis::ConfusionCounts;
/// use cira_core::Confidence;
///
/// let mut c = ConfusionCounts::new();
/// c.observe(Confidence::Low, false);  // flagged low, mispredicted: good
/// c.observe(Confidence::High, true);  // flagged high, correct: good
/// assert_eq!(c.sensitivity(), 1.0);
/// assert_eq!(c.specificity(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// High-confidence predictions that were correct.
    pub high_correct: u64,
    /// High-confidence predictions that were mispredicted (missed).
    pub high_incorrect: u64,
    /// Low-confidence predictions that were correct (false alarms).
    pub low_correct: u64,
    /// Low-confidence predictions that were mispredicted (caught).
    pub low_incorrect: u64,
}

impl ConfusionCounts {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction with its confidence signal and correctness.
    pub fn observe(&mut self, confidence: Confidence, correct: bool) {
        match (confidence, correct) {
            (Confidence::High, true) => self.high_correct += 1,
            (Confidence::High, false) => self.high_incorrect += 1,
            (Confidence::Low, true) => self.low_correct += 1,
            (Confidence::Low, false) => self.low_incorrect += 1,
        }
    }

    /// Total predictions observed.
    pub fn total(&self) -> u64 {
        self.high_correct + self.high_incorrect + self.low_correct + self.low_incorrect
    }

    /// Total mispredictions observed.
    pub fn total_incorrect(&self) -> u64 {
        self.high_incorrect + self.low_incorrect
    }

    /// Fraction of all predictions flagged low confidence — the size of
    /// the low-confidence set (the paper's x-axis).
    pub fn low_fraction(&self) -> f64 {
        ratio(self.low_correct + self.low_incorrect, self.total())
    }

    /// Fraction of all mispredictions captured in the low-confidence set —
    /// the paper's y-axis. Equals [`sensitivity`](Self::sensitivity).
    pub fn mispredict_coverage(&self) -> f64 {
        self.sensitivity()
    }

    /// SENS: mispredictions flagged low / all mispredictions.
    pub fn sensitivity(&self) -> f64 {
        ratio(self.low_incorrect, self.total_incorrect())
    }

    /// SPEC: correct predictions flagged high / all correct predictions.
    pub fn specificity(&self) -> f64 {
        ratio(self.high_correct, self.high_correct + self.low_correct)
    }

    /// PVN: low-confidence predictions that were wrong / all low flags.
    pub fn pvn(&self) -> f64 {
        ratio(self.low_incorrect, self.low_incorrect + self.low_correct)
    }

    /// PVP: high-confidence predictions that were right / all high flags.
    pub fn pvp(&self) -> f64 {
        ratio(self.high_correct, self.high_correct + self.high_incorrect)
    }

    /// Overall misprediction rate of the underlying predictor.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.total_incorrect(), self.total())
    }

    /// The counts a [`LowRule`] estimator produces over the branches behind
    /// unit-weight `stats`: each key's references fall in the low or the
    /// high set as the rule classifies the key. The estimator tests the
    /// key its mechanism reads before the update, which is the key the
    /// bucket statistics count.
    pub fn from_buckets(stats: &BucketStats, rule: &LowRule) -> Self {
        let mut counts = Self::new();
        for (key, cell) in stats.iter() {
            let (refs, miss) = (cell.refs as u64, cell.mispredicts as u64);
            let (correct, incorrect) = if rule.is_low(key) {
                (&mut counts.low_correct, &mut counts.low_incorrect)
            } else {
                (&mut counts.high_correct, &mut counts.high_incorrect)
            };
            *correct += refs - miss;
            *incorrect += miss;
        }
        counts
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &ConfusionCounts) {
        self.high_correct += other.high_correct;
        self.high_incorrect += other.high_incorrect;
        self.low_correct += other.low_correct;
        self.low_incorrect += other.low_incorrect;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ConfusionCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "low set {:.1}% | coverage {:.1}% | PVN {:.3} PVP {:.4} SENS {:.3} SPEC {:.3}",
            100.0 * self.low_fraction(),
            100.0 * self.mispredict_coverage(),
            self.pvn(),
            self.pvp(),
            self.sensitivity(),
            self.specificity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionCounts {
        ConfusionCounts {
            high_correct: 900,
            high_incorrect: 10,
            low_correct: 60,
            low_incorrect: 30,
        }
    }

    #[test]
    fn totals() {
        let c = sample();
        assert_eq!(c.total(), 1000);
        assert_eq!(c.total_incorrect(), 40);
        assert!((c.miss_rate() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn axes() {
        let c = sample();
        assert!((c.low_fraction() - 0.09).abs() < 1e-12);
        assert!((c.mispredict_coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn grunwald_metrics() {
        let c = sample();
        assert!((c.sensitivity() - 30.0 / 40.0).abs() < 1e-12);
        assert!((c.specificity() - 900.0 / 960.0).abs() < 1e-12);
        assert!((c.pvn() - 30.0 / 90.0).abs() < 1e-12);
        assert!((c.pvp() - 900.0 / 910.0).abs() < 1e-12);
    }

    #[test]
    fn observe_routes_correctly() {
        let mut c = ConfusionCounts::new();
        c.observe(Confidence::High, true);
        c.observe(Confidence::High, false);
        c.observe(Confidence::Low, true);
        c.observe(Confidence::Low, false);
        assert_eq!(
            c,
            ConfusionCounts {
                high_correct: 1,
                high_incorrect: 1,
                low_correct: 1,
                low_incorrect: 1
            }
        );
    }

    #[test]
    fn empty_counts_yield_zero_ratios() {
        let c = ConfusionCounts::new();
        assert_eq!(c.sensitivity(), 0.0);
        assert_eq!(c.pvn(), 0.0);
        assert_eq!(c.low_fraction(), 0.0);
    }

    #[test]
    fn bucket_partition_matches_the_estimator() {
        use cira_core::one_level::ResettingConfidence;
        use cira_core::{IndexSpec, InitPolicy, ThresholdEstimator};
        use cira_predictor::Gshare;
        use cira_trace::suite::ibs_like_suite;

        let trace: Vec<_> = ibs_like_suite()[2].walker().take(20_000).collect();
        let mechanism =
            || ResettingConfidence::new(IndexSpec::pc_xor_bhr(10), 16, InitPolicy::AllOnes);
        let stats = crate::runner::collect_mechanism_buckets(
            trace.iter().copied(),
            &mut Gshare::new(10, 10),
            &mut mechanism(),
        );
        for threshold in [0, 1, 8, 17] {
            let mut estimator = ThresholdEstimator::new(mechanism(), LowRule::KeyBelow(threshold));
            let online = crate::runner::run_estimator(
                trace.iter().copied(),
                &mut Gshare::new(10, 10),
                &mut estimator,
            );
            let rule = LowRule::KeyBelow(threshold);
            assert_eq!(
                ConfusionCounts::from_buckets(&stats, &rule),
                online,
                "key<{threshold}"
            );
        }
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total(), 2000);
        assert_eq!(a.low_incorrect, 60);
    }

    #[test]
    fn display_mentions_metrics() {
        let s = sample().to_string();
        assert!(s.contains("PVN") && s.contains("coverage"), "{s}");
    }
}

/// Leave-one-out (jackknife) summary of a per-benchmark statistic: mean
/// and standard error across benchmarks.
///
/// The paper reports suite averages without error bars; Fig. 9 shows the
/// spread matters. This helper quantifies it: pass one value per
/// benchmark (e.g. coverage at the 20% budget) and report `mean ± se`.
///
/// # Examples
///
/// ```
/// use cira_analysis::metrics::jackknife;
///
/// let (mean, se) = jackknife(&[80.0, 82.0, 84.0]);
/// assert!((mean - 82.0).abs() < 1e-12);
/// assert!(se > 0.0);
/// ```
pub fn jackknife(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0);
    }
    // Leave-one-out means.
    let total: f64 = values.iter().sum();
    let loo: Vec<f64> = values
        .iter()
        .map(|v| (total - v) / (n - 1) as f64)
        .collect();
    let loo_mean = loo.iter().sum::<f64>() / n as f64;
    let var = loo.iter().map(|m| (m - loo_mean).powi(2)).sum::<f64>() * (n - 1) as f64 / n as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod jackknife_tests {
    use super::jackknife;

    #[test]
    fn empty_and_single() {
        assert_eq!(jackknife(&[]), (0.0, 0.0));
        assert_eq!(jackknife(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn constant_values_have_zero_error() {
        let (mean, se) = jackknife(&[3.0; 10]);
        assert_eq!(mean, 3.0);
        assert!(se.abs() < 1e-12);
    }

    #[test]
    fn matches_standard_error_for_iid_samples() {
        // For the plain mean, jackknife SE equals the classic s/sqrt(n).
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (mean, se) = jackknife(&v);
        assert!((mean - 3.5).abs() < 1e-12);
        let s2 = v.iter().map(|x| (x - 3.5f64).powi(2)).sum::<f64>() / 5.0;
        let classic = (s2 / 6.0).sqrt();
        assert!((se - classic).abs() < 1e-9, "jk {se} vs classic {classic}");
    }

    #[test]
    fn wider_spread_gives_larger_error() {
        let (_, tight) = jackknife(&[10.0, 10.1, 9.9]);
        let (_, wide) = jackknife(&[5.0, 15.0, 10.0]);
        assert!(wide > tight);
    }
}
