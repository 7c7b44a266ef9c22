//! # cira-core
//!
//! Branch-prediction **confidence mechanisms** — the primary contribution
//! of Jacobsen, Rotenberg & Smith, *"Assigning Confidence to Conditional
//! Branch Predictions"* (MICRO-29, 1996), reproduced in full.
//!
//! A confidence mechanism runs beside a branch predictor and partitions its
//! predictions into **high** and **low** confidence sets, concentrating as
//! many mispredictions as possible into a small low-confidence set. The
//! paper's taxonomy maps onto this crate as follows:
//!
//! | Paper | Here |
//! |---|---|
//! | Correct/Incorrect Register (CIR) | [`Cir`] |
//! | CIR Table (CT) | [`table::CirTable`], a [`table::Table`] of [`table::CirEntry`] |
//! | Index functions (PC, BHR, PC⊕BHR, global CIR, concat) §3.1 | [`IndexSpec`] |
//! | One-level methods §3.1 | [`one_level::OneLevelCir`], a [`one_level::OneLevel`] of CIRs |
//! | Two-level methods §3.2 | [`two_level::TwoLevelCir`] |
//! | Ones-count reduction §5.1 | [`one_level::MappedKey::ones_count`] + [`LowRule::OnesAtLeast`] |
//! | Saturating-counter reduction §5.1 | [`one_level::SaturatingConfidence`] |
//! | Resetting-counter reduction §5.1 | [`one_level::ResettingConfidence`] |
//! | CT initialization §5.4 | [`InitPolicy`] |
//! | Static profile method §2 | [`StaticConfidence`] |
//!
//! Beyond the paper, [`SelfConfidence`] buckets on the *predictor's own*
//! per-prediction strength (TAGE provider counters, gshare saturation) so
//! the external mechanisms above can be compared against a predictor
//! that knows its own confidence.
//!
//! ## Mechanisms vs. estimators
//!
//! A [`ConfidenceMechanism`] maintains the table state and exposes the raw
//! *key* read for each branch (a CIR pattern or a counter value). Offline
//! analyses (`cira-analysis`) aggregate keys into buckets to compute the
//! paper's cumulative-misprediction curves and *ideal* reductions; online
//! consumers wrap a mechanism in a [`ThresholdEstimator`] with a
//! [`LowRule`] to obtain the binary signal of Fig. 1.
//!
//! # Examples
//!
//! ```
//! use cira_core::one_level::ResettingConfidence;
//! use cira_core::{ConfidenceEstimator, IndexSpec, LowRule, ThresholdEstimator};
//!
//! // The paper's recommended practical design: a resetting-counter table
//! // indexed by PC xor BHR, low-confidence while the counter is below 16.
//! let mechanism = ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(16));
//! let mut estimator = ThresholdEstimator::new(mechanism, LowRule::KeyBelow(16));
//! let confidence = estimator.estimate(0x4000, 0b1010);
//! estimator.update(0x4000, 0b1010, /* prediction was correct = */ true);
//! assert!(confidence.is_low()); // cold entries start low-confidence
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod cir;
pub mod estimator;
pub mod index;
pub mod init;
pub mod multi_level;
pub mod one_level;
pub mod self_confidence;
pub mod static_profile;
pub mod table;
pub mod two_level;

pub use adaptive::AdaptiveEstimator;
pub use cir::Cir;
pub use estimator::{Confidence, ConfidenceEstimator, LowRule, ThresholdEstimator};
pub use index::{Combine, IndexInputs, IndexSource, IndexSpec, XorIndex};
pub use init::InitPolicy;
pub use multi_level::{ClassStats, MultiLevelEstimator};
pub use self_confidence::SelfConfidence;
pub use static_profile::StaticConfidence;

/// A confidence table plus its index function: maintains per-entry
/// correctness state and exposes the raw key read for each branch.
///
/// `read_key` must be pure (no state change); `update` records the
/// correctness of one prediction and must be called exactly once per
/// dynamic branch, after `read_key`, with the same `(pc, bhr)`.
pub trait ConfidenceMechanism {
    /// The key (CIR pattern, counter value, …) currently stored for the
    /// branch at `pc` under global history `bhr`.
    fn read_key(&self, pc: u64, bhr: u64) -> u64;

    /// Records whether the prediction for this branch was correct.
    fn update(&mut self, pc: u64, bhr: u64, correct: bool);

    /// Batched `read_key` + `update` over parallel record slices: for each
    /// `i`, writes `read_key(pcs[i], bhrs[i])` into `keys[i]` and then
    /// applies `update(pcs[i], bhrs[i], correct[i])`, in order.
    ///
    /// Overrides may share work between the two halves (e.g. compute the
    /// table slot once per record) but must remain bit-identical to this
    /// default — the batched replay kernel relies on that.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn observe_batch(&mut self, pcs: &[u64], bhrs: &[u64], correct: &[bool], keys: &mut [u64]) {
        assert!(
            pcs.len() == bhrs.len() && pcs.len() == correct.len() && pcs.len() == keys.len(),
            "observe_batch slices must have equal lengths"
        );
        for i in 0..pcs.len() {
            keys[i] = self.read_key(pcs[i], bhrs[i]);
            self.update(pcs[i], bhrs[i], correct[i]);
        }
    }

    /// Upper bound on distinct keys, when small enough to enumerate
    /// (e.g. `17` for 0..=16 counters, `2^16` for 16-bit CIRs).
    fn key_space(&self) -> Option<u64>;

    /// Short human-readable description.
    fn describe(&self) -> String;

    /// Re-initializes all table state to its configured initial values —
    /// models the context-switch flush discussed (but not studied) in
    /// §5.4. Global history is owned by the driver and is *not* affected.
    fn flush(&mut self);

    /// Appends this mechanism's **mutable** state (table entries, counters,
    /// the global CIR) to `out` using the `cira_predictor::state` byte
    /// discipline. Configuration — index spec, widths, init policy — is
    /// *not* serialized: checkpoints carry the spec string separately and
    /// rebuild the mechanism before loading state into it.
    ///
    /// Stateless mechanisms write nothing (the default).
    fn state_save(&self, _out: &mut Vec<u8>) {}

    /// Restores mutable state from bytes produced by
    /// [`state_save`](Self::state_save) on an **identically configured**
    /// instance. After a successful load the mechanism must behave
    /// bit-identically to the instance that was saved.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob is truncated, oversized, or does not
    /// match this mechanism's configuration. The default accepts only an
    /// empty blob (the stateless mechanism's save output).
    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} carries no serializable state but got a {}-byte blob",
                self.describe(),
                bytes.len()
            ))
        }
    }
}

impl<M: ConfidenceMechanism + ?Sized> ConfidenceMechanism for Box<M> {
    fn read_key(&self, pc: u64, bhr: u64) -> u64 {
        (**self).read_key(pc, bhr)
    }

    fn update(&mut self, pc: u64, bhr: u64, correct: bool) {
        (**self).update(pc, bhr, correct)
    }

    fn observe_batch(&mut self, pcs: &[u64], bhrs: &[u64], correct: &[bool], keys: &mut [u64]) {
        (**self).observe_batch(pcs, bhrs, correct, keys)
    }

    fn key_space(&self) -> Option<u64> {
        (**self).key_space()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn flush(&mut self) {
        (**self).flush()
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        (**self).state_save(out)
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).state_load(bytes)
    }
}

/// Pins a mechanism to the scalar per-record observe path.
///
/// Forwards everything *except* [`ConfidenceMechanism::observe_batch`], so
/// the trait's default `read_key`-then-`update` loop runs even when the
/// wrapped mechanism carries a batched fast path. This is the reference
/// side of the scalar-vs-vector differential tests and of the
/// `engine_throughput` kernel comparison; it is not intended for
/// production replays.
#[derive(Debug, Clone)]
pub struct ScalarObserve<M>(pub M);

impl<M: ConfidenceMechanism> ConfidenceMechanism for ScalarObserve<M> {
    fn read_key(&self, pc: u64, bhr: u64) -> u64 {
        self.0.read_key(pc, bhr)
    }

    fn update(&mut self, pc: u64, bhr: u64, correct: bool) {
        self.0.update(pc, bhr, correct)
    }

    // observe_batch deliberately NOT forwarded: the default per-record
    // loop is the scalar reference.

    fn key_space(&self) -> Option<u64> {
        self.0.key_space()
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn flush(&mut self) {
        self.0.flush()
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.0.state_save(out)
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.state_load(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_level::ResettingConfidence;

    #[test]
    fn scalar_observe_matches_batched_mechanism() {
        // Same record stream through the batched fast path and through the
        // suppressed-override scalar loop: keys and final state must agree.
        let mut fast = ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(6));
        let mut scalar =
            ScalarObserve(ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(6)));
        let n = 300;
        let pcs: Vec<u64> = (0..n as u64).map(|i| (i * 29) << 2).collect();
        let bhrs: Vec<u64> = (0..n as u64).map(|i| i * 13).collect();
        let correct: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let mut keys_f = vec![0u64; n];
        let mut keys_s = vec![0u64; n];
        fast.observe_batch(&pcs, &bhrs, &correct, &mut keys_f);
        scalar.observe_batch(&pcs, &bhrs, &correct, &mut keys_s);
        assert_eq!(keys_f, keys_s);
        for (&pc, &h) in pcs.iter().zip(&bhrs).take(64) {
            assert_eq!(fast.read_key(pc, h), scalar.read_key(pc, h));
        }
    }

    #[test]
    fn boxed_mechanism_dispatches() {
        let mut m: Box<dyn ConfidenceMechanism> =
            Box::new(ResettingConfidence::paper_default(IndexSpec::pc(4)));
        assert_eq!(m.read_key(0, 0), 0);
        m.update(0, 0, true);
        assert_eq!(m.read_key(0, 0), 1);
        assert_eq!(m.key_space(), Some(17));
        assert!(!m.describe().is_empty());
        m.flush();
        assert_eq!(m.read_key(0, 0), 0, "flush restores the initial count");
    }
}
