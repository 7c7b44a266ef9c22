//! Self-confidence: bucketing on the predictor's *own* strength signal.
//!
//! Every mechanism in the paper is external — a separate table watching
//! the predictor's correctness stream. A TAGE-class predictor, by
//! contrast, knows which component provided each prediction and how
//! saturated its counter was ([`BranchPredictor::predict_full`]). This
//! mechanism turns that self-assessment into a confidence key on the
//! same `0..=7` scale, so it competes head-to-head with CIRs and
//! resetting counters inside the unchanged coverage analysis.
//!
//! ## The shadow predictor
//!
//! [`ConfidenceMechanism`] deliberately never sees predictions or
//! outcomes — only `(pc, bhr, correct)` — and the replay kernels depend
//! on that narrow interface. To read the predictor's strength without
//! widening it, `SelfConfidence` runs its own *shadow* instance of the
//! same predictor configuration: `read_key` asks the shadow for its
//! strength, and `update` reconstructs the resolved direction from
//! `correct` (`taken = correct ? predicted : !predicted` — exact, since
//! an identically configured, identically trained shadow makes
//! bit-identical predictions) and trains the shadow with it. The shadow
//! therefore stays in lock-step with the session predictor forever,
//! without touching the driver, the wire protocol, or the batch kernels.
//!
//! Pairing `self:<spec>` with a *different* session predictor is
//! well-defined and deterministic, but the keys then describe the shadow
//! rather than the real predictor — the CLI defaults the inner spec to
//! the session's predictor for exactly this reason.

use cira_predictor::BranchPredictor;

use crate::ConfidenceMechanism;

/// Boxed factory that rebuilds the shadow predictor from its spec —
/// needed because `flush` must re-initialize a predictor `cira-core`
/// only knows as a trait object.
pub type ShadowFactory = Box<dyn Fn() -> Box<dyn BranchPredictor + Send> + Send>;

/// A confidence mechanism that buckets on the predictor's self-assessed
/// strength, via a shadow instance kept in lock-step with the session
/// predictor (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use cira_core::self_confidence::SelfConfidence;
/// use cira_core::ConfidenceMechanism;
/// use cira_predictor::Gshare;
///
/// let mut m = SelfConfidence::new(Box::new(|| Box::new(Gshare::new(10, 10))));
/// assert_eq!(m.key_space(), Some(8));
/// let key = m.read_key(0x40, 0);
/// m.update(0x40, 0, true);
/// assert!(key <= 7);
/// ```
pub struct SelfConfidence {
    shadow: Box<dyn BranchPredictor + Send>,
    rebuild: ShadowFactory,
}

impl std::fmt::Debug for SelfConfidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfConfidence")
            .field("shadow", &self.shadow.describe())
            .finish_non_exhaustive()
    }
}

impl SelfConfidence {
    /// Creates the mechanism; `rebuild` constructs a fresh shadow (it is
    /// called once now and again on every [`flush`](ConfidenceMechanism::flush)).
    pub fn new(rebuild: ShadowFactory) -> Self {
        Self {
            shadow: rebuild(),
            rebuild,
        }
    }
}

impl ConfidenceMechanism for SelfConfidence {
    fn read_key(&self, pc: u64, bhr: u64) -> u64 {
        u64::from(self.shadow.predict_full(pc, bhr).strength)
    }

    fn update(&mut self, pc: u64, bhr: u64, correct: bool) {
        // Reconstruct the resolved direction from the correctness bit:
        // the shadow predicts exactly what the session predictor
        // predicted, so `correct` tells us whether that direction was
        // the actual outcome.
        let predicted = self.shadow.predict(pc, bhr);
        let taken = if correct { predicted } else { !predicted };
        self.shadow.update(pc, bhr, taken);
    }

    fn key_space(&self) -> Option<u64> {
        Some(u64::from(cira_predictor::Prediction::MAX_STRENGTH) + 1)
    }

    fn describe(&self) -> String {
        format!("self-confidence({})", self.shadow.describe())
    }

    fn flush(&mut self) {
        self.shadow = (self.rebuild)();
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.shadow.state_save(out);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.shadow.state_load(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_predictor::{Gshare, HistoryRegister, Tage};

    /// Drives a session predictor and the mechanism side by side the way
    /// the replay engine does — the mechanism only ever sees
    /// `(pc, bhr, correct)` — and checks the shadow stays in lock-step:
    /// its strength keys must equal the session predictor's own.
    #[test]
    fn shadow_tracks_the_session_predictor() {
        let mut session = Tage::new(8, 4, 2, 24, 8);
        let mut m = SelfConfidence::new(Box::new(|| Box::new(Tage::new(8, 4, 2, 24, 8))));
        let mut bhr = HistoryRegister::new(64);
        let mut x = 5u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40 + (x % 17) * 4;
            let taken = i % 5 != 4;
            let expected_key = u64::from(session.predict_full(pc, bhr.value()).strength);
            assert_eq!(m.read_key(pc, bhr.value()), expected_key, "record {i}");
            let correct = session.predict_train(pc, bhr.value(), taken) == taken;
            m.update(pc, bhr.value(), correct);
            bhr.push(taken);
        }
    }

    #[test]
    fn flush_resets_the_shadow() {
        let mut m = SelfConfidence::new(Box::new(|| Box::new(Gshare::new(6, 6))));
        for _ in 0..8 {
            m.update(0x40, 0, true); // drive the counter off its init
        }
        let warm = m.read_key(0x40, 0);
        m.flush();
        let mut fresh = SelfConfidence::new(Box::new(|| Box::new(Gshare::new(6, 6))));
        assert_eq!(m.read_key(0x40, 0), fresh.read_key(0x40, 0));
        // Warm state really differed from init (strength saturated).
        assert_ne!(warm, fresh.read_key(0x40, 0));
        let _ = &mut fresh;
    }

    #[test]
    fn state_round_trips_through_the_shadow() {
        let mut a = SelfConfidence::new(Box::new(|| Box::new(Tage::new(8, 4, 2, 24, 8))));
        let mut x = 9u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            a.update(x & 0xfff, x >> 12, x >> 63 == 1);
        }
        let mut blob = Vec::new();
        a.state_save(&mut blob);
        let mut b = SelfConfidence::new(Box::new(|| Box::new(Tage::new(8, 4, 2, 24, 8))));
        b.state_load(&blob).unwrap();
        for pc in (0..256u64).map(|i| i * 4) {
            assert_eq!(a.read_key(pc, 0x3f), b.read_key(pc, 0x3f));
        }
        assert!(b.state_load(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn describe_and_key_space() {
        let m = SelfConfidence::new(Box::new(|| Box::new(Gshare::new(6, 6))));
        assert_eq!(m.describe(), "self-confidence(gshare(6,6))");
        assert_eq!(m.key_space(), Some(8));
    }

    #[test]
    fn boxed_dispatch() {
        let mut m: Box<dyn ConfidenceMechanism + Send> =
            Box::new(SelfConfidence::new(Box::new(|| Box::new(Gshare::new(6, 6)))));
        let k = m.read_key(0, 0);
        m.update(0, 0, true);
        assert!(k <= 7);
        m.flush();
    }
}
