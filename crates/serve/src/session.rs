//! Per-connection session state: one isolated predictor + confidence
//! mechanism + accumulated statistics, fed batches in arrival order.
//!
//! A session is built from the `HELLO` config via the shared
//! [`cira_analysis::spec`] grammar and wraps a
//! [`StreamingReplay`], which guarantees that statistics are bit-identical
//! to an offline [`cira_analysis::engine::Engine`] run over the
//! concatenated records regardless of how the client batched them — the
//! property the loopback tests and the CLI `--verify` flag check.

use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::runner::PredictorRun;
use cira_analysis::spec::{self, MechanismSpec, PredictorSpec};
use cira_store::Checkpoint;
use cira_trace::codec::PackedTrace;

use crate::proto::{HelloConfig, ServerFrame, SnapshotCell};

/// The widest table index a session may ask for: at most 2^20 entries in
/// any confidence or predictor table. The spec grammar admits 28 bits, but
/// sessions are built on a shard's event-loop thread, where one 28-bit
/// table would allocate gigabytes; the paper's largest table is 2^16.
pub const MAX_TABLE_BITS: u32 = 20;

/// log2 of the largest table `spec` allocates.
fn table_bits(spec: &PredictorSpec) -> u32 {
    match *spec {
        PredictorSpec::Gshare { table_bits, .. } | PredictorSpec::GSelect { table_bits, .. } => {
            table_bits
        }
        PredictorSpec::Bimodal { bits } => bits,
        PredictorSpec::Local {
            bht_bits,
            history_bits,
        } => bht_bits.max(history_bits),
        PredictorSpec::Agree {
            table_bits,
            bias_bits,
            ..
        } => table_bits.max(bias_bits),
        PredictorSpec::Tage { base_bits, .. } | PredictorSpec::TageScLite { base_bits, .. } => {
            base_bits
        }
        PredictorSpec::Taken | PredictorSpec::NotTaken => 0,
    }
}

/// One client's isolated scoring state.
#[derive(Debug)]
pub struct Session {
    config: HelloConfig,
    replay: StreamingReplay,
    low_confidence: u64,
    /// Descriptions reported in `HELLO_ACK`.
    predictor_desc: String,
    mechanism_desc: String,
    /// Opaque resume capability issued in `HELLO_ACK` (rev 1.2).
    token: u64,
    /// Sequence number of the last applied batch (cumulative ack).
    last_seq: Option<u32>,
    /// Batches applied over the session's lifetime.
    batches: u64,
}

impl Session {
    /// Builds a session from a `HELLO` config with the given resume
    /// token.
    ///
    /// # Errors
    ///
    /// Returns the spec parser's message when any spec string is
    /// malformed, or a message when a spec asks for a table wider than
    /// [`MAX_TABLE_BITS`] (sent back to the client as a `BAD_SPEC` error
    /// frame).
    pub fn from_hello(config: &HelloConfig, token: u64) -> Result<Session, String> {
        let replay = Self::build_replay(config)?;
        Ok(Session {
            predictor_desc: replay.predictor_describe(),
            mechanism_desc: replay.mechanism_describe(),
            config: config.clone(),
            replay,
            low_confidence: 0,
            token,
            last_seq: None,
            batches: 0,
        })
    }

    fn build_replay(config: &HelloConfig) -> Result<StreamingReplay, String> {
        let predictor = config
            .predictor
            .parse::<PredictorSpec>()
            .map_err(|e| e.to_string())?;
        let index = spec::parse_index(&config.index).map_err(|e| e.to_string())?;
        let init = spec::parse_init(&config.init).map_err(|e| e.to_string())?;
        let mechanism = config
            .mechanism
            .parse::<MechanismSpec>()
            .map_err(|e| e.to_string())?;
        let shadow = match &mechanism {
            MechanismSpec::SelfConf(inner) => table_bits(inner),
            _ => 0,
        };
        let widest = table_bits(&predictor).max(index.bits()).max(shadow);
        if widest > MAX_TABLE_BITS {
            return Err(format!(
                "spec asks for a 2^{widest}-entry table; sessions allow at most \
                 2^{MAX_TABLE_BITS} entries per table"
            ));
        }
        Ok(StreamingReplay::new(
            predictor.build(),
            mechanism.build(index, init),
        ))
    }

    /// The parsed predictor description (e.g. `gshare(16,16)`).
    pub fn predictor_desc(&self) -> &str {
        &self.predictor_desc
    }

    /// The parsed mechanism description.
    pub fn mechanism_desc(&self) -> &str {
        &self.mechanism_desc
    }

    /// Records fed so far.
    pub fn branches(&self) -> u64 {
        self.replay.run().branches
    }

    /// The resume token issued to this session's client.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Sequence number of the last applied batch, if any.
    pub fn last_seq(&self) -> Option<u32> {
        self.last_seq
    }

    /// The session's `RESUME_ACK` for re-attachment: last acked seq plus
    /// session-lifetime totals so the client can reconcile lost acks.
    pub fn resume_ack(&self, session: u64, max_frame: u32, max_inflight: u32) -> ServerFrame {
        let run = self.replay.run();
        ServerFrame::ResumeAck {
            session,
            last_seq: self.last_seq,
            batches: self.batches,
            records: run.branches,
            mispredicts: run.mispredicts,
            low_confidence: self.low_confidence,
            max_frame,
            max_inflight,
        }
    }

    /// Scores and trains on one batch, returning its `BATCH_ACK`.
    pub fn apply_batch(&mut self, seq: u32, records: &PackedTrace) -> ServerFrame {
        let n = records.len();
        let threshold = self.config.threshold;
        let fed = self.replay.feed(records);
        let mut low_count = 0u64;
        let mut predicted = vec![0u64; n.div_ceil(64)];
        let mut low = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            // The prediction was `taken` iff it was correct on a taken
            // branch or wrong on a not-taken branch.
            let taken = records.taken_at(i);
            if fed.correct[i] == taken {
                predicted[i / 64] |= 1u64 << (i % 64);
            }
            if fed.keys[i] < threshold {
                low[i / 64] |= 1u64 << (i % 64);
                low_count += 1;
            }
        }
        self.low_confidence += low_count;
        self.last_seq = Some(seq);
        self.batches += 1;
        ServerFrame::BatchAck {
            seq,
            records: n as u64,
            mispredicts: fed.mispredicts,
            low_confidence: low_count,
            total_records: self.replay.run().branches,
            predicted,
            low,
        }
    }

    /// The session's accumulated statistics as a `SNAPSHOT_REPLY`.
    pub fn snapshot(&self) -> ServerFrame {
        let run = self.replay.run();
        let cells: Vec<SnapshotCell> = self
            .replay
            .cells()
            .into_iter()
            .map(|(key, refs, miss)| (key, refs as f64, miss as f64))
            .collect();
        ServerFrame::SnapshotReply {
            branches: run.branches,
            mispredicts: run.mispredicts,
            low_confidence: self.low_confidence,
            cells,
        }
    }

    /// Serializes the session's complete state as a [`Checkpoint`]
    /// (rev 1.3): the negotiated specs, the counters, the BHR, the
    /// predictor and mechanism state blobs, and every bucket cell.
    /// Restoring it with [`Session::from_checkpoint`] is bit-identical
    /// to never having parked. Cells are listed in ascending key order,
    /// so two sessions in the same state encode the same bytes.
    pub fn to_checkpoint(&self, session_id: u64) -> Checkpoint {
        let run = self.replay.run();
        Checkpoint {
            session_id,
            predictor: self.config.predictor.clone(),
            mechanism: self.config.mechanism.clone(),
            index: self.config.index.clone(),
            init: self.config.init.clone(),
            threshold: self.config.threshold,
            last_seq: self.last_seq,
            batches: self.batches,
            low_confidence: self.low_confidence,
            bhr: self.replay.bhr_value(),
            branches: run.branches,
            mispredicts: run.mispredicts,
            predictor_state: self.replay.predictor_state(),
            mechanism_state: self.replay.mechanism_state(),
            cells: self.replay.cells(),
        }
    }

    /// Rebuilds a session from a [`Checkpoint`]: the specs reconstruct
    /// the predictor and mechanism, then the saved state is loaded into
    /// them and the counters and statistics are restored.
    ///
    /// # Errors
    ///
    /// Returns a message when a spec no longer parses (a checkpoint
    /// from a different build), a state blob does not match the
    /// rebuilt instance's configuration, a key is listed twice, or the
    /// cells' refs and mispredicts do not sum to the checkpoint's
    /// `branches` and `mispredicts`.
    pub fn from_checkpoint(cp: &Checkpoint, token: u64) -> Result<Session, String> {
        let config = HelloConfig {
            predictor: cp.predictor.clone(),
            mechanism: cp.mechanism.clone(),
            index: cp.index.clone(),
            init: cp.init.clone(),
            threshold: cp.threshold,
        };
        let mut session = Session::from_hello(&config, token)?;
        session
            .replay
            .load_predictor_state(&cp.predictor_state)
            .map_err(|e| format!("predictor state: {e}"))?;
        session
            .replay
            .load_mechanism_state(&cp.mechanism_state)
            .map_err(|e| format!("mechanism state: {e}"))?;
        session.replay.set_bhr(cp.bhr);
        let sums = cp.cells.iter().try_fold((0u64, 0u64), |(refs, miss), c| {
            Some((refs.checked_add(c.1)?, miss.checked_add(c.2)?))
        });
        if sums != Some((cp.branches, cp.mispredicts)) {
            return Err(format!(
                "cells do not sum to the checkpoint's {} branches and {} mispredicts",
                cp.branches, cp.mispredicts
            ));
        }
        // Checkpoints written before cells were sorted list them in hash
        // order.
        let mut cells = cp.cells.clone();
        cells.sort_unstable_by_key(|&(key, _, _)| key);
        session.replay.restore_cells(&cells)?;
        session.replay.restore_run(PredictorRun {
            branches: cp.branches,
            mispredicts: cp.mispredicts,
        });
        session.last_seq = cp.last_seq;
        session.batches = cp.batches;
        session.low_confidence = cp.low_confidence;
        Ok(session)
    }

    /// Rebuilds predictor, mechanism, and statistics from the negotiated
    /// config — as if the connection had just said `HELLO` again.
    pub fn reset(&mut self) {
        self.replay =
            Self::build_replay(&self.config).expect("config validated at session creation");
        self.low_confidence = 0;
        self.last_seq = None;
        self.batches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_analysis::engine::replay::replay_mechanisms;
    use cira_core::ConfidenceMechanism;
    use cira_trace::suite::ibs_like_suite;

    fn config() -> HelloConfig {
        HelloConfig {
            predictor: "gshare:12:12".into(),
            mechanism: "resetting:16".into(),
            index: "pcxorbhr:12".into(),
            init: "ones".into(),
            threshold: 16,
        }
    }

    #[test]
    fn bad_specs_are_recoverable_errors() {
        for (field, value) in [
            ("predictor", "frobnicate:1"),
            ("mechanism", "resetting:0"),
            ("index", "pc"),
            ("init", "none"),
        ] {
            let mut c = config();
            match field {
                "predictor" => c.predictor = value.into(),
                "mechanism" => c.mechanism = value.into(),
                "index" => c.index = value.into(),
                _ => c.init = value.into(),
            }
            let err = Session::from_hello(&c, 0).unwrap_err();
            assert!(err.contains("expected one of"), "{field}: {err}");
        }
    }

    #[test]
    fn oversized_tables_are_rejected_before_allocation() {
        let wide = MAX_TABLE_BITS + 1;
        for (predictor, mechanism, index) in [
            (
                format!("gshare:{wide}:12"),
                "resetting:16".to_string(),
                "pcxorbhr:12".to_string(),
            ),
            (
                format!("gselect:{wide}:4"),
                "resetting:16".into(),
                "pc:12".into(),
            ),
            (format!("bimodal:{wide}"), "cir:16".into(), "pc:12".into()),
            (format!("local:{wide}:8"), "cir:16".into(), "pc:12".into()),
            (format!("local:8:{wide}"), "cir:16".into(), "pc:12".into()),
            (
                format!("agree:12:12:{wide}"),
                "cir:16".into(),
                "pc:12".into(),
            ),
            (
                format!("tage:{wide}:4:2:32:9"),
                "cir:16".into(),
                "pc:12".into(),
            ),
            (
                format!("tage-sc-lite:{wide}:4:2:32:9"),
                "cir:16".into(),
                "pc:12".into(),
            ),
            (
                "gshare:12:12".into(),
                "cir:32".into(),
                format!("pcxorbhr:{wide}"),
            ),
            (
                "gshare:12:12".into(),
                "two-level:pc-cir".into(),
                format!("gcir:{wide}"),
            ),
            (
                "gshare:12:12".into(),
                format!("self:tage:{wide}:4:2:32:9"),
                "pc:12".into(),
            ),
        ] {
            let c = HelloConfig {
                predictor,
                mechanism,
                index,
                ..config()
            };
            let err = Session::from_hello(&c, 0).unwrap_err();
            assert!(err.contains("at most 2^20"), "{c:?}: {err}");
        }
        let at_bound = HelloConfig {
            predictor: format!("gshare:{MAX_TABLE_BITS}:{MAX_TABLE_BITS}"),
            index: format!("pcxorbhr:{MAX_TABLE_BITS}"),
            ..config()
        };
        assert!(Session::from_hello(&at_bound, 0).is_ok());
    }

    #[test]
    fn batches_accumulate_and_snapshot_matches_engine_kernel() {
        let trace: PackedTrace = ibs_like_suite()[0].walker().take(20_000).collect();
        let mut session = Session::from_hello(&config(), 0).unwrap();
        // Feed in uneven splits.
        let mut at = 0;
        let mut acked = 0u64;
        for (seq, len) in [(0u32, 3_000usize), (1, 1), (2, 9_999), (3, 7_000)] {
            let batch: PackedTrace = (at..at + len).map(|i| trace.get(i).unwrap()).collect();
            match session.apply_batch(seq, &batch) {
                ServerFrame::BatchAck {
                    seq: s,
                    records,
                    total_records,
                    ..
                } => {
                    assert_eq!(s, seq);
                    assert_eq!(records, len as u64);
                    acked += records;
                    assert_eq!(total_records, acked);
                }
                other => panic!("{other:?}"),
            }
            at += len;
        }
        assert_eq!(session.branches(), 20_000);

        // Reference: the engine's batched kernel over the whole trace.
        let mut p = cira_predictor::Gshare::new(12, 12);
        let mut m = cira_core::one_level::ResettingConfidence::new(
            cira_core::IndexSpec::pc_xor_bhr(12),
            16,
            cira_core::InitPolicy::AllOnes,
        );
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut m];
        let reference = replay_mechanisms(&trace, 20_000, &mut p, &mut refs).remove(0);

        match session.snapshot() {
            ServerFrame::SnapshotReply {
                branches, cells, ..
            } => {
                assert_eq!(branches, 20_000);
                let rebuilt = crate::proto::stats_from_cells(&cells).unwrap();
                assert_eq!(rebuilt, reference);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicted_bitmap_consistent_with_mispredicts() {
        let trace: PackedTrace = ibs_like_suite()[1].walker().take(5_000).collect();
        let mut session = Session::from_hello(&config(), 0).unwrap();
        let ack = session.apply_batch(9, &trace);
        let ServerFrame::BatchAck {
            mispredicts,
            predicted,
            ..
        } = ack
        else {
            panic!("not an ack");
        };
        // predicted bit != taken bit exactly at mispredictions.
        let wrong = (0..trace.len())
            .filter(|&i| {
                let bit = predicted[i / 64] >> (i % 64) & 1 == 1;
                bit != trace.taken_at(i)
            })
            .count() as u64;
        assert_eq!(wrong, mispredicts);
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let trace: PackedTrace = ibs_like_suite()[0].walker().take(12_000).collect();
        let head: PackedTrace = (0..8_000).map(|i| trace.get(i).unwrap()).collect();
        let tail: PackedTrace = (8_000..12_000).map(|i| trace.get(i).unwrap()).collect();

        let mut whole = Session::from_hello(&config(), 7).unwrap();
        whole.apply_batch(0, &head);

        let mut parked = Session::from_hello(&config(), 7).unwrap();
        parked.apply_batch(0, &head);
        // Through the full CIRD byte codec, as the disk tier would.
        let blob = parked.to_checkpoint(3).encode();
        let cp = Checkpoint::decode(&blob).unwrap();
        assert_eq!(cp.session_id, 3);
        let mut resumed = Session::from_checkpoint(&cp, 7).unwrap();
        assert_eq!(resumed.token(), 7);
        assert_eq!(resumed.last_seq(), Some(0));
        assert_eq!(resumed.branches(), 8_000);

        let a = whole.apply_batch(1, &tail);
        let b = resumed.apply_batch(1, &tail);
        assert_eq!(a, b, "post-restore acks diverge from uninterrupted run");
        assert_eq!(whole.snapshot(), resumed.snapshot());
        assert_eq!(whole.resume_ack(1, 2, 3), resumed.resume_ack(1, 2, 3));
    }

    #[test]
    fn checkpoint_rejects_corrupt_state_blob() {
        let trace: PackedTrace = ibs_like_suite()[1].walker().take(1_000).collect();
        let mut s = Session::from_hello(&config(), 1).unwrap();
        s.apply_batch(0, &trace);
        let mut cp = s.to_checkpoint(1);
        cp.predictor_state.truncate(cp.predictor_state.len() / 2);
        let err = Session::from_checkpoint(&cp, 1).unwrap_err();
        assert!(err.contains("predictor state"), "{err}");
        let mut cp = s.to_checkpoint(1);
        cp.cells.push((999, 1, 2));
        assert!(Session::from_checkpoint(&cp, 1)
            .unwrap_err()
            .contains("mispredicts"));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let trace: PackedTrace = ibs_like_suite()[2].walker().take(4_000).collect();
        let mut a = Session::from_hello(&config(), 0).unwrap();
        let first = a.apply_batch(0, &trace);
        a.reset();
        assert_eq!(a.branches(), 0);
        let again = a.apply_batch(0, &trace);
        assert_eq!(first, again);
    }
}
