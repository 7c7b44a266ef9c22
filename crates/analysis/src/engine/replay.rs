//! Batched replay kernel over materialized traces.
//!
//! The §1.2 loop shape is preserved exactly — predict, score, update, push
//! history, with every component seeing the pre-branch BHR — but the loop
//! is restructured for throughput:
//!
//! * the trace comes from a [`PackedTrace`] (no regeneration, no iterator
//!   plumbing in the hot path);
//! * one chunk loop, `drive_chunks`, sits behind every replay here:
//!   [`replay_mechanisms`], [`replay_static`], [`replay_predictor`] and
//!   [`StreamingReplay::feed`]. Per chunk, the [`super::simd`] fill pass
//!   expands the `(pc, history, taken)` lanes from the SoA trace with no
//!   loop-carried history dependency, one
//!   [`predict_train_batch`](BranchPredictor::predict_train_batch) call
//!   drives the predictor's branchless kernel over the whole chunk, then
//!   the caller consumes the chunk — each mechanism in its own tight loop,
//!   hoisting the `&mut dyn ConfidenceMechanism` dispatch pattern out of
//!   the per-record interleave (mechanisms are independent observers, so
//!   per-mechanism chunk loops produce bit-identical statistics to the
//!   per-record interleave of [`crate::runner`]);
//! * per-key counts accumulate in one integer counter, `KeyCounts`: a dense
//!   array when the mechanism exposes a small
//!   [`key_space`](cira_core::ConfidenceMechanism::key_space), a hash map
//!   otherwise. It is folded into [`BucketStats`] only when asked (exact:
//!   integer counts in `f64`).

use std::collections::HashMap;

use cira_core::ConfidenceMechanism;
use cira_obs::trace::{Span, Stage};
use cira_predictor::{BranchPredictor, HistoryRegister};
use cira_trace::codec::PackedTrace;

use crate::buckets::BucketStats;
use crate::runner::{PredictorRun, DRIVER_BHR_WIDTH};

/// Records per chunk: large enough to amortize the per-mechanism loop
/// switch, small enough that the chunk buffers stay cache-resident.
const CHUNK: usize = 4096;

/// Largest `key_space` counted in a dense array: 2^16 keys (1 MiB of
/// counters), the paper's widest CIR. A served session keeps its counts
/// for its whole life, so anything larger (or unbounded) counts only the
/// keys it sees, in a hash map.
const DENSE_MAX: u64 = 1 << 16;

/// Per-key `(refs, mispredicts)` counter, dense when the key space is
/// small and enumerable.
enum KeyCounts {
    /// `(refs, mispredicts)` per key — one indexed access per record.
    /// Keys at or beyond the declared `key_space` indicate a buggy
    /// mechanism; they spill into `spill` (with a one-shot warning)
    /// rather than aborting a whole suite run mid-grid.
    Dense {
        cells: Vec<(u64, u64)>,
        spill: HashMap<u64, (u64, u64)>,
    },
    Sparse(HashMap<u64, (u64, u64)>),
}

impl KeyCounts {
    fn for_key_space(key_space: Option<u64>) -> Self {
        match key_space {
            Some(n) if n <= DENSE_MAX => KeyCounts::Dense {
                cells: vec![(0, 0); n as usize],
                spill: HashMap::new(),
            },
            _ => KeyCounts::Sparse(HashMap::new()),
        }
    }

    /// Counts one chunk: record `i` read `keys[i]` and was predicted
    /// `correct[i]`. The dense-or-sparse match runs once per chunk, not
    /// once per record.
    fn add_chunk<K: Copy + Into<u64>>(&mut self, keys: &[K], correct: &[bool]) {
        match self {
            KeyCounts::Dense { cells, spill } => {
                let key_space = cells.len();
                for (&key, &ok) in keys.iter().zip(correct) {
                    let key: u64 = key.into();
                    match cells.get_mut(key as usize) {
                        Some(cell) => {
                            cell.0 += 1;
                            cell.1 += u64::from(!ok);
                        }
                        None => spill_key(spill, key_space, key, !ok),
                    }
                }
            }
            KeyCounts::Sparse(map) => {
                for (&key, &ok) in keys.iter().zip(correct) {
                    let cell = map.entry(key.into()).or_insert((0, 0));
                    cell.0 += 1;
                    cell.1 += u64::from(!ok);
                }
            }
        }
    }

    /// Calls `f(key, refs, mispredicts)` for every key with at least one
    /// reference, in ascending key order.
    fn each_cell(&self, mut f: impl FnMut(u64, u64, u64)) {
        let (dense, map) = match self {
            KeyCounts::Dense { cells, spill } => (&cells[..], spill),
            KeyCounts::Sparse(map) => (&[][..], map),
        };
        // Spilled keys all exceed the dense range, so appending them
        // sorted keeps the whole walk ascending.
        let mut spilled: Vec<(u64, (u64, u64))> = map.iter().map(|(&k, &c)| (k, c)).collect();
        spilled.sort_unstable_by_key(|&(k, _)| k);
        let dense = dense.iter().enumerate().map(|(k, &c)| (k as u64, c));
        for (key, (refs, miss)) in dense.chain(spilled) {
            if refs > 0 {
                f(key, refs, miss);
            }
        }
    }

    /// Folds the counts into `BucketStats`.
    fn to_stats(&self) -> BucketStats {
        let mut stats = BucketStats::new();
        self.each_cell(|key, refs, miss| stats.record_batch(key, refs, miss));
        stats
    }
}

/// Counts a key outside the declared dense range. A mechanism whose keys
/// exceed its `key_space` is a bug upstream, but neither losing the sample
/// nor panicking mid-grid would serve the caller: count it sparsely and
/// warn on the first one.
#[cold]
#[inline(never)]
fn spill_key(spill: &mut HashMap<u64, (u64, u64)>, key_space: usize, key: u64, miss: bool) {
    if spill.is_empty() {
        cira_obs::warn!(
            "confidence key outside declared key_space",
            key = key,
            key_space = key_space as u64
        );
    }
    let cell = spill.entry(key).or_insert((0, 0));
    cell.0 += 1;
    cell.1 += u64::from(miss);
}

/// Reusable lane buffers for the chunk loop, grown on first use.
#[derive(Default)]
struct ChunkBufs {
    pcs: Vec<u64>,
    hists: Vec<u64>,
    takens: Vec<bool>,
    correct: Vec<bool>,
}

/// One filled and predicted chunk: records `start..start + pcs.len()` of
/// the trace, with each record's PC, pre-branch history and whether its
/// prediction was correct.
struct Lanes<'a> {
    start: usize,
    pcs: &'a [u64],
    hists: &'a [u64],
    correct: &'a [bool],
}

/// The chunk loop behind every replay: drives `predictor` over the first
/// `len` records of `trace`, starting from and advancing `bhr`, and hands
/// each chunk to `consume`. Returns the branches and mispredictions of
/// this call.
///
/// Per chunk: the [`super::simd`] pass expands `(pc, history, taken)` lanes
/// straight from the SoA trace (no serial BHR pushes), then one
/// `predict_train_batch` call runs the predictor's branchless kernel — or
/// the trait's scalar default for predictors without an override.
/// Bit-identical to the per-record §1.2 loop by the kernel contracts. Each
/// chunk is one `Chunk` flight-recorder span, under whatever ambient
/// context the calling thread set (a no-op when tracing is disabled).
fn drive_chunks<P: BranchPredictor + ?Sized>(
    trace: &PackedTrace,
    len: usize,
    bhr: &mut HistoryRegister,
    predictor: &mut P,
    bufs: &mut ChunkBufs,
    mut consume: impl FnMut(Lanes<'_>),
) -> PredictorRun {
    let n = trace.len().min(len);
    let lanes = CHUNK.min(n);
    if bufs.pcs.len() < lanes {
        bufs.pcs.resize(lanes, 0);
        bufs.hists.resize(lanes, 0);
        bufs.takens.resize(lanes, false);
        bufs.correct.resize(lanes, false);
    }
    let mask = bhr.mask();
    let mut h = bhr.value();
    let mut run = PredictorRun {
        branches: n as u64,
        mispredicts: 0,
    };
    let mut start = 0;
    while start < n {
        let span = cira_obs::trace::enabled().then(|| Span::begin_ctx(Stage::Chunk));
        // CHUNK is a multiple of 64, so every chunk start is word-aligned
        // in the taken bitmap, as the simd fill requires.
        let c = CHUNK.min(n - start);
        h = super::simd::fill_chunk(
            trace,
            start,
            c,
            h,
            mask,
            &mut bufs.pcs,
            &mut bufs.hists,
            &mut bufs.takens,
        );
        let correct = &mut bufs.correct[..c];
        predictor.predict_train_batch(&bufs.pcs[..c], &bufs.hists[..c], &bufs.takens[..c], correct);
        run.mispredicts += correct.iter().filter(|&&ok| !ok).count() as u64;
        consume(Lanes {
            start,
            pcs: &bufs.pcs[..c],
            hists: &bufs.hists[..c],
            correct,
        });
        if let Some(span) = span {
            span.end_with(c as u64);
        }
        start += c;
    }
    bhr.set(h);
    run
}

/// Replays the first `len` records for one predictor plus several
/// confidence mechanisms, returning one [`BucketStats`] per mechanism —
/// bit-identical to [`crate::runner::collect_many_buckets`] over the same
/// records.
pub fn replay_mechanisms<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
    mechanisms: &mut [&mut dyn ConfidenceMechanism],
) -> Vec<BucketStats> {
    let mut counts: Vec<KeyCounts> = mechanisms
        .iter()
        .map(|m| KeyCounts::for_key_space(m.key_space()))
        .collect();
    let mut keys = vec![0u64; CHUNK];
    let mut bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mut bufs = ChunkBufs::default();
    drive_chunks(trace, len, &mut bhr, predictor, &mut bufs, |lanes| {
        let keys = &mut keys[..lanes.pcs.len()];
        for (m, acc) in mechanisms.iter_mut().zip(counts.iter_mut()) {
            // One virtual call per chunk; the mechanism's batch loop
            // computes each record's table slot once for read + update.
            m.observe_batch(lanes.pcs, lanes.hists, lanes.correct, keys);
            acc.add_chunk(keys, lanes.correct);
        }
    });
    counts.iter().map(KeyCounts::to_stats).collect()
}

/// Replays the first `len` records bucketing by static PC — bit-identical
/// to [`crate::runner::collect_static_buckets`]. Counts accumulate by
/// packed site index and are keyed back to PCs at the end.
pub fn replay_static<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
) -> BucketStats {
    let mut counts = KeyCounts::for_key_space(Some(trace.sites() as u64));
    let mut bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mut bufs = ChunkBufs::default();
    drive_chunks(trace, len, &mut bhr, predictor, &mut bufs, |lanes| {
        let sites = &trace.site_indices()[lanes.start..lanes.start + lanes.correct.len()];
        counts.add_chunk(sites, lanes.correct);
    });
    let mut stats = BucketStats::new();
    counts.each_cell(|site, refs, miss| stats.record_batch(trace.site_pc(site as u32), refs, miss));
    stats
}

/// Replays the first `len` records through a bare predictor —
/// bit-identical to [`crate::runner::run_predictor`].
pub fn replay_predictor<P: BranchPredictor>(
    trace: &PackedTrace,
    len: usize,
    predictor: &mut P,
) -> PredictorRun {
    let mut bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let mut bufs = ChunkBufs::default();
    drive_chunks(trace, len, &mut bhr, predictor, &mut bufs, |_| {})
}

/// Incremental online replay for streaming consumers.
///
/// The batch kernels above take a whole materialized trace and return; a
/// `StreamingReplay` instead keeps the §1.2 loop's state — predictor
/// tables, confidence tables, the global history register, and the
/// accumulated per-key counts — alive across [`feed`](Self::feed) calls,
/// so a trace can arrive in arbitrary batch splits (e.g. `cira-serve` wire
/// `BATCH` frames) and still produce **bit-identical** statistics to a
/// single [`replay_mechanisms`] pass over the concatenated records. That
/// invariance is what makes the serving path checkable against the offline
/// engine, and `streaming_matches_batched_any_split` asserts it.
///
/// # Examples
///
/// ```
/// use cira_analysis::engine::replay::StreamingReplay;
/// use cira_core::one_level::ResettingConfidence;
/// use cira_core::{IndexSpec, InitPolicy};
/// use cira_predictor::Gshare;
/// use cira_trace::codec::PackedTrace;
/// use cira_trace::BranchRecord;
///
/// let mut replay = StreamingReplay::new(
///     Box::new(Gshare::new(10, 10)),
///     Box::new(ResettingConfidence::new(
///         IndexSpec::pc_xor_bhr(10),
///         16,
///         InitPolicy::AllOnes,
///     )),
/// );
/// let batch: PackedTrace = (0..100u64)
///     .map(|i| BranchRecord::new(0x40, i % 2 == 0))
///     .collect();
/// let fed = replay.feed(&batch);
/// assert_eq!(fed.keys.len(), 100);
/// assert_eq!(replay.run().branches, 100);
/// ```
pub struct StreamingReplay {
    predictor: Box<dyn BranchPredictor + Send>,
    mechanism: Box<dyn ConfidenceMechanism + Send>,
    bhr: HistoryRegister,
    counts: KeyCounts,
    run: PredictorRun,
    bufs: ChunkBufs,
    correct: Vec<bool>,
    keys: Vec<u64>,
}

impl std::fmt::Debug for StreamingReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingReplay")
            .field("predictor", &self.predictor.describe())
            .field("mechanism", &self.mechanism.describe())
            .field("branches", &self.run.branches)
            .finish()
    }
}

/// Per-record results of one [`StreamingReplay::feed`] call, borrowed from
/// the replayer's scratch buffers (valid until the next `feed`).
#[derive(Debug)]
pub struct FedBatch<'a> {
    /// Whether each record's prediction was correct.
    pub correct: &'a [bool],
    /// The confidence key each record read (pre-update).
    pub keys: &'a [u64],
    /// Mispredictions in this batch.
    pub mispredicts: u64,
}

impl StreamingReplay {
    /// A fresh replayer: empty tables, empty history, empty statistics.
    pub fn new(
        predictor: Box<dyn BranchPredictor + Send>,
        mechanism: Box<dyn ConfidenceMechanism + Send>,
    ) -> Self {
        Self {
            counts: KeyCounts::for_key_space(mechanism.key_space()),
            predictor,
            mechanism,
            bhr: HistoryRegister::new(DRIVER_BHR_WIDTH),
            run: PredictorRun::default(),
            bufs: ChunkBufs::default(),
            correct: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Applies one batch of records, advancing all state, and returns the
    /// per-record outcomes. Splitting a trace differently across `feed`
    /// calls never changes any result: a batch's bitmap starts at its own
    /// bit 0, so chunk starts stay word-aligned however the stream is
    /// split, and the history register carries across batches.
    pub fn feed(&mut self, batch: &PackedTrace) -> FedBatch<'_> {
        let n = batch.len();
        self.correct.resize(n, false);
        self.keys.resize(n, 0);
        let fed = drive_chunks(
            batch,
            n,
            &mut self.bhr,
            &mut *self.predictor,
            &mut self.bufs,
            |lanes| {
                let range = lanes.start..lanes.start + lanes.pcs.len();
                let keys = &mut self.keys[range.clone()];
                self.mechanism
                    .observe_batch(lanes.pcs, lanes.hists, lanes.correct, keys);
                self.counts.add_chunk(keys, lanes.correct);
                self.correct[range].copy_from_slice(lanes.correct);
            },
        );
        self.run.branches += fed.branches;
        self.run.mispredicts += fed.mispredicts;
        FedBatch {
            correct: &self.correct,
            keys: &self.keys,
            mispredicts: fed.mispredicts,
        }
    }

    /// Accumulated per-key statistics over everything fed so far, folded
    /// from the integer counts on each call.
    pub fn stats(&self) -> BucketStats {
        self.counts.to_stats()
    }

    /// Accumulated per-key counts as `(key, refs, mispredicts)`, ascending
    /// by key, keys never read omitted — part of the replayer's
    /// checkpointable state.
    pub fn cells(&self) -> Vec<(u64, u64, u64)> {
        let mut cells = Vec::new();
        self.counts
            .each_cell(|key, refs, miss| cells.push((key, refs, miss)));
        cells
    }

    /// Replaces the accumulated per-key counts with `cells` as
    /// [`cells`](Self::cells) lists them (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns a message, and leaves the counts as they were, if the keys
    /// are not strictly ascending (a key listed twice) or a cell claims
    /// more mispredicts than refs.
    pub fn restore_cells(&mut self, cells: &[(u64, u64, u64)]) -> Result<(), String> {
        let mut counts = KeyCounts::for_key_space(self.mechanism.key_space());
        let mut prev = None;
        for &(key, refs, miss) in cells {
            if prev.is_some_and(|p| p >= key) {
                return Err(format!("cell {key:#x} is listed twice or out of order"));
            }
            if miss > refs {
                return Err(format!(
                    "cell {key:#x} claims {miss} mispredicts out of {refs} refs"
                ));
            }
            prev = Some(key);
            let slot = match &mut counts {
                KeyCounts::Dense { cells, spill } => match cells.get_mut(key as usize) {
                    Some(cell) => cell,
                    None => spill.entry(key).or_default(),
                },
                KeyCounts::Sparse(map) => map.entry(key).or_default(),
            };
            *slot = (refs, miss);
        }
        self.counts = counts;
        Ok(())
    }

    /// Accumulated branch/mispredict totals.
    pub fn run(&self) -> PredictorRun {
        self.run
    }

    /// The predictor's description string.
    pub fn predictor_describe(&self) -> String {
        self.predictor.describe()
    }

    /// The confidence mechanism's description string.
    pub fn mechanism_describe(&self) -> String {
        self.mechanism.describe()
    }

    /// The current global history register value — part of the replayer's
    /// checkpointable state.
    pub fn bhr_value(&self) -> u64 {
        self.bhr.value()
    }

    /// Restores the global history register (masked to the driver width).
    pub fn set_bhr(&mut self, value: u64) {
        self.bhr.set(value);
    }

    /// Serializes the predictor's mutable table state
    /// (see [`BranchPredictor::state_save`]).
    pub fn predictor_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.predictor.state_save(&mut out);
        out
    }

    /// Restores predictor state saved from an identically configured
    /// replayer.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob does not match the predictor's
    /// configuration.
    pub fn load_predictor_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.predictor.state_load(bytes)
    }

    /// Serializes the confidence mechanism's mutable table state
    /// (see [`ConfidenceMechanism::state_save`]).
    pub fn mechanism_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.mechanism.state_save(&mut out);
        out
    }

    /// Restores mechanism state saved from an identically configured
    /// replayer.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob does not match the mechanism's
    /// configuration.
    pub fn load_mechanism_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.mechanism.state_load(bytes)
    }

    /// Replaces the accumulated branch/mispredict totals (checkpoint
    /// restore).
    pub fn restore_run(&mut self, run: PredictorRun) {
        self.run = run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use cira_core::one_level::{OneLevelCir, ResettingConfidence};
    use cira_core::{IndexSpec, InitPolicy};
    use cira_predictor::Gshare;
    use cira_trace::suite::ibs_like_suite;

    fn packed(bench_idx: usize, len: usize) -> PackedTrace {
        ibs_like_suite()[bench_idx].walker().take(len).collect()
    }

    #[test]
    fn mechanisms_match_sequential_runner() {
        let trace = packed(0, 30_000);
        let records: Vec<_> = trace.iter().collect();

        let mut p = Gshare::new(12, 12);
        let mut a = ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes);
        let mut b = OneLevelCir::new(IndexSpec::pc(12), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut a, &mut b];
        let legacy = runner::collect_many_buckets(records.iter().copied(), &mut p, &mut refs);

        let mut p2 = Gshare::new(12, 12);
        let mut a2 = ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes);
        let mut b2 = OneLevelCir::new(IndexSpec::pc(12), 16, InitPolicy::AllOnes);
        let mut refs2: Vec<&mut dyn ConfidenceMechanism> = vec![&mut a2, &mut b2];
        let batched = replay_mechanisms(&trace, 30_000, &mut p2, &mut refs2);

        assert_eq!(legacy, batched);
    }

    #[test]
    fn static_matches_sequential_runner() {
        let trace = packed(1, 20_000);
        let legacy = runner::collect_static_buckets(trace.iter(), &mut Gshare::new(10, 10));
        let batched = replay_static(&trace, 20_000, &mut Gshare::new(10, 10));
        assert_eq!(legacy, batched);
        // A prefix that ends mid-chunk counts only the records it covers.
        let prefix =
            runner::collect_static_buckets(trace.iter().take(5_000), &mut Gshare::new(10, 10));
        assert_eq!(
            prefix,
            replay_static(&trace, 5_000, &mut Gshare::new(10, 10))
        );
    }

    #[test]
    fn predictor_matches_sequential_runner() {
        let trace = packed(3, 25_000);
        let legacy = runner::run_predictor(trace.iter(), &mut Gshare::new(12, 12));
        let batched = replay_predictor(&trace, 25_000, &mut Gshare::new(12, 12));
        assert_eq!(legacy, batched);
    }

    #[test]
    fn shorter_len_replays_prefix() {
        let trace = packed(0, 10_000);
        let prefix: Vec<_> = trace.iter().take(4_000).collect();
        let legacy = runner::run_predictor(prefix, &mut Gshare::new(10, 10));
        let batched = replay_predictor(&trace, 4_000, &mut Gshare::new(10, 10));
        assert_eq!(legacy, batched);
    }

    #[test]
    fn streaming_matches_batched_any_split() {
        let trace = packed(2, 25_000);
        let mut p = Gshare::new(11, 11);
        let mut m = ResettingConfidence::new(IndexSpec::pc_xor_bhr(11), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut m];
        let reference = replay_mechanisms(&trace, 25_000, &mut p, &mut refs).remove(0);
        let ref_run = replay_predictor(&trace, 25_000, &mut Gshare::new(11, 11));

        // Feed the same records in awkward uneven splits, including a
        // zero-length batch; state must carry across batch boundaries.
        for splits in [
            vec![25_000usize],
            vec![1, 0, 4095, 4096, 4097, 12_711],
            vec![100; 250],
        ] {
            let mut streaming = StreamingReplay::new(
                Box::new(Gshare::new(11, 11)),
                Box::new(ResettingConfidence::new(
                    IndexSpec::pc_xor_bhr(11),
                    16,
                    InitPolicy::AllOnes,
                )),
            );
            let mut at = 0;
            let mut fed_miss = 0;
            for len in splits {
                let batch: PackedTrace = (at..at + len).map(|i| trace.get(i).unwrap()).collect();
                fed_miss += streaming.feed(&batch).mispredicts;
                at += len;
            }
            assert_eq!(at, 25_000);
            assert_eq!(streaming.stats(), reference);
            assert_eq!(streaming.run(), ref_run);
            assert_eq!(fed_miss, ref_run.mispredicts);
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_identical_mid_stream() {
        // Save every piece of streaming state mid-trace, rebuild a fresh
        // replayer, restore, and finish: stats and totals must match an
        // uninterrupted replay in every bit.
        let trace = packed(1, 20_000);
        let build = || {
            StreamingReplay::new(
                Box::new(Gshare::new(11, 11)) as Box<dyn cira_predictor::BranchPredictor + Send>,
                Box::new(ResettingConfidence::new(
                    IndexSpec::pc_xor_bhr(11),
                    16,
                    InitPolicy::AllOnes,
                )) as Box<dyn ConfidenceMechanism + Send>,
            )
        };
        let mut uninterrupted = build();
        uninterrupted.feed(&trace.iter().collect());

        let first: PackedTrace = trace.iter().take(9_000).collect();
        let rest: PackedTrace = trace.iter().skip(9_000).collect();
        let mut before = build();
        before.feed(&first);
        let predictor_blob = before.predictor_state();
        let mechanism_blob = before.mechanism_state();
        let bhr = before.bhr_value();
        let cells = before.cells();
        let run = before.run();
        drop(before);

        let mut after = build();
        after.load_predictor_state(&predictor_blob).unwrap();
        after.load_mechanism_state(&mechanism_blob).unwrap();
        after.set_bhr(bhr);
        after.restore_cells(&cells).unwrap();
        after.restore_run(run);
        after.feed(&rest);

        assert_eq!(after.stats(), uninterrupted.stats());
        assert_eq!(after.cells(), uninterrupted.cells());
        assert_eq!(after.run(), uninterrupted.run());
    }

    #[test]
    fn restore_cells_rejects_repeats_and_excess_misses() {
        let mut replay = StreamingReplay::new(
            Box::new(Gshare::new(8, 8)),
            Box::new(ResettingConfidence::new(
                IndexSpec::pc(8),
                16,
                InitPolicy::AllOnes,
            )),
        );
        replay.restore_cells(&[(1, 5, 2), (40, 3, 0)]).unwrap();
        assert_eq!(
            replay.cells(),
            [(1, 5, 2), (40, 3, 0)],
            "dense and spilled keys"
        );
        for bad in [
            &[(1, 5, 2), (1, 5, 2)][..],
            &[(3, 1, 0), (2, 1, 0)],
            &[(4, 1, 2)],
        ] {
            assert!(replay.restore_cells(bad).is_err(), "{bad:?}");
        }
        assert_eq!(
            replay.cells(),
            [(1, 5, 2), (40, 3, 0)],
            "a refused restore keeps the counts"
        );
    }

    #[test]
    fn key_counts_spill_out_of_range_keys() {
        // Dense counter declared for keys 0..4; keys beyond that must
        // accumulate (not panic) and fold back with exact counts.
        let mut counts = KeyCounts::for_key_space(Some(4));
        counts.add_chunk(&[1u64, 10, 10, 7], &[true, false, true, false]);
        let stats = counts.to_stats();
        assert_eq!(stats.cell(1).map(|c| c.refs), Some(1.0));
        assert_eq!(
            stats.cell(7).map(|c| (c.refs, c.mispredicts)),
            Some((1.0, 1.0))
        );
        assert_eq!(
            stats.cell(10).map(|c| (c.refs, c.mispredicts)),
            Some((2.0, 1.0))
        );
        assert_eq!(stats.total_refs(), 4.0);
        assert_eq!(stats.total_mispredicts(), 2.0);
    }

    /// A buggy mechanism that declares `key_space() == Some(4)` but emits
    /// key 10 for every branch.
    struct LyingMechanism;

    impl ConfidenceMechanism for LyingMechanism {
        fn read_key(&self, _pc: u64, _bhr: u64) -> u64 {
            10
        }
        fn update(&mut self, _pc: u64, _bhr: u64, _correct: bool) {}
        fn key_space(&self) -> Option<u64> {
            Some(4)
        }
        fn describe(&self) -> String {
            "lying".into()
        }
        fn flush(&mut self) {}
    }

    #[test]
    fn out_of_range_keys_do_not_panic_replay() {
        let trace = packed(0, 2_000);
        let mut lying = LyingMechanism;
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut lying];
        let stats = replay_mechanisms(&trace, 2_000, &mut Gshare::new(8, 8), &mut refs).remove(0);
        assert_eq!(stats.total_refs(), 2_000.0);
        assert!(stats.cell(10).is_some(), "spilled key is still reported");
    }

    #[test]
    fn empty_trace_is_empty_stats() {
        let trace = PackedTrace::new();
        let mut mech = ResettingConfidence::new(IndexSpec::pc(8), 16, InitPolicy::AllOnes);
        let mut refs: Vec<&mut dyn ConfidenceMechanism> = vec![&mut mech];
        let out = replay_mechanisms(&trace, 1_000, &mut Gshare::new(8, 8), &mut refs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].total_refs(), 0.0);
    }
}
