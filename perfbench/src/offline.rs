//! The offline workloads, `paper_grid` and `tage_self`: grid cells of one
//! benchmark trace through one predictor configuration and its
//! confidence mechanisms, run on a one-worker [`Engine`].
//!
//! A cell is the unit a caller of the engine waits for, so it is this
//! workload's operation. A "session" is one benchmark trace replayed under
//! every configuration of the grid (one cell each); its times are kept
//! per benchmark ([`Samples`](crate::stats::Samples)).

use std::collections::HashMap;

use cira_analysis::engine::replay::replay_mechanisms;
use cira_analysis::engine::simd::fill_chunk;
use cira_analysis::engine::Engine;
use cira_analysis::runner::{self, DRIVER_BHR_WIDTH};
use cira_analysis::spec::{parse_index, parse_init, parse_mechanism, parse_predictor};
use cira_analysis::BucketStats;
use cira_core::ConfidenceMechanism;
use cira_predictor::{BranchPredictor, HistoryRegister};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::Benchmark;

use crate::span::span;
use crate::stats::{coverage20, digest, mix, Sentinels};
use crate::{suite, Budget, Clock, Kind, Op, Params, Phase, Scale, Verdict, Workload};

/// Records per replay chunk, as in the engine's kernel.
pub const CHUNK: usize = 4096;

/// One predictor configuration of a grid: predictor, index and the
/// mechanisms observed together, each with the span name it reports under.
#[derive(Debug, Clone)]
pub struct Config {
    /// Predictor spec, e.g. `gshare64k`.
    pub predictor: &'static str,
    /// Span name for the predictor's `predict_train_batch` calls.
    pub predictor_span: &'static str,
    /// One-level index spec shared by the mechanisms.
    pub index: &'static str,
    /// `(mechanism spec, span name)` pairs.
    pub mechanisms: Vec<(String, &'static str)>,
}

impl Config {
    fn predictor(&self) -> Box<dyn BranchPredictor + Send> {
        parse_predictor(self.predictor).expect("benchmark predictor spec")
    }

    fn mechanisms(&self) -> Vec<Box<dyn ConfidenceMechanism + Send>> {
        self.mechanisms
            .iter()
            .map(|(spec, _)| {
                let index = parse_index(self.index).expect("benchmark index spec");
                let init = parse_init("ones").expect("benchmark init spec");
                parse_mechanism(spec, index, init).expect("benchmark mechanism spec")
            })
            .collect()
    }
}

/// The grid of `kind`: two predictor configurations, each cell one
/// benchmark under one configuration.
pub fn configs(kind: Kind) -> Vec<Config> {
    let paper = |index| {
        vec![
            ("cir:16".to_owned(), "core.cir"),
            ("resetting:16".to_owned(), "core.resetting"),
            ("saturating:16".to_owned(), "core.saturating"),
            ("two-level:pcxorbhr-cir".to_owned(), "core.two_level"),
        ]
        .into_iter()
        .map(move |m| (m, index))
    };
    match kind {
        // §1.2's 2^16 gshare, whose tables overflow L2, and §5.3's 4K one,
        // whose tables fit.
        Kind::PaperGrid => [
            ("gshare64k", "predictor.gshare64k", "pcxorbhr:16"),
            ("gshare4k", "predictor.gshare4k", "pcxorbhr:12"),
        ]
        .into_iter()
        .map(|(predictor, predictor_span, index)| Config {
            predictor,
            predictor_span,
            index,
            mechanisms: paper(index).map(|(m, _)| m).collect(),
        })
        .collect(),
        Kind::TageSelf => [
            ("tage64k", "predictor.tage64k"),
            ("tage-sc-lite64k", "predictor.tage_sc_lite64k"),
        ]
        .into_iter()
        .map(|(predictor, predictor_span)| Config {
            predictor,
            predictor_span,
            index: "pcxorbhr:16",
            mechanisms: vec![
                ("resetting:16".to_owned(), "core.resetting"),
                (format!("self:{predictor}"), "core.self"),
            ],
        })
        .collect(),
        _ => unreachable!("not an offline workload"),
    }
}

/// Records per benchmark trace for `kind` at `scale`.
pub fn trace_len(kind: Kind, scale: Scale) -> usize {
    match (kind, scale) {
        (Kind::PaperGrid, Scale::Full) => 1 << 20,
        (Kind::TageSelf, Scale::Full) => 1 << 18,
        (_, Scale::Probe) => 1 << 16,
        (_, Scale::Smoke) => 20_000,
        _ => unreachable!("not an offline workload"),
    }
}

/// One cell's result: per-mechanism statistics plus the predictor's
/// misprediction count.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// One [`BucketStats`] per mechanism, in configuration order.
    pub stats: Vec<BucketStats>,
    /// Records replayed.
    pub records: u64,
    /// Mispredicted records.
    pub mispredicts: u64,
}

/// Runs one cell the way [`Engine::run_grid`] runs a task: fresh tables,
/// then [`replay_mechanisms`] over the cell's trace.
pub fn replay_cell(cfg: &Config, trace: &PackedTrace, len: usize, req: u64) -> CellResult {
    let mut predictor = cfg.predictor();
    let mut mechanisms = cfg.mechanisms();
    let mut refs: Vec<&mut dyn ConfidenceMechanism> = mechanisms
        .iter_mut()
        .map(|m| m.as_mut() as &mut dyn ConfidenceMechanism)
        .collect();
    let records = trace.len().min(len) as u64;
    let stats = span("analysis.replay", req, records, || {
        replay_mechanisms(trace, len, &mut predictor, &mut refs)
    });
    let mispredicts = stats[0].total_mispredicts() as u64;
    CellResult {
        stats,
        records,
        mispredicts,
    }
}

/// The per-record reference path: [`runner::collect_many_buckets`].
pub fn oracle_cell(cfg: &Config, trace: &PackedTrace, len: usize) -> CellResult {
    let mut predictor = cfg.predictor();
    let mut mechanisms = cfg.mechanisms();
    let mut refs: Vec<&mut dyn ConfidenceMechanism> = mechanisms
        .iter_mut()
        .map(|m| m.as_mut() as &mut dyn ConfidenceMechanism)
        .collect();
    let records = trace.len().min(len);
    let stats = runner::collect_many_buckets(trace.iter().take(records), &mut predictor, &mut refs);
    let mispredicts = stats[0].total_mispredicts() as u64;
    CellResult {
        stats,
        records: records as u64,
        mispredicts,
    }
}

/// Per-key counts in a dense array while keys stay inside the declared
/// key space, the way the engine's kernel counts them.
struct Counts {
    dense: Vec<(u64, u64)>,
    spill: HashMap<u64, (u64, u64)>,
}

impl Counts {
    fn new(key_space: Option<u64>) -> Counts {
        let n = key_space.filter(|&n| n <= 1 << 20).unwrap_or(0) as usize;
        Counts {
            dense: vec![(0, 0); n],
            spill: HashMap::new(),
        }
    }

    fn observe(&mut self, key: u64, miss: bool) {
        let cell = match self.dense.get_mut(key as usize) {
            Some(cell) => cell,
            None => self.spill.entry(key).or_insert((0, 0)),
        };
        cell.0 += 1;
        cell.1 += miss as u64;
    }

    fn into_stats(self) -> BucketStats {
        let mut stats = BucketStats::new();
        let mut spill: Vec<_> = self.spill.into_iter().collect();
        spill.sort_unstable_by_key(|&(k, _)| k);
        let dense = self
            .dense
            .into_iter()
            .enumerate()
            .map(|(k, c)| (k as u64, c));
        for (key, (refs, miss)) in dense.chain(spill) {
            stats.record_batch(key, refs, miss);
        }
        stats
    }
}

/// The traced run's view inside a cell: the same chunk loop as the
/// engine's kernel, called layer by layer — `fill_chunk`, the
/// predictor's `predict_train_batch`, each mechanism's `observe_batch` —
/// each call in its own span.
pub fn decomposed_cell(cfg: &Config, trace: &PackedTrace, len: usize, req: u64) -> CellResult {
    let mut predictor = cfg.predictor();
    let mut mechanisms = cfg.mechanisms();
    let mut counts: Vec<Counts> = mechanisms
        .iter()
        .map(|m| Counts::new(m.key_space()))
        .collect();
    let n = trace.len().min(len);
    let bhr = HistoryRegister::new(DRIVER_BHR_WIDTH);
    let (mask, mut h) = (bhr.mask(), bhr.value());
    let (mut pcs, mut hists) = (vec![0u64; CHUNK], vec![0u64; CHUNK]);
    let (mut takens, mut correct) = (vec![false; CHUNK], vec![false; CHUNK]);
    let mut keys = vec![0u64; CHUNK];
    let mut mispredicts = 0u64;
    let mut start = 0;
    while start < n {
        let c = CHUNK.min(n - start);
        let cn = c as u64;
        h = span("analysis.fill", req, cn, || {
            fill_chunk(trace, start, c, h, mask, &mut pcs, &mut hists, &mut takens)
        });
        span(cfg.predictor_span, req, cn, || {
            predictor.predict_train_batch(&pcs[..c], &hists[..c], &takens[..c], &mut correct[..c])
        });
        mispredicts += correct[..c].iter().filter(|&&ok| !ok).count() as u64;
        for ((m, (_, name)), acc) in mechanisms.iter_mut().zip(&cfg.mechanisms).zip(&mut counts) {
            span(name, req, cn, || {
                m.observe_batch(&pcs[..c], &hists[..c], &correct[..c], &mut keys[..c])
            });
            for (&key, &ok) in keys[..c].iter().zip(&correct[..c]) {
                acc.observe(key, !ok);
            }
        }
        start += c;
    }
    CellResult {
        stats: counts.into_iter().map(Counts::into_stats).collect(),
        records: n as u64,
        mispredicts,
    }
}

/// Digest of a cell result, for comparing repeated runs of one cell.
fn cell_digest(r: &CellResult) -> u64 {
    r.stats
        .iter()
        .fold(mix(r.records ^ mix(r.mispredicts)), |acc, s| {
            mix(acc ^ digest(s))
        })
}

/// A set-up offline workload.
pub struct Offline {
    engine: Engine,
    suite: Vec<Benchmark>,
    configs: Vec<Config>,
    len: usize,
    corrupt: bool,
    /// Digest of each cell's first result; later runs must match it.
    first: Vec<Option<u64>>,
    /// Each cell's sentinel contribution: `(records, mispredicts,
    /// coverage sum, mechanisms)`.
    first_sentinels: Vec<Option<(u64, u64, f64, usize)>>,
    /// The cell the timed phases start at: the first benchmark, under
    /// the first configuration.
    start: usize,
    /// Cells the runner oracle re-checks, with their first result.
    oracle: Vec<(usize, Option<CellResult>)>,
}

impl Offline {
    /// Builds the seeded suite and walks every benchmark into the
    /// engine's trace cache.
    pub fn setup(kind: Kind, params: &Params) -> Offline {
        let suite = suite::seeded_suite(params.seed);
        let len = trace_len(kind, params.scale);
        let engine = Engine::with_jobs(1);
        let traces = span("trace.walk", 0, (len * suite.len()) as u64, || {
            engine.materialize(&suite, len as u64)
        });
        traces.iter().for_each(|t| suite::note_packed(t));
        let configs = configs(kind);
        let ncells = configs.len() * suite.len();
        // Each slice of a run starts at a benchmark picked by the seed, so
        // the slices between them cover the suite evenly; the oracle
        // re-checks that benchmark under every configuration, the first
        // cells the slice runs.
        let bi = (mix(params.seed ^ mix(params.slice)) % suite.len() as u64) as usize;
        let start = bi * configs.len();
        let oracle = (0..configs.len()).map(|ci| (start + ci, None)).collect();
        Offline {
            engine,
            suite,
            configs,
            len,
            corrupt: params.corrupt_reference,
            first: vec![None; ncells],
            first_sentinels: vec![None; ncells],
            start,
            oracle,
        }
    }

    fn trace(&self, bi: usize) -> std::sync::Arc<PackedTrace> {
        self.engine.cache().get(&self.suite[bi], self.len as u64)
    }

    /// Bookkeeping after a cell: the consistency gate, the sentinels and
    /// the oracle sample. Returns whether the cell's result is consistent.
    fn check_cell(&mut self, cell: usize, r: &CellResult) -> bool {
        let d = cell_digest(r);
        if self.first_sentinels[cell].is_none() {
            let cov: f64 = r.stats.iter().map(coverage20).sum();
            self.first_sentinels[cell] = Some((r.records, r.mispredicts, cov, r.stats.len()));
        }
        if let Some((_, slot @ None)) = self.oracle.iter_mut().find(|(c, _)| *c == cell) {
            *slot = Some(r.clone());
        }
        *self.first[cell].get_or_insert(d) == d
    }
}

impl Workload for Offline {
    fn run(&mut self, budget: Budget) -> Phase {
        let nb = self.suite.len();
        let ncells = self.configs.len() * nb;
        let nc = self.configs.len();
        let mut phase = Phase::default();
        let mut clock = Clock::start();
        let mut cell = self.start;
        // The benchmark's time and records so far under the configurations
        // run, which one latency sample covers.
        let mut row_ms = 0.0;
        while !clock.spent(&budget, phase.attempted) {
            // Configurations alternate, so every slice and every probe
            // covers both.
            let (ci, bi) = (cell % nc, cell / nc);
            let req = crate::span::next_req();
            let cfg = self.configs[ci].clone();
            let len = self.len;
            let t0 = clock.now_s();
            let mut out = self
                .engine
                .map_suite(&self.suite[bi..=bi], len as u64, |_, trace| {
                    replay_cell(&cfg, trace, len, req)
                });
            let end_s = clock.now_s();
            let r = out.pop().expect("one benchmark, one result");
            phase.attempted += 1;
            let ok = clock.pause(|| {
                let mut ok = self.check_cell(cell, &r);
                if crate::span::enabled() {
                    let trace = self.trace(bi);
                    let parts = span("analysis.decomposed", req, r.records, || {
                        decomposed_cell(&cfg, &trace, len, req)
                    });
                    ok &= parts == r;
                }
                ok
            });
            phase.failed += u64::from(!ok);
            // One sample per benchmark under every configuration, in that
            // benchmark's stratum: single cells would cluster by
            // configuration, and pooled benchmarks by benchmark.
            row_ms += (end_s - t0) * 1e3;
            if ci + 1 == nc {
                phase.session_ms.push(bi as u32, row_ms);
                row_ms = 0.0;
            }
            phase.ops.push(Op {
                end_s,
                records: r.records,
            });
            cell = (cell + 1) % ncells;
        }
        phase.elapsed_s = clock.now_s();
        phase
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let oracle = std::mem::take(&mut self.oracle);
        for (cell, first) in &oracle {
            let Some(first) = first else { continue };
            let (ci, bi) = (cell % self.configs.len(), cell / self.configs.len());
            let mut reference = oracle_cell(&self.configs[ci], &self.trace(bi), self.len);
            if self.corrupt {
                reference.stats[0].record_batch(u64::MAX, 1, 1);
            }
            verdict.checked += 1;
            verdict.failed += u64::from(reference != *first);
        }
        self.oracle = oracle;
        verdict
    }

    fn sentinels(&self) -> Sentinels {
        Sentinels::fold(self.first_sentinels.iter().flatten().copied())
    }
}
