//! The repository benchmark: four workloads over the `cira` crates, each
//! timed end to end from one process, and a traced run that times the
//! calls into each layer from outside. `README.md` beside this crate
//! explains the workloads, the metrics and how they relate.

pub mod layers;
pub mod net;
pub mod offline;
pub mod report;
pub mod sessions;
pub mod span;
pub mod stats;
pub mod stream;
pub mod suite;

use std::time::{Duration, Instant};

use stats::{Samples, Sentinels};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// gshare 2^16 and 4K with the paper's mechanisms, offline.
    PaperGrid,
    /// TAGE and TAGE-SC-lite with `resetting` and `self:`, offline.
    TageSelf,
    /// Two connections streaming long sessions in 4096-record batches.
    ServeStream,
    /// Short park/resume lifecycles against a durable park.
    ServeSessions,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperGrid,
        Kind::TageSelf,
        Kind::ServeStream,
        Kind::ServeSessions,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::TageSelf => "tage_self",
            Kind::ServeStream => "serve_stream",
            Kind::ServeSessions => "serve_sessions",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs offline (no server): its latency
    /// samples are stratified by benchmark, not by second.
    pub fn offline(self) -> bool {
        matches!(self, Kind::PaperGrid | Kind::TageSelf)
    }
}

/// Input sizes: the measured size, a probe size for the layers a traced
/// run's own workload does not exercise, and a smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// What the benchmark measures.
    Full,
    /// A short run of another workload inside a traced run.
    Probe,
    /// Seconds-long runs for the benchmark's own tests.
    Smoke,
}

/// Everything a workload's set-up depends on.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: selects the suite's input datasets.
    pub seed: u64,
    /// Which slice of the run the workload is set up for; offline, with
    /// the seed, it picks the benchmark the slice starts at.
    pub slice: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Test hook: corrupt the reference the gate compares against, so a
    /// test can show the gate fails.
    pub corrupt_reference: bool,
    /// Scratch directory for files the workload writes (the durable
    /// park, the scratch session store).
    pub work_dir: std::path::PathBuf,
}

/// When a timed phase stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock limit.
    pub time: Duration,
    /// Operation limit (grid cells, batches or lifecycles).
    pub max_ops: u64,
}

impl Budget {
    /// A phase of `seconds` with no operation limit.
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            time: Duration::from_secs_f64(seconds),
            max_ops: u64::MAX,
        }
    }

    /// A phase of at most `ops` operations (and a minute at most).
    pub fn ops(ops: u64) -> Budget {
        Budget {
            time: Duration::from_secs(60),
            max_ops: ops,
        }
    }
}

/// A phase clock that can leave bookkeeping (result digests, the traced
/// run's replica work) out of the measured time.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    paused: Duration,
}

impl Clock {
    /// Starts the clock.
    pub fn start() -> Clock {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Measured time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// Measured seconds so far.
    pub fn now_s(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Runs `f` with the clock stopped.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.paused += t0.elapsed();
        out
    }

    /// Whether `budget` is spent after `done` operations.
    pub fn spent(&self, budget: &Budget, done: u64) -> bool {
        done >= budget.max_ops || self.elapsed() >= budget.time
    }
}

/// Files a serve workload's latency samples by the second of the timed
/// phase in which they completed: the strata of its [`Samples`]. Each
/// slice of a run has its own seconds, and a slice's last, partial second
/// joins the one before it, so every stratum spans at least a second.
#[derive(Debug, Clone, Copy)]
pub struct Seconds<'a> {
    clock: &'a Clock,
    base: u32,
    last: u32,
}

impl<'a> Seconds<'a> {
    /// The seconds of slice `slice`'s phase timed by `clock` under
    /// `budget`.
    pub fn new(clock: &'a Clock, slice: u64, budget: &Budget) -> Seconds<'a> {
        Seconds {
            clock,
            base: (slice as u32) << 16,
            last: (budget.time.as_secs() as u32).saturating_sub(1),
        }
    }

    /// The stratum of a sample completing now.
    pub fn now(&self) -> u32 {
        self.base | (self.clock.now_s() as u32).min(self.last)
    }
}

/// One finished operation of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Seconds from the phase start to the operation's end.
    pub end_s: f64,
    /// Records the operation scored.
    pub records: u64,
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations attempted: grid cells, batches or lifecycles.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong result.
    pub failed: u64,
    /// Wall-clock length of the phase, seconds.
    pub elapsed_s: f64,
    /// Finished operations in completion order.
    pub ops: Vec<Op>,
    /// Session latencies, milliseconds.
    pub session_ms: Samples,
    /// Serve-side failures by kind.
    pub serve: net::Failures,
}

impl Phase {
    /// Adds another client thread's (or phase's) operations and counts.
    pub fn merge(&mut self, o: Phase) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.ops.extend(o.ops);
        self.session_ms.extend(o.session_ms);
        self.serve.add(o.serve);
    }

    /// Appends a phase that ran after this one, on its own clock: its
    /// operations move to this phase's timeline.
    pub fn append(&mut self, mut later: Phase) {
        for op in &mut later.ops {
            op.end_s += self.elapsed_s;
        }
        self.elapsed_s += later.elapsed_s;
        self.merge(later);
    }

    /// Records scored in the phase.
    pub fn records(&self) -> u64 {
        self.ops.iter().map(|o| o.records).sum()
    }

    /// Scored records per second of the phase.
    pub fn records_per_s(&self) -> f64 {
        self.records() as f64 / self.elapsed_s
    }
}

/// The outcome of checking a workload's outputs after its phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Operations whose output did not match the reference.
    pub failed: u64,
    /// Checks made.
    pub checked: u64,
}

/// One workload, set up and ready to run timed phases.
pub trait Workload {
    /// Runs operations until `budget` is spent.
    fn run(&mut self, budget: Budget) -> Phase;
    /// Checks every output of the phases run so far against the
    /// workload's reference path.
    fn verify(&mut self) -> Verdict;
    /// The simulated-statistics sentinels over the workload's fixed
    /// inputs.
    fn sentinels(&self) -> Sentinels;
    /// Per-layer figures only the workload can take (counters from the
    /// server's `STATS` reply), as `(metric, value)`.
    fn layer_counts(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Builds `kind` with `params`: seeded suite, walked traces, server.
pub fn setup(kind: Kind, params: &Params) -> Box<dyn Workload> {
    match kind {
        Kind::PaperGrid | Kind::TageSelf => Box::new(offline::Offline::setup(kind, params)),
        Kind::ServeStream => Box::new(stream::Stream::setup(params)),
        Kind::ServeSessions => Box::new(sessions::Sessions::setup(params)),
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: cira-perfbench --workload <paper_grid|tage_self|serve_stream|serve_sessions> \
                         --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`; every flag
    /// is required.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Everything one run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines: provenance, metrics with units, overheads.
    pub lines: Vec<String>,
    /// The result line, printed last.
    pub result: String,
    /// Whether every check passed and every metric is a finite number.
    pub correct: bool,
    /// The metrics of the result line.
    pub metrics: Vec<report::Metric>,
}

/// Where a run keeps its scratch files and its span dump.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Slices of an untraced run. Each slice sets its workload up afresh and
/// then measures, so set-up is sampled across the whole run instead of
/// in one burst at its start: this host's speed swings by a quarter for
/// seconds at a time, and a burst of set-ups lands in one swing.
pub const SLICES: usize = 8;

/// Seconds of set-up each slice takes at least: set-up repeats until it
/// has, so a set-up of a few milliseconds is sampled about a hundred
/// times a run and one of a few hundred milliseconds twice a slice.
pub const SLICE_SETUP_S: f64 = 0.5;

/// What [`measure`] took.
struct Measured {
    phase: Phase,
    /// Seconds of each set-up.
    setup_s: Vec<f64>,
    /// `records_per_s` of each slice, to show how the host's speed moved
    /// during the run.
    slice_rates: Vec<f64>,
    verdict: Verdict,
    /// The last slice's workload, already checked.
    workload: Box<dyn Workload>,
}

/// Measures `kind` for `seconds` split into `slices` slices. Each slice
/// drops the previous workload, sets up again until set-up has taken
/// [`SLICE_SETUP_S`], runs its share of the time and checks its outputs.
fn measure(kind: Kind, params: &Params, seconds: f64, slices: usize) -> Measured {
    let mut phase = Phase::default();
    let (mut setup_s, mut verdict) = (Vec::new(), Verdict::default());
    let mut slice_rates = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for slice in 0..slices {
        let params = Params {
            slice: slice as u64,
            ..params.clone()
        };
        let mut spent = 0.0;
        while spent < SLICE_SETUP_S || workload.is_none() {
            drop(workload.take());
            let t0 = Instant::now();
            workload = Some(setup(kind, &params));
            let s = t0.elapsed().as_secs_f64();
            setup_s.push(s);
            spent += s;
        }
        let w = workload.as_mut().expect("set up above");
        let slice = w.run(Budget::seconds(seconds / slices as f64));
        slice_rates.push(slice.records_per_s());
        phase.append(slice);
        let v = w.verify();
        verdict.failed += v.failed;
        verdict.checked += v.checked;
    }
    Measured {
        phase,
        setup_s,
        slice_rates,
        verdict,
        workload: workload.expect("at least one slice"),
    }
}

/// Runs one workload and checks every output before reporting. Untraced:
/// [`SLICES`] slices of set-up and measurement. Traced: half the time
/// untraced in half the slices, then one traced slice for the other
/// half, then short traced probes of the other workloads.
pub fn execute(args: &Args, scale: Scale, corrupt_reference: bool) -> Report {
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let work_dir = out_dir().join(format!("work-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).expect("create the benchmark's scratch directory");
    let params = Params {
        seed: args.seed,
        slice: 0,
        scale,
        corrupt_reference,
        work_dir: work_dir.clone(),
    };
    let mut lines = Vec::new();
    let (phase, setup_s, slice_rates, metrics, verdict, traced_extra);
    if args.trace {
        let mut plain_run = measure(args.workload, &params, args.seconds / 2.0, SLICES / 2);
        drop(plain_run.workload);
        let plain = report::end_to_end(
            args.workload,
            &plain_run.phase,
            &mut plain_run.setup_s,
            report::peak_rss_mb(),
        );
        span::set_enabled(true);
        let mut traced = measure(args.workload, &params, args.seconds / 2.0, 1);
        let with_spans = report::end_to_end(
            args.workload,
            &traced.phase,
            &mut traced.setup_s,
            report::peak_rss_mb(),
        );
        let mut serve = traced.phase.serve;
        let mut counts = traced.workload.layer_counts();
        let (mut probe_attempted, mut probe_failed) = (0, 0);
        for other in Kind::ALL.into_iter().filter(|k| *k != args.workload) {
            let probe_params = Params {
                scale: if scale == Scale::Full {
                    Scale::Probe
                } else {
                    scale
                },
                ..params.clone()
            };
            let mut probe = setup(other, &probe_params);
            let p = probe.run(Budget::ops(probe_ops(other)));
            probe_attempted += p.attempted;
            probe_failed += p.failed + probe.verify().failed;
            serve.add(p.serve);
            for c in probe.layer_counts() {
                if !counts.iter().any(|(n, _)| *n == c.0) {
                    counts.push(c);
                }
            }
        }
        span::set_enabled(false);
        let spans = span::take();
        let dump = out_dir().join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match span::write_chrome(&dump, &spans) {
            Ok(()) => lines.push(format!(
                "spans: {} written to {}",
                spans.len(),
                dump.display()
            )),
            Err(e) => lines.push(format!("spans: could not write {}: {e}", dump.display())),
        }
        for (p, t) in plain.iter().zip(&with_spans) {
            lines.push(format!(
                "overhead.{} {} {} (traced {} - untraced {})",
                p.name,
                t.value - p.value,
                p.unit,
                t.value,
                p.value
            ));
        }
        let derived = layers::derive(&spans, traced.workload.sentinels(), &counts, serve);
        lines.extend(derived.closure.iter().cloned());
        drop(traced.workload);
        verdict = Verdict {
            failed: plain_run.verdict.failed + traced.verdict.failed + probe_failed,
            checked: plain_run.verdict.checked + traced.verdict.checked,
        };
        let mut merged = plain_run.phase;
        merged.attempted += traced.phase.attempted + probe_attempted;
        merged.failed += traced.phase.failed;
        phase = merged;
        (setup_s, slice_rates) = (plain_run.setup_s, plain_run.slice_rates);
        metrics = derived.metrics;
        traced_extra = derived.closure_ok;
    } else {
        let mut m = measure(args.workload, &params, args.seconds, SLICES);
        drop(m.workload);
        metrics = report::end_to_end(
            args.workload,
            &m.phase,
            &mut m.setup_s,
            report::peak_rss_mb(),
        );
        (phase, setup_s, slice_rates, verdict) = (m.phase, m.setup_s, m.slice_rates, m.verdict);
        traced_extra = true;
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let failed = phase.failed + verdict.failed;
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && finite && traced_extra;
    let prov = report::Provenance {
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        attempted: phase.attempted,
        failed,
        samples: vec![
            ("session", phase.session_ms.len()),
            ("session_strata", phase.session_ms.strata()),
            ("setup", setup_s.len()),
            ("checks", verdict.checked as usize),
        ],
    };
    let prov = prov.to_json();
    lines.insert(0, format!("provenance: {prov}"));
    let rates: Vec<String> = slice_rates.iter().map(|r| format!("{r:.0}")).collect();
    lines.push(format!("records_per_s by slice: {}", rates.join(" ")));
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    lines.push(format!("setup_s samples: {}", setups.join(" ")));
    for m in &metrics {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    let n = phase.session_ms.len();
    if !args.trace && n < report::MIN_TAIL_SAMPLES {
        lines.push(format!(
            "warning: session p90 rests on {n} samples (< {})",
            report::MIN_TAIL_SAMPLES
        ));
    }
    let result = report::result_line(correct, phase.attempted.max(1), failed, &metrics);
    let record = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(
        &record,
        format!("{{\"provenance\": {prov}, \"result\": {result}}}\n"),
    );
    Report {
        lines,
        result,
        correct,
        metrics,
    }
}

/// Operations a traced run's probe of `kind` performs.
fn probe_ops(kind: Kind) -> u64 {
    match kind {
        Kind::PaperGrid | Kind::TageSelf => 4,
        Kind::ServeStream => 256,
        Kind::ServeSessions => 64,
    }
}
