//! `cira` — command-line tools for branch traces, predictors, and
//! confidence experiments.
//!
//! ```text
//! cira suite                                   list the IBS-like benchmarks
//! cira gen --bench gcc --len 1000000 --out t.cirt
//! cira info t.cirt                             trace statistics
//! cira dump t.cirt --limit 20                  print records
//! cira predict --bench gcc --predictor gshare64k
//! cira confidence --bench gcc --mechanism resetting:16 --threshold 16
//! cira curve --bench gcc --out curve.csv       coverage-curve CSV
//! cira table --bench gcc                       Table-1 style counter table
//! cira vm prog.asm --mem 64 --trace out.cirt   run a tiny-VM program
//! cira serve --metrics-port 9001               server + /metrics endpoint
//! cira stats --metrics 127.0.0.1:9001          live counters + latency quantiles
//! cira trace dump --metrics 127.0.0.1:9001     flight-recorder Chrome trace
//! ```
//!
//! Run `cira help` for full usage.

mod args;

use std::process::ExitCode;

use cira_analysis::spec;

use args::Args;
use cira_analysis::engine::replay::{replay_mechanisms, replay_predictor};
use cira_analysis::export::{ascii_chart, save_curves_csv};
use cira_analysis::{BucketStats, ConfusionCounts, CounterTable, CoverageCurve};
use cira_core::{ConfidenceMechanism, LowRule};
use cira_predictor::BranchPredictor;
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;
use cira_trace::tinyvm::{assemble, Machine};
use cira_trace::{codec, TraceStats};

const USAGE: &str = "\
cira — branch prediction confidence tools (Jacobsen/Rotenberg/Smith, MICRO-29 1996)

USAGE: cira <command> [flags]

COMMANDS
  suite                      list the synthetic IBS-like benchmarks
  gen                        generate a trace file
      --bench NAME [--len N] [--seed S] --out FILE
  info FILE                  statistics of a trace file
  dump FILE [--limit N]      print trace records
  predict                    run a predictor over a trace
      (--bench NAME | --trace FILE) [--len N] [--predictor SPEC]
  confidence                 run predictor + confidence estimator
      (--bench NAME | --trace FILE) [--len N] [--predictor SPEC]
      [--mechanism SPEC] [--index SPEC] [--init SPEC] [--threshold T]
  curve                      coverage curve (ideal reduction over keys)
      same flags as `confidence`, plus [--out FILE.csv] [--chart]
  table                      Table-1 style per-counter statistics
      same flags as `confidence`, plus [--max M]
  sweep                      all operating points of a counter estimator
      same flags as `confidence`, plus [--max M] [--out FILE.csv]
  mix                        interleave several benchmarks into one trace
      --bench A --bench B [...] [--len N] [--quantum Q] --out FILE
  vm FILE.asm                assemble and run a tiny-VM program
      [--mem WORDS] [--steps N] [--trace OUT.cirt] [--base PC]
  serve                      run the streaming confidence server
      [--addr HOST:PORT] [--port-file FILE] [--metrics-port PORT]
      [--max-frame BYTES] [--max-inflight N]
      [--write-timeout SECS] [--max-sessions N] [--idle-timeout SECS]
      [--park-capacity N] [--park-ttl SECS]
      [--park-dir DIR] [--park-disk-capacity BYTES]
      [--shards N]           event-loop shards (default: one per core)
      [--trace]              enable the in-memory flight recorder
      [--trace-capacity N]   events per ring buffer (default 4096)
  replay                     stream a trace through a running server
      --connect HOST:PORT (--bench NAME | --trace FILE) [--len N]
      [--batch N] [--verify] [--retries N] [--timeout SECS]
      [--park] [--resume TOKEN]
      plus the `confidence` spec flags
  stats                      print a running server's counters and latency
      --metrics HOST:PORT    quantiles from its metrics listener (the
      [--timeout SECS]       address `serve --metrics-port` opened)
  trace dump                 dump a server's flight recorder as Chrome
      --metrics HOST:PORT    trace-event JSON (load in chrome://tracing
      [--timeout SECS]       or Perfetto) from its metrics listener;
      [--out FILE]           prints to stdout without --out
  store inspect FILE         examine a durable park store (*.cirstore)
      [--decode]             also decode each CIRD checkpoint
  help                       show this text

GLOBAL FLAGS
  --log-level LEVEL          error|warn|info|debug|trace|off (any position;
                             overrides CIRA_LOG, default warn)

SPECS
  predictor: gshare:T:H | gshare64k | gshare4k | bimodal:B | gselect:T:H
             | local:B:H | agree:T:H:B | taken | not-taken
             | tage:B:N:MIN:MAX[:TAG] | tage64k
             | tage-sc-lite:B:N:MIN:MAX[:TAG] | tage-sc-lite64k
                                                        (default gshare64k)
  mechanism: cir:W | ones-count:W | saturating:MAX | resetting:MAX
             | two-level:VARIANT | self:PREDICTOR       (default resetting:16)
             (bare `self` shadows the session's --predictor spec)
  index:     pc:B | bhr:B | pcxorbhr:B | pcconcatbhr:B | gcir:B
                                                        (default pcxorbhr:16)
  init:      ones | zeros | lastbit | random:SEED       (default ones)
";

/// Strips every global `--log-level` flag (space or `=` form, any
/// position) from `argv`, installing the last one as the log filter.
/// Without the flag, the logger configures itself lazily from `CIRA_LOG`.
fn apply_log_level(argv: Vec<String>) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(argv.len());
    let mut it = argv.into_iter();
    while let Some(token) = it.next() {
        let raw = if let Some(v) = token.strip_prefix("--log-level=") {
            v.to_owned()
        } else if token == "--log-level" {
            it.next().ok_or("--log-level needs a value")?
        } else {
            out.push(token);
            continue;
        };
        cira_obs::log::init(cira_obs::Level::parse(&raw)?);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = match apply_log_level(argv) {
        Ok(argv) => argv,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(rest.iter().cloned());
    let result = match command.as_str() {
        "suite" => cmd_suite(&args),
        "gen" => cmd_gen(&args),
        "info" => cmd_info(&args),
        "dump" => cmd_dump(&args),
        "predict" => cmd_predict(&args),
        "confidence" => cmd_confidence(&args),
        "curve" => cmd_curve(&args),
        "table" => cmd_table(&args),
        "sweep" => cmd_sweep(&args),
        "mix" => cmd_mix(&args),
        "vm" => cmd_vm(&args),
        "serve" => cmd_serve(&args),
        "replay" => cmd_replay(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "store" => cmd_store(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `cira help`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_suite(args: &Args) -> CliResult {
    args.check_known(&[])?;
    println!(
        "{:<12} {:>9} {:>9} {:>12} {:>14}",
        "name", "regions", "static", "kernel pc", "construction"
    );
    for bench in ibs_like_suite() {
        println!(
            "{:<12} {:>9} {:>9} {:>#12x} {:>14}",
            bench.name(),
            bench.program().regions(),
            bench.program().static_branches(),
            bench.kernel_start_pc(),
            bench.profile().construction_seed,
        );
    }
    Ok(())
}

/// Loads the trace selected by `--bench`/`--trace` flags, bounded by
/// `--len` (default 1,000,000 for benchmarks, whole file for traces).
fn load_trace(args: &Args) -> Result<PackedTrace, Box<dyn std::error::Error>> {
    let len: usize = args.get_or("len", 1_000_000u64, "a positive integer")? as usize;
    match (args.get("bench"), args.get("trace")) {
        (Some(name), None) => {
            let suite = ibs_like_suite();
            let bench = suite
                .iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| format!("unknown benchmark {name:?}; see `cira suite`"))?;
            let seed = args.get_parsed::<u64>("seed", "an integer")?;
            let walker = match seed {
                Some(s) => bench.walker_with_seed(s),
                None => bench.walker(),
            };
            Ok(walker.take(len).collect())
        }
        (None, Some(path)) => {
            let file = std::fs::File::open(path)?;
            let records = codec::read_trace(std::io::BufReader::new(file))?;
            Ok(records.into_iter().take(len).collect())
        }
        _ => Err("exactly one of --bench or --trace is required".into()),
    }
}

const TRACE_FLAGS: &[&str] = &["bench", "trace", "len", "seed"];

fn cmd_gen(args: &Args) -> CliResult {
    args.check_known(&["bench", "len", "seed", "out"])?;
    let out = args.require("out")?.to_owned();
    if args.get("bench").is_none() {
        return Err("--bench is required".into());
    }
    let trace = load_trace(args)?;
    let file = std::fs::File::create(&out)?;
    let n = codec::write_trace(std::io::BufWriter::new(file), trace.iter())?;
    println!("wrote {n} records to {out}");
    Ok(())
}

fn cmd_info(args: &Args) -> CliResult {
    args.check_known(&[])?;
    let path = args.single_positional("usage: cira info FILE")?;
    let file = std::fs::File::open(path)?;
    let records = codec::read_trace(std::io::BufReader::new(file))?;
    let stats: TraceStats = records.iter().copied().collect();
    println!("records:         {}", stats.dynamic_branches());
    println!("static branches: {}", stats.static_branches());
    println!("taken rate:      {:.2}%", 100.0 * stats.taken_rate());
    let bytes = std::fs::metadata(path)?.len();
    println!(
        "file size:       {bytes} bytes ({:.2} bytes/record)",
        bytes as f64 / stats.dynamic_branches().max(1) as f64
    );
    Ok(())
}

fn cmd_dump(args: &Args) -> CliResult {
    args.check_known(&["limit"])?;
    let path = args.single_positional("usage: cira dump FILE [--limit N]")?;
    let limit: u64 = args.get_or("limit", 32u64, "a positive integer")?;
    let file = std::fs::File::open(path)?;
    let reader = codec::TraceReader::new(std::io::BufReader::new(file))?;
    for (i, record) in reader.take(limit as usize).enumerate() {
        println!("{i:>8}  {}", record?);
    }
    Ok(())
}

fn cmd_predict(args: &Args) -> CliResult {
    args.check_known(&[TRACE_FLAGS, &["predictor"]].concat())?;
    let mut predictor = spec::parse_predictor(args.get("predictor").unwrap_or("gshare64k"))?;
    let trace = load_trace(args)?;
    let run = replay_predictor(&trace, trace.len(), &mut predictor);
    println!("predictor:   {}", predictor.describe());
    println!("branches:    {}", run.branches);
    println!("mispredicts: {}", run.mispredicts);
    println!("miss rate:   {:.3}%", 100.0 * run.miss_rate());
    Ok(())
}

fn build_mechanism(
    args: &Args,
) -> Result<Box<dyn ConfidenceMechanism>, Box<dyn std::error::Error>> {
    let index = spec::parse_index(args.get("index").unwrap_or("pcxorbhr:16"))?;
    let init = spec::parse_init(args.get("init").unwrap_or("ones"))?;
    let mechanism = match args.get("mechanism").unwrap_or("resetting:16") {
        // Bare `self` shadows whatever the session predicts with, so the
        // mechanism's strength buckets describe the actual predictor.
        "self" => format!("self:{}", args.get("predictor").unwrap_or("gshare64k")),
        other => other.to_owned(),
    };
    Ok(spec::parse_mechanism(&mechanism, index, init)?)
}

const CONF_FLAGS: &[&str] = &["predictor", "mechanism", "index", "init"];

/// Loads the selected trace and replays it through `predictor` and
/// `mechanism` on the engine's chunk kernel.
fn mechanism_buckets(
    args: &Args,
    predictor: &mut impl BranchPredictor,
    mechanism: &mut dyn ConfidenceMechanism,
) -> Result<BucketStats, Box<dyn std::error::Error>> {
    let trace = load_trace(args)?;
    Ok(replay_mechanisms(&trace, trace.len(), predictor, &mut [mechanism]).remove(0))
}

fn cmd_confidence(args: &Args) -> CliResult {
    args.check_known(&[TRACE_FLAGS, CONF_FLAGS, &["threshold"]].concat())?;
    let mut predictor = spec::parse_predictor(args.get("predictor").unwrap_or("gshare64k"))?;
    let mut mechanism = build_mechanism(args)?;
    let rule = LowRule::KeyBelow(args.get_or("threshold", 16u64, "a key threshold")?);
    let stats = mechanism_buckets(args, &mut predictor, mechanism.as_mut())?;
    let counts = ConfusionCounts::from_buckets(&stats, &rule);
    println!("predictor: {}", predictor.describe());
    println!("estimator: {} | low if {rule}", mechanism.describe());
    println!("{counts}");
    println!(
        "misprediction rate {:.3}% over {} branches",
        100.0 * counts.miss_rate(),
        counts.total()
    );
    Ok(())
}

fn cmd_curve(args: &Args) -> CliResult {
    args.check_known(&[TRACE_FLAGS, CONF_FLAGS, &["out", "chart"]].concat())?;
    let mut predictor = spec::parse_predictor(args.get("predictor").unwrap_or("gshare64k"))?;
    let mut mechanism = build_mechanism(args)?;
    let stats = mechanism_buckets(args, &mut predictor, mechanism.as_mut())?;
    let curve = CoverageCurve::from_buckets(&stats);
    println!("mechanism: {}", mechanism.describe());
    println!("miss rate: {:.3}%", 100.0 * stats.miss_rate());
    for budget in [5.0, 10.0, 20.0, 30.0, 50.0] {
        println!(
            "  lowest-confidence {budget:>4.0}% of branches hold {:5.1}% of mispredictions",
            curve.coverage_at(budget)
        );
    }
    if args.has("chart") {
        println!("\n{}", ascii_chart(&[("curve", &curve)], 72, 20));
    }
    if let Some(path) = args.get("out") {
        save_curves_csv(path, &[("curve", &curve)])?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_table(args: &Args) -> CliResult {
    args.check_known(&[TRACE_FLAGS, CONF_FLAGS, &["max"]].concat())?;
    let mut predictor = spec::parse_predictor(args.get("predictor").unwrap_or("gshare64k"))?;
    let mut mechanism = build_mechanism(args)?;
    let max: u32 = args.get_or("max", 16u32, "a counter maximum")?;
    let stats = mechanism_buckets(args, &mut predictor, mechanism.as_mut())?;
    println!("mechanism: {}", mechanism.describe());
    println!("{}", CounterTable::from_buckets(&stats, max));
    Ok(())
}

fn cmd_sweep(args: &Args) -> CliResult {
    args.check_known(&[TRACE_FLAGS, CONF_FLAGS, &["max", "out"]].concat())?;
    let mut predictor = spec::parse_predictor(args.get("predictor").unwrap_or("gshare64k"))?;
    let mut mechanism = build_mechanism(args)?;
    let max: u64 = args.get_or("max", 16u64, "a counter maximum")?;
    let stats = mechanism_buckets(args, &mut predictor, mechanism.as_mut())?;
    let sweep = cira_analysis::threshold_sweep(&stats, max);
    println!("mechanism: {}", mechanism.describe());
    println!(
        "{:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "threshold", "low set", "coverage", "PVN", "PVP", "SPEC"
    );
    for p in &sweep {
        println!(
            "{:>9} {:>8.1}% {:>8.1}% {:>7.3} {:>7.4} {:>7.3}",
            p.threshold,
            100.0 * p.low_fraction,
            100.0 * p.coverage,
            p.pvn,
            p.pvp,
            p.specificity
        );
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, cira_analysis::sweep_to_csv(&sweep))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_mix(args: &Args) -> CliResult {
    args.check_known(&["bench", "len", "seed", "quantum", "out"])?;
    let names = args.get_all("bench");
    if names.len() < 2 {
        return Err("mix needs at least two --bench flags".into());
    }
    let out = args.require("out")?.to_owned();
    let len: usize = args.get_or("len", 200_000u64, "a positive integer")? as usize;
    let quantum: usize = args.get_or("quantum", 10_000u64, "a positive integer")? as usize;
    let suite = ibs_like_suite();
    let mut traces = Vec::with_capacity(names.len());
    for name in &names {
        let bench = suite
            .iter()
            .find(|b| b.name() == *name)
            .ok_or_else(|| format!("unknown benchmark {name:?}; see `cira suite`"))?;
        traces.push(bench.walker().take(len).collect::<Vec<_>>());
    }
    let mixed = cira_trace::transform::interleave(traces, quantum);
    let file = std::fs::File::create(&out)?;
    let n = codec::write_trace(std::io::BufWriter::new(file), mixed.iter().copied())?;
    println!(
        "wrote {n} records ({} programs, quantum {quantum}) to {out}",
        names.len()
    );
    Ok(())
}

/// The client-side resilience flags shared by `replay` and `stats`:
/// `--retries N` enables automatic reconnect-and-resume with exponential
/// backoff, `--timeout SECS` bounds both connect and per-read waits.
const CLIENT_FLAGS: &[&str] = &["retries", "timeout"];

fn client_builder(
    args: &Args,
    addr: &str,
) -> Result<cira_serve::ClientBuilder, Box<dyn std::error::Error>> {
    let mut builder = cira_serve::Client::builder(addr);
    if let Some(secs) = args.get_parsed::<u64>("timeout", "a timeout in seconds")? {
        if secs == 0 {
            return Err("--timeout must be positive".into());
        }
        let t = std::time::Duration::from_secs(secs);
        builder = builder.connect_timeout(t).read_timeout(t);
    }
    if let Some(n) = args.get_parsed::<u32>("retries", "an attempt count")? {
        builder = builder.retry(cira_serve::RetryPolicy::retries(n));
    }
    Ok(builder)
}

fn cmd_serve(args: &Args) -> CliResult {
    args.check_known(&[
        "addr",
        "port-file",
        "metrics-port",
        "max-frame",
        "max-inflight",
        "write-timeout",
        "max-sessions",
        "idle-timeout",
        "park-capacity",
        "park-ttl",
        "park-dir",
        "park-disk-capacity",
        "shards",
        "trace",
        "trace-capacity",
    ])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let mut cfg = cira_serve::ServerConfig::default();
    cfg.max_frame = args.get_or("max-frame", cfg.max_frame, "a byte count")?;
    cfg.max_inflight = args.get_or("max-inflight", cfg.max_inflight, "a batch count")?;
    if cfg.max_frame == 0 || cfg.max_inflight == 0 {
        return Err("--max-frame and --max-inflight must be positive".into());
    }
    // Seconds on the command line, milliseconds in the config; 0 disables
    // the write timeout entirely.
    if let Some(secs) = args.get_parsed::<u64>("write-timeout", "a timeout in seconds")? {
        cfg.write_timeout_ms = secs.saturating_mul(1000);
    }
    cfg.max_sessions = args.get_or("max-sessions", cfg.max_sessions, "a session count")?;
    if cfg.max_sessions == 0 {
        return Err("--max-sessions must be positive".into());
    }
    // Idle/TTL flags follow the write-timeout convention: seconds on the
    // command line, milliseconds in the config, 0 disables.
    if let Some(secs) = args.get_parsed::<u64>("idle-timeout", "a timeout in seconds")? {
        cfg.idle_timeout_ms = secs.saturating_mul(1000);
    }
    cfg.park_capacity = args.get_or("park-capacity", cfg.park_capacity, "a session count")?;
    if let Some(secs) = args.get_parsed::<u64>("park-ttl", "a TTL in seconds")? {
        if secs == 0 {
            return Err("--park-ttl must be positive".into());
        }
        cfg.park_ttl_ms = secs.saturating_mul(1000);
    }
    if let Some(dir) = args.get("park-dir") {
        cfg.park_dir = Some(std::path::PathBuf::from(dir));
    }
    cfg.park_disk_capacity = args.get_or(
        "park-disk-capacity",
        cfg.park_disk_capacity,
        "a byte budget (0 = unlimited)",
    )?;
    if cfg.park_disk_capacity != 0 && cfg.park_dir.is_none() {
        return Err("--park-disk-capacity needs --park-dir".into());
    }
    // 0 (the default) resolves to one shard per core at startup.
    cfg.shards = args.get_or("shards", cfg.shards, "a shard count (0 = per core)")?;
    cfg.trace = args.has("trace");
    cfg.trace_capacity = args.get_or(
        "trace-capacity",
        cfg.trace_capacity,
        "an event count per ring",
    )?;
    if cfg.trace && cfg.trace_capacity == 0 {
        return Err("--trace-capacity must be positive".into());
    }
    if let Some(port) = args.get_parsed::<u16>("metrics-port", "a TCP port")? {
        // Same interface as the protocol listener, so a local server stays
        // local.
        let host = addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
        cfg.metrics_addr = Some(format!("{host}:{port}"));
    }
    let handle = cira_serve::serve(addr, cfg, cira_analysis::engine::pool::WorkerPool::global())?;
    let local = handle.local_addr();
    println!("cira-serve listening on {local}");
    if let Some(http) = handle.metrics_http_addr() {
        println!("metrics at http://{http}/metrics");
    }
    if let Some(path) = args.get("port-file") {
        // Written atomically (write + rename) so a watcher never reads a
        // half-written port number.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{}\n", local.port()))?;
        std::fs::rename(&tmp, path)?;
        println!("wrote port to {path}");
    }
    cira_serve::shutdown::install_signal_handlers(&handle.shutdown_token());
    println!("press ctrl-c (or send SIGTERM) to drain and stop");
    handle.wait();
    println!("cira-serve stopped");
    Ok(())
}

fn cmd_replay(args: &Args) -> CliResult {
    args.check_known(
        &[
            TRACE_FLAGS,
            CONF_FLAGS,
            CLIENT_FLAGS,
            &["connect", "batch", "threshold", "verify", "park", "resume"],
        ]
        .concat(),
    )?;
    let addr = args.require("connect")?.to_owned();
    let batch: usize = args.get_or("batch", 4096u64, "a positive record count")? as usize;
    if batch == 0 {
        return Err("--batch must be positive".into());
    }
    let predictor = args.get("predictor").unwrap_or("gshare64k").to_owned();
    let config = cira_serve::HelloConfig {
        mechanism: match args.get("mechanism").unwrap_or("resetting:16") {
            // Same bare-`self` expansion as the offline commands.
            "self" => format!("self:{predictor}"),
            other => other.to_owned(),
        },
        predictor,
        index: args.get("index").unwrap_or("pcxorbhr:16").to_owned(),
        init: args.get("init").unwrap_or("ones").to_owned(),
        threshold: args.get_or("threshold", 16u64, "a key threshold")?,
    };
    let trace = load_trace(args)?;

    let resume = args.get_parsed::<u64>("resume", "a resume token")?;
    if resume.is_some() && args.has("verify") {
        return Err("--verify replays the whole trace locally; it cannot follow --resume".into());
    }
    let mut client = match resume {
        // A parked session: the server restores predictor, mechanism, and
        // statistics from its durable store; the spec flags are ignored.
        Some(token) => {
            let client = client_builder(args, &addr)?.resume(token)?;
            println!("resumed session {} on {addr}", client.session_id());
            client
        }
        None => {
            let client = client_builder(args, &addr)?.connect(config.clone())?;
            println!("connected to {addr} (session {})", client.session_id());
            println!("predictor: {}", client.predictor());
            println!("mechanism: {}", client.mechanism());
            client
        }
    };
    let totals = client.stream(&trace, batch)?;
    if client.retries() > 0 {
        println!(
            "recovered from {} connection failure(s) via {} session resume(s)",
            client.retries(),
            client.resumes()
        );
    }
    println!(
        "streamed {} records in {} batches: {} mispredicts ({:.3}%), {} low-confidence ({:.1}%)",
        totals.records,
        totals.batches,
        totals.mispredicts,
        100.0 * totals.mispredicts as f64 / totals.records.max(1) as f64,
        totals.low_confidence,
        100.0 * totals.low_confidence as f64 / totals.records.max(1) as f64,
    );
    let server_stats = client.snapshot_stats()?;

    // The final summary comes from the server's own STATS counters, not
    // the client-side ack totals, so it reflects what was actually scored.
    let wire = client.stats()?;
    let wire_get = |name: &str| wire.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let (records, mispredicts, low) = (
        wire_get("records"),
        wire_get("mispredicts"),
        wire_get("low_confidence"),
    );
    println!(
        "server totals: {} records, {:.3}% mispredict rate, {:.1}% low-confidence coverage",
        records,
        100.0 * mispredicts as f64 / records.max(1) as f64,
        100.0 * low as f64 / records.max(1) as f64,
    );
    if args.has("park") {
        let token = client.park()?;
        println!("parked durably; resume with: cira replay --connect {addr} --resume {token}");
    } else {
        client.goodbye()?;
    }

    if args.has("verify") {
        // Re-run locally and require bit-identical bucket statistics.
        let predictor = spec::parse_predictor(&config.predictor)?;
        let index = spec::parse_index(&config.index)?;
        let init = spec::parse_init(&config.init)?;
        let mechanism = spec::parse_mechanism(&config.mechanism, index, init)?;
        let mut local = cira_analysis::engine::replay::StreamingReplay::new(predictor, mechanism);
        local.feed(&trace);
        if local.stats() == server_stats {
            println!("verify: server statistics are bit-identical to the local engine");
        } else {
            return Err("verify FAILED: server statistics differ from the local engine".into());
        }
    }
    Ok(())
}

/// GETs `path` from the metrics listener that `--metrics HOST:PORT`
/// names (`cira serve --metrics-port`), within `--timeout` seconds.
fn metrics_get(args: &Args, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let addr = args.require("metrics")?;
    let secs: u64 = args.get_or("timeout", 10, "a timeout in seconds")?;
    if secs == 0 {
        return Err("--timeout must be positive".into());
    }
    let url = format!("http://{addr}{path}");
    let (status, body) = cira_obs::http::get(addr, path, std::time::Duration::from_secs(secs))
        .map_err(|e| format!("GET {url}: {e}"))?;
    if !status.contains(" 200 ") {
        return Err(format!("GET {url}: {status}").into());
    }
    Ok(body)
}

fn cmd_stats(args: &Args) -> CliResult {
    use cira_obs::promtext::{Exposition, MetricType};
    args.check_known(&["metrics", "timeout"])?;
    let text = metrics_get(args, "/metrics")?;
    let doc = Exposition::parse_validated(&text)
        .map_err(|e| format!("bad metrics exposition from server: {e}"))?;

    println!("server counters ({}):", args.require("metrics")?);
    let rows: Vec<(String, f64)> = doc
        .families
        .iter()
        .filter(|f| f.kind != MetricType::Histogram)
        .flat_map(|f| &f.samples)
        .map(|s| {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let name = if labels.is_empty() {
                s.name.clone()
            } else {
                format!("{}{{{}}}", s.name, labels.join(","))
            };
            (name, s.value)
        })
        .collect();
    // Capped so one long label set (build_info) does not widen every row.
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).min(64);
    for (name, value) in &rows {
        println!("  {name:<width$}  {value}");
    }

    println!();
    println!(
        "  {:<30} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "histogram", "count", "mean", "p50", "p90", "p99"
    );
    for family in &doc.families {
        if family.kind != MetricType::Histogram {
            continue;
        }
        let Some(h) = doc.histogram(&family.name) else {
            continue;
        };
        let mean = if h.count > 0 {
            h.sum / h.count as f64
        } else {
            0.0
        };
        println!(
            "  {:<30} {:>9} {:>10.1} {:>8.0} {:>8.0} {:>8.0}",
            family.name,
            h.count,
            mean,
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
        );
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> CliResult {
    args.check_known(&["metrics", "timeout", "out"])?;
    let sub = args.single_positional("usage: cira trace dump --metrics HOST:PORT [--out FILE]")?;
    if sub != "dump" {
        return Err(format!("unknown trace subcommand {sub:?}; try `cira trace dump`").into());
    }
    let json = metrics_get(args, "/trace")?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json)?;
            println!("wrote {} bytes to {path}", json.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_store(args: &Args) -> CliResult {
    args.check_known(&["decode"])?;
    let (sub, path) = match args.positional() {
        [sub, path] => (sub.as_str(), path.as_str()),
        _ => return Err("usage: cira store inspect FILE [--decode]".into()),
    };
    if sub != "inspect" {
        return Err(
            format!("unknown store subcommand {sub:?}; try `cira store inspect FILE`").into(),
        );
    }
    // Capacity 0 = no byte budget: inspection never needs to write.
    let store = cira_store::SessionStore::open(std::path::Path::new(path), 0)?;
    let bytes = std::fs::metadata(path)?.len();
    let now_ms = cira_serve::park::unix_now_ms();
    println!("store:        {path}");
    println!(
        "file size:    {bytes} bytes ({} pages of {})",
        bytes / cira_store::page::PAGE_SIZE as u64,
        cira_store::page::PAGE_SIZE
    );
    println!("live records: {}", store.len());
    println!("bytes used:   {}", store.bytes_used());
    let mut entries = store.entries();
    entries.sort_by_key(|(token, _)| *token);
    if !entries.is_empty() {
        println!();
        println!(
            "{:>20} {:>10} {:>6} {:>14} {:>10}",
            "token", "session", "epoch", "deadline", "blob"
        );
    }
    for (token, meta) in entries {
        let (_, blob) = store.get(token)?;
        let deadline = if meta.deadline_unix_ms == 0 {
            "never".to_owned()
        } else if meta.deadline_unix_ms <= now_ms {
            "expired".to_owned()
        } else {
            format!("+{:.1}s", (meta.deadline_unix_ms - now_ms) as f64 / 1000.0)
        };
        println!(
            "{:>20} {:>10} {:>6} {:>14} {:>10}",
            token,
            meta.session_id,
            meta.epoch,
            deadline,
            format!("{} B", blob.len()),
        );
        if args.has("decode") {
            let c = cira_store::Checkpoint::decode(&blob)?;
            println!(
                "{:>20}   predictor {} | mechanism {} | index {} | init {} | threshold {}",
                "", c.predictor, c.mechanism, c.index, c.init, c.threshold
            );
            println!(
                "{:>20}   {} branches in {} batches, {} mispredicts, {} low-confidence, last seq {:?}",
                "", c.branches, c.batches, c.mispredicts, c.low_confidence, c.last_seq
            );
        }
    }
    Ok(())
}

fn cmd_vm(args: &Args) -> CliResult {
    args.check_known(&["mem", "steps", "trace", "base"])?;
    let path = args.single_positional("usage: cira vm FILE.asm [flags]")?;
    let source = std::fs::read_to_string(path)?;
    let program = assemble(&source)?;
    let mem: usize = args.get_or("mem", 1024u64, "a word count")? as usize;
    let steps: u64 = args.get_or("steps", 10_000_000u64, "a step budget")?;
    let base: u64 = args.get_or("base", 0x1_0000u64, "a base address")?;
    let mut machine = Machine::new(program, mem).with_code_base(base);
    let trace = machine.run(steps)?;
    println!(
        "halted after {} instructions; {} conditional branches",
        machine.steps(),
        trace.len()
    );
    let stats: TraceStats = trace.iter().copied().collect();
    println!(
        "static branches: {}; taken rate {:.1}%",
        stats.static_branches(),
        100.0 * stats.taken_rate()
    );
    println!(
        "registers: {}",
        (0..16)
            .map(|r| format!("r{r}={}", machine.reg(r)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(out) = args.get("trace") {
        let file = std::fs::File::create(out)?;
        codec::write_trace(std::io::BufWriter::new(file), trace.iter().copied())?;
        println!("wrote trace to {out}");
    }
    Ok(())
}
