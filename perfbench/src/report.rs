//! Metrics, provenance and the result line.

use std::fmt::Write as _;

use crate::stats::{median, Samples};
use crate::{Kind, Phase};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Samples a tail percentile needs per run.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// The end-to-end metrics of a phase of workload `kind`, in
/// `BENCHMARK.json` order.
pub fn end_to_end(kind: Kind, phase: &Phase, setup_s: &mut [f64], peak_rss_mb: f64) -> Vec<Metric> {
    let session = &phase.session_ms;
    // Offline strata are benchmarks, serve strata are seconds.
    let pct = |s: &Samples, q| {
        if kind.offline() {
            s.percentile(q)
        } else {
            s.median_percentile(q)
        }
    };
    vec![
        Metric::new("records_per_s", phase.records_per_s(), "1/s"),
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new(
            "sessions_per_s",
            session.len() as f64 / phase.elapsed_s,
            "1/s",
        ),
        Metric::new("session_p50_ms", pct(session, 0.5), "ms"),
        Metric::new("session_p90_ms", pct(session, 0.9), "ms"),
    ]
}

/// `VmHWM` of this process in MB (MiB), read from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values, which JSON cannot carry, become
/// `null` (and the run is reported incorrect by the caller).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The `metrics` object: `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Where a run happened and on what: toolchain, host and commit.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Samples behind each percentile: `(metric family, count)`.
    pub samples: Vec<(&'static str, usize)>,
}

impl Provenance {
    /// The provenance as one JSON object.
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{}: {n}", json_str(k)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
             \"attempted\": {}, \"failed\": {}, \"samples\": {{{}}}, \
             \"rustc\": {}, \"kernel\": {}, \"host_cores\": {}, \"cpu_model\": {}, \
             \"git_commit\": {}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            self.attempted,
            self.failed,
            samples.join(", "),
            json_str(env!("PERFBENCH_RUSTC")),
            json_str(&kernel()),
            host_cores(),
            json_str(&cpu_model()),
            json_str(env!("PERFBENCH_GIT_COMMIT")),
        )
    }
}

/// Host cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
