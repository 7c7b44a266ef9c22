//! Per-layer metrics from the traced run's spans, and the closure
//! checks: for each whole — a cell's `replay_mechanisms` call, a
//! `send_batch` round trip, a lifecycle's attached time, a RESUME — every
//! part must be measured, request by request, and the parts must not add
//! up to more than the whole; the rest is a named remainder.

use std::collections::{BTreeMap, HashMap};

use crate::net::Failures;
use crate::report::Metric;
use crate::span::Span;
use crate::stats::{percentile, Sentinels};
use crate::suite;

/// The traced run's per-layer metrics and closure lines.
#[derive(Debug, Clone, Default)]
pub struct Derived {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// One line per closure check.
    pub closure: Vec<String>,
    /// Whether every whole had all of its parts.
    pub closure_ok: bool,
}

/// Span totals by name.
#[derive(Default)]
struct Totals {
    by_name: HashMap<&'static str, (u64, u64, u64)>,
}

impl Totals {
    fn new(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for s in spans {
            let e = t.by_name.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += s.count;
            e.2 += 1;
        }
        t
    }

    /// `(total ns, total count, spans)` of `name`.
    fn get(&self, name: &str) -> (u64, u64, u64) {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Nanoseconds per counted record.
    fn ns_per(&self, name: &str) -> f64 {
        let (ns, count, _) = self.get(name);
        ns as f64 / count as f64
    }

    /// Mean span duration in `unit_ns` units.
    fn mean(&self, name: &str, unit_ns: f64) -> f64 {
        let (ns, _, n) = self.get(name);
        ns as f64 / n as f64 / unit_ns
    }

    /// Mean count per span.
    fn mean_count(&self, name: &str) -> f64 {
        let (_, count, n) = self.get(name);
        count as f64 / n as f64
    }
}

/// Whether span `name` matches `pattern`: equal, or under it when the
/// pattern ends in `.` (a whole layer, e.g. `core.`).
fn matches(name: &str, pattern: &str) -> bool {
    name == pattern || (pattern.ends_with('.') && name.starts_with(pattern))
}

/// One closure check, request by request: `whole = Σ parts + remainder`.
/// The remainder is defined by that sum, so what the check tests is that
/// every request had every part and that the parts did not add up to more
/// than the whole, which a negative remainder would show.
#[derive(Debug, Clone, Copy, Default)]
struct Closure {
    /// Σ whole, Σ parts and Σ remainder over the requests, ns.
    whole: u64,
    parts: u64,
    remainder: i128,
    /// Requests holding the whole.
    requests: u64,
    /// Whether every such request held every part.
    complete: bool,
}

impl Closure {
    fn of(spans: &[Span], whole: &str, parts: &[&str]) -> Closure {
        // Per request: whole ns, parts ns, which part patterns were seen.
        let mut reqs: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for s in spans {
            if s.name == whole {
                reqs.entry(s.req).or_default().0 += s.dur_ns();
            } else if let Some(i) = parts.iter().position(|p| matches(s.name, p)) {
                let e = reqs.entry(s.req).or_default();
                e.1 += s.dur_ns();
                e.2 |= 1 << i;
            }
        }
        let all = (1u64 << parts.len()) - 1;
        let mut c = Closure {
            complete: true,
            ..Closure::default()
        };
        // Requests with parts but no whole belong to another check.
        for &(w, p, seen) in reqs.values().filter(|r| r.0 > 0) {
            c.complete &= seen == all;
            c.whole += w;
            c.parts += p;
            c.remainder += i128::from(w) - i128::from(p);
            c.requests += 1;
        }
        c
    }

    /// Whether the whole was measured, every request had every part, and
    /// the parts did not exceed the whole.
    fn closes(&self) -> bool {
        self.requests > 0 && self.complete && self.remainder >= 0
    }

    /// Mean per request of `ns`, in `unit_ns` units.
    fn mean(&self, ns: f64, unit_ns: f64) -> f64 {
        ns / self.requests as f64 / unit_ns
    }

    fn line(
        &self,
        whole: &str,
        parts: &[&str],
        remainder: &str,
        unit_ns: f64,
        unit: &str,
    ) -> String {
        format!(
            "closure {whole} over {} requests: {} {unit} = {} {} + {remainder} {} ({})",
            self.requests,
            self.mean(self.whole as f64, unit_ns),
            parts.join(" + "),
            self.mean(self.parts as f64, unit_ns),
            self.mean(self.remainder as f64, unit_ns),
            if self.closes() {
                "closes"
            } else if self.requests == 0 {
                "DOES NOT CLOSE: whole not measured"
            } else if !self.complete {
                "DOES NOT CLOSE: parts missing"
            } else {
                "DOES NOT CLOSE: parts exceed the whole"
            },
        )
    }
}

/// Derives every per-layer metric from the traced run's spans, the
/// workload's sentinels and the counters only a workload can read.
pub fn derive(
    spans: &[Span],
    sentinels: Sentinels,
    counts: &[(&'static str, f64)],
    serve: Failures,
) -> Derived {
    let t = Totals::new(spans);
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let mut closure_lines = Vec::new();
    let mut ok = true;
    let mut check = |whole: &str, parts: &[&str], remainder: &str, unit_ns: f64, unit: &str| {
        let c = Closure::of(spans, whole, parts);
        ok &= c.closes();
        closure_lines.push(c.line(whole, parts, remainder, unit_ns, unit));
        c
    };
    // Offline, per cell: replay_mechanisms = fill + predictor + core + fold.
    let replay = check(
        "analysis.replay",
        &["analysis.fill", "predictor.", "core."],
        "fold",
        1.0,
        "ns",
    );
    let replay_records = t.get("analysis.replay").1 as f64;
    let fold_ns_per_record = replay.remainder as f64 / replay_records;
    // serve_stream, per batch: round trip = codecs + apply_batch + transport.
    let rtt = check(
        "serve.send_batch",
        &["serve.codec", "serve.apply_batch"],
        "transport",
        US,
        "us",
    );
    let mut rtts: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.send_batch")
        .map(|s| s.dur_ns() as f64 / US)
        .collect();
    // serve_sessions, per lifecycle: attached time = its steps + the
    // client's own time between them. RESUME = the server-side work a
    // replica repeats + the rest (connect, framing, the park's index; a
    // resume from the hot tier skips the repeated work). PARK is not
    // closed: it is write-through, so the server's own checkpoint and
    // `put` are nearly all of it, and the replica's timing of the same
    // steps falls either side of the whole.
    let life = check(
        "serve.attach",
        &[
            "serve.hello",
            "serve.lifecycle_batch",
            "serve.park",
            "serve.resume",
            "serve.snapshot",
            "serve.goodbye",
        ],
        "other",
        MS,
        "ms",
    );
    let resume = check(
        "serve.resume",
        &["store.get", "serve.restore"],
        "other",
        MS,
        "ms",
    );

    let (packed_bytes, packed_records) = suite::packed_totals();
    let metrics = vec![
        Metric::new("trace.walk_ns_per_record", t.ns_per("trace.walk"), "ns"),
        Metric::new(
            "trace.packed_bytes_per_record",
            packed_bytes as f64 / packed_records as f64,
            "B",
        ),
        Metric::new(
            "trace.cirp_encode_us",
            t.mean("trace.cirp_encode", US),
            "us",
        ),
        Metric::new(
            "trace.cirp_decode_us",
            t.mean("trace.cirp_decode", US),
            "us",
        ),
        Metric::new(
            "predictor.gshare64k_ns_per_record",
            t.ns_per("predictor.gshare64k"),
            "ns",
        ),
        Metric::new(
            "predictor.gshare4k_ns_per_record",
            t.ns_per("predictor.gshare4k"),
            "ns",
        ),
        Metric::new(
            "predictor.tage64k_ns_per_record",
            t.ns_per("predictor.tage64k"),
            "ns",
        ),
        Metric::new(
            "predictor.tage_sc_lite64k_ns_per_record",
            t.ns_per("predictor.tage_sc_lite64k"),
            "ns",
        ),
        Metric::new("predictor.mpki", sentinels.mpki, "mpki"),
        Metric::new("core.cir_ns_per_record", t.ns_per("core.cir"), "ns"),
        Metric::new(
            "core.resetting_ns_per_record",
            t.ns_per("core.resetting"),
            "ns",
        ),
        Metric::new(
            "core.saturating_ns_per_record",
            t.ns_per("core.saturating"),
            "ns",
        ),
        Metric::new(
            "core.two_level_ns_per_record",
            t.ns_per("core.two_level"),
            "ns",
        ),
        Metric::new("core.self_ns_per_record", t.ns_per("core.self"), "ns"),
        Metric::new("core.coverage20_pct", sentinels.coverage20_pct, "%"),
        Metric::new(
            "analysis.fill_ns_per_record",
            t.ns_per("analysis.fill"),
            "ns",
        ),
        Metric::new(
            "analysis.replay_ns_per_record",
            t.ns_per("analysis.replay"),
            "ns",
        ),
        Metric::new("analysis.fold_ns_per_record", fold_ns_per_record, "ns"),
        Metric::new(
            "analysis.feed_ns_per_record",
            t.ns_per("analysis.feed"),
            "ns",
        ),
        Metric::new("serve.batch_rtt_us", t.mean("serve.send_batch", US), "us"),
        Metric::new("serve.batch_rtt_p99_us", percentile(&mut rtts, 0.99), "us"),
        Metric::new("serve.batch_codec_us", t.mean("serve.codec", US), "us"),
        Metric::new(
            "serve.apply_batch_us",
            t.mean("serve.apply_batch", US),
            "us",
        ),
        Metric::new(
            "serve.transport_us",
            rtt.mean(rtt.remainder as f64, US),
            "us",
        ),
        Metric::new("serve.hello_ms", t.mean("serve.hello", MS), "ms"),
        Metric::new(
            "serve.session_build_ms",
            t.mean("serve.session_build", MS),
            "ms",
        ),
        Metric::new("serve.park_ms", t.mean("serve.park", MS), "ms"),
        Metric::new("serve.resume_ms", t.mean("serve.resume", MS), "ms"),
        Metric::new("serve.snapshot_ms", t.mean("serve.snapshot", MS), "ms"),
        Metric::new("serve.goodbye_ms", t.mean("serve.goodbye", MS), "ms"),
        Metric::new("serve.checkpoint_ms", t.mean("serve.checkpoint", MS), "ms"),
        Metric::new("serve.restore_ms", t.mean("serve.restore", MS), "ms"),
        Metric::new(
            "serve.lifecycle_other_ms",
            life.mean(life.remainder as f64, MS),
            "ms",
        ),
        Metric::new(
            "serve.resume_other_ms",
            resume.mean(resume.remainder as f64, MS),
            "ms",
        ),
        Metric::new(
            "serve.resume_disk_share",
            count("serve.resume_disk_share"),
            "ratio",
        ),
        Metric::new("serve.failed", serve.errors as f64, "count"),
        Metric::new("serve.refused", serve.refused as f64, "count"),
        Metric::new("serve.retries", serve.retries as f64, "count"),
        Metric::new("store.put_ms", t.mean("store.put", MS), "ms"),
        Metric::new("store.get_ms", t.mean("store.get", MS), "ms"),
        Metric::new("store.checkpoint_bytes", t.mean_count("store.put"), "B"),
        Metric::new(
            "store.page_hit_ratio",
            count("store.page_hit_ratio"),
            "ratio",
        ),
    ];
    Derived {
        metrics,
        closure: closure_lines,
        closure_ok: ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, req: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            name,
            start_ns,
            end_ns,
            req,
            count: 0,
            thread: 0,
        }
    }

    #[test]
    fn closure_closes_with_a_non_negative_remainder() {
        let spans = [
            span("whole", 1, 0, 100),
            span("a", 1, 10, 40),
            span("b.x", 1, 40, 70),
        ];
        let c = Closure::of(&spans, "whole", &["a", "b."]);
        assert!(c.closes());
        assert_eq!((c.whole, c.parts, c.remainder), (100, 60, 40));
        assert!(c
            .line("whole", &["a", "b."], "rest", 1.0, "ns")
            .ends_with("(closes)"));
    }

    #[test]
    fn closure_fails_when_the_parts_exceed_the_whole() {
        // Request 1 has room to spare, request 2 does not, and in sum the
        // parts exceed the whole.
        let spans = [
            span("whole", 1, 0, 100),
            span("a", 1, 0, 90),
            span("whole", 2, 0, 100),
            span("a", 2, 0, 150),
        ];
        let c = Closure::of(&spans, "whole", &["a"]);
        assert!(c.complete);
        assert_eq!(c.remainder, -40);
        assert!(!c.closes());
        assert!(c
            .line("whole", &["a"], "rest", 1.0, "ns")
            .ends_with("(DOES NOT CLOSE: parts exceed the whole)"));
    }

    #[test]
    fn closure_fails_when_a_part_is_missing() {
        let spans = [
            span("whole", 1, 0, 100),
            span("a", 1, 0, 10),
            span("b", 1, 10, 20),
            span("whole", 2, 0, 100),
            span("a", 2, 0, 10),
        ];
        let c = Closure::of(&spans, "whole", &["a", "b"]);
        assert!(c.remainder > 0);
        assert!(!c.closes());
        assert!(c
            .line("whole", &["a", "b"], "rest", 1.0, "ns")
            .ends_with("(DOES NOT CLOSE: parts missing)"));
        assert!(!Closure::of(&spans, "absent", &["a"]).closes());
    }
}
