//! Parser and validator for the Prometheus text exposition format.
//!
//! This is the read side of [`crate::metrics::Registry::render`]: tests
//! use it to assert that `/metrics` output is well-formed (one `# TYPE`
//! per family, monotone counters and cumulative buckets), and
//! `cira stats` uses it to turn scraped text back into counters and
//! histogram quantiles for terminal display.
//!
//! The parser accepts the subset of the 0.0.4 text format the registry
//! emits plus reasonable variation (any label order, missing `# HELP`,
//! scientific-notation floats). It does not aim to parse every exposition
//! in the wild.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on (0 = whole-document check).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "exposition invalid: {}", self.msg)
        } else {
            write!(f, "exposition invalid at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Declared type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonically increasing value.
    Counter,
    /// Value that can move either way.
    Gauge,
    /// Cumulative-bucket distribution.
    Histogram,
    /// A type this crate does not emit (`summary`, `untyped`).
    Other,
}

/// One sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, including `_bucket`/`_sum`/`_count` suffixes.
    pub name: String,
    /// Label pairs in sorted order.
    pub labels: BTreeMap<String, String>,
    /// Parsed value.
    pub value: f64,
}

/// A metric family: the `# TYPE` declaration plus its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// Family name (without histogram suffixes).
    pub name: String,
    /// `# HELP` text, if present.
    pub help: Option<String>,
    /// Declared type.
    pub kind: MetricType,
    /// Samples belonging to this family, in document order.
    pub samples: Vec<Sample>,
}

/// A histogram reconstructed from `_bucket`/`_sum`/`_count` samples of
/// one label set.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHistogram {
    /// Finite bucket upper bounds, ascending (the `+Inf` bound is
    /// implicit as the last element of `cumulative`).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound, ending with the `+Inf` count.
    pub cumulative: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Total observation count (the `+Inf` cumulative count).
    pub count: u64,
}

impl ParsedHistogram {
    /// Estimates the `q`-quantile by linear interpolation within the
    /// target bucket (the same estimate Prometheus' `histogram_quantile`
    /// produces). Returns 0 when empty; ranks in the `+Inf` bucket clamp
    /// to the highest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.cumulative.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut prev_cum = 0u64;
        let mut prev_bound = 0.0f64;
        for (i, &cum) in self.cumulative.iter().enumerate() {
            if (cum as f64) >= rank && cum > prev_cum {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    None => return prev_bound, // +Inf bucket
                };
                let n = (cum - prev_cum) as f64;
                let into = (rank - prev_cum as f64).max(0.0) / n;
                return prev_bound + (upper - prev_bound) * into;
            }
            prev_cum = cum;
            if let Some(&b) = self.bounds.get(i) {
                prev_bound = b;
            }
        }
        prev_bound
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Families in document order.
    pub families: Vec<ParsedFamily>,
}

impl Exposition {
    /// Parses exposition text. Fails on malformed lines, samples with no
    /// preceding `# TYPE`, or a family declared twice.
    pub fn parse(text: &str) -> Result<Exposition, ParseError> {
        let mut doc = Exposition::default();
        let mut pending_help: Vec<(String, String)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = match rest.split_once(' ') {
                    Some((n, h)) => (n.to_string(), h.to_string()),
                    None => (rest.to_string(), String::new()),
                };
                pending_help.push((name, help));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or(())
                    .or_else(|()| err(lineno, "TYPE line missing type"))?;
                if doc.families.iter().any(|f| f.name == name) {
                    return err(lineno, format!("duplicate # TYPE for family {name}"));
                }
                let kind = match kind {
                    "counter" => MetricType::Counter,
                    "gauge" => MetricType::Gauge,
                    "histogram" => MetricType::Histogram,
                    _ => MetricType::Other,
                };
                let help = pending_help
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, h)| h.clone());
                doc.families.push(ParsedFamily {
                    name: name.to_string(),
                    help,
                    kind,
                    samples: Vec::new(),
                });
            } else if line.starts_with('#') {
                continue; // comment
            } else {
                let sample = parse_sample(line, lineno)?;
                let family = doc
                    .families
                    .iter_mut()
                    .rev()
                    .find(|f| is_member(&f.name, &sample.name, f.kind));
                match family {
                    Some(f) => f.samples.push(sample),
                    None => {
                        return err(
                            lineno,
                            format!("sample {} has no preceding # TYPE", sample.name),
                        )
                    }
                }
            }
        }
        Ok(doc)
    }

    /// Parses and then validates; the entry point tests should use.
    pub fn parse_validated(text: &str) -> Result<Exposition, ParseError> {
        let doc = Exposition::parse(text)?;
        doc.validate()?;
        Ok(doc)
    }

    /// Structural validation beyond parsing: every family has samples;
    /// counters are finite and non-negative; histograms have monotone
    /// cumulative buckets, a `+Inf` bucket, and `_count` equal to it.
    pub fn validate(&self) -> Result<(), ParseError> {
        for fam in &self.families {
            if fam.samples.is_empty() {
                return err(
                    0,
                    format!("family {} declared but has no samples", fam.name),
                );
            }
            match fam.kind {
                MetricType::Counter => {
                    for s in &fam.samples {
                        if !s.value.is_finite() || s.value < 0.0 {
                            return err(
                                0,
                                format!("counter {} has non-monotone value {}", s.name, s.value),
                            );
                        }
                    }
                }
                MetricType::Histogram => {
                    for label_key in fam.label_sets() {
                        fam.histogram_for(&label_key).map_err(|msg| ParseError {
                            line: 0,
                            msg: format!("histogram {}: {msg}", fam.name),
                        })?;
                    }
                }
                MetricType::Gauge | MetricType::Other => {}
            }
        }
        Ok(())
    }

    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&ParsedFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Value of the single-sample counter or gauge `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        let fam = self.family(name)?;
        fam.samples.first().map(|s| s.value)
    }

    /// Reconstructs the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<ParsedHistogram> {
        self.family(name)?.histogram_for(&BTreeMap::new()).ok()
    }
}

impl ParsedFamily {
    /// Distinct label sets among this histogram family's samples, with
    /// the `le` label removed.
    fn label_sets(&self) -> Vec<BTreeMap<String, String>> {
        let mut sets: Vec<BTreeMap<String, String>> = Vec::new();
        for s in &self.samples {
            let mut labels = s.labels.clone();
            labels.remove("le");
            if !sets.contains(&labels) {
                sets.push(labels);
            }
        }
        sets
    }

    /// Reconstructs the histogram for one label set, checking cumulative
    /// monotonicity, the presence of `+Inf`, and `_count` consistency.
    fn histogram_for(&self, labels: &BTreeMap<String, String>) -> Result<ParsedHistogram, String> {
        let bucket_name = format!("{}_bucket", self.name);
        let sum_name = format!("{}_sum", self.name);
        let count_name = format!("{}_count", self.name);
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut inf: Option<u64> = None;
        let mut sum = None;
        let mut count = None;
        for s in &self.samples {
            let mut s_labels = s.labels.clone();
            let le = s_labels.remove("le");
            if &s_labels != labels {
                continue;
            }
            if s.name == bucket_name {
                let le = le.ok_or("bucket sample missing le label")?;
                let cum = s.value as u64;
                if le == "+Inf" {
                    inf = Some(cum);
                } else {
                    let bound: f64 = le.parse().map_err(|_| format!("bad le bound {le:?}"))?;
                    buckets.push((bound, cum));
                }
            } else if s.name == sum_name {
                sum = Some(s.value);
            } else if s.name == count_name {
                count = Some(s.value as u64);
            }
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let inf = inf.ok_or("missing +Inf bucket")?;
        let count = count.ok_or("missing _count sample")?;
        if count != inf {
            return Err(format!("_count {count} != +Inf bucket {inf}"));
        }
        let mut prev = 0u64;
        for &(bound, cum) in &buckets {
            if cum < prev {
                return Err(format!("cumulative count decreases at le={bound}"));
            }
            prev = cum;
        }
        if inf < prev {
            return Err("cumulative count decreases at le=+Inf".to_string());
        }
        let bounds: Vec<f64> = buckets.iter().map(|&(b, _)| b).collect();
        let mut cumulative: Vec<u64> = buckets.iter().map(|&(_, c)| c).collect();
        cumulative.push(inf);
        Ok(ParsedHistogram {
            bounds,
            cumulative,
            sum: sum.unwrap_or(0.0),
            count,
        })
    }
}

/// Whether `sample` (e.g. `x_bucket`) belongs to family `family` of `kind`.
fn is_member(family: &str, sample: &str, kind: MetricType) -> bool {
    if sample == family {
        return true;
    }
    if kind == MetricType::Histogram {
        if let Some(suffix) = sample.strip_prefix(family) {
            return matches!(suffix, "_bucket" | "_sum" | "_count");
        }
    }
    false
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, ParseError> {
    let (name_part, value_part) = match line.find('{') {
        Some(brace) => {
            let close = line[brace..]
                .find('}')
                .map(|i| brace + i)
                .ok_or(())
                .or_else(|()| err(lineno, "unclosed label brace"))?;
            (line[..close + 1].to_string(), line[close + 1..].trim())
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or_default().to_string();
            (name, it.next().unwrap_or_default().trim())
        }
    };
    let value_str = value_part
        .split_whitespace()
        .next()
        .ok_or(())
        .or_else(|()| err(lineno, "sample missing value"))?;
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s.parse().map_err(|_| ParseError {
            line: lineno,
            msg: format!("bad sample value {s:?}"),
        })?,
    };
    let (name, labels) = match name_part.find('{') {
        Some(brace) => {
            let name = name_part[..brace].to_string();
            let body = &name_part[brace + 1..name_part.len() - 1];
            (name, parse_labels(body, lineno)?)
        }
        None => (name_part, BTreeMap::new()),
    };
    if name.is_empty() {
        return err(lineno, "sample missing name");
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str, lineno: usize) -> Result<BTreeMap<String, String>, ParseError> {
    let mut labels = BTreeMap::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or(())
            .or_else(|()| err(lineno, "label missing ="))?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return err(lineno, "label value not quoted");
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return err(lineno, "dangling escape in label value"),
                },
                '"' => {
                    // Quote sits at byte 1 + i of `after`; skip past it.
                    consumed = Some(i + 2);
                    break;
                }
                c => value.push(c),
            }
        }
        let consumed = consumed
            .ok_or(())
            .or_else(|()| err(lineno, "unterminated label value"))?;
        labels.insert(key, value);
        rest = after[consumed..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP cira_requests_total Requests handled
# TYPE cira_requests_total counter
cira_requests_total 42
# TYPE cira_depth gauge
cira_depth{worker=\"0\"} 3
cira_depth{worker=\"1\"} 1
# HELP cira_lat_us Latency
# TYPE cira_lat_us histogram
cira_lat_us_bucket{le=\"1\"} 2
cira_lat_us_bucket{le=\"2\"} 5
cira_lat_us_bucket{le=\"4\"} 9
cira_lat_us_bucket{le=\"+Inf\"} 10
cira_lat_us_sum 31
cira_lat_us_count 10
";

    #[test]
    fn parses_and_validates_round_trip() {
        let doc = Exposition::parse_validated(SAMPLE).unwrap();
        assert_eq!(doc.families.len(), 3);
        assert_eq!(doc.value("cira_requests_total"), Some(42.0));
        let depth = doc.family("cira_depth").unwrap();
        assert_eq!(depth.kind, MetricType::Gauge);
        assert_eq!(depth.samples.len(), 2);
        assert_eq!(depth.samples[1].labels["worker"], "1");
        let h = doc.histogram("cira_lat_us").unwrap();
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 31.0);
        assert_eq!(h.cumulative, vec![2, 5, 9, 10]);
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn rejects_duplicate_type_lines() {
        let text = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        assert!(Exposition::parse(text).is_err());
    }

    #[test]
    fn rejects_orphan_samples() {
        assert!(Exposition::parse("nometa 5\n").is_err());
    }

    #[test]
    fn rejects_non_monotone_buckets() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let doc = Exposition::parse(text).unwrap();
        assert!(doc.validate().is_err());
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 4
";
        let doc = Exposition::parse(text).unwrap();
        assert!(doc.validate().is_err());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        // Degenerate snapshot with no buckets at all.
        let bare = ParsedHistogram {
            bounds: vec![],
            cumulative: vec![],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(bare.quantile(0.5), 0.0);
        // A parsed histogram whose buckets exist but saw no observations.
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 0
h_bucket{le=\"+Inf\"} 0
h_sum 0
h_count 0
";
        let h = Exposition::parse_validated(text)
            .unwrap()
            .histogram("h")
            .unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_with_single_bucket_interpolates_from_zero() {
        // All mass in one finite bucket interpolates across (0, 8].
        let text = "\
# TYPE h histogram
h_bucket{le=\"8\"} 4
h_bucket{le=\"+Inf\"} 4
h_sum 20
h_count 4
";
        let h = Exposition::parse_validated(text)
            .unwrap()
            .histogram("h")
            .unwrap();
        assert_eq!(h.quantile(1.0), 8.0);
        assert_eq!(h.quantile(0.5), 4.0);
        assert!(h.quantile(0.25) < h.quantile(0.5));
        // All mass in `+Inf` clamps to the highest finite bound.
        let inf_only = "\
# TYPE h histogram
h_bucket{le=\"8\"} 0
h_bucket{le=\"+Inf\"} 3
h_sum 99
h_count 3
";
        let h = Exposition::parse_validated(inf_only)
            .unwrap()
            .histogram("h")
            .unwrap();
        assert_eq!(h.quantile(0.99), 8.0);
    }

    #[test]
    fn registry_output_parses_clean() {
        let reg = crate::metrics::Registry::new("x");
        reg.counter("ops_total", "Ops", || 7);
        let h = std::sync::Arc::new(crate::metrics::Histogram::new());
        for v in [1, 10, 100] {
            h.record(v);
        }
        let hh = std::sync::Arc::clone(&h);
        reg.histogram("us", "Micros", move || hh.snapshot());
        let doc = Exposition::parse_validated(&reg.render()).unwrap();
        assert_eq!(doc.value("x_ops_total"), Some(7.0));
        assert_eq!(doc.histogram("x_us").unwrap().count, 3);
    }
}
