//! Lock-free metrics: counters, gauges, log2 histograms, and a registry
//! that renders the Prometheus text exposition format.
//!
//! All instruments update with relaxed atomics — they are observational
//! and never used to synchronize data, so the hot-path cost is a handful
//! of uncontended `fetch_add`s. Snapshots are taken field-by-field and
//! are therefore not a consistent cut across instruments; within one
//! histogram the `count`/`sum` pair can be momentarily ahead of the
//! buckets, which scrapers tolerate by design.
//!
//! A [`Registry`] does not own instruments. It owns *closures* that read
//! them, so any struct with plain `Counter`/`Histogram` fields (e.g.
//! `ServerMetrics`) registers itself by capturing an `Arc`/`&'static`
//! handle — no wrapper types, no global state.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: `le=1`, `le=2^i` for `i = 1..=31`, `+Inf`.
pub const BUCKETS: usize = 33;

/// Index of the `+Inf` overflow bucket.
pub const INF_BUCKET: usize = BUCKETS - 1;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket an observation of `v` falls into.
///
/// Bucket 0 holds `v <= 1`; bucket `i` (for `1 <= i <= 31`) holds
/// `2^(i-1) < v <= 2^i`; bucket 32 is `+Inf`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(INF_BUCKET)
    }
}

/// The inclusive upper bound (`le`) of bucket `i`; `None` means `+Inf`.
#[inline]
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i >= INF_BUCKET {
        None
    } else if i == 0 {
        Some(1)
    } else {
        Some(1u64 << i)
    }
}

/// A fixed-bucket log2 histogram of `u64` observations.
///
/// Thirty-three atomic buckets with power-of-two bounds cover the full
/// `u64` range, which is plenty of resolution for latencies in
/// microseconds or batch sizes in records while keeping `record` at two
/// relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            // `AtomicU64` is not `Copy`; inline-const repeats the initializer.
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
            count += *out;
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count,
        }
    }
}

/// A mergeable, point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The element-wise sum of two snapshots. Associative and
    /// commutative, so per-shard histograms can be folded in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (a, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        // `Histogram::record` accumulates `sum` with a wrapping
        // `fetch_add`; merging must wrap identically to stay associative.
        out.sum = out.sum.wrapping_add(other.sum);
        out.count += other.count;
        out
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket containing the target rank, mirroring how
    /// Prometheus' `histogram_quantile` reads the same buckets. Returns
    /// 0 for an empty snapshot; ranks landing in the `+Inf` bucket clamp
    /// to its lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative + n;
            if (next as f64) >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let upper = match bucket_bound(i) {
                    Some(b) => b as f64,
                    None => return lower,
                };
                let into = (rank - cumulative as f64).max(0.0) / n as f64;
                return lower + (upper - lower) * into;
            }
            cumulative = next;
        }
        match bucket_bound(INF_BUCKET - 1) {
            Some(b) => b as f64,
            None => 0.0,
        }
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
type GaugeFn = Box<dyn Fn() -> i64 + Send + Sync>;
type HistogramFn = Box<dyn Fn() -> HistogramSnapshot + Send + Sync>;

enum Value {
    Counter(CounterFn),
    Gauge(GaugeFn),
    Histogram(HistogramFn),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    value: Value,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A named collection of metric families rendered as Prometheus text.
///
/// Registration takes closures, not instrument references, so callers
/// register existing structs by capturing a handle:
///
/// ```
/// use std::sync::Arc;
/// use cira_obs::{Counter, Registry};
///
/// #[derive(Default)]
/// struct Stats { requests: Counter }
///
/// let stats = Arc::new(Stats::default());
/// let reg = Registry::new("cira");
/// let s = Arc::clone(&stats);
/// reg.counter("requests_total", "Requests handled", move || s.requests.get());
/// stats.requests.inc();
/// assert!(reg.render().contains("cira_requests_total 1"));
/// ```
pub struct Registry {
    prefix: String,
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("prefix", &self.prefix)
            .field("families", &families.len())
            .finish()
    }
}

impl Registry {
    /// A registry whose metric names are `<prefix>_<name>` (empty prefix
    /// = bare names).
    pub fn new(prefix: &str) -> Self {
        Registry {
            prefix: prefix.to_string(),
            families: Mutex::new(Vec::new()),
        }
    }

    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}_{}", self.prefix, name)
        }
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], value: Value) {
        let name = self.full_name(name);
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(fam) = families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                fam.series[0].value.kind(),
                value.kind(),
                "metric family {name} registered with conflicting types"
            );
            fam.series.push(Series { labels, value });
        } else {
            families.push(Family {
                name,
                help: help.to_string(),
                series: vec![Series { labels, value }],
            });
        }
    }

    /// Registers an unlabeled counter read through `f`.
    pub fn counter(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.push(name, help, &[], Value::Counter(Box::new(f)));
    }

    /// Registers a counter series with labels; repeat calls with the same
    /// `name` add series to one family.
    pub fn counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, Value::Counter(Box::new(f)));
    }

    /// Registers an unlabeled gauge read through `f`.
    pub fn gauge(&self, name: &str, help: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.push(name, help, &[], Value::Gauge(Box::new(f)));
    }

    /// Registers a gauge series with labels; repeat calls with the same
    /// `name` add series to one family.
    pub fn gauge_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, Value::Gauge(Box::new(f)));
    }

    /// Registers an unlabeled histogram snapshotted through `f`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.push(name, help, &[], Value::Histogram(Box::new(f)));
    }

    /// Registers a histogram series with labels; repeat calls with the
    /// same `name` add series to one family.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, Value::Histogram(Box::new(f)));
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` and `# TYPE` once per family, histogram
    /// buckets cumulative with an explicit `+Inf`.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(families.len() * 128);
        for fam in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.series[0].value.kind());
            for series in &fam.series {
                render_series(&mut out, &fam.name, series);
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a label set as `{k="v",...}`; `extra` appends one more pair
/// (used for histogram `le`). Empty sets render as nothing.
fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.value {
        Value::Counter(f) => {
            out.push_str(name);
            render_labels(out, &series.labels, None);
            let _ = writeln!(out, " {}", f());
        }
        Value::Gauge(f) => {
            out.push_str(name);
            render_labels(out, &series.labels, None);
            let _ = writeln!(out, " {}", f());
        }
        Value::Histogram(f) => {
            let snap = f();
            let mut cumulative = 0u64;
            for (i, n) in snap.buckets.iter().enumerate() {
                cumulative += n;
                let bound;
                let le = match bucket_bound(i) {
                    Some(b) => {
                        bound = b.to_string();
                        bound.as_str()
                    }
                    None => "+Inf",
                };
                let _ = write!(out, "{name}_bucket");
                render_labels(out, &series.labels, Some(("le", le)));
                let _ = writeln!(out, " {cumulative}");
            }
            let _ = write!(out, "{name}_sum");
            render_labels(out, &series.labels, None);
            let _ = writeln!(out, " {}", snap.sum);
            let _ = write!(out, "{name}_count");
            render_labels(out, &series.labels, None);
            let _ = writeln!(out, " {}", snap.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.dec();
        g.add(-2);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::from(u32::MAX)), INF_BUCKET);
        assert_eq!(bucket_index(1 << 31), 31);
        assert_eq!(bucket_index(u64::MAX), INF_BUCKET);
        // Every bucket's bound maps back into that bucket.
        for i in 0..INF_BUCKET {
            let b = bucket_bound(i).unwrap();
            assert_eq!(bucket_index(b), i, "bound {b} of bucket {i}");
            assert_eq!(bucket_index(b + 1), i + 1, "bound {b}+1 of bucket {i}");
        }
        assert_eq!(bucket_bound(INF_BUCKET), None);
    }

    #[test]
    fn histogram_records_and_sums() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 1); // 2
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[10], 1); // 1000 in (512, 1024]
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[2, 1024, u64::MAX]);
        let c = mk(&[0, 0, 77, 300]);
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
        let all = a.merge(&b).merge(&c);
        assert_eq!(all.count, 10);
        assert_eq!(
            all.sum,
            (1u64 + 5 + 9 + 2 + 1024 + 77 + 300).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn snapshot_merge_wraps_sum_like_the_recorder() {
        // `Histogram::record` accumulates `sum` with a wrapping
        // `fetch_add`, so per-shard sums that individually overflowed
        // must merge with the same wrap to equal one histogram that saw
        // every observation.
        let whole = Histogram::new();
        whole.record(u64::MAX);
        whole.record(u64::MAX);
        whole.record(3);
        let whole = whole.snapshot();
        assert_eq!(whole.sum, u64::MAX.wrapping_add(u64::MAX).wrapping_add(3));

        let part = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = part(&[u64::MAX]);
        let b = part(&[u64::MAX, 3]);
        assert_eq!(a.merge(&b), whole);
        assert_eq!(b.merge(&a), whole);
        // Associativity holds across the wrap point itself.
        let c = part(&[u64::MAX - 1]);
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // Only `sum` is modular; counts and buckets add exactly.
        assert_eq!(whole.count, 3);
        assert_eq!(whole.buckets[INF_BUCKET], 2);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations uniform in (512, 1024] — all in bucket 10.
        for i in 0..100 {
            h.record(513 + i * 5);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        assert!((512.0..=1024.0).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(0.99) >= p50);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        // A mass at +Inf clamps to the last finite bound.
        let big = Histogram::new();
        big.record(u64::MAX);
        assert_eq!(big.snapshot().quantile(0.99), (1u64 << 31) as f64);
    }

    #[test]
    fn registry_renders_families_once() {
        let reg = Registry::new("t");
        reg.counter("hits_total", "Hits", || 3);
        reg.gauge_with("depth", "Queue depth", &[("worker", "0")], || 2);
        reg.gauge_with("depth", "Queue depth", &[("worker", "1")], || 5);
        let h = std::sync::Arc::new(Histogram::new());
        h.record(3);
        let hh = std::sync::Arc::clone(&h);
        reg.histogram("lat_us", "Latency", move || hh.snapshot());
        let text = reg.render();
        assert_eq!(text.matches("# TYPE t_depth gauge").count(), 1);
        assert!(text.contains("t_hits_total 3"));
        assert!(text.contains("t_depth{worker=\"0\"} 2"));
        assert!(text.contains("t_depth{worker=\"1\"} 5"));
        assert!(text.contains("t_lat_us_bucket{le=\"2\"} 0"));
        assert!(text.contains("t_lat_us_bucket{le=\"4\"} 1"));
        assert!(text.contains("t_lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("t_lat_us_sum 3"));
        assert!(text.contains("t_lat_us_count 1"));
    }
}
