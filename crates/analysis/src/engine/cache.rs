//! Materialized trace cache.
//!
//! Every suite experiment walks the same synthetic benchmarks. Generation
//! is the expensive part — the behaviour models sample an RNG per branch —
//! and the old path regenerated each trace once *per configuration*. The
//! cache walks each benchmark once into a shared [`PackedTrace`]
//! (~4.1 bytes/record) keyed by `(name, run seed)`; N configurations then
//! replay the same buffer.
//!
//! Entries are keyed without the length: a request for a longer trace
//! replaces the entry (walkers are deterministic, so a longer walk's
//! prefix equals the shorter walk), and shorter requests replay a prefix
//! of the cached buffer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cira_trace::codec::PackedTrace;
use cira_trace::suite::Benchmark;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    run_seed: u64,
}

fn key(bench: &Benchmark) -> Key {
    Key {
        name: bench.name().to_owned(),
        run_seed: bench.run_seed(),
    }
}

/// Shared store of materialized benchmark traces; see the module docs.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<Key, Arc<PackedTrace>>>,
}

fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a materialized trace of at least `len` records for `bench`
    /// (exactly `len` unless a longer walk is already cached), walking the
    /// benchmark only on a miss.
    pub fn get(&self, bench: &Benchmark, len: u64) -> Arc<PackedTrace> {
        let k = key(bench);
        if let Some(t) = lock_clean(&self.entries).get(&k) {
            if t.len() as u64 >= len {
                return Arc::clone(t);
            }
        }
        // Materialize outside the lock; a concurrent duplicate walk is
        // wasted work but not an error (grid runs pre-materialize one
        // task per benchmark, so duplicates do not occur in practice).
        cira_obs::debug!("materializing trace", benchmark = k.name, records = len);
        let trace: PackedTrace = bench.walker().take(len as usize).collect();
        let trace = Arc::new(trace);
        let mut g = lock_clean(&self.entries);
        let slot = g.entry(k).or_insert_with(|| Arc::clone(&trace));
        if slot.len() < trace.len() {
            *slot = Arc::clone(&trace);
        }
        Arc::clone(slot)
    }

    /// Number of cached benchmark traces.
    pub fn entries(&self) -> usize {
        lock_clean(&self.entries).len()
    }

    /// Approximate bytes held by cached traces.
    pub fn approx_bytes(&self) -> usize {
        lock_clean(&self.entries)
            .values()
            .map(|t| t.approx_bytes())
            .sum()
    }

    /// Drops all cached traces (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        lock_clean(&self.entries).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_trace::suite::ibs_like_suite;

    #[test]
    fn caches_and_reuses() {
        let cache = TraceCache::new();
        let suite = ibs_like_suite();
        let a = cache.get(&suite[0], 5_000);
        let b = cache.get(&suite[0], 5_000);
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        assert_eq!(cache.entries(), 1);
        assert_eq!(a.len(), 5_000);
        assert!(cache.approx_bytes() > 0);
    }

    #[test]
    fn longer_request_replaces_shorter_prefix_matches() {
        let cache = TraceCache::new();
        let suite = ibs_like_suite();
        let short = cache.get(&suite[1], 2_000);
        let long = cache.get(&suite[1], 6_000);
        assert_eq!(long.len(), 6_000);
        // Deterministic walkers: the longer trace starts with the shorter.
        let prefix: Vec<_> = long.iter().take(2_000).collect();
        assert_eq!(prefix, short.iter().collect::<Vec<_>>());
        // Shorter requests now serve from the longer buffer.
        let again = cache.get(&suite[1], 2_000);
        assert!(Arc::ptr_eq(&again, &long));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn distinct_benchmarks_get_distinct_entries() {
        let cache = TraceCache::new();
        let suite = ibs_like_suite();
        cache.get(&suite[0], 1_000);
        cache.get(&suite[1], 1_000);
        assert_eq!(cache.entries(), 2);
        cache.clear();
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn matches_direct_walk() {
        let cache = TraceCache::new();
        let suite = ibs_like_suite();
        let t = cache.get(&suite[3], 3_000);
        let direct: Vec<_> = suite[3].walker().take(3_000).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), direct);
    }
}
