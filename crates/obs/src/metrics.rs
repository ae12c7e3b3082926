//! Atomic metric primitives: counters and latency histograms.
//!
//! All types are internally synchronised with relaxed atomics: they are safe
//! to share across threads behind an `Arc`, and no operation takes a lock.
//! Relaxed ordering is sufficient because metrics are monotone accumulators —
//! readers only need *eventually consistent* totals, never cross-metric
//! ordering guarantees.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Increments by one and returns the *previous* value (used for cheap
    /// 1-in-N sampling decisions on hot paths).
    #[inline]
    pub fn inc_fetch(&self) -> u64 {
        self.0.fetch_add(1, Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Overwrites the value (used to seed counters from persisted state,
    /// e.g. `ingest.count` from a decoded sketch's arrival total).
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

/// Exponential latency bucket upper bounds, in nanoseconds.
///
/// Roughly ×4 spacing from 250 ns to 1 s; a final implicit overflow bucket
/// catches anything slower. Thirteen buckets keep a histogram at ~15 words —
/// small enough to hold one per query kind per detector.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    250_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    250_000_000,
    1_000_000_000,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_NS`].
///
/// Bucket `i` counts observations `<= LATENCY_BOUNDS_NS[i]` (first matching
/// bound, Prometheus-style cumulative rendering is left to consumers); the
/// final bucket counts overflows. `record_ns` is two relaxed adds plus a
/// 12-element scan — callers that can't afford `Instant::now()` per event
/// should sample (see `bed-core`, which times 1-in-64 ingests).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
    // Per-bucket exemplar: the trace id (0 = none) and observed value of
    // the most recent traced observation landing in that bucket.
    // Last-writer-wins relaxed stores; a torn (id, value) pair across two
    // traced requests is acceptable for a diagnostic pointer.
    exemplar_ids: [AtomicU64; LATENCY_BOUNDS_NS.len() + 1],
    exemplar_ns: [AtomicU64; LATENCY_BOUNDS_NS.len() + 1],
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            exemplar_ids: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn bucket_index(ns: u64) -> usize {
        LATENCY_BOUNDS_NS.iter().position(|&b| ns <= b).unwrap_or(LATENCY_BOUNDS_NS.len())
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let idx = Self::bucket_index(ns);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
    }

    /// Records one observation and, when `trace_id` is nonzero, pins it as
    /// the bucket's exemplar so the OpenMetrics renderer can point the
    /// bucket at an inspectable trace. A zero id is exactly `record_ns`.
    #[inline]
    pub fn record_ns_exemplar(&self, ns: u64, trace_id: u64) {
        let idx = Self::bucket_index(ns);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        if trace_id != 0 {
            self.exemplar_ns[idx].store(ns, Relaxed);
            self.exemplar_ids[idx].store(trace_id, Relaxed);
        }
    }

    /// Records a [`Duration`] observation (saturating at `u64::MAX` ns).
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Relaxed)
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count(),
            sum_ns: self.sum_ns(),
            exemplars: self
                .exemplar_ids
                .iter()
                .zip(self.exemplar_ns.iter())
                .map(|(id, ns)| (id.load(Relaxed), ns.load(Relaxed)))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Immutable histogram state: per-bucket counts over [`LATENCY_BOUNDS_NS`]
/// (plus one overflow bucket), total count, and total nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; `buckets[i]` pairs with
    /// `LATENCY_BOUNDS_NS[i]`, the last entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Total observed nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket `(trace_id, observed_ns)` exemplar, aligned with
    /// `buckets`; a zero trace id means the bucket has no exemplar.
    pub exemplars: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (`0` when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`), or `None` when empty. The overflow bucket reports
    /// `u64::MAX`. This is a bucket-resolution estimate, not an exact rank.
    pub fn quantile_bound_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(LATENCY_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Element-wise sum with `other`. Both sides always share the static
    /// bound layout, so merging is a plain vector add.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        // Exemplars are diagnostic pointers, not accumulators: keep ours
        // when present, otherwise adopt the other side's.
        let exemplars = if self.exemplars.len() == other.exemplars.len() {
            self.exemplars
                .iter()
                .zip(other.exemplars.iter())
                .map(|(&a, &b)| if a.0 != 0 { a } else { b })
                .collect()
        } else {
            self.exemplars.clone()
        };
        HistogramSnapshot {
            buckets: self.buckets.iter().zip(other.buckets.iter()).map(|(a, b)| a + b).collect(),
            count: self.count + other.count,
            sum_ns: self.sum_ns + other.sum_ns,
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.inc_fetch(), 10);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile_bound_ns(0.5), None);
        h.record_ns(100); // bucket 0 (<=250)
        h.record_ns(250); // bucket 0 (inclusive)
        h.record_ns(251); // bucket 1
        h.record_ns(2_000_000_000); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 100 + 250 + 251 + 2_000_000_000);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(*s.buckets.last().unwrap(), 1);
        assert_eq!(s.quantile_bound_ns(0.5), Some(250));
        assert_eq!(s.quantile_bound_ns(1.0), Some(u64::MAX));
        assert_eq!(s.mean_ns(), (100 + 250 + 251 + 2_000_000_000u64) / 4);
    }

    #[test]
    fn histogram_merge_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(5_000);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets[0], 2);
        assert_eq!(m.buckets[3], 1, "5000ns lands in the <=16000ns bucket");
    }

    #[test]
    fn quantile_bound_edge_cases() {
        // Empty histogram: every quantile is undefined.
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantile_bound_ns(0.0), None);
        assert_eq!(empty.quantile_bound_ns(0.5), None);
        assert_eq!(empty.quantile_bound_ns(1.0), None);

        // Single observation in a single bucket: every quantile — including
        // the q=0.0 "minimum" (rank clamps to 1) — reports that bucket.
        let h = Histogram::new();
        h.record_ns(500); // bucket 1 (<=1000)
        let s = h.snapshot();
        assert_eq!(s.quantile_bound_ns(0.0), Some(1_000));
        assert_eq!(s.quantile_bound_ns(0.5), Some(1_000));
        assert_eq!(s.quantile_bound_ns(1.0), Some(1_000));

        // Out-of-range q clamps rather than panicking or escaping the data.
        assert_eq!(s.quantile_bound_ns(-3.0), Some(1_000));
        assert_eq!(s.quantile_bound_ns(42.0), Some(1_000));

        // q=0.0 vs q=1.0 with occupancy at both ends of the bound table.
        let h = Histogram::new();
        h.record_ns(1); // bucket 0
        h.record_ns(2_000_000_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.quantile_bound_ns(0.0), Some(250));
        assert_eq!(s.quantile_bound_ns(0.5), Some(250));
        assert_eq!(s.quantile_bound_ns(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_with_disjoint_bucket_occupancy() {
        let a = Histogram::new();
        a.record_ns(100); // bucket 0 only
        a.record_ns(200); // bucket 0 only
        let b = Histogram::new();
        b.record_ns(100_000); // bucket 5 (<=250_000) only
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_ns, 100 + 200 + 100_000);
        assert_eq!(m.buckets[0], 2, "left-side occupancy preserved");
        assert_eq!(m.buckets[5], 1, "right-side occupancy preserved");
        assert_eq!(m.buckets.iter().sum::<u64>(), 3, "no counts invented elsewhere");
        // Quantiles over the merged histogram see both sides.
        assert_eq!(m.quantile_bound_ns(0.5), Some(250));
        assert_eq!(m.quantile_bound_ns(1.0), Some(250_000));
    }

    #[test]
    fn observe_duration() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(2));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns(), 2_000);
    }

    #[test]
    fn exemplars_pin_last_traced_observation_per_bucket() {
        let h = Histogram::new();
        h.record_ns_exemplar(100, 0); // untraced: no exemplar
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert!(s.exemplars.iter().all(|&(id, _)| id == 0));

        h.record_ns_exemplar(200, 0xabc); // bucket 0
        h.record_ns_exemplar(150, 0xdef); // bucket 0, overwrites
        h.record_ns_exemplar(5_000, 0x123); // bucket 3
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 3);
        assert_eq!(s.exemplars[0], (0xdef, 150));
        assert_eq!(s.exemplars[3], (0x123, 5_000));
        assert_eq!(s.exemplars[1], (0, 0));
        // Plain record_ns leaves exemplars untouched.
        h.record_ns(170);
        assert_eq!(h.snapshot().exemplars[0], (0xdef, 150));
    }

    #[test]
    fn merge_prefers_left_exemplar_then_right() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns_exemplar(100, 0xaaa); // bucket 0
        b.record_ns_exemplar(120, 0xbbb); // bucket 0
        b.record_ns_exemplar(5_000, 0xccc); // bucket 3
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.exemplars[0], (0xaaa, 100), "left side wins when both present");
        assert_eq!(m.exemplars[3], (0xccc, 5_000), "right side fills gaps");
    }
}
