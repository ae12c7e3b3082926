//! Named metric registry with registration-time-only locking.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricValue, MetricsSnapshot};

/// A registered metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Last-write-wins gauge.
    Gauge(Arc<Gauge>),
    /// Fixed-bucket latency histogram.
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// The internal mutex guards only the name→handle map: callers register once,
/// keep the returned `Arc` handle, and update it lock-free thereafter. The
/// lock is re-taken at [`snapshot`](MetricsRegistry::snapshot) time, which is
/// a cold, read-only path.
///
/// `MetricsRegistry` is deliberately **not** `Clone`: sharing metric storage
/// between two detectors after a `.clone()` would double-count, and copying
/// values would let two owners report the same work. A cloned component
/// builds a fresh registry instead.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type — mixing
    /// types under one name is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Returns the gauge named `name`, registering it at `0.0` on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_owned()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Returns the histogram named `name`, registering it empty on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// Captures an immutable, name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot::from_entries(map.iter().map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (name.clone(), value)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_storage() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("z.count").add(3);
        r.gauge("a.gauge").set(1.5);
        r.histogram("m.hist").record_ns(10);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.gauge", "m.hist", "z.count"]);
        assert_eq!(snap.counter("z.count"), Some(3));
        assert_eq!(snap.gauge("a.gauge"), Some(1.5));
        assert_eq!(snap.histogram("m.hist").map(|h| h.count), Some(1));
    }

    #[test]
    fn threaded_updates_land() {
        let r = MetricsRegistry::new();
        let c = r.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
