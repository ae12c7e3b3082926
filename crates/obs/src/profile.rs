//! Continuous self-profiler: wall-clock attribution from metric deltas.
//!
//! Instead of a signal-based stack sampler (useless for attributing time
//! inside a lock-free sketch kernel, and unsafe to hand-roll without
//! dependencies), the profiler rides the instrumentation that already
//! exists: every stage of the system owns a cumulative latency histogram
//! whose `sum_ns` is exactly "wall-clock nanoseconds spent in this stage".
//! A sampling thread calls [`Profiler::sample`] periodically with a merged
//! [`MetricsSnapshot`]; the profiler diffs each stage's cumulative
//! `sum_ns` against the previous tick, accumulates the delta into a
//! per-stage busy counter, and records it into a per-stage tick histogram.
//!
//! Outputs:
//! - [`Profiler::metrics_snapshot`] exports `profile.<stage>.busy_ns`
//!   counters and `profile.<stage>.tick_ns` histograms for `/metrics`;
//! - [`Profiler::to_folded`] renders folded-stack lines
//!   (`bed;<stage> <busy_ns>`) directly consumable by flamegraph tooling.
//!
//! Sampled source histograms (e.g. 1-in-64 ingest timing) carry a `scale`
//! multiplier so the attributed time estimates the true total.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::metrics::Histogram;
use crate::snapshot::{MetricValue, MetricsSnapshot};

/// One profiled stage: where its cumulative time lives and how to label it.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Stage label used in metric names and folded-stack lines.
    pub label: &'static str,
    /// Dotted histogram name to read `sum_ns` from. Matches the exact
    /// name and any `<prefix>.`-qualified variant (e.g. `shard.3.` fan-in),
    /// summing across matches.
    pub metric: &'static str,
    /// Multiplier applied to deltas; >1 when the source histogram samples
    /// (e.g. 64 for a 1-in-64 timed ingest path).
    pub scale: u64,
}

/// The default stage table covering every timed subsystem of the detector
/// serving stack: ingest, WAL fsync, tiered-cell compaction, epoch
/// publish, and the five query kinds.
pub fn default_stage_specs() -> Vec<StageSpec> {
    vec![
        // bed-core times 1-in-64 ingests (INGEST_SAMPLE_EVERY).
        StageSpec { label: "ingest", metric: "ingest.latency_ns", scale: 64 },
        StageSpec { label: "wal_fsync", metric: "wal.sync.latency_ns", scale: 1 },
        StageSpec { label: "compaction", metric: "retention.compact.latency_ns", scale: 1 },
        StageSpec { label: "epoch_publish", metric: "epoch.publish.latency_ns", scale: 1 },
        StageSpec { label: "query_point", metric: "query.point.latency_ns", scale: 1 },
        StageSpec {
            label: "query_bursty_times",
            metric: "query.bursty_times.latency_ns",
            scale: 1,
        },
        StageSpec {
            label: "query_bursty_events",
            metric: "query.bursty_events.latency_ns",
            scale: 1,
        },
        StageSpec { label: "query_series", metric: "query.series.latency_ns", scale: 1 },
        StageSpec { label: "query_top_k", metric: "query.top_k.latency_ns", scale: 1 },
    ]
}

/// Continuous self-profiler. Thread-safe: one sampler thread calls
/// [`Profiler::sample`], any number of readers render metrics or folded
/// stacks concurrently.
#[derive(Debug)]
pub struct Profiler {
    specs: Vec<StageSpec>,
    ticks: AtomicU64,
    busy_ns: Vec<AtomicU64>,
    tick_hist: Vec<Histogram>,
    // Last observed cumulative (already scaled) sum per stage. Mutex, not
    // atomics: only the sampler thread writes, and sampling is cold.
    last: Mutex<Vec<u64>>,
}

impl Profiler {
    /// Builds a profiler over `specs`.
    pub fn new(specs: Vec<StageSpec>) -> Profiler {
        let n = specs.len();
        Profiler {
            specs,
            ticks: AtomicU64::new(0),
            busy_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tick_hist: (0..n).map(|_| Histogram::new()).collect(),
            last: Mutex::new(vec![0; n]),
        }
    }

    /// A profiler over [`default_stage_specs`].
    pub fn with_default_stages() -> Profiler {
        Profiler::new(default_stage_specs())
    }

    /// Number of completed sampling ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Relaxed)
    }

    fn cumulative_ns(&self, snap: &MetricsSnapshot, spec: &StageSpec) -> u64 {
        let mut total = 0u64;
        for entry in snap.render_entries() {
            let matches = entry.name == spec.metric
                || (entry.name.len() > spec.metric.len()
                    && entry.name.ends_with(spec.metric)
                    && entry.name.as_bytes()[entry.name.len() - spec.metric.len() - 1] == b'.');
            if !matches {
                continue;
            }
            if let MetricValue::Histogram(h) = entry.value {
                total = total.saturating_add(h.sum_ns.saturating_mul(spec.scale));
            }
        }
        total
    }

    /// One sampling tick: diffs every stage's cumulative time in `snap`
    /// against the previous tick and attributes the delta. Counters only
    /// move forward — a stage that restarted (cumulative went backwards)
    /// contributes zero for that tick rather than wrapping.
    pub fn sample(&self, snap: &MetricsSnapshot) {
        let mut last = match self.last.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        for (i, spec) in self.specs.iter().enumerate() {
            let now = self.cumulative_ns(snap, spec);
            let delta = now.saturating_sub(last[i]);
            last[i] = now;
            if delta > 0 {
                self.busy_ns[i].fetch_add(delta, Relaxed);
                self.tick_hist[i].record_ns(delta);
            }
        }
        self.ticks.fetch_add(1, Relaxed);
    }

    /// Profiler state as a snapshot mergeable into `/metrics`:
    /// `profile.ticks`, per-stage `profile.<label>.busy_ns` counters, and
    /// per-stage `profile.<label>.tick_ns` delta histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> =
            vec![("profile.ticks".to_string(), MetricValue::Counter(self.ticks()))];
        for (i, spec) in self.specs.iter().enumerate() {
            entries.push((
                format!("profile.{}.busy_ns", spec.label),
                MetricValue::Counter(self.busy_ns[i].load(Relaxed)),
            ));
            entries.push((
                format!("profile.{}.tick_ns", spec.label),
                MetricValue::Histogram(self.tick_hist[i].snapshot()),
            ));
        }
        MetricsSnapshot::from_entries(entries)
    }

    /// Renders cumulative attribution as folded-stack lines
    /// (`bed;<stage> <busy_ns>`), one per stage in spec order, suitable
    /// for `flamegraph.pl` / `inferno-flamegraph`. Stages with no
    /// attributed time are included with weight 0 so the stage set is
    /// stable across dumps.
    pub fn to_folded(&self) -> String {
        let mut out = String::with_capacity(self.specs.len() * 32);
        for (i, spec) in self.specs.iter().enumerate() {
            out.push_str("bed;");
            out.push_str(spec.label);
            out.push(' ');
            out.push_str(&self.busy_ns[i].load(Relaxed).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: Vec<(String, MetricValue)>) -> MetricsSnapshot {
        MetricsSnapshot::from_entries(entries)
    }

    fn hist_with_sum(sum_ns: u64) -> MetricValue {
        let h = Histogram::new();
        h.record_ns(sum_ns);
        MetricValue::Histogram(h.snapshot())
    }

    #[test]
    fn deltas_accumulate_across_ticks() {
        let p =
            Profiler::new(vec![StageSpec { label: "stage_a", metric: "a.latency_ns", scale: 1 }]);
        p.sample(&snap(vec![("a.latency_ns".to_string(), hist_with_sum(100))]));
        p.sample(&snap(vec![("a.latency_ns".to_string(), hist_with_sum(250))]));
        assert_eq!(p.ticks(), 2);
        let m = p.metrics_snapshot();
        assert_eq!(m.counter("profile.stage_a.busy_ns"), Some(250));
        let h = m.histogram("profile.stage_a.tick_ns").unwrap();
        assert_eq!(h.count, 2, "each tick with progress records one delta");
        assert_eq!(h.sum_ns, 250);
        assert_eq!(p.to_folded(), "bed;stage_a 250\n");
    }

    #[test]
    fn scale_and_prefix_matching() {
        let p = Profiler::new(vec![StageSpec {
            label: "ingest",
            metric: "ingest.latency_ns",
            scale: 64,
        }]);
        // Exact and shard-prefixed entries both count; a same-suffix
        // different metric ("reingest...") must not.
        p.sample(&snap(vec![
            ("ingest.latency_ns".to_string(), hist_with_sum(10)),
            ("shard.3.ingest.latency_ns".to_string(), hist_with_sum(5)),
            ("reingest.latency_ns".to_string(), hist_with_sum(1_000)),
        ]));
        assert_eq!(p.metrics_snapshot().counter("profile.ingest.busy_ns"), Some((10 + 5) * 64));
    }

    #[test]
    fn missing_or_backwards_sources_attribute_zero() {
        let p = Profiler::new(vec![StageSpec {
            label: "wal_fsync",
            metric: "wal.sync.latency_ns",
            scale: 1,
        }]);
        p.sample(&snap(vec![])); // source absent entirely
        p.sample(&snap(vec![("wal.sync.latency_ns".to_string(), hist_with_sum(500))]));
        p.sample(&snap(vec![("wal.sync.latency_ns".to_string(), hist_with_sum(100))])); // restart
        let m = p.metrics_snapshot();
        assert_eq!(m.counter("profile.wal_fsync.busy_ns"), Some(500));
        assert_eq!(m.counter("profile.ticks"), Some(3));
    }

    #[test]
    fn default_stage_table_renders_stable_folded_lines() {
        let p = Profiler::with_default_stages();
        let folded = p.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), default_stage_specs().len());
        assert!(lines.iter().all(|l| l.starts_with("bed;")));
        assert!(folded.contains("bed;ingest 0\n"));
        assert!(folded.contains("bed;compaction 0\n"));
        // Every line is `<stack> <weight>`: exactly one space separator.
        for line in lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            weight.parse::<u64>().unwrap();
        }
    }
}
