//! # bed-obs — observability primitives for the `bed` workspace
//!
//! A zero-dependency, std-only instrumentation layer: atomic [`Counter`]s
//! and fixed-bucket latency [`Histogram`]s, held by value in the component
//! they measure, and an immutable [`MetricsSnapshot`] with deterministic
//! text and JSON renderers. At snapshot time each owner lists its
//! families by name next to the values it reads; readings computed on the
//! spot (sizes, occupancy) are plain gauge entries.
//!
//! Design constraints (in priority order):
//!
//! 1. **Cheap enough to stay on by default.** Every hot-path operation is a
//!    single relaxed atomic RMW and nothing takes a lock. Latency histograms
//!    are meant to be *sampled* by the caller (e.g. 1-in-64 ingests) so that
//!    `Instant::now()` never dominates a sketch update.
//! 2. **No dependencies.** The container builds offline; everything here is
//!    `std` only, including the hand-rolled JSON renderer.
//! 3. **Deterministic output.** Snapshots are sorted by metric name and the
//!    JSON renderer is byte-stable for identical values, so golden tests can
//!    pin the schema.
//!
//! ```
//! use bed_obs::{Counter, Histogram, MetricValue, MetricsSnapshot};
//!
//! let ingests = Counter::new();
//! let latency = Histogram::new();
//!
//! ingests.inc();
//! latency.record_ns(1_200);
//!
//! let snap = MetricsSnapshot::from_entries([
//!     ("ingest.count".to_owned(), MetricValue::Counter(ingests.get())),
//!     ("ingest.latency_ns".to_owned(), MetricValue::Histogram(latency.snapshot())),
//!     ("structure.bytes".to_owned(), MetricValue::Gauge(4096.0)),
//! ]);
//! assert_eq!(snap.counter("ingest.count"), Some(1));
//! assert!(snap.to_json().contains("\"ingest.count\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Since v2 the crate also carries a std-only structured tracing layer:
//! sampled root spans with [`TraceId`]s, per-stage child spans, a lock-free
//! bounded [`TraceBuffer`] ring, a [`TraceEvent`] JSON-lines encoder, and a
//! bounded slow-query log on the [`Tracer`]. The untraced path is a single
//! relaxed atomic load and allocates nothing.
//!
//! v3 closes the loop end to end: caller-supplied trace ids propagate into
//! recorded spans ([`Tracer::start_sampled_with`]), ring contents assemble
//! into nested JSON trees ([`assemble_trace_tree`]), latency histograms
//! carry OpenMetrics exemplars pointing at recent traces
//! ([`Histogram::record_ns_exemplar`]), and a continuous [`Profiler`]
//! attributes wall-clock time to pipeline stages from metric deltas,
//! dumpable as flamegraph folded stacks.

mod metrics;
mod profile;
mod snapshot;
mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, LATENCY_BOUNDS_NS};
pub use profile::{default_stage_specs, Profiler, StageSpec};
pub use snapshot::{MetricValue, MetricsSnapshot, RenderEntry};
pub use trace::{
    assemble_trace_tree, ActiveTrace, SlowQuery, SpanName, TraceBuffer, TraceEvent, TraceId,
    Tracer, TracerConfig, MAX_CHILDREN,
};
