//! # bed-core — the public API for bursty event detection throughout histories
//!
//! [`BurstDetector`] ties the workspace together behind one builder-style
//! entry point:
//!
//! ```
//! use bed_core::{BurstDetector, BurstQueries, PbeVariant, QueryRequest, QueryStrategy};
//! use bed_stream::{BurstSpan, EventId, Timestamp};
//!
//! // Summarise a mixed stream of 3 events with CM-PBE-2 + the dyadic
//! // hierarchy for bursty event queries.
//! let mut det = BurstDetector::builder()
//!     .universe(3)
//!     .variant(PbeVariant::pbe2(2.0))
//!     .accuracy(0.01, 0.05)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//!
//! for t in 0..50u64 {
//!     det.ingest(EventId(0), Timestamp(t)).unwrap();      // steady
//!     if t >= 40 {
//!         for _ in 0..8 { det.ingest(EventId(1), Timestamp(t)).unwrap(); } // burst
//!     }
//! }
//! det.finalize();
//!
//! // POINT QUERY: how bursty was each event at t = 49?
//! let tau = BurstSpan::new(10).unwrap();
//! let point = |event| QueryRequest::Point { event, t: Timestamp(49), tau };
//! let b1 = det.query(&point(EventId(1))).unwrap().burstiness().unwrap();
//! let b0 = det.query(&point(EventId(0))).unwrap().burstiness().unwrap();
//! assert!(b1 > 40.0 && b0.abs() < 5.0);
//!
//! // BURSTY EVENT QUERY: which events reached θ = 40 at t = 49?
//! let events = QueryRequest::BurstyEvents {
//!     t: Timestamp(49),
//!     theta: 40.0,
//!     tau,
//!     strategy: QueryStrategy::Pruned,
//! };
//! let answer = det.query(&events).unwrap();
//! let hits = answer.hits().unwrap();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].event, EventId(1));
//! ```
//!
//! ## Unified query API
//!
//! Both [`BurstDetector`] and [`ShardedDetector`] implement [`BurstQueries`]
//! — one `query(&QueryRequest) -> Result<QueryResponse, BedError>` covering
//! the five canonical query kinds, so front-ends can hold a
//! `&dyn BurstQueries` and stay agnostic of the physical layout. It is the
//! only way to ask a detector; the one inherent query left,
//! [`BurstDetector::bursty_time_ranges`], answers the interval form of a
//! bursty-time query, which has no [`QueryRequest`] kind.
//!
//! ## Observability
//!
//! Every detector always collects runtime metrics through the
//! zero-dependency `bed-obs` crate, exposed as [`MetricsSnapshot`] via
//! `detector.metrics()`. Query families are counted by the outermost
//! [`BurstQueries`] layer a query enters; a decoded or cloned detector
//! restarts its metrics, keeping only `ingest.count`. The name schema:
//!
//! * `ingest.count` / `ingest.errors` / `ingest.latency_ns` (sampled 1-in-64)
//! * `finalize.latency_ns`
//! * `query.<kind>.count` / `query.<kind>.latency_ns` for each of `point`,
//!   `bursty_times`, `bursty_events`, `series`, `top_k`, plus `query.errors`
//! * `query.stats.{point_queries,pruned_subtrees,leaves_probed}` counters
//!   read off bursty-event answers, and the derived `query.stats.prune_ratio`
//!   gauge
//! * `retention.tier<k>.queries`: point answers served by retention tier `k`
//! * `structure.*` gauges computed at snapshot time: `structure.bytes`,
//!   `detector.arrivals`, `structure.pbe.{pieces,buffered}` (single mode),
//!   `structure.cmpbe.{depth,width,occupied_cells,fill_ratio,`
//!   `heaviest_cell_arrivals,pieces,buffered}` (mixed modes), and
//!   `structure.forest.{levels,nodes,occupied_nodes,pieces,buffered}`
//!   (hierarchical mode)
//! * `shard.batch.{count,elements,latency_ns}`, `shard.count`, and per-shard
//!   `shard.<i>.{arrivals,bytes}` gauges on a [`ShardedDetector`]
//! * the `epoch.published` counter, `epoch.publish.latency_ns`, and the
//!   `epoch.generation` gauge on a
//!   [`DetectorEpochs`], whose `staleness` adds the `epoch.age_ticks` and
//!   `epoch.lag_arrivals` gauges against a live watermark
//! * `checkpoint.{count,errors,bytes,latency_ns}` and
//!   `recovery.{count,fallbacks,replayed,torn_tails,latency_ns}` on a
//!   [`Checkpointer`]; `wal.{appends,bytes}` and `wal.sync.latency_ns` on a
//!   [`WalWriter`]
//!
//! ## Durability
//!
//! The [`checkpoint`] and [`wal`] modules persist a detector across
//! crashes: CRC-validated `BEDS v2` snapshots written atomically with
//! one-generation rotation, plus a write-ahead log of arrivals so recovery
//! is "load the newest intact snapshot, replay the tail" — see
//! [`recover`] and the module docs for the exact invariants.
//!
//! ## Concurrent reads
//!
//! The [`epoch`] module decouples queries from a live ingest: a writer
//! publishes immutable epoch snapshots at a configurable cadence and any
//! number of readers answer from the latest one without waiting on ingest
//! — zero locks and zero allocation on the query hot path. See [`DetectorEpochs`] and
//! the protocol notes in the module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod epoch;
pub mod error;
mod metrics;
pub mod observe;
pub mod pipeline;
pub mod query;
pub mod shard;
pub mod wal;

pub use cell::PbeCell;
pub use checkpoint::{
    check_same_layout, recover, AnyDetector, CheckpointPolicy, Checkpointable, Checkpointer,
    RecoveryError, RecoveryOutcome, Snapshot, SnapshotStore, Watermark,
};
pub use config::{DetectorConfig, PbeVariant};
pub use detector::{BurstDetector, BurstDetectorBuilder};
pub use epoch::{DetectorEpochs, Epoch, EpochPublisher, EpochReader, EpochView, SnapshotCell};
pub use error::BedError;
pub use observe::Traceable;
pub use pipeline::{check_batch, EventSink};
pub use query::{BurstQueries, QueryRequest, QueryResponse, QueryStrategy};
pub use shard::{ShardedDetector, ShardedDetectorBuilder};
pub use wal::{read_wal, WalContents, WalSink, WalWriter};

// Re-export the vocabulary types users need alongside the detector.
pub use bed_hierarchy::{BurstyEventHit, QueryStats};
pub use bed_obs::{
    assemble_trace_tree, default_stage_specs, MetricValue, MetricsSnapshot, Profiler, SlowQuery,
    SpanName, StageSpec, TraceEvent, TraceId, Tracer, TracerConfig,
};
pub use bed_sketch::{QueryScratch, RetentionPolicy, SketchParams};
pub use bed_stream::{BurstSpan, Burstiness, EventId, TimeRange, Timestamp};
