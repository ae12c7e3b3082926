//! Metric plumbing between the detectors and `bed-obs`.
//!
//! Each detector owns a [`DetectorMetrics`] (and a sharded facade
//! additionally a [`ShardMetrics`]) holding pre-registered handles so the
//! hot paths never touch the registry lock. Ingest latency is **sampled**
//! 1-in-[`INGEST_SAMPLE_EVERY`] — two `Instant::now()` calls per sketch
//! update would dominate the update itself — while query latency is timed
//! on every call (queries are orders of magnitude rarer).
//!
//! Every metric has one owner and is always on. A cloned detector gets
//! fresh metrics: it keeps only `ingest.count` and the shared tracer, so a
//! published epoch clone never copies, and never writes, its source's
//! registry.

use std::sync::Arc;
use std::time::Instant;

use bed_obs::{ActiveTrace, Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceId, Tracer};

use crate::error::BedError;
use crate::observe::span_for;
use crate::query::{QueryKind, QueryResponse};

/// Ingest latency is recorded on one ingest out of this many (power of two).
pub(crate) const INGEST_SAMPLE_EVERY: u64 = 64;

/// Retention tiers a point answer can carry: `RetentionPolicy::tier_of`
/// is at most `ilog2(u64::MAX) + 1 = 64`.
const TIERS: usize = 65;

/// Runtime metrics of one [`crate::BurstDetector`].
#[derive(Debug)]
pub(crate) struct DetectorMetrics {
    registry: MetricsRegistry,
    ingest_count: Arc<Counter>,
    ingest_errors: Arc<Counter>,
    ingest_latency: Arc<Histogram>,
    finalize_latency: Arc<Histogram>,
    pub(crate) queries: QueryInstruments,
    compact_latency: Arc<Histogram>,
}

impl DetectorMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        DetectorMetrics {
            ingest_count: registry.counter("ingest.count"),
            ingest_errors: registry.counter("ingest.errors"),
            ingest_latency: registry.histogram("ingest.latency_ns"),
            finalize_latency: registry.histogram("finalize.latency_ns"),
            queries: QueryInstruments::new(&registry),
            compact_latency: registry.histogram("retention.compact.latency_ns"),
            registry,
        }
    }

    /// Counts one ingest attempt; returns a start instant on the sampled
    /// ones. The unconditional cost is a single relaxed `fetch_add`.
    #[inline]
    pub(crate) fn ingest_begin(&self) -> Option<Instant> {
        let n = self.ingest_count.inc_fetch();
        n.is_multiple_of(INGEST_SAMPLE_EVERY).then(Instant::now)
    }

    /// Closes an ingest attempt opened by [`Self::ingest_begin`].
    #[inline]
    pub(crate) fn ingest_end(&self, started: Option<Instant>, ok: bool) {
        if !ok {
            self.ingest_errors.inc();
        }
        if let Some(t0) = started {
            self.ingest_latency.observe(t0.elapsed());
        }
    }

    /// Times one `finalize` (cold path, always timed).
    pub(crate) fn finalize_observe(&self, elapsed: std::time::Duration) {
        self.finalize_latency.observe(elapsed);
    }

    /// Times one retention compaction pass over the tiered cells.
    pub(crate) fn compact_observe(&self, elapsed: std::time::Duration) {
        self.compact_latency.observe(elapsed);
    }

    /// Seeds `ingest.count` from persisted state (a decoded sketch has
    /// ingested its arrivals, just not in this process).
    pub(crate) fn seed_ingests(&self, arrivals: u64) {
        self.ingest_count.set(arrivals);
    }

    /// Refreshes a structural gauge (cold path; registers on first use).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.queries.sync(&self.registry);
        self.registry.snapshot()
    }
}

impl Clone for DetectorMetrics {
    /// Fresh metrics that keep only `ingest.count` and the tracer: the
    /// clone's queries and latencies are its own from the start.
    fn clone(&self) -> Self {
        let mut clone = Self::new();
        clone.seed_ingests(self.ingest_count.get());
        clone.queries.set_tracer(Arc::clone(self.queries.tracer()));
        clone
    }
}

/// The query instrumentation owned by the outermost
/// [`crate::BurstQueries`] layer — a detector, the sharded facade, or the
/// epoch publication surface: per-kind query counts and latency
/// histograms, the error counter, the statistics read off each answer
/// (`query.stats.*` from bursty-event searches, `retention.tier<k>.queries`
/// from point answers), and the tracer that opens each query's root span.
/// [`crate::observe::run_query`] drives it; inner layers never touch
/// theirs, so every query is counted and traced exactly once.
#[derive(Debug)]
pub(crate) struct QueryInstruments {
    count: [Arc<Counter>; QueryKind::ALL.len()],
    errors: Arc<Counter>,
    latency: [Arc<Histogram>; QueryKind::ALL.len()],
    point_queries: Arc<Counter>,
    pruned_subtrees: Arc<Counter>,
    leaves_probed: Arc<Counter>,
    /// Point answers per serving retention tier. Registered as
    /// `retention.tier<k>.queries` by [`Self::sync`] once nonzero, so
    /// detectors without retention export no tier families and the
    /// per-query cost is one relaxed add.
    tier_queries: [Counter; TIERS],
    tracer: Arc<Tracer>,
}

impl QueryInstruments {
    /// Binds the `query.*` families in `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        QueryInstruments {
            count: QueryKind::ALL.map(|k| registry.counter(k.count_metric())),
            errors: registry.counter("query.errors"),
            latency: QueryKind::ALL.map(|k| registry.histogram(k.latency_metric())),
            point_queries: registry.counter("query.stats.point_queries"),
            pruned_subtrees: registry.counter("query.stats.pruned_subtrees"),
            leaves_probed: registry.counter("query.stats.leaves_probed"),
            tier_queries: [const { Counter::new() }; TIERS],
            tracer: Arc::new(Tracer::disabled()),
        }
    }

    /// Installs a tracer (replacing the default disabled one).
    pub(crate) fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    pub(crate) fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Starts a sampled root span for a query of `kind`, adopting
    /// `trace_id` when nonzero (a caller-assigned request id). `None` on
    /// the untraced path — a single relaxed load when tracing is off.
    #[inline]
    pub(crate) fn trace(&self, kind: QueryKind, trace_id: u64) -> Option<ActiveTrace<'_>> {
        self.tracer.start_sampled_with(span_for(kind), (trace_id != 0).then_some(TraceId(trace_id)))
    }

    /// Counts one query of `kind` and starts its latency timer.
    #[inline]
    pub(crate) fn begin(&self, kind: QueryKind) -> Instant {
        self.count[kind.index()].inc();
        Instant::now()
    }

    /// Closes a query opened by [`Self::begin`]: records its latency (a
    /// nonzero `trace_id` is pinned as the bucket's OpenMetrics exemplar,
    /// pointing the bucket at an inspectable trace), counts an error, or
    /// reads the answer's statistics.
    #[inline]
    pub(crate) fn end(
        &self,
        kind: QueryKind,
        started: Instant,
        result: &Result<QueryResponse, BedError>,
        trace_id: u64,
    ) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency[kind.index()].record_ns_exemplar(ns, trace_id);
        match result {
            Err(_) => self.errors.inc(),
            Ok(QueryResponse::Point { tier: Some(tier), .. }) => {
                self.tier_queries[*tier as usize].inc();
            }
            Ok(QueryResponse::BurstyEvents { stats, .. }) => {
                self.point_queries.add(stats.point_queries as u64);
                self.pruned_subtrees.add(stats.pruned_subtrees as u64);
                self.leaves_probed.add(stats.leaves_probed as u64);
            }
            Ok(_) => {}
        }
    }

    /// Publishes the derived readings into `registry` before a snapshot
    /// (cold path): the per-tier point-answer counts and the pruning
    /// effectiveness `query.stats.prune_ratio` (subtrees skipped per
    /// subtree visited). Both appear only once this layer has recorded
    /// something, so a sharded rollup — which sums gauges — never adds
    /// the facade's ratio to idle shards' ones.
    fn sync(&self, registry: &MetricsRegistry) {
        for (k, c) in self.tier_queries.iter().enumerate() {
            let n = c.get();
            if n > 0 {
                registry.counter(&format!("retention.tier{k}.queries")).set(n);
            }
        }
        let pruned = self.pruned_subtrees.get() as f64;
        let probed = self.leaves_probed.get() as f64;
        if pruned + probed > 0.0 {
            registry.gauge("query.stats.prune_ratio").set(pruned / (pruned + probed));
        }
    }
}

/// Facade-level metrics of a [`crate::ShardedDetector`]: batch ingestion
/// and the queries the facade answers — what no single shard observes.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    registry: MetricsRegistry,
    batches: Arc<Counter>,
    batch_elements: Arc<Counter>,
    batch_latency: Arc<Histogram>,
    /// The facade's query instrumentation (shards never count or trace
    /// the queries the facade routes to them). Boxed to keep the facade —
    /// an [`crate::AnyDetector`] variant — small.
    pub(crate) queries: Box<QueryInstruments>,
}

impl ShardMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        ShardMetrics {
            batches: registry.counter("shard.batch.count"),
            batch_elements: registry.counter("shard.batch.elements"),
            batch_latency: registry.histogram("shard.batch.latency_ns"),
            queries: Box::new(QueryInstruments::new(&registry)),
            registry,
        }
    }

    /// Starts timing one `ingest_batch` call of `len` elements.
    pub(crate) fn batch_begin(&self, len: usize) -> Instant {
        self.batches.inc();
        self.batch_elements.add(len as u64);
        Instant::now()
    }

    pub(crate) fn batch_end(&self, started: Instant) {
        self.batch_latency.observe(started.elapsed());
    }

    /// Refreshes a facade-level gauge (cold path).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.queries.sync(&self.registry);
        self.registry.snapshot()
    }
}

impl Clone for ShardMetrics {
    /// Fresh facade metrics sharing only the tracer (see
    /// [`DetectorMetrics`]' clone).
    fn clone(&self) -> Self {
        let mut clone = Self::new();
        clone.queries.set_tracer(Arc::clone(self.queries.tracer()));
        clone
    }
}

/// Metrics of a [`crate::checkpoint::Checkpointer`]: checkpoint cadence,
/// cost, and recovery outcomes.
#[derive(Debug)]
pub(crate) struct CheckpointMetrics {
    registry: MetricsRegistry,
    checkpoints: Arc<Counter>,
    checkpoint_errors: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    checkpoint_latency: Arc<Histogram>,
    recoveries: Arc<Counter>,
    recovery_fallbacks: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    recovery_torn_tails: Arc<Counter>,
    recovery_latency: Arc<Histogram>,
}

impl CheckpointMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        CheckpointMetrics {
            checkpoints: registry.counter("checkpoint.count"),
            checkpoint_errors: registry.counter("checkpoint.errors"),
            checkpoint_bytes: registry.counter("checkpoint.bytes"),
            checkpoint_latency: registry.histogram("checkpoint.latency_ns"),
            recoveries: registry.counter("recovery.count"),
            recovery_fallbacks: registry.counter("recovery.fallbacks"),
            recovery_replayed: registry.counter("recovery.replayed"),
            recovery_torn_tails: registry.counter("recovery.torn_tails"),
            recovery_latency: registry.histogram("recovery.latency_ns"),
            registry,
        }
    }

    /// Records one successful checkpoint of `bytes` envelope bytes.
    pub(crate) fn checkpoint_ok(&self, bytes: u64, elapsed: std::time::Duration) {
        self.checkpoints.inc();
        self.checkpoint_bytes.add(bytes);
        self.checkpoint_latency.observe(elapsed);
    }

    /// Records a failed checkpoint attempt.
    pub(crate) fn checkpoint_err(&self) {
        self.checkpoint_errors.inc();
    }

    /// Records one completed recovery and what it took.
    pub(crate) fn recovery_ok(
        &self,
        outcome: &crate::checkpoint::RecoveryOutcome,
        elapsed: std::time::Duration,
    ) {
        self.recoveries.inc();
        self.recovery_replayed.add(outcome.replayed);
        if outcome.fell_back {
            self.recovery_fallbacks.inc();
        }
        if outcome.torn_tail {
            self.recovery_torn_tails.inc();
        }
        self.recovery_latency.observe(elapsed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Metrics of a [`crate::epoch::DetectorEpochs`]: publish cadence,
/// reader-retry pressure on the snapshot cells, and the queries its views
/// answer (the published clones' own registries are never scraped).
#[derive(Debug)]
pub(crate) struct EpochMetrics {
    registry: MetricsRegistry,
    published: Arc<Counter>,
    reader_retries: Arc<Counter>,
    publish_latency: Arc<Histogram>,
    pub(crate) queries: QueryInstruments,
}

impl EpochMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        EpochMetrics {
            published: registry.counter("epoch.published"),
            reader_retries: registry.counter("epoch.reader_retries"),
            publish_latency: registry.histogram("epoch.publish.latency_ns"),
            queries: QueryInstruments::new(&registry),
            registry,
        }
    }

    /// Records one completed publish across every cell.
    pub(crate) fn published(&self, elapsed: std::time::Duration) {
        self.published.inc();
        self.publish_latency.observe(elapsed);
    }

    /// Syncs the cumulative reader-retry total (the cells own the live
    /// count so the retry path stays a single relaxed `fetch_add`).
    pub(crate) fn sync_reader_retries(&self, total: u64) {
        self.reader_retries.set(total);
    }

    /// Refreshes an epoch gauge (cold path; registers on first use).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.queries.sync(&self.registry);
        self.registry.snapshot()
    }
}

/// Metrics of a [`crate::wal::WalWriter`]: append volume and sync latency.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    registry: MetricsRegistry,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    sync_latency: Arc<Histogram>,
}

impl WalMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        WalMetrics {
            appends: registry.counter("wal.appends"),
            bytes: registry.counter("wal.bytes"),
            sync_latency: registry.histogram("wal.sync.latency_ns"),
            registry,
        }
    }

    /// Records `n` appended records totalling `bytes` on-disk bytes.
    pub(crate) fn appended(&self, n: u64, bytes: u64) {
        self.appends.add(n);
        self.bytes.add(bytes);
    }

    /// Times one durable sync.
    pub(crate) fn sync_begin(&self) -> Instant {
        Instant::now()
    }

    pub(crate) fn sync_end(&self, started: Instant) {
        self.sync_latency.observe(started.elapsed());
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Metrics of a [`crate::MessagePipeline`]: flush batching and latency.
#[derive(Debug)]
pub(crate) struct PipelineMetrics {
    registry: MetricsRegistry,
    flushes: Arc<Counter>,
    flushed_elements: Arc<Counter>,
    flush_latency: Arc<Histogram>,
}

impl PipelineMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        PipelineMetrics {
            flushes: registry.counter("pipeline.flush.count"),
            flushed_elements: registry.counter("pipeline.flush.elements"),
            flush_latency: registry.histogram("pipeline.flush.latency_ns"),
            registry,
        }
    }

    /// Starts timing one flush of `len` released elements.
    pub(crate) fn flush_begin(&self, len: usize) -> Instant {
        self.flushes.inc();
        self.flushed_elements.add(len as u64);
        Instant::now()
    }

    pub(crate) fn flush_end(&self, started: Instant) {
        self.flush_latency.observe(started.elapsed());
    }

    /// Refreshes a pipeline gauge (cold path).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}
