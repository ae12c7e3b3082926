//! Metric plumbing between the detectors and `bed-obs`.
//!
//! Each detector owns a [`DetectorMetrics`] (and a sharded facade
//! additionally a [`ShardMetrics`]) holding pre-registered handles so the
//! hot paths never touch the registry lock. Ingest latency is **sampled**
//! 1-in-[`INGEST_SAMPLE_EVERY`] — two `Instant::now()` calls per sketch
//! update would dominate the update itself — while query latency is timed
//! on every call (queries are orders of magnitude rarer).

use std::sync::Arc;
use std::time::Instant;

use bed_hierarchy::QueryStats;
use bed_obs::{ActiveTrace, Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceId, Tracer};

use crate::observe::span_for;
use crate::query::QueryKind;

/// Ingest latency is recorded on one ingest out of this many (power of two).
pub(crate) const INGEST_SAMPLE_EVERY: u64 = 64;

/// Runtime metrics of one [`crate::BurstDetector`].
///
/// Not `Copy`/auto-`Clone`: cloning deep-copies the registry so the clone's
/// counters continue from the same values on independent storage.
#[derive(Debug)]
pub(crate) struct DetectorMetrics {
    enabled: bool,
    registry: MetricsRegistry,
    ingest_count: Arc<Counter>,
    ingest_errors: Arc<Counter>,
    ingest_latency: Arc<Histogram>,
    finalize_latency: Arc<Histogram>,
    pub(crate) queries: QueryInstruments,
    point_queries: Arc<Counter>,
    pruned_subtrees: Arc<Counter>,
    leaves_probed: Arc<Counter>,
    compact_latency: Arc<Histogram>,
}

impl DetectorMetrics {
    pub(crate) fn new(enabled: bool) -> Self {
        Self::from_registry(MetricsRegistry::new(), enabled)
    }

    /// Fetches (registering if absent) every handle from `registry` — the
    /// one constructor, so a deep clone re-binds to identical names.
    fn from_registry(registry: MetricsRegistry, enabled: bool) -> Self {
        DetectorMetrics {
            enabled,
            ingest_count: registry.counter("ingest.count"),
            ingest_errors: registry.counter("ingest.errors"),
            ingest_latency: registry.histogram("ingest.latency_ns"),
            finalize_latency: registry.histogram("finalize.latency_ns"),
            queries: QueryInstruments::new(&registry, enabled),
            point_queries: registry.counter("query.stats.point_queries"),
            pruned_subtrees: registry.counter("query.stats.pruned_subtrees"),
            leaves_probed: registry.counter("query.stats.leaves_probed"),
            compact_latency: registry.histogram("retention.compact.latency_ns"),
            registry,
        }
    }

    /// Counts one ingest attempt; returns a start instant on the sampled
    /// ones. The unconditional cost is a single relaxed `fetch_add`.
    #[inline]
    pub(crate) fn ingest_begin(&self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        let n = self.ingest_count.inc_fetch();
        n.is_multiple_of(INGEST_SAMPLE_EVERY).then(Instant::now)
    }

    /// Closes an ingest attempt opened by [`Self::ingest_begin`].
    #[inline]
    pub(crate) fn ingest_end(&self, started: Option<Instant>, ok: bool) {
        if !self.enabled {
            return;
        }
        if !ok {
            self.ingest_errors.inc();
        }
        if let Some(t0) = started {
            self.ingest_latency.observe(t0.elapsed());
        }
    }

    /// Starts timing a `finalize` (cold path, always timed).
    pub(crate) fn finalize_begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    pub(crate) fn finalize_end(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.finalize_latency.observe(t0.elapsed());
        }
    }

    /// Times one retention compaction pass over the tiered cells.
    pub(crate) fn compact_observe(&self, elapsed: std::time::Duration) {
        if self.enabled {
            self.compact_latency.observe(elapsed);
        }
    }

    /// Accumulates probe statistics of a bursty-event search.
    pub(crate) fn record_query_stats(&self, stats: &QueryStats) {
        if !self.enabled {
            return;
        }
        self.point_queries.add(stats.point_queries as u64);
        self.pruned_subtrees.add(stats.pruned_subtrees as u64);
        self.leaves_probed.add(stats.leaves_probed as u64);
    }

    /// Seeds `ingest.count` from persisted state (a decoded sketch has
    /// ingested its arrivals, just not in this process).
    pub(crate) fn seed_ingests(&self, arrivals: u64) {
        self.ingest_count.set(arrivals);
    }

    /// Refreshes a structural gauge (cold path; registers on first use).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        if self.enabled {
            self.registry.gauge(name).set(value);
        }
    }

    /// Counts one point query served by retention tier `tier`. Registers
    /// on first use — point queries are orders of magnitude rarer than
    /// ingests, so the registry lookup is affordable, and detectors
    /// without a retention policy never reach this path.
    pub(crate) fn count_tier_query(&self, tier: u32) {
        if self.enabled {
            self.registry.counter(&format!("retention.tier{tier}.queries")).inc();
        }
    }

    /// Derived pruning effectiveness: subtrees skipped per subtree visited.
    pub(crate) fn refresh_prune_ratio(&self) {
        if !self.enabled {
            return;
        }
        let pruned = self.pruned_subtrees.get() as f64;
        let probed = self.leaves_probed.get() as f64;
        if pruned + probed > 0.0 {
            self.registry.gauge("query.stats.prune_ratio").set(pruned / (pruned + probed));
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Clone for DetectorMetrics {
    fn clone(&self) -> Self {
        let mut clone = Self::from_registry(self.registry.deep_clone(), self.enabled);
        // The tracer is deliberately shared, not deep-cloned: spans from a
        // clone belong to the same diagnostic surface.
        clone.queries.set_tracer(Arc::clone(self.queries.tracer()));
        clone
    }
}

/// The query instrumentation owned by the outermost
/// [`crate::BurstQueries`] layer — a detector, the sharded facade, or the
/// epoch publication surface: per-kind query counts and latency
/// histograms, the error counter, and the tracer that opens each query's
/// root span. [`crate::observe::run_query`] drives it; inner layers never
/// touch theirs, so every query is counted and traced exactly once.
#[derive(Debug)]
pub(crate) struct QueryInstruments {
    enabled: bool,
    count: [Arc<Counter>; QueryKind::ALL.len()],
    errors: Arc<Counter>,
    latency: [Arc<Histogram>; QueryKind::ALL.len()],
    tracer: Arc<Tracer>,
}

impl QueryInstruments {
    /// Binds the `query.*` families in `registry` (registering them if
    /// absent, so a deep-cloned registry re-binds to the same names).
    pub(crate) fn new(registry: &MetricsRegistry, enabled: bool) -> Self {
        QueryInstruments {
            enabled,
            count: QueryKind::ALL.map(|k| registry.counter(k.count_metric())),
            errors: registry.counter("query.errors"),
            latency: QueryKind::ALL.map(|k| registry.histogram(k.latency_metric())),
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
    pub(crate) fn begin(&self, kind: QueryKind) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.count[kind.index()].inc();
        Some(Instant::now())
    }

    /// Closes a query opened by [`Self::begin`]. A nonzero `trace_id` is
    /// pinned as the latency bucket's OpenMetrics exemplar, pointing the
    /// bucket at an inspectable trace.
    #[inline]
    pub(crate) fn end(&self, kind: QueryKind, started: Option<Instant>, ok: bool, trace_id: u64) {
        if !self.enabled {
            return;
        }
        if !ok {
            self.errors.inc();
        }
        if let Some(t0) = started {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.latency[kind.index()].record_ns_exemplar(ns, trace_id);
        }
    }
}

/// Facade-level metrics of a [`crate::ShardedDetector`]: batch ingestion
/// and the queries the facade answers — what no single shard observes.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    enabled: bool,
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
    pub(crate) fn new(enabled: bool) -> Self {
        Self::from_registry(MetricsRegistry::new(), enabled)
    }

    fn from_registry(registry: MetricsRegistry, enabled: bool) -> Self {
        ShardMetrics {
            enabled,
            batches: registry.counter("shard.batch.count"),
            batch_elements: registry.counter("shard.batch.elements"),
            batch_latency: registry.histogram("shard.batch.latency_ns"),
            queries: Box::new(QueryInstruments::new(&registry, enabled)),
            registry,
        }
    }

    /// Starts timing one `ingest_batch` call of `len` elements.
    pub(crate) fn batch_begin(&self, len: usize) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.batches.inc();
        self.batch_elements.add(len as u64);
        Some(Instant::now())
    }

    pub(crate) fn batch_end(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.batch_latency.observe(t0.elapsed());
        }
    }

    /// Refreshes a facade-level gauge (cold path).
    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        if self.enabled {
            self.registry.gauge(name).set(value);
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Clone for ShardMetrics {
    fn clone(&self) -> Self {
        let mut clone = Self::from_registry(self.registry.deep_clone(), self.enabled);
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
    pub(crate) fn new(enabled: bool) -> Self {
        let registry = MetricsRegistry::new();
        EpochMetrics {
            published: registry.counter("epoch.published"),
            reader_retries: registry.counter("epoch.reader_retries"),
            publish_latency: registry.histogram("epoch.publish.latency_ns"),
            queries: QueryInstruments::new(&registry, enabled),
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
