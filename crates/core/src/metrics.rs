//! Metric plumbing between the detectors and `bed-obs`.
//!
//! Each detector owns a [`DetectorMetrics`] (and a sharded facade
//! additionally a [`ShardMetrics`]) holding its counters and histograms by
//! value, so every hot-path update is one relaxed atomic. Ingest latency is
//! **sampled** 1-in-[`INGEST_SAMPLE_EVERY`] — two `Instant::now()` calls
//! per sketch update would dominate the update itself — while query
//! latency is timed on every call (queries are orders of magnitude rarer).
//!
//! Each owner's `snapshot` lists its families by their static names next
//! to the values it reads, together with the readings its component
//! computes at snapshot time (structure sizes, retention tiers, per-shard
//! totals) — one snapshot site per family, and no lock anywhere.
//!
//! Every metric has one owner and is always on. A cloned detector gets
//! fresh metrics: it keeps only `ingest.count` and the shared tracer, so a
//! published epoch clone never copies, and never writes, its source's
//! counters.

use std::sync::Arc;
use std::time::Instant;

use bed_obs::{ActiveTrace, Counter, Histogram, MetricValue, MetricsSnapshot, TraceId, Tracer};

use crate::error::BedError;
use crate::observe::span_for;
use crate::query::{QueryKind, QueryResponse};

/// Ingest latency is recorded on one ingest out of this many (power of two).
pub(crate) const INGEST_SAMPLE_EVERY: u64 = 64;

/// Retention tiers a point answer can carry: `RetentionPolicy::tier_of`
/// is at most `ilog2(u64::MAX) + 1 = 64`.
const TIERS: usize = 65;

/// One `(name, value)` family of a snapshot.
pub(crate) type Entry = (String, MetricValue);

/// A counter family reading `c`.
fn counter(name: impl Into<String>, c: &Counter) -> Entry {
    (name.into(), MetricValue::Counter(c.get()))
}

/// A histogram family reading `h`.
fn histogram(name: impl Into<String>, h: &Histogram) -> Entry {
    (name.into(), MetricValue::Histogram(h.snapshot()))
}

/// A gauge family: a reading computed at snapshot time.
pub(crate) fn gauge(name: impl Into<String>, value: f64) -> Entry {
    (name.into(), MetricValue::Gauge(value))
}

/// Runtime metrics of one [`crate::BurstDetector`].
#[derive(Debug, Default)]
pub(crate) struct DetectorMetrics {
    ingest_count: Counter,
    ingest_errors: Counter,
    ingest_latency: Histogram,
    finalize_latency: Histogram,
    pub(crate) queries: QueryInstruments,
    compact_latency: Histogram,
}

impl DetectorMetrics {
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

    /// The detector's families plus `computed`, the structural readings
    /// the detector takes from its backend at snapshot time.
    pub(crate) fn snapshot(&self, computed: impl IntoIterator<Item = Entry>) -> MetricsSnapshot {
        let mut entries = vec![
            counter("ingest.count", &self.ingest_count),
            counter("ingest.errors", &self.ingest_errors),
            histogram("ingest.latency_ns", &self.ingest_latency),
            histogram("finalize.latency_ns", &self.finalize_latency),
            histogram("retention.compact.latency_ns", &self.compact_latency),
        ];
        self.queries.list(&mut entries);
        entries.extend(computed);
        MetricsSnapshot::from_entries(entries)
    }
}

impl Clone for DetectorMetrics {
    /// Fresh metrics that keep only `ingest.count` and the tracer: the
    /// clone's queries and latencies are its own from the start.
    fn clone(&self) -> Self {
        let mut clone = Self::default();
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
    count: [Counter; QueryKind::ALL.len()],
    errors: Counter,
    latency: [Histogram; QueryKind::ALL.len()],
    point_queries: Counter,
    pruned_subtrees: Counter,
    leaves_probed: Counter,
    /// Point answers per serving retention tier. Listed as
    /// `retention.tier<k>.queries` by [`Self::list`] once nonzero, so
    /// detectors without retention export no tier families and the
    /// per-query cost is one relaxed add.
    tier_queries: [Counter; TIERS],
    tracer: Arc<Tracer>,
}

impl Default for QueryInstruments {
    fn default() -> Self {
        QueryInstruments {
            count: [const { Counter::new() }; QueryKind::ALL.len()],
            errors: Counter::new(),
            latency: std::array::from_fn(|_| Histogram::new()),
            point_queries: Counter::new(),
            pruned_subtrees: Counter::new(),
            leaves_probed: Counter::new(),
            tier_queries: [const { Counter::new() }; TIERS],
            tracer: Arc::new(Tracer::disabled()),
        }
    }
}

impl QueryInstruments {
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

    /// Lists the `query.*` families into `out` (cold path), with two
    /// derived readings: the per-tier point-answer counts and the pruning
    /// effectiveness `query.stats.prune_ratio` (subtrees skipped per
    /// subtree visited). Both appear only once this layer has recorded
    /// something, so a sharded rollup — which sums gauges — never adds
    /// the facade's ratio to idle shards' ones.
    fn list(&self, out: &mut Vec<Entry>) {
        for kind in QueryKind::ALL {
            out.push(counter(kind.count_metric(), &self.count[kind.index()]));
            out.push(histogram(kind.latency_metric(), &self.latency[kind.index()]));
        }
        out.extend([
            counter("query.errors", &self.errors),
            counter("query.stats.point_queries", &self.point_queries),
            counter("query.stats.pruned_subtrees", &self.pruned_subtrees),
            counter("query.stats.leaves_probed", &self.leaves_probed),
        ]);
        for (k, c) in self.tier_queries.iter().enumerate() {
            if c.get() > 0 {
                out.push(counter(format!("retention.tier{k}.queries"), c));
            }
        }
        let pruned = self.pruned_subtrees.get() as f64;
        let probed = self.leaves_probed.get() as f64;
        if pruned + probed > 0.0 {
            out.push(gauge("query.stats.prune_ratio", pruned / (pruned + probed)));
        }
    }
}

/// Facade-level metrics of a [`crate::ShardedDetector`]: batch ingestion
/// and the queries the facade answers — what no single shard observes.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    batches: Counter,
    batch_elements: Counter,
    batch_latency: Histogram,
    /// The facade's query instrumentation (shards never count or trace
    /// the queries the facade routes to them).
    pub(crate) queries: QueryInstruments,
}

impl ShardMetrics {
    /// Starts timing one `ingest_batch` call of `len` elements.
    pub(crate) fn batch_begin(&self, len: usize) -> Instant {
        self.batches.inc();
        self.batch_elements.add(len as u64);
        Instant::now()
    }

    pub(crate) fn batch_end(&self, started: Instant) {
        self.batch_latency.observe(started.elapsed());
    }

    /// The facade's families plus `computed`, the per-shard readings.
    pub(crate) fn snapshot(&self, computed: impl IntoIterator<Item = Entry>) -> MetricsSnapshot {
        let mut entries = vec![
            counter("shard.batch.count", &self.batches),
            counter("shard.batch.elements", &self.batch_elements),
            histogram("shard.batch.latency_ns", &self.batch_latency),
        ];
        self.queries.list(&mut entries);
        entries.extend(computed);
        MetricsSnapshot::from_entries(entries)
    }
}

impl Clone for ShardMetrics {
    /// Fresh facade metrics sharing only the tracer (see
    /// [`DetectorMetrics`]' clone).
    fn clone(&self) -> Self {
        let mut clone = Self::default();
        clone.queries.set_tracer(Arc::clone(self.queries.tracer()));
        clone
    }
}

/// Metrics of a [`crate::checkpoint::Checkpointer`]: checkpoint cadence,
/// cost, and recovery outcomes.
#[derive(Debug, Default)]
pub(crate) struct CheckpointMetrics {
    checkpoints: Counter,
    checkpoint_errors: Counter,
    checkpoint_bytes: Counter,
    checkpoint_latency: Histogram,
    recoveries: Counter,
    recovery_fallbacks: Counter,
    recovery_replayed: Counter,
    recovery_torn_tails: Counter,
    recovery_latency: Histogram,
}

impl CheckpointMetrics {
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
        MetricsSnapshot::from_entries([
            counter("checkpoint.count", &self.checkpoints),
            counter("checkpoint.errors", &self.checkpoint_errors),
            counter("checkpoint.bytes", &self.checkpoint_bytes),
            histogram("checkpoint.latency_ns", &self.checkpoint_latency),
            counter("recovery.count", &self.recoveries),
            counter("recovery.fallbacks", &self.recovery_fallbacks),
            counter("recovery.replayed", &self.recovery_replayed),
            counter("recovery.torn_tails", &self.recovery_torn_tails),
            histogram("recovery.latency_ns", &self.recovery_latency),
        ])
    }
}

/// Metrics of a [`crate::epoch::DetectorEpochs`]: publish cadence and
/// the queries its views answer (the published clones' own metrics are
/// never scraped).
#[derive(Debug, Default)]
pub(crate) struct EpochMetrics {
    published: Counter,
    publish_latency: Histogram,
    pub(crate) queries: QueryInstruments,
}

impl EpochMetrics {
    /// Records one completed publish across every cell.
    pub(crate) fn published(&self, elapsed: std::time::Duration) {
        self.published.inc();
        self.publish_latency.observe(elapsed);
    }

    /// The publisher's families, with the published `generation` the
    /// epoch cell owns.
    pub(crate) fn snapshot(&self, generation: u64) -> MetricsSnapshot {
        let mut entries = vec![
            counter("epoch.published", &self.published),
            histogram("epoch.publish.latency_ns", &self.publish_latency),
            gauge("epoch.generation", generation as f64),
        ];
        self.queries.list(&mut entries);
        MetricsSnapshot::from_entries(entries)
    }
}

/// Metrics of a [`crate::wal::WalWriter`]: append volume and sync latency.
#[derive(Debug, Default)]
pub(crate) struct WalMetrics {
    appends: Counter,
    bytes: Counter,
    sync_latency: Histogram,
}

impl WalMetrics {
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
        MetricsSnapshot::from_entries([
            counter("wal.appends", &self.appends),
            counter("wal.bytes", &self.bytes),
            histogram("wal.sync.latency_ns", &self.sync_latency),
        ])
    }
}
