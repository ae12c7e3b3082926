//! Hash-sharded parallel ingestion: N independent [`BurstDetector`]s
//! behind one facade.
//!
//! The single-detector ingest path (`BurstDetector::ingest` →
//! `CmPbe::update` → d row cells) is inherently serial, so throughput is
//! capped at one core no matter how wide the sketch is. Because every
//! query the paper defines is *per event* (point, bursty-time) or a union
//! of per-event answers (bursty-event), the event-id universe can be
//! partitioned across detectors without touching any estimate: each
//! `EventId` is owned by exactly one shard, that shard sees exactly the
//! owned events' substream, and a substream restricted to one event is
//! identical whether or not the rest of the stream was split away.
//! Collisions inside a shard's Count-Min rows can only *decrease*
//! (fewer distinct ids hash into the same width), so the per-event error
//! guarantees of Lemmas 3–5 are preserved shard-locally and therefore
//! globally.
//!
//! One caveat is inherited rather than introduced: the pruned dyadic
//! bursty-event search ([`QueryStrategy::Pruned`]) skips a subtree when
//! the Eq. 6 bound says no descendant can reach θ, and sign cancellation
//! between siblings can mask a bursting event. Each shard prunes over
//! *its own* forest, so the pruned hit set of a sharded detector may
//! differ from the unsharded one's (both are subsets of the exact scan
//! answer, and every reported hit is a true point-query hit).
//! [`QueryStrategy::ExactScan`] is exact with respect to point queries
//! and matches the unsharded scan set for set.

use bed_hierarchy::{BurstyEventHit, QueryStats};
use bed_obs::{MetricsSnapshot, Tracer};
use bed_stream::{BurstSpan, EventId, StreamError, TimeRange, Timestamp};

use crate::config::DetectorConfig;
use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::metrics::ShardMetrics;
use crate::observe::Traceable;
use crate::query::{BurstQueries, QueryRequest, QueryResponse, QueryStrategy};

/// Batches below this size are ingested inline: spawning scoped threads
/// costs more than a few thousand sketch updates.
const PARALLEL_MIN_BATCH: usize = 1024;

/// SplitMix64 finaliser — a full-avalanche mix so consecutive event ids
/// spread evenly across shards regardless of the shard count.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard owning `event` among `n` shards.
#[inline]
pub(crate) fn route(event: EventId, n: usize) -> usize {
    (mix(event.value() as u64) % n as u64) as usize
}

/// An event-set answer: hits plus the probe statistics of the search.
type EventSetAnswer = Result<(Vec<BurstyEventHit>, QueryStats), BedError>;

/// The one query router over a shard set, shared by the live
/// [`ShardedDetector`] and the epoch views ([`crate::epoch`]): per-event
/// kinds go to the owning shard's uninstrumented dispatch (whose universe
/// check covers the full `K`), bursty-event kinds go through [`fan_out`]
/// with the scratch shared across the sequential shard visits.
pub(crate) fn dispatch(
    shards: &[BurstDetector],
    request: &QueryRequest,
    scratch: &mut bed_sketch::QueryScratch,
) -> Result<QueryResponse, BedError> {
    match *request {
        QueryRequest::Point { event, .. }
        | QueryRequest::BurstyTimes { event, .. }
        | QueryRequest::Series { event, .. }
        | QueryRequest::TopK { event, .. } => {
            shards[route(event, shards.len())].dispatch(request, scratch)
        }
        QueryRequest::BurstyEvents { t, theta, tau, strategy } => {
            let (hits, stats) = fan_out(shards, |shard| {
                shard.bursty_events_with_reusing(t, theta, tau, strategy, scratch)
            })?;
            Ok(QueryResponse::BurstyEvents { hits, stats })
        }
    }
}

/// The one bursty-event fan-out: runs `query` on every shard in routing
/// order, keeps each shard's hits on the events it owns (a shard's sketch
/// can only over-count, so it may report collision ghosts for ids it never
/// saw), sums the stats, and merges. A single shard owns every id
/// (`route(_, 1) == 0`), so the plain layout needs no special case.
fn fan_out(
    shards: &[BurstDetector],
    mut query: impl FnMut(&BurstDetector) -> EventSetAnswer,
) -> EventSetAnswer {
    let n = shards.len();
    let mut merged: Vec<BurstyEventHit> = Vec::new();
    let mut stats = QueryStats::default();
    for (i, shard) in shards.iter().enumerate() {
        let (hits, s) = query(shard)?;
        stats.point_queries += s.point_queries;
        stats.pruned_subtrees += s.pruned_subtrees;
        stats.leaves_probed += s.leaves_probed;
        merged.extend(hits.into_iter().filter(|h| route(h.event, n) == i));
    }
    merge_hits(&mut merged);
    Ok((merged, stats))
}

/// Canonical cross-shard hit merge: dedup by event (keeping the larger
/// estimate), then order by descending burstiness with event id as the
/// tiebreak, so every layout produces identical answer ordering.
fn merge_hits(merged: &mut Vec<BurstyEventHit>) {
    merged.sort_by(|a, b| {
        a.event
            .cmp(&b.event)
            .then(b.burstiness.partial_cmp(&a.burstiness).expect("finite estimates"))
    });
    merged.dedup_by_key(|h| h.event);
    merged.sort_by(|a, b| {
        b.burstiness
            .partial_cmp(&a.burstiness)
            .expect("finite estimates")
            .then(a.event.cmp(&b.event))
    });
}

/// N hash-partitioned [`BurstDetector`]s that ingest in parallel and
/// answer every query a single detector does, with identical per-event
/// semantics.
///
/// ```
/// use bed_core::{BurstDetector, PbeVariant, ShardedDetector};
/// use bed_stream::{BurstSpan, EventId, Timestamp};
///
/// // Same configuration as the unsharded crate example, split 4 ways.
/// let mut det = BurstDetector::builder()
///     .universe(3)
///     .variant(PbeVariant::pbe2(2.0))
///     .accuracy(0.01, 0.05)
///     .seed(42)
///     .shards(4)
///     .build()
///     .unwrap();
///
/// let mut batch = Vec::new();
/// for t in 0..50u64 {
///     batch.push((EventId(0), Timestamp(t)));                  // steady
///     if t >= 40 {
///         for _ in 0..8 { batch.push((EventId(1), Timestamp(t))); } // burst
///     }
/// }
/// det.ingest_batch(&batch).unwrap();
/// det.finalize();
///
/// let tau = BurstSpan::new(10).unwrap();
/// let b1 = det.point_query(EventId(1), Timestamp(49), tau);
/// let b0 = det.point_query(EventId(0), Timestamp(49), tau);
/// assert!(b1 > 40.0 && b0.abs() < 5.0);
///
/// let (hits, _) = det
///     .bursty_events_with(Timestamp(49), 40.0, tau, bed_core::QueryStrategy::Pruned)
///     .unwrap();
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].event, EventId(1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDetector {
    shards: Vec<BurstDetector>,
    last_ts: Option<Timestamp>,
    metrics: ShardMetrics,
}

/// Builder for [`ShardedDetector`], reached via
/// [`crate::BurstDetectorBuilder::shards`]: configure the detector there,
/// then split it.
#[derive(Debug, Clone)]
pub struct ShardedDetectorBuilder {
    pub(crate) config: DetectorConfig,
    pub(crate) shards: usize,
}

impl ShardedDetector {
    /// Builds `n` identically-configured shards from one configuration.
    pub fn from_config(config: DetectorConfig, n: usize) -> Result<Self, BedError> {
        if n == 0 {
            return Err(BedError::InvalidShardCount { got: 0 });
        }
        if config.universe.is_none() {
            return Err(BedError::WrongMode {
                operation: "ShardedDetector::build",
                built_for: "a single event stream (sharding partitions a universe; \
                            set .universe(k))",
            });
        }
        let shards =
            (0..n).map(|_| BurstDetector::from_config(config)).collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedDetector { shards, last_ts: None, metrics: ShardMetrics::new() })
    }

    /// The per-shard configuration (identical across shards).
    pub fn config(&self) -> &DetectorConfig {
        self.shards[0].config()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `event`.
    pub fn owner(&self, event: EventId) -> usize {
        route(event, self.shards.len())
    }

    /// Read-only access to one shard (diagnostics and tests).
    pub fn shard(&self, index: usize) -> &BurstDetector {
        &self.shards[index]
    }

    fn universe(&self) -> u32 {
        self.config().universe.expect("sharded detectors always have a universe")
    }

    /// Validates a batch against the universe and global timestamp order,
    /// returning the batch's last timestamp. Nothing is ingested on error,
    /// so a failed batch leaves the detector untouched.
    fn validate_batch(
        &self,
        batch: &[(EventId, Timestamp)],
    ) -> Result<Option<Timestamp>, BedError> {
        let k = self.universe();
        let mut prev = self.last_ts;
        for &(event, ts) in batch {
            if event.value() >= k {
                return Err(
                    StreamError::EventOutOfUniverse { event: event.value(), universe: k }.into()
                );
            }
            if let Some(p) = prev {
                if ts < p {
                    return Err(
                        StreamError::NonMonotonicTimestamp { previous: p, offered: ts }.into()
                    );
                }
            }
            prev = Some(ts);
        }
        Ok(prev)
    }

    /// Records one arrival of `event` at `ts` on its owning shard.
    pub fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        self.validate_batch(std::slice::from_ref(&(event, ts)))?;
        let owner = self.owner(event);
        self.shards[owner].ingest(event, ts)?;
        self.last_ts = Some(ts);
        Ok(())
    }

    /// Records a whole batch, fanning shards out over scoped threads.
    ///
    /// The batch must be non-decreasing in time and continue from where
    /// the last ingest left off, exactly like repeated [`Self::ingest`]
    /// calls; validation happens up front so a failed batch is ingested
    /// either fully or not at all. Per-shard order equals arrival order
    /// because partitioning is a stable single pass.
    pub fn ingest_batch(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        let started = self.metrics.batch_begin(batch.len());
        let result = self.ingest_batch_inner(batch);
        self.metrics.batch_end(started);
        result
    }

    fn ingest_batch_inner(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        let last = self.validate_batch(batch)?;
        let n = self.shards.len();
        if n == 1 || batch.len() < PARALLEL_MIN_BATCH {
            for &(event, ts) in batch {
                let owner = route(event, n);
                self.shards[owner].ingest(event, ts)?;
            }
        } else {
            let mut parts: Vec<Vec<(EventId, Timestamp)>> =
                (0..n).map(|_| Vec::with_capacity(batch.len() / n + 1)).collect();
            for &(event, ts) in batch {
                parts[route(event, n)].push((event, ts));
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(&parts)
                    .map(|(shard, part)| {
                        scope.spawn(move || -> Result<(), BedError> {
                            for &(event, ts) in part {
                                shard.ingest(event, ts)?;
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("shard ingest worker panicked"))
            })?;
        }
        if last.is_some() {
            self.last_ts = last;
        }
        Ok(())
    }

    /// Flushes internal buffering on every shard (in parallel).
    pub fn finalize(&mut self) {
        if self.shards.len() == 1 {
            self.shards[0].finalize();
            return;
        }
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                scope.spawn(|| shard.finalize());
            }
        });
    }

    /// POINT QUERY `q(e, t, τ)`: routed to the owning shard.
    pub fn point_query(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> f64 {
        self.shards[self.owner(event)].point_query(event, t, tau)
    }

    /// Estimated cumulative frequency `F̃_e(t)`: routed to the owning shard.
    pub fn cumulative_frequency(&self, event: EventId, t: Timestamp) -> f64 {
        self.shards[self.owner(event)].cumulative_frequency(event, t)
    }

    /// Estimated incoming rate `b̃f_e(t)`: routed to the owning shard.
    pub fn burst_frequency(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> f64 {
        self.shards[self.owner(event)].burst_frequency(event, t, tau)
    }

    /// BURSTY TIME QUERY `q(e, θ, τ)`: routed to the owning shard.
    pub fn bursty_times(
        &self,
        event: EventId,
        theta: f64,
        tau: BurstSpan,
        horizon: Timestamp,
    ) -> Vec<(Timestamp, f64)> {
        self.shards[self.owner(event)].bursty_times(event, theta, tau, horizon)
    }

    /// Burstiness time series of one event: routed to the owning shard.
    pub fn burstiness_series(
        &self,
        event: EventId,
        tau: BurstSpan,
        range: TimeRange,
        step: u64,
    ) -> Vec<(Timestamp, f64)> {
        self.shards[self.owner(event)].burstiness_series(event, tau, range, step)
    }

    /// The `k` most bursty instants of one event: routed to the owner.
    pub fn top_bursts(
        &self,
        event: EventId,
        k: usize,
        tau: BurstSpan,
        horizon: Timestamp,
    ) -> Vec<(Timestamp, f64)> {
        self.shards[self.owner(event)].top_bursts(event, k, tau, horizon)
    }

    /// BURSTY EVENT QUERY `q(t, θ, τ)`: each shard searches with the given
    /// `strategy`, hits are merged across shards (see the module docs for
    /// the [`QueryStrategy::Pruned`] caveat).
    ///
    /// Hits are sorted by descending burstiness, ties by event id; stats
    /// are summed over shards.
    pub fn bursty_events_with(
        &self,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
        strategy: QueryStrategy,
    ) -> Result<(Vec<BurstyEventHit>, QueryStats), BedError> {
        fan_out(&self.shards, |shard| shard.bursty_events_with(t, theta, tau, strategy))
    }

    /// BURSTY EVENT QUERY restricted to event ids `[lo, hi)`, merged
    /// across shards.
    pub fn bursty_events_in_range_with(
        &self,
        lo: u32,
        hi: u32,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
        strategy: QueryStrategy,
    ) -> Result<(Vec<BurstyEventHit>, QueryStats), BedError> {
        fan_out(&self.shards, |shard| {
            shard.bursty_events_in_range_with(lo, hi, t, theta, tau, strategy)
        })
    }

    /// Elements ingested so far, across all shards.
    pub fn arrivals(&self) -> u64 {
        self.shards.iter().map(BurstDetector::arrivals).sum()
    }

    /// Timestamp of the most recent arrival on any shard (`None` before
    /// the first).
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.last_ts
    }

    /// The recovery watermark: how far the stream had been consumed when
    /// this state was captured (see [`crate::checkpoint`]).
    pub fn watermark(&self) -> crate::checkpoint::Watermark {
        crate::checkpoint::Watermark { arrivals: self.arrivals(), last_ts: self.last_ts }
    }

    /// Current summary size in bytes, across all shards.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(BurstDetector::size_bytes).sum()
    }

    /// Resident bytes of the struct-of-arrays probe banks across all
    /// shards (see [`BurstDetector::soa_bank_bytes`]).
    pub fn soa_bank_bytes(&self) -> usize {
        self.shards.iter().map(BurstDetector::soa_bank_bytes).sum()
    }

    /// Captures a [`MetricsSnapshot`] rolling every shard up: counters and
    /// histograms are summed across shards (the facade's query families
    /// included), and per-shard `shard.<i>.{arrivals,bytes}`
    /// gauges plus `shard.count` are refreshed first.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.set_gauge("shard.count", self.shards.len() as f64);
        for (i, shard) in self.shards.iter().enumerate() {
            self.metrics.set_gauge(&format!("shard.{i}.arrivals"), shard.arrivals() as f64);
            self.metrics.set_gauge(&format!("shard.{i}.bytes"), shard.size_bytes() as f64);
        }
        let mut merged = self.metrics.snapshot();
        for shard in &self.shards {
            merged = merged.merge(&shard.metrics());
        }
        merged
    }
}

impl BurstQueries for ShardedDetector {
    fn query(&self, request: &QueryRequest) -> Result<QueryResponse, BedError> {
        let mut scratch = bed_sketch::QueryScratch::new();
        self.query_reusing(request, &mut scratch)
    }

    /// The facade counts and traces every query once; the shards'
    /// kernels accumulate stage timings into the armed scratch, harvested
    /// under the facade's root span.
    fn query_reusing(
        &self,
        request: &QueryRequest,
        scratch: &mut bed_sketch::QueryScratch,
    ) -> Result<QueryResponse, BedError> {
        crate::observe::run_query(&self.metrics.queries, request, scratch, |scratch| {
            dispatch(&self.shards, request, scratch)
        })
    }

    fn arrivals(&self) -> u64 {
        ShardedDetector::arrivals(self)
    }

    fn size_bytes(&self) -> usize {
        ShardedDetector::size_bytes(self)
    }

    fn config(&self) -> &DetectorConfig {
        ShardedDetector::config(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedDetector::metrics(self)
    }
}

impl Traceable for ShardedDetector {
    /// Installs the tracer on the **facade only**: the facade opens every
    /// query's root span, and the shards answer through their
    /// uninstrumented dispatch.
    fn set_tracer(&mut self, tracer: std::sync::Arc<Tracer>) {
        self.metrics.queries.set_tracer(tracer);
    }

    fn tracer(&self) -> &std::sync::Arc<Tracer> {
        self.metrics.queries.tracer()
    }
}

impl ShardedDetectorBuilder {
    /// Sets the shard count.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Builds the sharded detector.
    pub fn build(self) -> Result<ShardedDetector, BedError> {
        ShardedDetector::from_config(self.config, self.shards)
    }
}

/// Persistence (format `BEDS` v1): shard count, global clock, then each
/// shard's full `BEDD` record. A decoded detector keeps ingesting and
/// routes queries identically because the hash partition depends only on
/// the shard count.
impl bed_stream::Codec for ShardedDetector {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        w.magic(*b"BEDS");
        w.version(1);
        w.u32(self.shards.len() as u32);
        match self.last_ts {
            Some(t) => {
                w.u8(1);
                t.encode(w);
            }
            None => w.u8(0),
        }
        for shard in &self.shards {
            shard.encode(w);
        }
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        r.magic(*b"BEDS")?;
        r.version(1)?;
        let n = r.u32("shard count")? as usize;
        if n == 0 {
            return Err(CodecError::Invalid { context: "shard count" });
        }
        let last_ts = match r.u8("sharded last_ts flag")? {
            0 => None,
            1 => Some(Timestamp::decode(r)?),
            _ => return Err(CodecError::Invalid { context: "sharded last_ts flag" }),
        };
        let shards = (0..n).map(|_| BurstDetector::decode(r)).collect::<Result<Vec<_>, _>>()?;
        if shards.iter().any(|s| s.config().universe.is_none()) {
            return Err(CodecError::Invalid { context: "sharded shard mode" });
        }
        // Like BEDD, metrics restart on decode (runtime-only).
        Ok(ShardedDetector { shards, last_ts, metrics: ShardMetrics::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbeVariant;
    use bed_stream::Codec;

    fn fixture_batch() -> Vec<(EventId, Timestamp)> {
        let mut batch = Vec::new();
        for t in 0..100u64 {
            batch.push((EventId(0), Timestamp(t)));
            batch.push((EventId(3), Timestamp(t)));
            if t >= 90 {
                for _ in 0..10 {
                    batch.push((EventId(5), Timestamp(t)));
                }
            }
        }
        batch
    }

    fn sharded(n: usize) -> ShardedDetector {
        BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .seed(3)
            .shards(n)
            .build()
            .unwrap()
    }

    #[test]
    fn build_rejects_zero_shards_and_single_event_mode() {
        assert!(matches!(
            BurstDetector::builder().universe(4).shards(0).build(),
            Err(BedError::InvalidShardCount { got: 0 })
        ));
        assert!(matches!(
            BurstDetector::builder().shards(2).build(),
            Err(BedError::WrongMode { .. })
        ));
    }

    #[test]
    fn routing_is_total_and_stable() {
        let det = sharded(3);
        for e in 0..8u32 {
            let owner = det.owner(EventId(e));
            assert!(owner < 3);
            assert_eq!(owner, det.owner(EventId(e)), "stable routing");
        }
    }

    #[test]
    fn batch_and_single_ingest_agree() {
        let batch = fixture_batch();
        let mut a = sharded(4);
        a.ingest_batch(&batch).unwrap();
        a.finalize();
        let mut b = sharded(4);
        for &(e, t) in &batch {
            b.ingest(e, t).unwrap();
        }
        b.finalize();
        let tau = BurstSpan::new(10).unwrap();
        for e in 0..8u32 {
            for t in [0u64, 50, 95, 99, 150] {
                assert_eq!(
                    a.point_query(EventId(e), Timestamp(t), tau).to_bits(),
                    b.point_query(EventId(e), Timestamp(t), tau).to_bits(),
                    "e={e} t={t}"
                );
            }
        }
        assert_eq!(a.arrivals(), b.arrivals());
    }

    #[test]
    fn finds_the_bursting_event() {
        let mut det = sharded(4);
        det.ingest_batch(&fixture_batch()).unwrap();
        det.finalize();
        let tau = BurstSpan::new(10).unwrap();
        let (hits, stats) =
            det.bursty_events_with(Timestamp(99), 50.0, tau, QueryStrategy::Pruned).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].event, EventId(5));
        assert!(stats.point_queries > 0);
        let (scan_hits, _) =
            det.bursty_events_with(Timestamp(99), 50.0, tau, QueryStrategy::ExactScan).unwrap();
        assert_eq!(scan_hits.len(), 1);
        assert_eq!(scan_hits[0].event, EventId(5));
    }

    #[test]
    fn facade_counts_bursty_event_queries_once() {
        let mut det = sharded(3);
        det.ingest_batch(&fixture_batch()).unwrap();
        det.finalize();
        let tau = BurstSpan::new(10).unwrap();
        let req = QueryRequest::BurstyEvents {
            t: Timestamp(99),
            theta: 50.0,
            tau,
            strategy: QueryStrategy::Pruned,
        };
        let count = |det: &ShardedDetector| det.metrics().counter("query.bursty_events.count");
        let mut probes = 0u64;
        for expected in 1..=3u64 {
            let response = det.query(&req).unwrap();
            let QueryResponse::BurstyEvents { stats, .. } = response else { unreachable!() };
            probes += stats.point_queries as u64;
            assert_eq!(count(&det), Some(expected), "one count per fan-out, not per shard");
        }
        // the facade reads the merged answer's stats once; shards add none
        assert!(probes > 0);
        assert_eq!(det.metrics().counter("query.stats.point_queries"), Some(probes));
        // per-event kinds route to one shard and are counted once too
        det.query(&QueryRequest::Point { event: EventId(5), t: Timestamp(99), tau }).unwrap();
        assert_eq!(det.metrics().counter("query.point.count"), Some(1));
    }

    #[test]
    fn failed_batch_is_all_or_nothing() {
        let mut det = sharded(2);
        det.ingest_batch(&[(EventId(0), Timestamp(10))]).unwrap();
        // second element violates monotonicity → nothing lands
        let err = det.ingest_batch(&[(EventId(1), Timestamp(11)), (EventId(2), Timestamp(5))]);
        assert!(err.is_err());
        assert_eq!(det.arrivals(), 1);
        // out-of-universe is caught up front too
        assert!(det.ingest_batch(&[(EventId(99), Timestamp(12))]).is_err());
        assert_eq!(det.arrivals(), 1);
        // and the clock did not advance past the failed batch
        det.ingest_batch(&[(EventId(1), Timestamp(10))]).unwrap();
    }

    #[test]
    fn codec_roundtrip_preserves_answers() {
        let mut det = sharded(3);
        det.ingest_batch(&fixture_batch()).unwrap();
        det.finalize();
        let bytes = det.to_bytes();
        let back = ShardedDetector::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_shards(), 3);
        assert_eq!(back.arrivals(), det.arrivals());
        let tau = BurstSpan::new(10).unwrap();
        for e in 0..8u32 {
            assert_eq!(
                back.point_query(EventId(e), Timestamp(99), tau).to_bits(),
                det.point_query(EventId(e), Timestamp(99), tau).to_bits()
            );
        }
        // decoded detectors keep ingesting with the clock intact
        let mut back = back;
        assert!(back.ingest(EventId(0), Timestamp(0)).is_err(), "clock survives decode");
        back.ingest(EventId(0), Timestamp(200)).unwrap();
    }

    #[test]
    fn large_batches_cross_the_parallel_threshold() {
        let mut det = sharded(4);
        let mut batch = Vec::new();
        for t in 0..2_000u64 {
            batch.push((EventId((t % 8) as u32), Timestamp(t)));
        }
        assert!(batch.len() >= super::PARALLEL_MIN_BATCH);
        det.ingest_batch(&batch).unwrap();
        det.finalize();
        assert_eq!(det.arrivals(), 2_000);
    }
}
