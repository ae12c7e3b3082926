//! Epoch-snapshot publishing: wait-free concurrent reads against a live
//! ingest.
//!
//! The detectors are single-writer structures — every query method takes
//! `&self` but answers from state a concurrent `ingest` would be mutating,
//! so a serving front-end previously had to route *both* sides through one
//! `Mutex`, stalling queries behind ingest and vice versa. This module
//! decouples them with a seqlock/RCU-style generation scheme:
//!
//! * A writer periodically **publishes** an immutable, finalized clone of
//!   its detector into a [`SnapshotCell`], at a cadence borrowed from the
//!   checkpoint machinery ([`EpochPublisher`] wraps a
//!   [`CheckpointPolicy`]). Publishing clones the detector *outside* any
//!   reader-visible critical section, bumps the cell's generation counter
//!   with `Release` ordering, and never waits for readers.
//! * A reader holds an [`EpochReader`] caching the last loaded epoch. Its
//!   hot path is one `Acquire` load of the generation counter: if nothing
//!   new was published, the cached [`Epoch`] answers — **zero locks, zero
//!   allocation**. Only when the generation moved does the reader copy the
//!   new epoch handle (an `Arc` clone — still allocation-free) out of a
//!   slot ring.
//! * [`DetectorEpochs`] owns **one cell per layout**: each generation holds
//!   a finalized clone of every shard (one clone for the plain layout), so
//!   a generation is complete the moment it is visible. [`EpochView`]
//!   implements [`BurstQueries`] on top, so the serving layer can answer
//!   all five canonical query kinds from the latest published epoch while
//!   ingest continues.
//!
//! ## Why readers never block ingest (and effectively never wait)
//!
//! The cell keeps a ring of [`EPOCH_SLOTS`] mutex-guarded slots; the
//! writer stores generation `g` into slot `g % EPOCH_SLOTS` *before* the
//! `Release` store of `g`. A reader that observed generation `g` via the
//! `Acquire` load therefore finds slot `g % EPOCH_SLOTS` fully written
//! (release/acquire ordering), and the writer publishing `g + 1` locks a
//! *different* slot. Before it builds generation `g + EPOCH_SLOTS`, the
//! writer empties that slot, freeing generation `g` (so a publish never
//! holds `EPOCH_SLOTS` retained generations beside the one it builds). A
//! reader is therefore lapped after `EPOCH_SLOTS − 1` newer generations,
//! as soon as the writer begins the next one: the slot's embedded
//! generation no longer matches, and the reader retries against the
//! newest generation (counted in `epoch.reader_retries`) — the classic
//! seqlock validate-and-retry, built from `Mutex` slots instead of raw
//! pointer flips because `bed-core` forbids `unsafe`. The writer never
//! blocks either way: it holds a slot lock only to take or store an
//! `Arc`, never while it builds, and no reader parks on a slot unless it
//! is already lapped.
//!
//! Bit-for-bit answer stability: ingest is deterministic and `Clone` is a
//! deep copy, so a published epoch at watermark `A` is byte-identical to a
//! freshly built detector fed the first `A` stream elements and finalized
//! — the property the concurrency harness (`tests/concurrent_reads.rs`)
//! pins for every sampled answer.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bed_obs::{MetricsSnapshot, SpanName, Tracer};
use bed_sketch::QueryScratch;

use crate::checkpoint::{AnyDetector, CheckpointPolicy, Watermark};
use crate::config::DetectorConfig;
use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::metrics::{gauge, EpochMetrics};
use crate::query::{BurstQueries, QueryRequest, QueryResponse};
use crate::shard::dispatch;

/// Slots in a [`SnapshotCell`]'s ring. A reader only retries once the
/// writer publishes `EPOCH_SLOTS − 1` generations past the one it chases
/// and begins the next, inside one (tiny) read-side critical section.
pub const EPOCH_SLOTS: usize = 4;

/// One published snapshot: an immutable, finalized detector state plus
/// the stream position it captures.
#[derive(Debug)]
pub struct Epoch<D> {
    /// Publish sequence number (1-based; cells start at generation 0 =
    /// nothing published).
    pub generation: u64,
    /// How far the stream had been consumed when this state was cloned.
    pub watermark: Watermark,
    /// The finalized snapshot, shared by every reader of this generation.
    pub data: Arc<D>,
}

/// Cloning an epoch clones the `Arc` handle (no `D: Clone` needed, no
/// allocation) — the read path depends on this.
impl<D> Clone for Epoch<D> {
    fn clone(&self) -> Self {
        Epoch {
            generation: self.generation,
            watermark: self.watermark,
            data: Arc::clone(&self.data),
        }
    }
}

#[derive(Debug)]
struct Slot<D> {
    /// Generation whose epoch this slot currently holds (0 = empty).
    generation: u64,
    epoch: Option<Epoch<D>>,
}

/// A single-writer, many-reader publication point for [`Epoch`]s.
///
/// See the [module docs](crate::epoch) for the protocol and its ordering
/// argument. The cell is generic so the scheduler-driven protocol tests
/// can publish trivial payloads; detectors use
/// [`DetectorEpochs`], which publishes every shard in one cell.
#[derive(Debug)]
pub struct SnapshotCell<D> {
    /// Latest published generation; the `Release` store here is what makes
    /// a fully written slot visible to `Acquire` readers.
    generation: AtomicU64,
    slots: [Mutex<Slot<D>>; EPOCH_SLOTS],
    /// Reader retries caused by the writer lapping a slot (seqlock
    /// validate failure). Relaxed: a diagnostic counter, not an ordering
    /// participant.
    retries: AtomicU64,
}

impl<D> SnapshotCell<D> {
    /// An empty cell (generation 0, no epoch).
    pub fn new() -> Self {
        SnapshotCell {
            generation: AtomicU64::new(0),
            slots: std::array::from_fn(|_| Mutex::new(Slot { generation: 0, epoch: None })),
            retries: AtomicU64::new(0),
        }
    }

    /// The latest published generation (0 until the first publish).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes `build()` as the next generation and returns it. Single
    /// writer assumed (the cell is owned by one [`DetectorEpochs`], whose
    /// publisher is `&mut`-gated); readers are never blocked and never see
    /// a half-written epoch.
    ///
    /// The slot the new generation will take is emptied *before* `build`
    /// runs, so the oldest retained generation is freed (unless a reader
    /// still caches it) before its successor is allocated.
    pub fn publish(&self, watermark: Watermark, build: impl FnOnce() -> D) -> u64 {
        let next = self.generation.load(Ordering::Relaxed) + 1;
        let slot = &self.slots[next as usize % EPOCH_SLOTS];
        let retired = {
            let mut slot = slot.lock().expect("slot lock");
            slot.generation = 0;
            slot.epoch.take()
        };
        drop(retired);
        let data = Arc::new(build());
        *slot.lock().expect("slot lock") =
            Slot { generation: next, epoch: Some(Epoch { generation: next, watermark, data }) };
        self.generation.store(next, Ordering::Release);
        next
    }

    /// Cumulative reader retries on this cell (writer lapped a slot).
    pub fn reader_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl<D> Default for SnapshotCell<D> {
    fn default() -> Self {
        SnapshotCell::new()
    }
}

/// A protocol step of [`EpochReader::refresh_with`], exposed so a
/// deterministic scheduler (the `schedule` compat crate) can interleave
/// publishes at every read-side yield point.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStep {
    /// About to `Acquire`-load the published generation counter.
    LoadGeneration,
    /// About to lock the slot holding generation `.0`.
    LockSlot(u64),
    /// Locked the slot expecting `expected` but found `found` (the writer
    /// lapped); the reader will retry.
    Validate {
        /// Generation the reader was chasing.
        expected: u64,
        /// Generation actually resident in the slot.
        found: u64,
    },
}

/// Read-side cursor over one [`SnapshotCell`]: caches the last loaded
/// epoch so repeated reads of an unchanged cell are one atomic load.
#[derive(Debug)]
pub struct EpochReader<D> {
    generation: u64,
    epoch: Option<Epoch<D>>,
}

impl<D> EpochReader<D> {
    /// A cursor that has seen nothing yet.
    pub fn new() -> Self {
        EpochReader { generation: 0, epoch: None }
    }

    /// Loads the latest epoch from `cell` if it moved; returns whether the
    /// cached epoch changed. Fast path (unchanged generation) is a single
    /// `Acquire` load — no lock, no allocation. The slow path is also
    /// allocation-free: it copies an `Arc` handle out of a locked slot.
    #[inline]
    pub fn refresh(&mut self, cell: &SnapshotCell<D>) -> bool {
        self.refresh_with(cell, &mut |_| {})
    }

    /// [`Self::refresh`] with a hook invoked before every protocol step —
    /// the seam the schedule-permuter tests drive to force (and count)
    /// the seqlock retry path deterministically. `refresh` is this with a
    /// no-op hook, so the tested protocol *is* the production protocol.
    #[doc(hidden)]
    pub fn refresh_with(
        &mut self,
        cell: &SnapshotCell<D>,
        hook: &mut impl FnMut(ReadStep),
    ) -> bool {
        hook(ReadStep::LoadGeneration);
        let mut g = cell.generation.load(Ordering::Acquire);
        if g == self.generation {
            return false;
        }
        loop {
            hook(ReadStep::LockSlot(g));
            let found = {
                let slot = cell.slots[g as usize % EPOCH_SLOTS].lock().expect("slot lock");
                if slot.generation == g {
                    // Cloning an `Epoch` clones an `Arc` + copies two
                    // words — the read path never allocates.
                    self.epoch.clone_from(&slot.epoch);
                    self.generation = g;
                    return true;
                }
                slot.generation
            };
            hook(ReadStep::Validate { expected: g, found });
            cell.retries.fetch_add(1, Ordering::Relaxed);
            hook(ReadStep::LoadGeneration);
            g = cell.generation.load(Ordering::Acquire);
        }
    }

    /// The cached epoch (`None` until the first refresh of a published
    /// cell).
    pub fn current(&self) -> Option<&Epoch<D>> {
        self.epoch.as_ref()
    }
}

impl<D> Default for EpochReader<D> {
    fn default() -> Self {
        EpochReader::new()
    }
}

/// The epoch publication surface of one [`AnyDetector`]: one
/// [`SnapshotCell`] whose every generation holds a finalized clone of each
/// shard (a single clone for the plain layout), all under one global
/// watermark.
#[derive(Debug)]
pub struct DetectorEpochs {
    config: DetectorConfig,
    cell: SnapshotCell<Vec<BurstDetector>>,
    /// Publish metrics plus the instrumentation of every query the views
    /// answer (scraped with the rest of `/metrics`).
    metrics: EpochMetrics,
}

impl DetectorEpochs {
    /// Epochs for `det`'s layout, with `det`'s current state published as
    /// generation 1 — views always find an epoch to answer from.
    pub fn new(det: &AnyDetector) -> Self {
        let epochs = Self::new_unpublished(det);
        epochs.publish(det);
        epochs
    }

    /// Epochs for `det`'s layout with **nothing published yet**
    /// (generation 0). Lets a server expose readiness truthfully: views
    /// must not be queried until the first (genesis) publish — gate on
    /// [`DetectorEpochs::generation`]` > 0`, which turns positive only
    /// once every shard of the genesis epoch is visible.
    pub fn new_unpublished(det: &AnyDetector) -> Self {
        DetectorEpochs {
            config: *det.config(),
            cell: SnapshotCell::new(),
            metrics: EpochMetrics::default(),
        }
    }

    /// Installs a tracer. Queries answered through the views open their
    /// sampled root spans on it; publish spans bypass the sampler
    /// (`start_always`) because publishing is rare and heavyweight.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.metrics.queries.set_tracer(tracer);
    }

    /// Publishes finalized clones of `det`'s current state — one per
    /// shard, all in one generation under one global watermark — and
    /// returns that watermark.
    ///
    /// The caller must hold `det` stable for the duration (it is the
    /// single writer); readers are never blocked. The live detector is
    /// *not* finalized: only the clones are, so ingest continues
    /// untouched.
    pub fn publish(&self, det: &AnyDetector) -> Watermark {
        let trace = self.metrics.queries.tracer().start_always(SpanName::EPOCH_PUBLISH);
        let started = std::time::Instant::now();
        let watermark = det.watermark();
        let finalized = |d: &BurstDetector| {
            let mut clone = d.clone();
            clone.finalize();
            clone
        };
        let generation = self.cell.publish(watermark, || match det {
            AnyDetector::Plain(d) => vec![finalized(d)],
            AnyDetector::Sharded(d) => (0..d.num_shards()).map(|i| finalized(d.shard(i))).collect(),
        });
        self.metrics.published(started.elapsed());
        if let Some(trace) = trace {
            trace.finish(move || {
                format!("epoch publish generation={generation} arrivals={}", watermark.arrivals)
            });
        }
        watermark
    }

    /// The latest published generation (0 before genesis). Every shard of
    /// that generation is visible once this returns it.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// The latest published epoch (`None` before genesis), read through a
    /// throwaway cursor.
    fn latest(&self) -> Option<Epoch<Vec<BurstDetector>>> {
        let mut r = EpochReader::new();
        r.refresh(&self.cell);
        r.epoch
    }

    /// The ingest-side staleness gauges against the live detector's
    /// watermark: `epoch.age_ticks` (ticks the live stream has advanced
    /// past the published epoch) and `epoch.lag_arrivals` (arrivals not
    /// yet visible to readers). Cold path — merge it into a scrape next to
    /// [`Self::metrics`]. Before genesis only the lag is defined.
    pub fn staleness(&self, live: Watermark) -> MetricsSnapshot {
        let Some(published) = self.latest().map(|e| e.watermark) else {
            return MetricsSnapshot::from_entries([gauge(
                "epoch.lag_arrivals",
                live.arrivals as f64,
            )]);
        };
        let age_ticks = match (live.last_ts, published.last_ts) {
            (Some(l), Some(p)) => l.ticks().saturating_sub(p.ticks()),
            _ => 0,
        };
        MetricsSnapshot::from_entries([
            gauge("epoch.age_ticks", age_ticks as f64),
            gauge("epoch.lag_arrivals", live.arrivals.saturating_sub(published.arrivals) as f64),
        ])
    }

    /// Total resident bytes of the published epochs' struct-of-arrays
    /// probe banks. Publishing finalizes each clone, which builds its
    /// bank, so this is non-zero for every grid layout — readers answer
    /// through the vectorized kernels, and operators can see the mirror's
    /// memory cost here.
    pub fn bank_bytes(&self) -> usize {
        self.latest().map_or(0, |e| e.data.iter().map(BurstDetector::soa_bank_bytes).sum())
    }

    /// The configuration the published detectors were built with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// A fresh query view over the latest published epoch. Views are
    /// cheap (one cursor, `EPOCH_SLOTS`-independent) and intended to be
    /// per-thread: each owns its [`QueryScratch`], preserving the
    /// zero-allocation kernel guarantees per reader.
    pub fn view(&self) -> EpochView<'_> {
        EpochView {
            epochs: self,
            reader: RefCell::new(EpochReader::new()),
            scratch: RefCell::new(QueryScratch::new()),
            answered: Cell::new((0, Watermark::default())),
        }
    }

    /// Snapshot of `epoch.*` metrics — the `epoch.published` /
    /// `epoch.reader_retries` counters, publish latency, and an
    /// `epoch.generation` gauge — plus the `query.*` counts and latencies
    /// of every query the views answered.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cell.reader_retries(), self.generation())
    }
}

/// Cadence gate for [`DetectorEpochs::publish`], reusing the
/// [`CheckpointPolicy`] arrival-count machinery: publish once at least
/// `every_arrivals` new arrivals accumulated since the last publish.
#[derive(Debug)]
pub struct EpochPublisher {
    policy: CheckpointPolicy,
    last_arrivals: Option<u64>,
}

impl EpochPublisher {
    /// A publisher gated by `policy`.
    pub fn new(policy: CheckpointPolicy) -> Self {
        EpochPublisher { policy, last_arrivals: None }
    }

    /// Publishes iff the policy says an epoch is due; returns whether one
    /// was published. Cheap when not due (one watermark read) — the hook
    /// ingest loops call per batch, mirroring
    /// [`Checkpointer::maybe_checkpoint`](crate::Checkpointer::maybe_checkpoint).
    pub fn maybe_publish(&mut self, det: &AnyDetector, epochs: &DetectorEpochs) -> bool {
        let arrivals = det.arrivals();
        let due = match self.last_arrivals {
            None => arrivals > 0,
            Some(last) => arrivals.saturating_sub(last) >= self.policy.every_arrivals.max(1),
        };
        if !due {
            return false;
        }
        epochs.publish(det);
        self.last_arrivals = Some(arrivals);
        true
    }
}

/// A per-reader [`BurstQueries`] implementation answering from the latest
/// published epoch of a [`DetectorEpochs`].
///
/// Each query refreshes the view's one cursor and routes over that
/// generation's shards exactly like the live [`crate::ShardedDetector`]
/// (one shared router): per-event kinds to the owning shard, bursty-event
/// kinds fanned out and merged. Every answer records the epoch it came
/// from — [`Self::answer_watermark`] is what the concurrency harness
/// checks against its oracle rebuilds.
#[derive(Debug)]
pub struct EpochView<'a> {
    epochs: &'a DetectorEpochs,
    reader: RefCell<EpochReader<Vec<BurstDetector>>>,
    /// Per-view working memory — one warm scratch per reader thread keeps
    /// the fused kernels allocation-free (interior mutability keeps the
    /// query surface `&self`).
    scratch: RefCell<QueryScratch>,
    /// `(generation, watermark)` of the epoch that answered last.
    answered: Cell<(u64, Watermark)>,
}

impl EpochView<'_> {
    /// Generation of the epoch that answered the last query (0 before the
    /// first answer).
    pub fn answer_generation(&self) -> u64 {
        self.answered.get().0
    }

    /// Watermark of the epoch that answered the last query.
    pub fn answer_watermark(&self) -> Watermark {
        self.answered.get().1
    }

    /// Refreshes the cursor to the latest generation and returns its
    /// watermark (also recorded as the answer epoch). This is the "am I
    /// stale?" probe: after it returns, the view answers from a publish no
    /// older than the newest one completed before the call.
    pub fn refresh_latest(&self) -> Watermark {
        self.with_latest(|epoch| {
            self.answered.set((epoch.generation, epoch.watermark));
            epoch.watermark
        })
    }

    /// Runs `f` on the latest published epoch, refreshing the cursor first.
    fn with_latest<R>(&self, f: impl FnOnce(&Epoch<Vec<BurstDetector>>) -> R) -> R {
        let reader = &mut *self.reader.borrow_mut();
        reader.refresh(&self.epochs.cell);
        f(reader.current().expect("genesis epoch always published"))
    }
}

impl BurstQueries for EpochView<'_> {
    /// Answers from the latest published epoch, reusing the view-owned
    /// scratch (per-thread views keep the hot path allocation-free).
    fn query(&self, request: &QueryRequest) -> Result<QueryResponse, BedError> {
        self.query_reusing(request, &mut self.scratch.borrow_mut())
    }

    /// The view is the outermost layer: it counts and traces the query
    /// into [`DetectorEpochs`]' metrics and tracer.
    fn query_reusing(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryResponse, BedError> {
        crate::observe::run_query(&self.epochs.metrics.queries, request, scratch, |s| {
            self.with_latest(|epoch| {
                let response = dispatch(&epoch.data, request, s)?;
                self.answered.set((epoch.generation, epoch.watermark));
                Ok(response)
            })
        })
    }

    /// Arrivals covered by the latest published epoch (not the live
    /// writer's count).
    fn arrivals(&self) -> u64 {
        self.refresh_latest().arrivals
    }

    fn size_bytes(&self) -> usize {
        self.with_latest(|epoch| epoch.data.iter().map(BurstDetector::size_bytes).sum())
    }

    fn config(&self) -> &DetectorConfig {
        &self.epochs.config
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.epochs.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbeVariant;
    use bed_stream::{BurstSpan, EventId, Timestamp};
    use schedule::{exhaustive, Schedule, ScheduleGen};

    fn plain() -> AnyDetector {
        AnyDetector::Plain(Box::new(
            BurstDetector::builder()
                .universe(8)
                .variant(PbeVariant::pbe2(1.0))
                .accuracy(0.01, 0.05)
                .seed(7)
                .build()
                .unwrap(),
        ))
    }

    fn sharded(n: usize) -> AnyDetector {
        AnyDetector::Sharded(
            BurstDetector::builder()
                .universe(8)
                .variant(PbeVariant::pbe2(1.0))
                .accuracy(0.01, 0.05)
                .seed(7)
                .shards(n)
                .build()
                .unwrap(),
        )
    }

    fn ingest_fixture(det: &mut AnyDetector, upto: u64) {
        for t in 0..upto {
            det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
            if t >= upto.saturating_sub(10) {
                for _ in 0..6 {
                    det.ingest(EventId(2), Timestamp(t)).unwrap();
                }
            }
        }
    }

    #[test]
    fn genesis_epoch_is_published_and_answers() {
        for det in [plain(), sharded(3)] {
            let epochs = DetectorEpochs::new(&det);
            assert_eq!(epochs.generation(), 1);
            let view = epochs.view();
            let tau = BurstSpan::new(10).unwrap();
            let resp = view
                .query(&QueryRequest::Point { event: EventId(1), t: Timestamp(5), tau })
                .unwrap();
            assert_eq!(resp.burstiness(), Some(0.0), "empty detector");
            assert_eq!(view.answer_generation(), 1);
            assert_eq!(view.answer_watermark(), Watermark::default());
        }
    }

    #[test]
    fn published_epoch_equals_oracle_rebuild() {
        for (mut det, mut oracle) in [(plain(), plain()), (sharded(3), sharded(3))] {
            ingest_fixture(&mut det, 100);
            let epochs = DetectorEpochs::new(&det);
            // The live detector keeps ingesting past the publish; the
            // epoch must keep answering from the published state.
            for t in 100..400u64 {
                det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
            }

            ingest_fixture(&mut oracle, 100);
            oracle.finalize();

            let view = epochs.view();
            let tau = BurstSpan::new(10).unwrap();
            for e in 0..8u32 {
                for t in [0u64, 50, 95, 99] {
                    let req = QueryRequest::Point { event: EventId(e), t: Timestamp(t), tau };
                    assert_eq!(
                        view.query(&req).unwrap(),
                        oracle.queries().query(&req).unwrap(),
                        "e={e} t={t}"
                    );
                }
            }
            let req = QueryRequest::BurstyEvents {
                t: Timestamp(99),
                theta: 20.0,
                tau,
                strategy: crate::QueryStrategy::Pruned,
            };
            assert_eq!(view.query(&req).unwrap(), oracle.queries().query(&req).unwrap());
            assert_eq!(view.answer_watermark(), oracle.watermark());
        }
    }

    #[test]
    fn readers_track_publishes_and_cadence_gate_works() {
        let mut det = plain();
        let epochs = DetectorEpochs::new(&det);
        let mut publisher = EpochPublisher::new(CheckpointPolicy { every_arrivals: 50 });
        let view = epochs.view();
        assert_eq!(view.refresh_latest().arrivals, 0);

        for t in 0..120u64 {
            det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
            publisher.maybe_publish(&det, &epochs);
        }
        // Genesis plus the gate's publishes at arrivals 1 (first due), 51, 101.
        assert_eq!(epochs.metrics().counter("epoch.published"), Some(4));
        assert_eq!(view.refresh_latest().arrivals, 101);
        // Nothing new published → refresh is a no-op at the same epoch.
        assert_eq!(view.refresh_latest().arrivals, 101);
        epochs.publish(&det);
        assert_eq!(view.refresh_latest().arrivals, 120);
    }

    #[test]
    fn epoch_metrics_surface_published_and_retries() {
        let det = plain();
        let epochs = DetectorEpochs::new(&det);
        epochs.publish(&det);
        let snap = epochs.metrics();
        assert_eq!(snap.get("epoch.published"), Some(&bed_obs::MetricValue::Counter(2)));
        assert_eq!(snap.get("epoch.reader_retries"), Some(&bed_obs::MetricValue::Counter(0)));
        assert!(
            matches!(snap.get("epoch.generation"), Some(bed_obs::MetricValue::Gauge(g)) if *g == 2.0)
        );
        assert!(matches!(
            snap.get("epoch.publish.latency_ns"),
            Some(bed_obs::MetricValue::Histogram(_))
        ));
    }

    #[test]
    fn staleness_reads_the_live_watermark_against_the_published_epoch() {
        let mut det = plain();
        let epochs = DetectorEpochs::new_unpublished(&det);
        for t in 0..10u64 {
            det.ingest(EventId(1), Timestamp(t * 5)).unwrap();
        }
        // Before genesis only the lag is defined: no arrival is visible.
        let snap = epochs.staleness(det.watermark());
        assert_eq!(snap.gauge("epoch.lag_arrivals"), Some(10.0));
        assert_eq!(snap.gauge("epoch.age_ticks"), None);

        epochs.publish(&det);
        for t in 10..13u64 {
            det.ingest(EventId(1), Timestamp(t * 5)).unwrap();
        }
        let snap = epochs.staleness(det.watermark());
        assert_eq!(snap.gauge("epoch.lag_arrivals"), Some(3.0));
        assert_eq!(snap.gauge("epoch.age_ticks"), Some(60.0 - 45.0));
        // The staleness gauges belong to the scrape, not to `metrics()`.
        assert_eq!(epochs.metrics().gauge("epoch.lag_arrivals"), None);
    }

    #[test]
    fn publish_frees_the_slot_it_takes_before_building() {
        let cell = SnapshotCell::new();
        let wm = Watermark::default();
        cell.publish(wm, || 1u64);
        let first = {
            let mut reader = EpochReader::new();
            reader.refresh(&cell);
            Arc::downgrade(&reader.current().unwrap().data)
        };
        for g in 2..=EPOCH_SLOTS as u64 {
            cell.publish(wm, || g);
        }
        assert!(first.upgrade().is_some(), "generation 1 is still retained");
        cell.publish(wm, || {
            assert!(first.upgrade().is_none(), "generation 1 outlived the build of its successor");
            EPOCH_SLOTS as u64 + 1
        });
    }

    // ---- schedule-permuter coverage of the seqlock protocol ----------

    /// Drives one instrumented refresh under `schedule`, injecting
    /// `schedule.next()` publishes at every protocol yield point. Returns
    /// whether the retry path fired. `published` tracks the single
    /// writer's count so payloads can encode their own generation.
    fn run_schedule(
        cell: &SnapshotCell<u64>,
        reader: &mut EpochReader<u64>,
        published: &mut u64,
        schedule: &mut Schedule,
    ) -> bool {
        let retries_before = cell.reader_retries();
        let publish_n = |n: usize, published: &mut u64| {
            for _ in 0..n {
                *published += 1;
                let wm = Watermark { arrivals: *published, last_ts: None };
                assert_eq!(cell.publish(wm, || *published), *published);
            }
        };
        publish_n(schedule.next(), published);
        reader.refresh_with(cell, &mut |_step| {
            publish_n(schedule.next(), published);
        });
        // Protocol invariants, checked after *every* interleaving:
        // the loaded epoch is internally consistent (never torn) ...
        if let Some(epoch) = reader.current() {
            assert_eq!(*epoch.data, epoch.generation, "torn epoch payload");
            assert_eq!(epoch.watermark.arrivals, epoch.generation, "torn watermark");
            assert!(epoch.generation <= *published, "read an unpublished generation");
        } else {
            assert_eq!(*published, 0, "published epochs must be visible");
        }
        cell.reader_retries() > retries_before
    }

    #[test]
    fn exhaustive_small_schedules_cover_the_retry_path() {
        // Yield points per refresh: LoadGeneration, then per loop
        // iteration LockSlot (+ Validate, LoadGeneration on retry). Up to
        // 5 injected publishes per step forces multi-lap retries
        // (EPOCH_SLOTS = 4, so ≥4 publishes between load and lock lap the
        // slot). 6^4 = 1296 schedules, exhaustively enumerated.
        let mut retried = 0u32;
        let mut total = 0u32;
        for mut schedule in exhaustive(5, 4) {
            let cell = SnapshotCell::new();
            let mut reader = EpochReader::new();
            let mut published = 0u64;
            // Refresh twice per schedule so cached-generation fast paths
            // get interleaved publishes too.
            let a = run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            let b = run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            retried += u32::from(a | b);
            total += 1;
        }
        assert_eq!(total, 6u32.pow(4));
        assert!(retried > 0, "no schedule exercised the seqlock retry path");
    }

    #[test]
    fn seeded_random_schedules_agree_with_the_invariants() {
        let mut retried = false;
        for seed in 0..64u64 {
            let mut gen = ScheduleGen::new(seed);
            let cell = SnapshotCell::new();
            let mut reader = EpochReader::new();
            let mut published = 0u64;
            for _ in 0..8 {
                let mut schedule = gen.schedule(8, 6);
                retried |= run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            }
        }
        assert!(retried, "64 seeds × 8 refreshes never lapped a slot");
    }

    #[test]
    fn schedule_generator_is_deterministic() {
        let a: Vec<usize> = ScheduleGen::new(9).schedule(8, 6).remaining().to_vec();
        let b: Vec<usize> = ScheduleGen::new(9).schedule(8, 6).remaining().to_vec();
        assert_eq!(a, b);
    }
}
