//! Epoch-snapshot publishing: concurrent reads that never wait on a live
//! ingest.
//!
//! The detectors are single-writer structures — every query method takes
//! `&self` but answers from state a concurrent `ingest` would be mutating,
//! so a serving front-end previously had to route *both* sides through one
//! `Mutex`, stalling queries behind ingest and vice versa. This module
//! decouples them with an RCU-style generation scheme:
//!
//! * A writer periodically **publishes** an immutable, finalized clone of
//!   its detector into a [`SnapshotCell`], at a cadence borrowed from the
//!   checkpoint machinery ([`EpochPublisher`] wraps a
//!   [`CheckpointPolicy`]). Publishing builds the clone *outside* any
//!   lock, then swaps it into the cell's one slot and bumps the generation
//!   counter with `Release` ordering; it waits on readers at most for the
//!   `Arc` clone one of them may be making under the slot lock.
//! * A reader holds an [`EpochReader`] caching the last loaded epoch. Its
//!   hot path is one `Acquire` load of the generation counter: if nothing
//!   new was published, the cached [`Epoch`] answers — **zero locks, zero
//!   allocation**. Only when the generation moved does the reader lock the
//!   slot once and copy the epoch handle (an `Arc` clone — still
//!   allocation-free) out of it.
//! * [`DetectorEpochs`] owns **one cell per layout**: each generation holds
//!   a finalized clone of every shard (one clone for the plain layout), so
//!   a generation is complete the moment it is visible. [`EpochView`]
//!   implements [`BurstQueries`] on top, so the serving layer can answer
//!   all five canonical query kinds from the latest published epoch while
//!   ingest continues.
//!
//! ## One slot: the newest generation, and nothing older
//!
//! The cell is one mutex-guarded `Option<Epoch>` plus the generation
//! counter (RCU by `Arc` swap, built from a `Mutex` because `bed-core`
//! forbids `unsafe`). A publish runs `build` with no lock held, then locks
//! the slot, swaps the new epoch in, `Release`-stores its generation, and
//! unlocks. The generation is stored inside the critical section, so a
//! reader that `Acquire`-loads `g` and then locks the slot finds
//! generation `g` or a newer one there — never an older one, and never a
//! half-written one. A reader therefore always gets the newest
//! generation: it cannot be lapped and never retries, and it waits at
//! most for one pointer swap.
//!
//! Memory follows from the swap. While `build` runs, the published
//! generation and the one being built are alive; once `publish` returns,
//! only the new one is, unless a reader still holds the one it retired.
//! The retired epoch is dropped after the unlock, so the thread that frees
//! it is the publishing (ingest) thread when no reader holds it, and
//! otherwise the reader that drops the last handle — in `bed serve`, the
//! worker whose request overlapped the swap, since each request builds and
//! drops its own [`EpochView`]. A `build` that panics unwinds before the
//! lock is taken, so the published epoch stays in place and keeps
//! answering.
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

/// A single-writer, many-reader publication point for [`Epoch`]s.
///
/// See the [module docs](crate::epoch) for the protocol and its ordering
/// argument. The cell is generic so the scheduler-driven protocol tests
/// can publish trivial payloads; detectors use
/// [`DetectorEpochs`], which publishes every shard in one cell.
#[derive(Debug)]
pub struct SnapshotCell<D> {
    /// Latest published generation. It is `Release`-stored while the slot
    /// lock is held, after the slot took that generation's epoch, so an
    /// `Acquire` reader that then locks the slot finds it or a newer one.
    generation: AtomicU64,
    slot: Mutex<Option<Epoch<D>>>,
}

impl<D> SnapshotCell<D> {
    /// An empty cell (generation 0, no epoch).
    pub fn new() -> Self {
        SnapshotCell { generation: AtomicU64::new(0), slot: Mutex::new(None) }
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
    /// `build` runs before the slot is locked, so a panic in it leaves the
    /// published epoch and generation untouched. The retired epoch is
    /// dropped after the unlock: here if no reader still holds it.
    pub fn publish(&self, watermark: Watermark, build: impl FnOnce() -> D) -> u64 {
        let next = self.generation.load(Ordering::Relaxed) + 1;
        let data = Arc::new(build());
        let mut slot = self.slot.lock().expect("epoch slot lock poisoned");
        let retired = slot.replace(Epoch { generation: next, watermark, data });
        self.generation.store(next, Ordering::Release);
        drop(slot);
        drop(retired);
        next
    }

    /// The latest published epoch (`None` before the first publish): one
    /// lock and one `Arc` clone.
    pub fn load(&self) -> Option<Epoch<D>> {
        self.slot.lock().expect("epoch slot lock poisoned").clone()
    }
}

impl<D> Default for SnapshotCell<D> {
    fn default() -> Self {
        SnapshotCell::new()
    }
}

/// A protocol step of [`EpochReader::refresh_with`], the yield points a
/// deterministic scheduler (the `schedule` compat crate) interleaves
/// publishes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadStep {
    /// About to `Acquire`-load the published generation counter.
    LoadGeneration,
    /// Loaded generation `.0` (newer than the cached one); about to lock
    /// the slot.
    LockSlot(u64),
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
    /// allocation-free: one lock and one `Arc` clone ([`SnapshotCell::load`]).
    #[inline]
    pub fn refresh(&mut self, cell: &SnapshotCell<D>) -> bool {
        self.refresh_with(cell, &mut |_| {})
    }

    /// [`Self::refresh`] with a hook invoked before every protocol step —
    /// the seam the schedule-permuter tests drive. `refresh` is this with a
    /// no-op hook, so the tested protocol *is* the production protocol.
    fn refresh_with(&mut self, cell: &SnapshotCell<D>, hook: &mut impl FnMut(ReadStep)) -> bool {
        hook(ReadStep::LoadGeneration);
        let g = cell.generation.load(Ordering::Acquire);
        if g == self.generation {
            return false;
        }
        hook(ReadStep::LockSlot(g));
        // Assigned after `load` unlocks, so a previously cached epoch this
        // reader was the last to hold is freed outside the slot lock.
        self.epoch = cell.load();
        self.generation = self.epoch.as_ref().map_or(0, |e| e.generation);
        true
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

    /// The ingest-side staleness gauges against the live detector's
    /// watermark: `epoch.age_ticks` (ticks the live stream has advanced
    /// past the published epoch) and `epoch.lag_arrivals` (arrivals not
    /// yet visible to readers). Cold path — merge it into a scrape next to
    /// [`Self::metrics`]. Before genesis only the lag is defined.
    pub fn staleness(&self, live: Watermark) -> MetricsSnapshot {
        let Some(published) = self.cell.load().map(|e| e.watermark) else {
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
        self.cell.load().map_or(0, |e| e.data.iter().map(BurstDetector::soa_bank_bytes).sum())
    }

    /// The configuration the published detectors were built with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// A fresh query view over the latest published epoch. Views are
    /// cheap (one cursor) and intended to be per-thread: each owns its
    /// [`QueryScratch`], preserving the zero-allocation kernel guarantees
    /// per reader. A view's cursor keeps the generation it last answered
    /// from alive until the view is dropped.
    pub fn view(&self) -> EpochView<'_> {
        EpochView {
            epochs: self,
            reader: RefCell::new(EpochReader::new()),
            scratch: RefCell::new(QueryScratch::new()),
            answered: Cell::new((0, Watermark::default())),
        }
    }

    /// Snapshot of `epoch.*` metrics — the `epoch.published` counter,
    /// publish latency, and an `epoch.generation` gauge — plus the
    /// `query.*` counts and latencies of every query the views answered.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.generation())
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
    use std::sync::atomic::AtomicUsize;

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
    fn epoch_metrics_surface_published_and_generation() {
        let det = plain();
        let epochs = DetectorEpochs::new(&det);
        epochs.publish(&det);
        let snap = epochs.metrics();
        assert_eq!(snap.get("epoch.published"), Some(&bed_obs::MetricValue::Counter(2)));
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

    /// A payload that counts how many of its kind are alive.
    #[derive(Debug)]
    struct Alive(Arc<AtomicUsize>);

    impl Alive {
        fn new(count: &Arc<AtomicUsize>) -> Self {
            count.fetch_add(1, Ordering::SeqCst);
            Alive(Arc::clone(count))
        }
    }

    impl Drop for Alive {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn publish_holds_only_the_published_generation_and_the_one_being_built() {
        let count = Arc::new(AtomicUsize::new(0));
        let alive = || count.load(Ordering::SeqCst);
        let cell = SnapshotCell::new();
        let wm = Watermark::default();
        cell.publish(wm, || Alive::new(&count));
        assert_eq!(alive(), 1);
        for g in 2..=6u64 {
            cell.publish(wm, || {
                let next = Alive::new(&count);
                assert_eq!(alive(), 2, "generation {g}: more than its predecessor alive");
                next
            });
            assert_eq!(alive(), 1, "generation {g}: its predecessor outlived the publish");
        }
        // A generation a reader still holds outlives the swap, and the
        // reader's drop frees it.
        let mut reader = EpochReader::new();
        reader.refresh(&cell);
        cell.publish(wm, || Alive::new(&count));
        assert_eq!(alive(), 2, "the reader's generation was freed under it");
        drop(reader);
        assert_eq!(alive(), 1, "the reader's drop did not free its generation");
    }

    #[test]
    fn a_panicking_build_keeps_the_published_epoch() {
        let mut det = plain();
        ingest_fixture(&mut det, 100);
        let epochs = DetectorEpochs::new(&det);
        let tau = BurstSpan::new(10).unwrap();
        let req = QueryRequest::Point { event: EventId(2), t: Timestamp(99), tau };
        let before = epochs.view().query(&req).unwrap();

        let publish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            epochs.cell.publish(Watermark::default(), || panic!("build failed"))
        }));
        assert!(publish.is_err(), "the build's panic reaches the publisher");
        assert_eq!(epochs.generation(), 1);
        let view = epochs.view();
        assert_eq!(view.query(&req).unwrap(), before);
        assert_eq!(view.answer_generation(), 1);
        assert_eq!(view.answer_watermark(), det.watermark());
    }

    // ---- schedule-permuter coverage of the one-slot protocol ----------

    /// The single writer: publishes `n` generations, each payload and
    /// watermark encoding its own generation so a torn epoch shows.
    fn publish_n(cell: &SnapshotCell<u64>, published: &mut u64, n: usize) {
        for _ in 0..n {
            *published += 1;
            let wm = Watermark { arrivals: *published, last_ts: None };
            assert_eq!(cell.publish(wm, || *published), *published);
        }
    }

    /// Drives one instrumented refresh under `schedule`, injecting
    /// `schedule.next()` publishes before it and at each of its yield
    /// points, then checks the protocol invariants. Returns whether a
    /// publish landed between the reader's generation load and its slot
    /// lock.
    fn run_schedule(
        cell: &SnapshotCell<u64>,
        reader: &mut EpochReader<u64>,
        published: &mut u64,
        schedule: &mut Schedule,
    ) -> bool {
        publish_n(cell, published, schedule.next());
        let held = reader.current().map_or(0, |e| e.generation);
        let completed = *published;
        let mut loaded = None;
        reader.refresh_with(cell, &mut |step| {
            if let ReadStep::LockSlot(g) = step {
                loaded = Some(g);
            }
            publish_n(cell, published, schedule.next());
        });
        let seen = reader.current().map_or(0, |e| e.generation);
        if let Some(epoch) = reader.current() {
            assert_eq!(*epoch.data, epoch.generation, "torn epoch payload");
            assert_eq!(epoch.watermark.arrivals, epoch.generation, "torn watermark");
        }
        assert!(seen <= *published, "read unpublished generation {seen}");
        let newest_loaded = held.max(loaded.unwrap_or(0));
        assert!(seen >= newest_loaded, "went back from generation {newest_loaded} to {seen}");
        assert!(seen >= completed, "missed generation {completed}, published before the refresh");
        loaded.is_some_and(|g| seen > g)
    }

    #[test]
    fn exhaustive_small_schedules_agree_with_the_invariants() {
        // Yield points per refresh: one before it, LoadGeneration, and
        // LockSlot when the generation moved; two refreshes per schedule,
        // so cached-generation fast paths get interleaved publishes too.
        // Up to 3 publishes per step: 4^6 = 4096 schedules, exhaustively
        // enumerated.
        let mut overtaken = 0u32;
        let mut total = 0u32;
        for mut schedule in exhaustive(3, 6) {
            let cell = SnapshotCell::new();
            let mut reader = EpochReader::new();
            let mut published = 0u64;
            let a = run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            let b = run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            overtaken += u32::from(a | b);
            total += 1;
        }
        assert_eq!(total, 4u32.pow(6));
        assert!(overtaken > 0, "no schedule published between a load and its lock");
    }

    #[test]
    fn seeded_random_schedules_agree_with_the_invariants() {
        let mut overtaken = false;
        for seed in 0..64u64 {
            let mut gen = ScheduleGen::new(seed);
            let cell = SnapshotCell::new();
            let mut reader = EpochReader::new();
            let mut published = 0u64;
            for _ in 0..8 {
                let mut schedule = gen.schedule(8, 6);
                overtaken |= run_schedule(&cell, &mut reader, &mut published, &mut schedule);
            }
        }
        assert!(overtaken, "64 seeds × 8 refreshes never published between a load and its lock");
    }

    #[test]
    fn schedule_generator_is_deterministic() {
        let a: Vec<usize> = ScheduleGen::new(9).schedule(8, 6).remaining().to_vec();
        let b: Vec<usize> = ScheduleGen::new(9).schedule(8, 6).remaining().to_vec();
        assert_eq!(a, b);
    }
}
