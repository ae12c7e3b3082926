//! End-to-end ingestion pipeline: raw text messages → event mapping →
//! out-of-order tolerance → the detector.
//!
//! The paper's system view starts from an information stream `M` of text
//! messages, mapped by a black-box `h` into the event stream `S`
//! (Section II-A). [`MessagePipeline`] wires those stages to a
//! [`BurstDetector`], so an application can feed raw messages (with mild
//! timestamp disorder) and ask historical burstiness questions on the other
//! side.

use bed_obs::{MetricsSnapshot, SpanName, Tracer};
use bed_stream::element::{EventMapper, Message, StreamElement};
use bed_stream::reorder::{LatePolicy, ReorderBuffer};
use bed_stream::{EventId, StreamError, Timestamp};

use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::metrics::{gauge, PipelineMetrics};
use crate::observe::Traceable;
use crate::query::BurstQueries;
use crate::shard::ShardedDetector;

/// Anything that can consume a (locally ordered) event stream — the
/// contract the pipeline needs from its back end, satisfied by both
/// [`BurstDetector`] and [`ShardedDetector`].
pub trait EventSink {
    /// Records one arrival.
    fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError>;

    /// Records a non-decreasing batch. The default loops [`Self::ingest`];
    /// implementations with a parallel fast path override it.
    fn ingest_batch(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        for &(event, ts) in batch {
            self.ingest(event, ts)?;
        }
        Ok(())
    }

    /// Flushes internal buffering.
    fn finalize(&mut self);

    /// Elements ingested so far.
    fn arrivals(&self) -> u64;
}

/// The admission rule every sink shares: each event inside
/// `[0, universe)` (a single-event stream, `universe == None`, ignores
/// ids) and timestamps non-decreasing from `last`, the stream's latest
/// accepted arrival. Returns the batch's last timestamp (`last` for an
/// empty batch). A refused batch mutates nothing, so a caller can check
/// before it logs ([`crate::WalSink`]) or fans out
/// ([`ShardedDetector::ingest_batch`]).
#[inline]
pub(crate) fn check_batch(
    universe: Option<u32>,
    last: Option<Timestamp>,
    batch: &[(EventId, Timestamp)],
) -> Result<Option<Timestamp>, BedError> {
    let mut prev = last;
    for &(event, ts) in batch {
        if let Some(k) = universe.filter(|&k| event.value() >= k) {
            return Err(
                StreamError::EventOutOfUniverse { event: event.value(), universe: k }.into()
            );
        }
        if let Some(p) = prev.filter(|&p| ts < p) {
            return Err(StreamError::NonMonotonicTimestamp { previous: p, offered: ts }.into());
        }
        prev = Some(ts);
    }
    Ok(prev)
}

/// Single-event detectors ignore `event`, so one sink feeds every mode.
impl EventSink for BurstDetector {
    fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        if self.config().universe.is_none() {
            self.ingest_single(ts)
        } else {
            BurstDetector::ingest(self, event, ts)
        }
    }

    fn finalize(&mut self) {
        BurstDetector::finalize(self)
    }

    fn arrivals(&self) -> u64 {
        BurstDetector::arrivals(self)
    }
}

impl EventSink for ShardedDetector {
    fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        ShardedDetector::ingest(self, event, ts)
    }

    fn ingest_batch(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        ShardedDetector::ingest_batch(self, batch)
    }

    fn finalize(&mut self) {
        ShardedDetector::finalize(self)
    }

    fn arrivals(&self) -> u64 {
        ShardedDetector::arrivals(self)
    }
}

/// Raw-message front end for a [`BurstDetector`] (or any [`EventSink`],
/// e.g. a [`ShardedDetector`] for parallel ingestion).
///
/// ```
/// use bed_core::pipeline::MessagePipeline;
/// use bed_core::{BurstDetector, PbeVariant};
/// use bed_stream::{HashtagMapper, Message};
///
/// let universe = 64;
/// let detector = BurstDetector::builder()
///     .universe(universe)
///     .variant(PbeVariant::pbe2(1.0))
///     .build()
///     .unwrap();
/// let mut pipe = MessagePipeline::new(detector, HashtagMapper::new(universe), 30);
///
/// pipe.offer(Message::new("kickoff! #soccer", 100u64)).unwrap();
/// pipe.offer(Message::new("GOL #soccer #brasil", 95u64)).unwrap(); // slightly late: fine
/// pipe.offer(Message::new("no tags, no events", 101u64)).unwrap();
/// let det = pipe.finish().unwrap();
/// assert_eq!(det.arrivals(), 3); // two tags + one tag
/// ```
#[derive(Debug)]
pub struct MessagePipeline<M, D = BurstDetector> {
    detector: D,
    mapper: M,
    reorder: ReorderBuffer,
    scratch: Vec<StreamElement>,
    ready: Vec<StreamElement>,
    batch: Vec<(EventId, Timestamp)>,
    messages: u64,
    unmapped: u64,
    metrics: PipelineMetrics,
    tracer: std::sync::Arc<Tracer>,
}

impl<M: EventMapper, D: EventSink> MessagePipeline<M, D> {
    /// Wraps a detector with a mapper and a lateness window (in ticks).
    /// Late messages beyond the window are clamped forward (counts are
    /// preserved; a historical summary should not silently lose mentions).
    pub fn new(detector: D, mapper: M, lateness: u64) -> Self {
        MessagePipeline {
            detector,
            mapper,
            reorder: ReorderBuffer::new(lateness, LatePolicy::ClampForward),
            scratch: Vec::new(),
            ready: Vec::new(),
            batch: Vec::new(),
            messages: 0,
            unmapped: 0,
            metrics: PipelineMetrics::default(),
            tracer: std::sync::Arc::new(Tracer::disabled()),
        }
    }

    /// Offers one raw message; mapped elements flow into the detector once
    /// their timestamps are final.
    pub fn offer(&mut self, message: Message) -> Result<(), BedError> {
        self.messages += 1;
        self.scratch.clear();
        self.mapper.map_into(&message, &mut self.scratch);
        if self.scratch.is_empty() {
            self.unmapped += 1;
            return Ok(());
        }
        for el in self.scratch.drain(..) {
            self.reorder.offer(el, &mut self.ready)?;
        }
        self.flush_ready()
    }

    /// Hands everything the reorder buffer released to the sink as one
    /// batch — the fast path that lets a [`ShardedDetector`] fan the
    /// drained window out across its shards instead of element-at-a-time.
    fn flush_ready(&mut self) -> Result<(), BedError> {
        if self.ready.is_empty() {
            return Ok(());
        }
        self.batch.clear();
        self.batch.extend(self.ready.drain(..).map(|el| (el.event, el.ts)));
        let trace = self.tracer.start_sampled(SpanName::PIPELINE_FLUSH);
        let started = self.metrics.flush_begin(self.batch.len());
        let result = self.detector.ingest_batch(&self.batch);
        self.metrics.flush_end(started);
        if let Some(trace) = trace {
            let n = self.batch.len();
            trace.finish(|| format!("flush elements={n}"));
        }
        result
    }

    /// Messages offered so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Messages that mapped to no event (dropped by `h`).
    pub fn unmapped(&self) -> u64 {
        self.unmapped
    }

    /// Elements still held in the reorder window.
    pub fn pending(&self) -> usize {
        self.reorder.pending()
    }

    /// Read-only access to the detector mid-stream (queries lag by the
    /// lateness window: elements still pending are not yet visible).
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Drains the reorder window, finalizes, and returns the detector.
    pub fn finish(mut self) -> Result<D, BedError> {
        self.reorder.drain(&mut self.ready);
        self.flush_ready()?;
        self.detector.finalize();
        Ok(self.detector)
    }
}

impl<M, D: Traceable> Traceable for MessagePipeline<M, D> {
    /// Installs the tracer on the pipeline's flush path **and** the wrapped
    /// detector's query path.
    fn set_tracer(&mut self, tracer: std::sync::Arc<Tracer>) {
        self.tracer = std::sync::Arc::clone(&tracer);
        self.detector.set_tracer(tracer);
    }

    fn tracer(&self) -> &std::sync::Arc<Tracer> {
        &self.tracer
    }
}

impl<M, D: crate::checkpoint::Checkpointable> MessagePipeline<M, D> {
    /// Periodic-checkpoint hook: takes a snapshot of the wrapped detector
    /// iff `ckpt`'s policy says one is due (call after a batch of
    /// `offer`s; cheap when not due). Elements still in the reorder window
    /// are not yet in the detector, so they are covered by the *next*
    /// checkpoint — or by the WAL when the sink is a
    /// [`crate::wal::WalSink`].
    pub fn maybe_checkpoint(
        &mut self,
        ckpt: &mut crate::checkpoint::Checkpointer,
    ) -> Result<bool, crate::checkpoint::RecoveryError> {
        ckpt.maybe_checkpoint(&self.detector)
    }
}

impl<M, D: BurstQueries> MessagePipeline<M, D> {
    /// Captures flush counters/latency plus the
    /// `pipeline.{messages,unmapped,pending}` gauges, merged with the
    /// wrapped detector's own [`MetricsSnapshot`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let stages = [
            gauge("pipeline.messages", self.messages as f64),
            gauge("pipeline.unmapped", self.unmapped as f64),
            gauge("pipeline.pending", self.reorder.pending() as f64),
        ];
        self.metrics.snapshot(stages).merge(&self.detector.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbeVariant;
    use bed_stream::{BurstSpan, EventId, HashtagMapper};

    fn pipeline(lateness: u64) -> MessagePipeline<HashtagMapper> {
        let detector = BurstDetector::builder()
            .universe(1 << 16)
            .variant(PbeVariant::pbe2(1.0))
            .accuracy(0.002, 0.05)
            .build()
            .unwrap();
        MessagePipeline::new(detector, HashtagMapper::new(1 << 16), lateness)
    }

    #[test]
    fn maps_and_detects_a_hashtag_burst() {
        let mut pipe = pipeline(10);
        // background chatter + an #earthquake burst at t=500..520
        for t in 0..1_000u64 {
            pipe.offer(Message::new("#weather looking fine", t)).unwrap();
            if (500..520).contains(&t) {
                for _ in 0..10 {
                    pipe.offer(Message::new("shaking!! #earthquake", t)).unwrap();
                }
            }
        }
        assert_eq!(pipe.unmapped(), 0);
        let det = pipe.finish().unwrap();
        let mapper = HashtagMapper::new(1 << 16);
        let quake = mapper.event_for_tag("earthquake");
        let weather = mapper.event_for_tag("weather");
        let tau = BurstSpan::new(50).unwrap();
        let b_quake = det.point_query(quake, bed_stream::Timestamp(519), tau);
        let b_weather = det.point_query(weather, bed_stream::Timestamp(519), tau);
        assert!(b_quake > 50.0, "{b_quake}");
        assert!(b_weather.abs() < 10.0, "{b_weather}");
    }

    #[test]
    fn tolerates_disorder_within_window() {
        let mut pipe = pipeline(20);
        let mut x = 777u64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = i * 3 + x % 20;
            pipe.offer(Message::new("#topic", t)).unwrap();
        }
        let det = pipe.finish().unwrap();
        assert_eq!(det.arrivals(), 500);
    }

    #[test]
    fn untagged_messages_are_counted_not_ingested() {
        let mut pipe = pipeline(5);
        pipe.offer(Message::new("nothing to see", 1u64)).unwrap();
        pipe.offer(Message::new("#x", 2u64)).unwrap();
        assert_eq!(pipe.messages(), 2);
        assert_eq!(pipe.unmapped(), 1);
        let det = pipe.finish().unwrap();
        assert_eq!(det.arrivals(), 1);
    }

    #[test]
    fn very_late_messages_are_clamped_not_lost() {
        let mut pipe = pipeline(5);
        pipe.offer(Message::new("#a", 1_000u64)).unwrap();
        pipe.offer(Message::new("#a", 10u64)).unwrap(); // far too late
        let det = pipe.finish().unwrap();
        assert_eq!(det.arrivals(), 2, "clamped forward, not dropped");
        let mapper = HashtagMapper::new(1 << 16);
        let a = mapper.event_for_tag("a");
        let f = det.cumulative_frequency(a, bed_stream::Timestamp(1_000));
        assert!((f - 2.0).abs() <= 1.0 + 1e-9);
        let _ = EventId(0);
    }
}
