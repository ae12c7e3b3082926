//! The ingest contract every detector layout shares: [`EventSink`] and the
//! one admission rule its implementations apply.
//!
//! The paper's event stream `S` arrives already mapped from raw messages by
//! a black-box `h` (Section II-A) and in timestamp order; mapping and
//! reordering are the caller's, so a sink only checks what it is handed.

use bed_stream::{EventId, StreamError, Timestamp};

use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::shard::ShardedDetector;

/// Anything that can consume a time-ordered event stream, satisfied by
/// both [`BurstDetector`] and [`ShardedDetector`].
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
/// before it logs ([`crate::WalSink`]), fans out
/// ([`ShardedDetector::ingest_batch`]) or serves a whole input it will
/// ingest one arrival at a time. The error names the first refused
/// arrival, as ingesting the batch would.
#[inline]
pub fn check_batch(
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
