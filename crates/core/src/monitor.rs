//! Current-burst monitoring on top of the historical detector.
//!
//! The paper positions historical queries against the prior art's
//! *real-time* burst detection (\[6\], \[7\], \[3\] in its related work) and
//! notes both are wanted in practice. Since the persistent sketch always
//! knows `F̃_e` up to the latest ingested instant, "what is bursting right
//! now?" is just a bursty-event query at the stream head — this module
//! packages that as a [`BurstMonitor`] with top-k reporting, so one
//! structure serves both the live dashboard and the historian.

use std::cell::RefCell;

use bed_hierarchy::BurstyEventHit;
use bed_sketch::QueryScratch;
use bed_stream::{BurstSpan, Timestamp};

use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::observe::Traceable;
use crate::pipeline::EventSink;
use crate::query::{BurstQueries, QueryRequest, QueryResponse, QueryStrategy};

/// Live view over a [`BurstDetector`] — or any backend implementing
/// [`BurstQueries`] + [`EventSink`], e.g. a [`crate::ShardedDetector`] —
/// tracking the stream head and answering "now" queries.
///
/// ```
/// use bed_core::monitor::BurstMonitor;
/// use bed_core::{BurstDetector, PbeVariant};
/// use bed_stream::{BurstSpan, EventId, Timestamp};
///
/// let detector = BurstDetector::builder()
///     .universe(16)
///     .variant(PbeVariant::pbe2(1.0))
///     .build()
///     .unwrap();
/// let mut mon = BurstMonitor::new(detector, BurstSpan::new(20).unwrap());
///
/// for t in 0..100u64 {
///     mon.ingest(EventId(1), Timestamp(t)).unwrap();
///     if t >= 80 {
///         for _ in 0..5 {
///             mon.ingest(EventId(9), Timestamp(t)).unwrap();
///         }
///     }
/// }
/// let top = mon.top_k_now(3, 1.0).unwrap();
/// assert_eq!(top[0].event, EventId(9));
/// ```
#[derive(Debug, Clone)]
pub struct BurstMonitor<D = BurstDetector> {
    detector: D,
    tau: BurstSpan,
    now: Option<Timestamp>,
    /// Working memory for the repeated "now" queries — a monitor issues the
    /// same bursty-event scan every refresh, so one warm scratch keeps the
    /// steady state allocation-free. Interior mutability keeps the query
    /// surface `&self`.
    scratch: RefCell<QueryScratch>,
}

impl<D: Traceable> Traceable for BurstMonitor<D> {
    fn set_tracer(&mut self, tracer: std::sync::Arc<bed_obs::Tracer>) {
        self.detector.set_tracer(tracer);
    }

    fn tracer(&self) -> &std::sync::Arc<bed_obs::Tracer> {
        self.detector.tracer()
    }
}

impl<D: BurstQueries + EventSink> BurstMonitor<D> {
    /// Wraps a (mixed-stream) detector with a monitoring burst span.
    pub fn new(detector: D, tau: BurstSpan) -> Self {
        BurstMonitor { detector, tau, now: None, scratch: RefCell::new(QueryScratch::new()) }
    }

    /// Ingests one arrival and advances the stream head.
    pub fn ingest(&mut self, event: bed_stream::EventId, ts: Timestamp) -> Result<(), BedError> {
        self.detector.ingest(event, ts)?;
        self.now = Some(self.now.map_or(ts, |n| n.max(ts)));
        Ok(())
    }

    /// The latest ingested instant.
    pub fn now(&self) -> Option<Timestamp> {
        self.now
    }

    /// The wrapped detector (all historical queries remain available).
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Consumes the monitor, returning the detector.
    pub fn into_detector(mut self) -> D {
        self.detector.finalize();
        self.detector
    }

    /// Currently bursting events (estimated `b̃_e(now) ≥ θ`), most bursty
    /// first — a [`QueryRequest::BurstyEvents`] at the stream head.
    pub fn bursting_now(&self, theta: f64) -> Result<Vec<BurstyEventHit>, BedError> {
        let Some(now) = self.now else {
            return Ok(Vec::new());
        };
        let request = QueryRequest::BurstyEvents {
            t: now,
            theta,
            tau: self.tau,
            strategy: QueryStrategy::Pruned,
        };
        let response = self.detector.query_reusing(&request, &mut self.scratch.borrow_mut())?;
        // Hits arrive in the canonical descending-burstiness order.
        let QueryResponse::BurstyEvents { hits, .. } = response else {
            return Ok(Vec::new());
        };
        Ok(hits)
    }

    /// The k most bursty events right now (θ filters the candidate set; use
    /// a small positive θ to let the pruned search skip quiet subtrees).
    pub fn top_k_now(&self, k: usize, theta: f64) -> Result<Vec<BurstyEventHit>, BedError> {
        let mut hits = self.bursting_now(theta)?;
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbeVariant;
    use bed_stream::EventId;

    #[test]
    fn sharded_backend_behind_the_same_monitor() {
        let det = crate::BurstDetector::builder()
            .universe(32)
            .variant(PbeVariant::pbe2(1.0))
            .accuracy(0.005, 0.05)
            .seed(3)
            .shards(3)
            .build()
            .unwrap();
        let mut mon = BurstMonitor::new(det, BurstSpan::new(25).unwrap());
        for t in 0..200u64 {
            mon.ingest(EventId(0), Timestamp(t)).unwrap();
            if t >= 175 {
                for _ in 0..8 {
                    mon.ingest(EventId(6), Timestamp(t)).unwrap();
                }
            }
        }
        let top = mon.top_k_now(1, 5.0).unwrap();
        assert_eq!(top[0].event, EventId(6));
    }

    fn monitor() -> BurstMonitor {
        let det = BurstDetector::builder()
            .universe(32)
            .variant(PbeVariant::pbe2(1.0))
            .accuracy(0.005, 0.05)
            .seed(3)
            .build()
            .unwrap();
        BurstMonitor::new(det, BurstSpan::new(25).unwrap())
    }

    #[test]
    fn empty_monitor_reports_nothing() {
        let mon = monitor();
        assert_eq!(mon.now(), None);
        assert!(mon.bursting_now(1.0).unwrap().is_empty());
    }

    #[test]
    fn ranks_simultaneous_bursts() {
        let mut mon = monitor();
        for t in 0..200u64 {
            mon.ingest(EventId(0), Timestamp(t)).unwrap();
            if t >= 175 {
                for _ in 0..3 {
                    mon.ingest(EventId(5), Timestamp(t)).unwrap();
                }
                for _ in 0..8 {
                    mon.ingest(EventId(6), Timestamp(t)).unwrap();
                }
            }
        }
        assert_eq!(mon.now(), Some(Timestamp(199)));
        let top = mon.top_k_now(2, 5.0).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].event, EventId(6), "{top:?}");
        assert_eq!(top[1].event, EventId(5));
        assert!(top[0].burstiness > top[1].burstiness);
    }

    #[test]
    fn history_remains_queryable_alongside_now() {
        let mut mon = monitor();
        // burst early, quiet later
        for t in 0..300u64 {
            mon.ingest(EventId(1), Timestamp(t)).unwrap();
            if (50..70).contains(&t) {
                for _ in 0..6 {
                    mon.ingest(EventId(2), Timestamp(t)).unwrap();
                }
            }
        }
        // now: nothing bursts
        assert!(mon.bursting_now(30.0).unwrap().is_empty());
        // history: the old burst is still there
        let tau = BurstSpan::new(25).unwrap();
        let det = mon.detector();
        assert!(det.point_query(EventId(2), Timestamp(69), tau) > 30.0);
    }
}
