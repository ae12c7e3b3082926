//! The unified query surface: [`BurstQueries`], one trait both
//! [`crate::BurstDetector`] and [`crate::ShardedDetector`] implement.
//!
//! The paper defines three historical query types (point, bursty-time,
//! bursty-event); the detectors grew two derived ones (series, top-k) plus a
//! pruned/exact split — enough surface that every front-end (the CLI, the
//! server) was special-casing the two detector types.
//! [`QueryRequest`] names the five canonical kinds once, [`BurstQueries`]
//! routes them, and [`QueryStrategy`] makes the hierarchy trade-off an
//! explicit argument instead of three differently-named methods.
//!
//! Uniform fallibility: `query` validates up front and returns
//! `Err(BedError)` for out-of-universe events, non-finite or non-positive
//! thresholds (where positivity is required), inverted ranges, and a zero
//! step. It is the only way to ask a detector: the CLI, `bed serve`, the
//! epoch readers and every test go through it, so validation lives in one
//! place.
//!
//! ```
//! use bed_core::{BurstDetector, BurstQueries, PbeVariant, QueryRequest, QueryResponse};
//! use bed_stream::{BurstSpan, EventId, Timestamp};
//!
//! let mut det = BurstDetector::builder()
//!     .universe(8)
//!     .variant(PbeVariant::pbe2(1.0))
//!     .build()
//!     .unwrap();
//! for t in 0..100u64 {
//!     det.ingest(EventId(1), Timestamp(t)).unwrap();
//! }
//! det.finalize();
//!
//! let tau = BurstSpan::new(10).unwrap();
//! let resp = det
//!     .query(&QueryRequest::Point { event: EventId(1), t: Timestamp(99), tau })
//!     .unwrap();
//! let QueryResponse::Point { burstiness, .. } = resp else { unreachable!() };
//! assert!(burstiness.abs() < 5.0, "steady stream");
//!
//! // Validation is uniform: out-of-universe events fail, not saturate.
//! assert!(det
//!     .query(&QueryRequest::Point { event: EventId(99), t: Timestamp(0), tau })
//!     .is_err());
//! ```

use bed_hierarchy::{BurstyEventHit, QueryStats};
use bed_obs::MetricsSnapshot;
use bed_stream::{BurstSpan, EventId, StreamError, TimeRange, Timestamp};

use crate::config::DetectorConfig;
use crate::error::BedError;

/// How a bursty-event query walks the universe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryStrategy {
    /// Prune dyadic subtrees via the Eq. 6 bound — `O(log K)`-ish probes,
    /// but sign cancellation between siblings can mask a hit (the reported
    /// set is a subset of the exact scan's). Falls back to a scan on
    /// detectors built without the hierarchy.
    #[default]
    Pruned,
    /// Probe every event id — exact with respect to point queries, cost
    /// linear in the universe. Works with or without the hierarchy.
    ExactScan,
}

/// One of the five canonical historical queries. All variants are answered
/// by every [`BurstQueries`] implementor; per-event variants route to the
/// owning shard on a sharded detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryRequest {
    /// POINT QUERY `q(e, t, τ)`: how bursty was `event` at `t`?
    Point {
        /// Event id (must be inside the universe; `0` on single-event
        /// detectors).
        event: EventId,
        /// Query instant.
        t: Timestamp,
        /// Burst span τ.
        tau: BurstSpan,
    },
    /// BURSTY TIME QUERY `q(e, θ, τ)`: when did `event` burst beyond θ?
    BurstyTimes {
        /// Event id.
        event: EventId,
        /// Burstiness threshold (any finite value; negative thresholds
        /// report every candidate knee).
        theta: f64,
        /// Burst span τ.
        tau: BurstSpan,
        /// Inclusive upper bound of the probed time range.
        horizon: Timestamp,
    },
    /// BURSTY EVENT QUERY `q(t, θ, τ)`: which events burst at `t`?
    BurstyEvents {
        /// Query instant.
        t: Timestamp,
        /// Burstiness threshold (must be finite and positive).
        theta: f64,
        /// Burst span τ.
        tau: BurstSpan,
        /// Pruned search or exact scan.
        strategy: QueryStrategy,
    },
    /// Burstiness sampled every `step` ticks over `range` — dashboard data.
    Series {
        /// Event id.
        event: EventId,
        /// Burst span τ.
        tau: BurstSpan,
        /// Sampled time range (inclusive; `start` must not exceed `end`).
        range: TimeRange,
        /// Sampling stride in ticks (must be positive).
        step: u64,
    },
    /// The `k` most bursty instants of one event within `[0, horizon]`.
    TopK {
        /// Event id.
        event: EventId,
        /// Maximum number of instants returned.
        k: usize,
        /// Burst span τ.
        tau: BurstSpan,
        /// Inclusive upper bound of the probed time range.
        horizon: Timestamp,
    },
}

impl QueryRequest {
    /// The kind of this request (drives per-kind metrics).
    pub(crate) fn kind(&self) -> QueryKind {
        match self {
            QueryRequest::Point { .. } => QueryKind::Point,
            QueryRequest::BurstyTimes { .. } => QueryKind::BurstyTimes,
            QueryRequest::BurstyEvents { .. } => QueryKind::BurstyEvents,
            QueryRequest::Series { .. } => QueryKind::Series,
            QueryRequest::TopK { .. } => QueryKind::TopK,
        }
    }
}

/// Internal query-kind tag, used to index per-kind metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
    Point,
    BurstyTimes,
    BurstyEvents,
    Series,
    TopK,
}

impl QueryKind {
    pub(crate) const ALL: [QueryKind; 5] = [
        QueryKind::Point,
        QueryKind::BurstyTimes,
        QueryKind::BurstyEvents,
        QueryKind::Series,
        QueryKind::TopK,
    ];

    pub(crate) fn index(self) -> usize {
        self as usize
    }

    pub(crate) fn count_metric(self) -> &'static str {
        match self {
            QueryKind::Point => "query.point.count",
            QueryKind::BurstyTimes => "query.bursty_times.count",
            QueryKind::BurstyEvents => "query.bursty_events.count",
            QueryKind::Series => "query.series.count",
            QueryKind::TopK => "query.top_k.count",
        }
    }

    pub(crate) fn latency_metric(self) -> &'static str {
        match self {
            QueryKind::Point => "query.point.latency_ns",
            QueryKind::BurstyTimes => "query.bursty_times.latency_ns",
            QueryKind::BurstyEvents => "query.bursty_events.latency_ns",
            QueryKind::Series => "query.series.latency_ns",
            QueryKind::TopK => "query.top_k.latency_ns",
        }
    }
}

/// The answer to a [`QueryRequest`], variant-matched to the request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Point`].
    Point {
        /// Estimated burstiness `b̃_e(t)`.
        burstiness: f64,
        /// Estimated incoming rate `b̃f_e(t)`.
        burst_frequency: f64,
        /// Estimated cumulative frequency `F̃_e(t)`.
        cumulative: f64,
        /// Retention tier that served the probe: `Some(0)` for the
        /// full-resolution window, `Some(k)` for a probe whose age falls
        /// in the `k`-th halved tier, `None` when the detector has no
        /// retention policy (unbounded full-resolution history).
        tier: Option<u32>,
    },
    /// Answer to [`QueryRequest::BurstyTimes`]: instants with estimates.
    BurstyTimes(Vec<(Timestamp, f64)>),
    /// Answer to [`QueryRequest::BurstyEvents`]: hits sorted by descending
    /// burstiness (ties by event id), plus probe statistics. The statistics
    /// depend on the physical layout (a sharded detector probes every
    /// shard), so equivalence checks should compare `hits` only.
    BurstyEvents {
        /// Events whose estimated burstiness reaches θ.
        hits: Vec<BurstyEventHit>,
        /// Probe counts of the search.
        stats: QueryStats,
    },
    /// Answer to [`QueryRequest::Series`]: `(t, b̃(t))` samples.
    Series(Vec<(Timestamp, f64)>),
    /// Answer to [`QueryRequest::TopK`]: instants by descending burstiness.
    TopK(Vec<(Timestamp, f64)>),
}

impl QueryResponse {
    /// The bursty-event hits, if this is a [`QueryResponse::BurstyEvents`].
    pub fn hits(&self) -> Option<&[BurstyEventHit]> {
        match self {
            QueryResponse::BurstyEvents { hits, .. } => Some(hits),
            _ => None,
        }
    }

    /// The `(t, value)` samples of a time-valued response
    /// ([`QueryResponse::BurstyTimes`], [`QueryResponse::Series`], or
    /// [`QueryResponse::TopK`]).
    pub fn samples(&self) -> Option<&[(Timestamp, f64)]> {
        match self {
            QueryResponse::BurstyTimes(v) | QueryResponse::Series(v) | QueryResponse::TopK(v) => {
                Some(v)
            }
            _ => None,
        }
    }

    /// The point burstiness, if this is a [`QueryResponse::Point`].
    pub fn burstiness(&self) -> Option<f64> {
        match self {
            QueryResponse::Point { burstiness, .. } => Some(*burstiness),
            _ => None,
        }
    }
}

/// The canonical query interface shared by [`crate::BurstDetector`] and
/// [`crate::ShardedDetector`] (object-safe: front-ends can hold a
/// `&dyn BurstQueries`).
///
/// Contract:
/// * `query` returns the [`QueryResponse`] variant matching the request, or
///   an error — it never panics on any input.
/// * Validation is uniform across implementors: an event id outside the
///   universe is [`StreamError::EventOutOfUniverse`] (single-event detectors
///   expose their stream as event `0` in a universe of 1), a non-finite θ —
///   or a non-positive one where positivity is required — is
///   [`StreamError::InvalidProbability`], an inverted series range is
///   [`StreamError::InvertedRange`], and a zero series step is
///   [`StreamError::BudgetTooSmall`].
/// * Answers to per-event requests are identical between a sharded detector
///   and an equally-configured unsharded one (bit-for-bit in the
///   direct-indexed regime); `BurstyEvents` answers are set-equal under
///   [`QueryStrategy::ExactScan`] (see the pruning caveat in
///   [`crate::shard`]).
pub trait BurstQueries {
    /// Answers one canonical query. The default runs
    /// [`query_reusing`](BurstQueries::query_reusing) with a fresh scratch.
    fn query(&self, request: &QueryRequest) -> Result<QueryResponse, BedError> {
        self.query_reusing(request, &mut bed_sketch::QueryScratch::new())
    }

    /// Answers one canonical query, reusing the caller's
    /// [`QueryScratch`](bed_sketch::QueryScratch) for the kernels' working
    /// memory. Identical results to [`query`](BurstQueries::query) — a warm
    /// scratch only removes the per-query allocations on the batched
    /// bursty-event and bursty-time paths.
    fn query_reusing(
        &self,
        request: &QueryRequest,
        scratch: &mut bed_sketch::QueryScratch,
    ) -> Result<QueryResponse, BedError>;

    /// Elements ingested so far.
    fn arrivals(&self) -> u64;

    /// Current summary size in bytes.
    fn size_bytes(&self) -> usize;

    /// The configuration in force (per shard, on a sharded detector).
    fn config(&self) -> &DetectorConfig;

    /// Captures runtime counters, latency histograms, and structural gauges
    /// (see the crate docs for the metric name schema).
    fn metrics(&self) -> MetricsSnapshot;
}

/// θ must be finite (NaN/∞ poison comparisons silently).
pub(crate) fn check_theta_finite(theta: f64) -> Result<(), BedError> {
    if theta.is_finite() {
        Ok(())
    } else {
        Err(StreamError::InvalidProbability { parameter: "theta", got: theta }.into())
    }
}

/// θ must be finite and positive (the dyadic pruning bound compares squares,
/// so a non-positive threshold is meaningless).
pub(crate) fn check_theta_positive(theta: f64) -> Result<(), BedError> {
    // NaN must fail too, so the negated comparison is deliberate.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(theta > 0.0) || theta.is_infinite() {
        return Err(StreamError::InvalidProbability { parameter: "theta", got: theta }.into());
    }
    Ok(())
}

/// A series step of zero would loop forever.
pub(crate) fn check_step(step: u64) -> Result<(), BedError> {
    if step == 0 {
        return Err(StreamError::BudgetTooSmall { parameter: "step", got: 0, min: 1 }.into());
    }
    Ok(())
}

/// A series range must not be inverted.
pub(crate) fn check_range(range: TimeRange) -> Result<(), BedError> {
    if range.start > range.end {
        return Err(StreamError::InvertedRange { start: range.start, end: range.end }.into());
    }
    Ok(())
}

/// Canonical hit order: descending burstiness, ties by ascending event id —
/// the same order a sharded fan-out merge produces, so responses compare
/// equal across layouts.
pub(crate) fn sort_hits(hits: &mut [BurstyEventHit]) {
    hits.sort_by(|a, b| {
        b.burstiness
            .partial_cmp(&a.burstiness)
            .expect("estimates are finite")
            .then(a.event.cmp(&b.event))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_validation() {
        assert!(check_theta_finite(-5.0).is_ok());
        assert!(check_theta_finite(f64::NAN).is_err());
        assert!(check_theta_finite(f64::INFINITY).is_err());
        assert!(check_theta_positive(1e-9).is_ok());
        assert!(check_theta_positive(0.0).is_err());
        assert!(check_theta_positive(-1.0).is_err());
        assert!(check_theta_positive(f64::NAN).is_err());
        assert!(check_theta_positive(f64::INFINITY).is_err());
    }

    #[test]
    fn step_and_range_validation() {
        assert!(check_step(1).is_ok());
        assert!(check_step(0).is_err());
        assert!(check_range(TimeRange { start: Timestamp(1), end: Timestamp(1) }).is_ok());
        assert!(check_range(TimeRange { start: Timestamp(2), end: Timestamp(1) }).is_err());
    }

    #[test]
    fn sort_hits_is_canonical() {
        let mut hits = vec![
            BurstyEventHit { event: EventId(3), burstiness: 1.0 },
            BurstyEventHit { event: EventId(1), burstiness: 2.0 },
            BurstyEventHit { event: EventId(2), burstiness: 2.0 },
        ];
        sort_hits(&mut hits);
        let order: Vec<u32> = hits.iter().map(|h| h.event.value()).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn response_accessors() {
        let r = QueryResponse::Point {
            burstiness: 1.0,
            burst_frequency: 2.0,
            cumulative: 3.0,
            tier: None,
        };
        assert_eq!(r.burstiness(), Some(1.0));
        assert!(r.hits().is_none());
        assert!(r.samples().is_none());
        let r = QueryResponse::Series(vec![(Timestamp(0), 0.5)]);
        assert_eq!(r.samples().map(<[_]>::len), Some(1));
        let r = QueryResponse::BurstyEvents { hits: Vec::new(), stats: QueryStats::default() };
        assert_eq!(r.hits().map(<[_]>::len), Some(0));
    }
}
