//! Tracer wiring across the detector stack.
//!
//! Every component on the request path — detectors, the sharded facade,
//! the WAL sink, the checkpointer — holds an `Arc<Tracer>` that defaults
//! to [`Tracer::disabled`] (one relaxed load per would-be span, zero
//! allocation). [`Traceable`] is the uniform installation surface: hand
//! one enabled tracer to the outermost component and it propagates to
//! whatever it wraps.
//!
//! Span taxonomy (names live in `bed-obs`'s closed table):
//!
//! - roots `query.{point,bursty_times,bursty_events,series,top_k}` with
//!   children `stage.cell_probe`, `stage.median_combine`,
//!   `stage.hierarchy_prune` (on a sharded layout the root itself spans
//!   the fan-out over every shard);
//! - the sampled root `wal.append`;
//! - unsampled roots `checkpoint.save` / `checkpoint.recover` (rare and
//!   heavyweight, so the sampler is bypassed).
//!
//! Every query is instrumented exactly once, by the outermost
//! [`BurstQueries`](crate::BurstQueries) layer it enters — a
//! [`BurstDetector`](crate::BurstDetector), the
//! [`ShardedDetector`](crate::ShardedDetector) facade, or an
//! [`EpochView`](crate::EpochView) — through one helper, `run_query`.
//! Shards and published epoch clones answer through their uninstrumented
//! dispatch, so one request never starts competing root spans or double
//! counts; the outer layer arms the `QueryScratch` stage clocks and
//! harvests them into child spans regardless of which shard ran the
//! kernels. It also reads the answer's statistics (bursty-event probe
//! counts, a point answer's retention tier), so those land in the same
//! snapshot as the query's count.

use std::fmt::Write as _;
use std::sync::Arc;

use bed_obs::{SpanName, Tracer};
use bed_sketch::QueryScratch;

use crate::error::BedError;
use crate::metrics::QueryInstruments;
use crate::query::{QueryKind, QueryRequest, QueryResponse};

/// A component that carries a [`Tracer`] and can have one installed.
///
/// Installation is by `Arc`, so one tracer can serve a whole stack and a
/// scrape endpoint can read its ring/slow-log while requests run.
pub trait Traceable {
    /// Installs `tracer`; replaces the (initially disabled) current one.
    fn set_tracer(&mut self, tracer: Arc<Tracer>);
    /// The currently installed tracer.
    fn tracer(&self) -> &Arc<Tracer>;
}

/// Root span name for a query of `kind`.
pub(crate) fn span_for(kind: QueryKind) -> SpanName {
    match kind {
        QueryKind::Point => SpanName::QUERY_POINT,
        QueryKind::BurstyTimes => SpanName::QUERY_BURSTY_TIMES,
        QueryKind::BurstyEvents => SpanName::QUERY_BURSTY_EVENTS,
        QueryKind::Series => SpanName::QUERY_SERIES,
        QueryKind::TopK => SpanName::QUERY_TOP_K,
    }
}

/// Renders a request's parameters for the slow-query log. Only called when
/// a traced query crosses the slow threshold — never on the fast path.
pub(crate) fn request_params(request: &QueryRequest) -> String {
    let mut s = String::with_capacity(96);
    match request {
        QueryRequest::Point { event, t, tau } => {
            let _ = write!(s, "point event={} t={} tau={}", event.0, t.ticks(), tau.ticks());
        }
        QueryRequest::BurstyTimes { event, theta, tau, horizon } => {
            let _ = write!(
                s,
                "bursty_times event={} theta={theta} tau={} horizon={}",
                event.0,
                tau.ticks(),
                horizon.ticks()
            );
        }
        QueryRequest::BurstyEvents { t, theta, tau, strategy } => {
            let _ = write!(
                s,
                "bursty_events t={} theta={theta} tau={} strategy={strategy:?}",
                t.ticks(),
                tau.ticks()
            );
        }
        QueryRequest::Series { event, tau, range, step } => {
            let _ = write!(
                s,
                "series event={} tau={} range=[{},{}] step={step}",
                event.0,
                tau.ticks(),
                range.start.ticks(),
                range.end.ticks()
            );
        }
        QueryRequest::TopK { event, k, tau, horizon } => {
            let _ = write!(
                s,
                "top_k event={} k={k} tau={} horizon={}",
                event.0,
                tau.ticks(),
                horizon.ticks()
            );
        }
    }
    s
}

/// Runs one query under the outermost layer's instrumentation — the one
/// place a query is counted, timed, and traced. Opens the sampled root span
/// (adopting `scratch.trace_id` when nonzero), arms the scratch stage
/// clocks when traced or in EXPLAIN mode, runs `dispatch`, harvests the
/// stage clocks into child spans, and records the count and latency with
/// the trace id as exemplar, plus the statistics the answer carries
/// (bursty-event probe counts, the point answer's retention tier).
pub(crate) fn run_query(
    queries: &QueryInstruments,
    request: &QueryRequest,
    scratch: &mut QueryScratch,
    dispatch: impl FnOnce(&mut QueryScratch) -> Result<QueryResponse, BedError>,
) -> Result<QueryResponse, BedError> {
    let kind = request.kind();
    let started = queries.begin(kind);
    let trace = queries.trace(kind, scratch.trace_id);
    scratch.stages.reset(trace.is_some() || scratch.explain);
    let result = dispatch(scratch);
    if let Some(mut trace) = trace {
        let stages = &scratch.stages;
        for (name, ns) in [
            (SpanName::STAGE_CELL_PROBE, stages.cell_probe_ns),
            (SpanName::STAGE_MEDIAN_COMBINE, stages.median_combine_ns),
            (SpanName::STAGE_HIERARCHY_PRUNE, stages.hierarchy_prune_ns),
        ] {
            if ns > 0 {
                trace.child_ns(name, ns);
            }
        }
        trace.finish(|| request_params(request));
        // In EXPLAIN mode the caller harvests the populated timings after
        // we return; only disarm when it will not.
        if !scratch.explain {
            scratch.stages.reset(false);
        }
    }
    queries.end(kind, started, &result, scratch.trace_id);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bed_stream::{BurstSpan, EventId, Timestamp};

    #[test]
    fn params_render_every_kind() {
        let tau = BurstSpan::new(10).unwrap();
        let reqs = [
            QueryRequest::Point { event: EventId(1), t: Timestamp(5), tau },
            QueryRequest::BurstyTimes {
                event: EventId(2),
                theta: 1.5,
                tau,
                horizon: Timestamp(99),
            },
            QueryRequest::BurstyEvents {
                t: Timestamp(5),
                theta: 2.0,
                tau,
                strategy: crate::QueryStrategy::Pruned,
            },
        ];
        let rendered: Vec<String> = reqs.iter().map(request_params).collect();
        assert!(rendered[0].starts_with("point event=1 t=5 tau=10"));
        assert!(rendered[1].contains("theta=1.5"));
        assert!(rendered[2].contains("strategy=Pruned"));
    }
}
