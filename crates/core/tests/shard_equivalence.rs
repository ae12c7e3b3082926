//! Sharded-vs-unsharded equivalence: the ISSUE's headline claim is that
//! sharding is *semantically invisible* — a [`ShardedDetector`] answers
//! every query the same as one [`BurstDetector`] over the whole stream.
//!
//! The tests run in the collision-free regime (hierarchical mode, a
//! 64-event universe under the paper's default accuracy), where every
//! dyadic level is direct-indexed. There each event's curve depends only
//! on that event's own substream, which sharding leaves untouched — so
//! per-event answers must match *bit for bit*, not merely approximately.
//! Pruned `bursty_events` is the one deliberate exception (sign
//! cancellation inside dyadic sums differs per forest), so for it we
//! assert precision against the exact scan instead of set equality.

use bed_core::{
    BurstDetector, BurstQueries, PbeVariant, QueryRequest, QueryResponse, QueryStrategy,
    ShardedDetector,
};
use bed_stream::{BurstSpan, EventId, TimeRange, Timestamp};
use proptest::prelude::*;

const UNIVERSE: u32 = 64;

/// Random time-sorted mixed stream over the small universe.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..UNIVERSE, 0u64..500), 1..max_len).prop_map(|mut v| {
        v.sort_by_key(|&(_, t)| t);
        v
    })
}

/// One unsharded and one n-sharded detector, identically configured and
/// fed the identical stream.
fn build_pair(
    els: &[(u32, u64)],
    shards: usize,
    gamma: f64,
    seed: u64,
) -> (BurstDetector, ShardedDetector) {
    let plain = {
        let mut d = BurstDetector::builder()
            .universe(UNIVERSE)
            .variant(PbeVariant::pbe2(gamma))
            .seed(seed)
            .build()
            .unwrap();
        for &(e, t) in els {
            d.ingest(EventId(e), Timestamp(t)).unwrap();
        }
        d.finalize();
        d
    };
    let sharded = {
        let mut d = BurstDetector::builder()
            .universe(UNIVERSE)
            .variant(PbeVariant::pbe2(gamma))
            .seed(seed)
            .shards(shards)
            .build()
            .unwrap();
        let batch: Vec<(EventId, Timestamp)> =
            els.iter().map(|&(e, t)| (EventId(e), Timestamp(t))).collect();
        d.ingest_batch(&batch).unwrap();
        d.finalize();
        d
    };
    (plain, sharded)
}

/// A response's numbers as bit patterns, so comparisons are `to_bits`-exact
/// (`==` on `f64` would equate `0.0` with `-0.0`). A bursty-event answer
/// keeps its hits and drops its stats, which depend on the layout.
fn bits(response: &QueryResponse) -> Vec<u64> {
    match response {
        QueryResponse::Point { burstiness, burst_frequency, cumulative, tier } => vec![
            burstiness.to_bits(),
            burst_frequency.to_bits(),
            cumulative.to_bits(),
            tier.map_or(u64::MAX, u64::from),
        ],
        QueryResponse::BurstyEvents { hits, .. } => {
            hits.iter().flat_map(|h| [u64::from(h.event.0), h.burstiness.to_bits()]).collect()
        }
        QueryResponse::BurstyTimes(v) | QueryResponse::Series(v) | QueryResponse::TopK(v) => {
            v.iter().flat_map(|&(t, b)| [t.ticks(), b.to_bits()]).collect()
        }
    }
}

/// Both detectors' answers to `request`, as [`bits`].
fn answer_bits(
    a: &dyn BurstQueries,
    b: &dyn BurstQueries,
    request: &QueryRequest,
) -> (Vec<u64>, Vec<u64>) {
    (bits(&a.query(request).unwrap()), bits(&b.query(request).unwrap()))
}

/// Hits as a canonical, bit-exact comparable set.
fn hit_set(hits: &[bed_core::BurstyEventHit]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = hits.iter().map(|h| (h.event.0, h.burstiness.to_bits())).collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Per-event curve queries are bit-for-bit shard-invariant: the whole
    /// `Point` answer (burstiness, burst frequency, cumulative frequency)
    /// at every event and a grid of query times, and the `Series` sampling
    /// that grid.
    #[test]
    fn point_queries_are_shard_invariant(
        els in arb_stream(250),
        shards in 2usize..8,
        tau in 1u64..120,
        seed in 0u64..1_000,
    ) {
        let (plain, sharded) = build_pair(&els, shards, 4.0, seed);
        let tau = BurstSpan::new(tau).unwrap();
        let horizon = els.last().unwrap().1 + 50;
        for e in 0..UNIVERSE {
            let event = EventId(e);
            let mut t = 0u64;
            while t <= horizon {
                let point = QueryRequest::Point { event, t: Timestamp(t), tau };
                let (a, b) = answer_bits(&sharded, &plain, &point);
                prop_assert_eq!(a, b, "Point({:?}, t={}) diverged", event, t);
                t += 31;
            }
            let range = TimeRange { start: Timestamp(0), end: Timestamp(horizon) };
            let series = QueryRequest::Series { event, tau, range, step: 31 };
            let (a, b) = answer_bits(&sharded, &plain, &series);
            prop_assert_eq!(a, b, "Series({:?}) diverged", event);
        }
        prop_assert_eq!(sharded.arrivals(), plain.arrivals());
    }

    /// Bursty-time queries (and the top-k layered on them) are
    /// shard-invariant for every event.
    #[test]
    fn bursty_times_are_shard_invariant(
        els in arb_stream(200),
        shards in 2usize..8,
        tau in 1u64..80,
        theta in -5i32..20,
    ) {
        let (plain, sharded) = build_pair(&els, shards, 2.0, 0xBED);
        let tau = BurstSpan::new(tau).unwrap();
        let theta = theta as f64;
        let horizon = Timestamp(els.last().unwrap().1 + 40);
        for e in (0..UNIVERSE).step_by(7) {
            let event = EventId(e);
            let times = QueryRequest::BurstyTimes { event, theta, tau, horizon };
            let (a, b) = answer_bits(&plain, &sharded, &times);
            prop_assert_eq!(a, b, "BurstyTimes diverged for {:?}", event);
            let top = QueryRequest::TopK { event, k: 3, tau, horizon };
            let (a, b) = answer_bits(&plain, &sharded, &top);
            prop_assert_eq!(a, b, "TopK diverged for {:?}", event);
        }
    }

    /// The exact (scan) bursty-event query returns the *same hit set*
    /// sharded and unsharded, and the pruned query is precise against it:
    /// every pruned hit, from either detector, appears in the scan set
    /// with the identical estimate and clears θ.
    #[test]
    fn bursty_event_sets_are_shard_invariant(
        els in arb_stream(200),
        shards in 2usize..8,
        tau in 1u64..80,
        theta_i in 1u32..12,
        q in 0u64..550,
    ) {
        let (plain, sharded) = build_pair(&els, shards, 2.0, 7);
        let tau = BurstSpan::new(tau).unwrap();
        let theta = theta_i as f64;
        let t = Timestamp(q);

        let events = |strategy| QueryRequest::BurstyEvents { t, theta, tau, strategy };
        let scan = events(QueryStrategy::ExactScan);
        let (scan_p, scan_s) = (plain.query(&scan).unwrap(), sharded.query(&scan).unwrap());
        let scan_set = hit_set(scan_p.hits().unwrap());
        prop_assert_eq!(&scan_set, &hit_set(scan_s.hits().unwrap()), "scan sets diverged");

        let pruned = events(QueryStrategy::Pruned);
        for (name, answer) in [
            ("plain", plain.query(&pruned).unwrap()),
            ("sharded", sharded.query(&pruned).unwrap()),
        ] {
            for h in answer.hits().unwrap() {
                prop_assert!(h.burstiness >= theta, "{name}: sub-θ hit {h:?}");
                let point = QueryRequest::Point { event: h.event, t, tau };
                prop_assert_eq!(
                    Some(h.burstiness.to_bits()),
                    plain.query(&point).unwrap().burstiness().map(f64::to_bits),
                    "{} pruned hit disagrees with the point query", name
                );
                prop_assert!(
                    scan_set.binary_search(&(h.event.0, h.burstiness.to_bits())).is_ok(),
                    "{name}: pruned hit {h:?} missing from the exact scan"
                );
            }
        }
    }

    /// Crossing the parallel threshold changes nothing: a big batch fanned
    /// over scoped threads answers identically to element-at-a-time ingest
    /// into the same sharded configuration.
    #[test]
    fn parallel_batch_equals_sequential_ingest(
        els in arb_stream(80),
        shards in 2usize..6,
    ) {
        // Tile the stream until it crosses PARALLEL_MIN_BATCH (1024) so the
        // batch path really spawns workers.
        let mut big: Vec<(EventId, Timestamp)> = Vec::new();
        let span = els.last().unwrap().1 + 1;
        let mut offset = 0u64;
        while big.len() < 1100 {
            big.extend(els.iter().map(|&(e, t)| (EventId(e), Timestamp(t + offset))));
            offset += span;
        }

        let mk = || {
            BurstDetector::builder()
                .universe(UNIVERSE)
                .variant(PbeVariant::pbe2(4.0))
                .seed(3)
                .shards(shards)
                .build()
                .unwrap()
        };
        let mut batched: ShardedDetector = mk();
        batched.ingest_batch(&big).unwrap();
        batched.finalize();

        let mut serial: ShardedDetector = mk();
        for &(e, t) in &big {
            serial.ingest(e, t).unwrap();
        }
        serial.finalize();

        let tau = BurstSpan::new(40).unwrap();
        let horizon = big.last().unwrap().1.ticks() + 10;
        for e in 0..UNIVERSE {
            let event = EventId(e);
            let mut t = 0u64;
            while t <= horizon {
                let point = QueryRequest::Point { event, t: Timestamp(t), tau };
                let (a, b) = answer_bits(&batched, &serial, &point);
                prop_assert_eq!(a, b);
                t += 97;
            }
        }
        prop_assert_eq!(batched.arrivals(), serial.arrivals());
    }
}
