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

use bed_core::{BurstDetector, PbeVariant, QueryStrategy, ShardedDetector};
use bed_stream::{BurstSpan, EventId, Timestamp};
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

/// Hits as a canonical, bit-exact comparable set.
fn hit_set(hits: &[bed_core::BurstyEventHit]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = hits.iter().map(|h| (h.event.0, h.burstiness.to_bits())).collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Per-event curve queries are bit-for-bit shard-invariant: point
    /// burstiness, cumulative frequency, and burst frequency at every
    /// event and a grid of query times.
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
            let e = EventId(e);
            let mut t = 0u64;
            while t <= horizon {
                let q = Timestamp(t);
                prop_assert_eq!(
                    sharded.point_query(e, q, tau).to_bits(),
                    plain.point_query(e, q, tau).to_bits(),
                    "point_query({:?}, t={}) diverged", e, t
                );
                prop_assert_eq!(
                    sharded.cumulative_frequency(e, q).to_bits(),
                    plain.cumulative_frequency(e, q).to_bits(),
                    "cumulative_frequency({:?}, t={}) diverged", e, t
                );
                prop_assert_eq!(
                    sharded.burst_frequency(e, q, tau).to_bits(),
                    plain.burst_frequency(e, q, tau).to_bits(),
                    "burst_frequency({:?}, t={}) diverged", e, t
                );
                t += 31;
            }
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
            let e = EventId(e);
            let a = plain.bursty_times(e, theta, tau, horizon);
            let b = sharded.bursty_times(e, theta, tau, horizon);
            prop_assert_eq!(a.len(), b.len(), "hit counts differ for {:?}", e);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
            let ta = plain.top_bursts(e, 3, tau, horizon);
            let tb = sharded.top_bursts(e, 3, tau, horizon);
            prop_assert_eq!(ta.len(), tb.len());
            for (x, y) in ta.iter().zip(&tb) {
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
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

        let (scan_p, _) = plain.bursty_events_with(t, theta, tau, QueryStrategy::ExactScan).unwrap();
        let (scan_s, _) =
            sharded.bursty_events_with(t, theta, tau, QueryStrategy::ExactScan).unwrap();
        prop_assert_eq!(hit_set(&scan_p), hit_set(&scan_s), "scan sets diverged");

        let scan_set = hit_set(&scan_p);
        for (name, det_hits) in [
            ("plain", plain.bursty_events_with(t, theta, tau, QueryStrategy::Pruned).unwrap().0),
            ("sharded", sharded.bursty_events_with(t, theta, tau, QueryStrategy::Pruned).unwrap().0),
        ] {
            for h in &det_hits {
                prop_assert!(h.burstiness >= theta, "{name}: sub-θ hit {h:?}");
                prop_assert_eq!(
                    h.burstiness.to_bits(),
                    plain.point_query(h.event, t, tau).to_bits(),
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
            let e = EventId(e);
            let mut t = 0u64;
            while t <= horizon {
                prop_assert_eq!(
                    batched.point_query(e, Timestamp(t), tau).to_bits(),
                    serial.point_query(e, Timestamp(t), tau).to_bits()
                );
                t += 97;
            }
        }
        prop_assert_eq!(batched.arrivals(), serial.arrivals());
    }
}
