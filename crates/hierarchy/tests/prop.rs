//! Property-based tests for the dyadic hierarchy.

use bed_hierarchy::dyadic::{level_count, padded_universe, DyadicRange};
use bed_hierarchy::DyadicCmPbe;
use bed_pbe::{burstiness, ExactCurve};
use bed_sketch::{QueryScratch, SketchParams};
use bed_stream::{BurstSpan, EventId, EventStream, ExactBaseline, Timestamp};
use proptest::prelude::*;

fn arb_stream(events: u32) -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0..events, 0u64..500), 1..250).prop_map(|mut v| {
        v.sort_by_key(|&(_, t)| t);
        v
    })
}

/// Builds an exact-cell forest with effectively no collisions (wide grid).
fn exact_forest(universe: u32, els: &[(u32, u64)]) -> DyadicCmPbe<ExactCurve> {
    let mut f = DyadicCmPbe::new(universe, SketchParams { epsilon: 0.001, delta: 0.05 }, 3, |_| {
        ExactCurve::new()
    })
    .unwrap();
    for &(e, t) in els {
        f.update(EventId(e), Timestamp(t)).unwrap();
    }
    f
}

proptest! {
    /// Dyadic arithmetic: an event's block at every level contains it, and
    /// the child blocks partition the parent.
    #[test]
    fn dyadic_navigation(e in 0u32..4096, level in 0u32..12) {
        let r = DyadicRange::containing(EventId(e), level);
        prop_assert!(r.contains(EventId(e)));
        if level > 0 {
            let l = r.left_child().unwrap();
            let rt = r.right_child().unwrap();
            prop_assert!(l.contains(EventId(e)) ^ rt.contains(EventId(e)));
            prop_assert_eq!(l.parent(), r);
            prop_assert_eq!(rt.parent(), r);
        }
        prop_assert!(padded_universe(e + 1) > e);
        prop_assert!(level_count(padded_universe(e + 1)) >= 1);
    }

    /// With exact, collision-free cells: every reported event truly passes
    /// the threshold (perfect precision), and any true positive that is
    /// missed must be explained by sign cancellation in an ancestor block —
    /// the inherent recall gap of the paper's pruning bound. When no event
    /// decelerates (all burstiness ≥ 0), recall is perfect too.
    #[test]
    fn pruned_query_precision_and_cancellation_only_misses(
        els in arb_stream(16),
        t in 0u64..600,
        theta in 1i64..15,
        tau in 1u64..60,
    ) {
        let stream: EventStream = els.iter().copied().collect();
        let baseline = ExactBaseline::from_stream(&stream);
        let forest = exact_forest(16, &els);
        let tau = BurstSpan::new(tau).unwrap();
        let (hits, stats) = forest.bursty_events(Timestamp(t), theta as f64, tau);
        let expected = baseline.bursty_events(Timestamp(t), theta, tau);
        let want: Vec<u32> = expected.iter().map(|&(e, _)| e.value()).collect();

        // precision: every hit is a true positive with the exact burstiness
        for h in &hits {
            prop_assert!(want.contains(&h.event.value()));
            prop_assert_eq!(
                h.burstiness,
                baseline.point_query(h.event, Timestamp(t), tau) as f64
            );
        }
        // recall: perfect when no event has negative burstiness at t
        let any_negative = stream
            .distinct_events()
            .iter()
            .any(|&e| baseline.point_query(e, Timestamp(t), tau) < 0);
        if !any_negative {
            let got: Vec<u32> = hits.iter().map(|h| h.event.value()).collect();
            prop_assert_eq!(got, want, "t={} θ={}", t, theta);
        }
        // probes never exceed the scan cost plus internal overhead
        prop_assert!(stats.point_queries <= 2 * 16 + 1);
    }

    /// Pruned search reports a subset of the naive scan (same estimates
    /// underneath; pruning can only remove), with consistent burstiness
    /// values, and probes no more leaves.
    #[test]
    fn pruned_is_subset_of_scan(
        els in arb_stream(32),
        t in 0u64..600,
        theta in 1u32..30,
        tau in 1u64..60,
    ) {
        let forest = exact_forest(32, &els);
        let tau = BurstSpan::new(tau).unwrap();
        let theta = theta as f64;
        let (h1, s1) = forest.bursty_events(Timestamp(t), theta, tau);
        let (h2, s2) = forest.bursty_events_scan(Timestamp(t), theta, tau);
        for h in &h1 {
            let in_scan = h2.iter().find(|x| x.event == h.event);
            prop_assert!(in_scan.is_some(), "hit {:?} absent from scan", h.event);
            prop_assert_eq!(in_scan.unwrap().burstiness, h.burstiness);
        }
        prop_assert!(s1.leaves_probed <= s2.leaves_probed);
    }

    /// Every hit reported by bursty_times satisfies the threshold when
    /// re-queried, and hits are sorted and unique.
    #[test]
    fn bursty_times_hits_requery(
        els in arb_stream(8),
        theta in 1u32..10,
        tau in 1u64..40,
    ) {
        let forest = exact_forest(8, &els);
        let tau = BurstSpan::new(tau).unwrap();
        let theta = theta as f64;
        let leaf = forest.grid(0);
        let mut scratch = QueryScratch::new();
        let mut times = Vec::new();
        for e in 0..8u32 {
            leaf.bursty_times_into(EventId(e), theta, tau, Timestamp(700), &mut scratch, &mut times);
            for w in times.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            for &(t, b) in &times {
                prop_assert!(b >= theta);
                let requery = burstiness(leaf.probe3(EventId(e), t, tau));
                prop_assert!((requery - b).abs() < 1e-9);
            }
        }
    }
}
