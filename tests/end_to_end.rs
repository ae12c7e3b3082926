//! End-to-end integration: workload generator → detector → queries,
//! validated against the exact baseline.

use bed::stream::ExactBaseline;
use bed::workload::olympics::{self, OlympicsConfig};
use bed::workload::truth;
use bed::{
    BurstDetector, BurstQueries, BurstSpan, PbeVariant, QueryRequest, QueryStrategy, Timestamp,
};

fn build(
    variant: PbeVariant,
    seed: u64,
) -> (BurstDetector, ExactBaseline, olympics::OlympicsStream) {
    let data = olympics::generate(OlympicsConfig { total_elements: 60_000, seed: 99 });
    let baseline = ExactBaseline::from_stream(&data.stream);
    let mut det = BurstDetector::builder()
        .universe(data.universe)
        .variant(variant)
        .accuracy(0.003, 0.02)
        .seed(seed)
        .build()
        .unwrap();
    for el in data.stream.iter() {
        det.ingest(el.event, el.ts).unwrap();
    }
    det.finalize();
    (det, baseline, data)
}

#[test]
fn point_queries_track_ground_truth() {
    for variant in [PbeVariant::pbe1(64), PbeVariant::pbe2(8.0)] {
        let (det, baseline, data) = build(variant, 5);
        let tau = BurstSpan::DAY_SECONDS;
        let events = data.stream.distinct_events();
        let queries = truth::random_point_queries(
            &events,
            Timestamp(olympics::OLYMPICS_HORIZON_SECS),
            200,
            17,
        );
        let err = truth::mean_abs_error(&baseline, &queries, tau, |event, t| {
            det.query(&QueryRequest::Point { event, t, tau }).unwrap().burstiness().unwrap()
        });
        // Soccer burstiness peaks in the tens of thousands at this scale;
        // a mean error beyond 1% of the peak would be broken.
        let peak = events
            .iter()
            .map(|&e| baseline.point_query(e, Timestamp(21 * 86_400), tau))
            .max()
            .unwrap();
        assert!(peak > 1_000, "fixture lost its burst (peak {peak})");
        assert!(err < peak as f64 * 0.01, "{variant:?}: mean error {err} vs peak {peak}");
    }
}

#[test]
fn bursty_event_query_has_high_precision_and_recall() {
    let (det, baseline, _) = build(PbeVariant::pbe2(4.0), 9);
    let tau = BurstSpan::DAY_SECONDS;
    let theta = 500i64;
    let days = [6u64, 9, 12, 15, 18, 21];
    // Events sitting right at θ flip on sketch noise, so measure with soft
    // margins: a hit is "correct" if its exact burstiness reaches θ/2, and a
    // miss only counts against recall if the event clearly bursts (≥ 2θ).
    let mut soft_correct = 0usize;
    let mut reported_total = 0usize;
    let mut clear_found = 0usize;
    let mut clear_total = 0usize;
    for &d in &days {
        let t = Timestamp(d * 86_400);
        let events = QueryRequest::BurstyEvents {
            t,
            theta: theta as f64,
            tau,
            strategy: QueryStrategy::Pruned,
        };
        let answer = det.query(&events).unwrap();
        let hits = answer.hits().unwrap();
        for h in hits {
            reported_total += 1;
            if baseline.point_query(h.event, t, tau) >= theta / 2 {
                soft_correct += 1;
            }
        }
        for (e, _) in baseline.bursty_events(t, 2 * theta, tau) {
            clear_total += 1;
            if hits.iter().any(|h| h.event == e) {
                clear_found += 1;
            }
        }
    }
    assert!(reported_total > 0 && clear_total > 0, "degenerate fixture");
    let soft_precision = soft_correct as f64 / reported_total as f64;
    let clear_recall = clear_found as f64 / clear_total as f64;
    assert!(soft_precision >= 0.8, "soft precision {soft_precision}");
    assert!(clear_recall >= 0.8, "clear recall {clear_recall}");

    // The strict metrics still get computed (they drive fig12); just assert
    // they are non-degenerate here.
    let t = Timestamp(21 * 86_400);
    let events =
        QueryRequest::BurstyEvents { t, theta: theta as f64, tau, strategy: QueryStrategy::Pruned };
    let reported: Vec<_> =
        det.query(&events).unwrap().hits().unwrap().iter().map(|h| h.event).collect();
    let pr = truth::precision_recall(&baseline, &reported, t, theta, tau);
    assert!(pr.precision > 0.5 && pr.recall > 0.5, "{pr:?}");
}

#[test]
fn bursty_times_recover_known_burst_windows() {
    let (det, baseline, data) = build(PbeVariant::pbe2(4.0), 3);
    let tau = BurstSpan::DAY_SECONDS;
    let horizon = Timestamp(olympics::OLYMPICS_HORIZON_SECS);
    let theta = 1_000.0;
    let times = QueryRequest::BurstyTimes { event: data.soccer, theta, tau, horizon };
    let times = det.query(&times).unwrap();
    let times = times.samples().unwrap();
    assert!(!times.is_empty(), "soccer has strong bursts at this θ");
    // every reported instant must be genuinely bursty (within sketch error)
    for &(t, est) in times {
        let truth = baseline.point_query(data.soccer, t, tau) as f64;
        assert!(
            truth >= theta * 0.3,
            "reported instant {t} has exact burstiness {truth} (estimate {est})"
        );
    }
    // the final (day ~21) must be covered
    assert!(
        times.iter().any(|&(t, _)| (20 * 86_400..23 * 86_400).contains(&t.ticks())),
        "final's burst window missed"
    );
}

#[test]
fn detector_is_reproducible_and_seed_sensitive() {
    let (a, _, data) = build(PbeVariant::pbe2(8.0), 42);
    let (b, _, _) = build(PbeVariant::pbe2(8.0), 42);
    let (c, _, _) = build(PbeVariant::pbe2(8.0), 43);
    let tau = BurstSpan::DAY_SECONDS;
    let soccer = QueryRequest::Point { event: data.soccer, t: Timestamp(12 * 86_400), tau };
    assert_eq!(a.query(&soccer).unwrap(), b.query(&soccer).unwrap());
    // different hash seeds land events in different cells; estimates for a
    // minor event will almost surely differ
    let differs = (0..10u64).any(|d| {
        let minor =
            QueryRequest::Point { event: bed::EventId(500), t: Timestamp(d * 86_400 + 1), tau };
        a.query(&minor).unwrap().burstiness() != c.query(&minor).unwrap().burstiness()
    });
    assert!(differs, "seed change had no observable effect");
}

#[test]
fn sketch_is_much_smaller_than_exact_store() {
    let (det, baseline, _) = build(PbeVariant::pbe2(16.0), 1);
    assert!(
        det.size_bytes() * 2 < baseline.size_bytes(),
        "sketch {} vs exact {}",
        det.size_bytes(),
        baseline.size_bytes()
    );
}
