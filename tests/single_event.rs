//! Integration tests for the single-event fast path across the facade.

use bed::pbe::CurveSketch;
use bed::stream::curve::FrequencyCurve;
use bed::stream::SingleEventStream;
use bed::{BurstDetector, BurstQueries, BurstSpan, EventId, PbeVariant, QueryRequest, Timestamp};

/// A spiky test stream with three bursts of increasing size.
fn spiky_stream() -> Vec<u64> {
    let mut ts = Vec::new();
    for t in 0..10_000u64 {
        if t % 37 == 0 {
            ts.push(t); // background
        }
    }
    for (i, &start) in [2_000u64, 5_000, 8_000].iter().enumerate() {
        let reps = (i + 1) * 4;
        for t in start..start + 200 {
            for _ in 0..reps {
                ts.push(t);
            }
        }
    }
    ts.sort_unstable();
    ts
}

fn exact_curve(ts: &[u64]) -> FrequencyCurve {
    FrequencyCurve::from_stream(
        &SingleEventStream::from_sorted(ts.iter().map(|&t| Timestamp(t)).collect()).unwrap(),
    )
}

#[test]
fn both_variants_follow_the_exact_curve() {
    let ts = spiky_stream();
    let exact = exact_curve(&ts);
    let tau = BurstSpan::new(300).unwrap();
    for variant in [PbeVariant::pbe1(128), PbeVariant::pbe2(4.0)] {
        let mut det = BurstDetector::builder().single_event().variant(variant).build().unwrap();
        for &t in &ts {
            det.ingest_single(Timestamp(t)).unwrap();
        }
        det.finalize();
        // the three bursts must rank correctly by estimated burstiness
        let [b1, b2, b3] = [2_199u64, 5_199, 8_199].map(|t| {
            let point = QueryRequest::Point { event: EventId(0), t: Timestamp(t), tau };
            det.query(&point).unwrap().burstiness().unwrap()
        });
        assert!(b1 < b2 && b2 < b3, "{variant:?}: {b1} {b2} {b3}");
        // and be close to the truth at each peak
        for (t, est) in [(2_199u64, b1), (5_199, b2), (8_199, b3)] {
            let truth = exact.burstiness(Timestamp(t), tau) as f64;
            assert!(
                (est - truth).abs() <= truth.abs() * 0.1 + 40.0,
                "{variant:?} at {t}: {est} vs {truth}"
            );
        }
    }
}

#[test]
fn facade_matches_raw_pbe() {
    // The detector's single-event mode must be a thin wrapper: same numbers
    // as driving the PBE directly.
    let ts = spiky_stream();
    let mut det = BurstDetector::builder()
        .single_event()
        .variant(PbeVariant::Pbe2 { gamma: 4.0, max_vertices: 64 })
        .build()
        .unwrap();
    let mut raw =
        bed::pbe::Pbe2::new(bed::pbe::Pbe2Config { gamma: 4.0, max_vertices: 64 }).unwrap();
    for &t in &ts {
        det.ingest_single(Timestamp(t)).unwrap();
        raw.update(Timestamp(t));
    }
    det.finalize();
    raw.finalize();
    let tau = BurstSpan::new(500).unwrap();
    for t in (0..10_000u64).step_by(321) {
        let point = QueryRequest::Point { event: EventId(0), t: Timestamp(t), tau };
        assert_eq!(
            det.query(&point).unwrap().burstiness(),
            Some(raw.estimate_burstiness(Timestamp(t), tau)),
            "t={t}"
        );
    }
    assert_eq!(det.size_bytes(), raw.size_bytes());
}

#[test]
fn bursty_times_cover_all_three_bursts() {
    let ts = spiky_stream();
    let mut det =
        BurstDetector::builder().single_event().variant(PbeVariant::pbe1(256)).build().unwrap();
    for &t in &ts {
        det.ingest_single(Timestamp(t)).unwrap();
    }
    det.finalize();
    let tau = BurstSpan::new(300).unwrap();
    let times = QueryRequest::BurstyTimes {
        event: EventId(0),
        theta: 500.0,
        tau,
        horizon: Timestamp(10_000),
    };
    let times = det.query(&times).unwrap();
    let times = times.samples().unwrap();
    for window in [2_000u64, 5_000, 8_000] {
        assert!(
            times.iter().any(|&(t, _)| (window..window + 600).contains(&t.ticks())),
            "burst at {window} not reported: {times:?}"
        );
    }
}

#[test]
fn error_capped_dp_exposed_through_pbe_crate() {
    // The "hard cap on the error instead of a space constraint" mode of
    // Section III-A, exercised end-to-end from the facade's re-exports.
    let ts = spiky_stream();
    let exact = exact_curve(&ts);
    let generous = bed::pbe::pbe1::dp::solve_error_capped(exact.corners(), 1_000_000);
    let strict = bed::pbe::pbe1::dp::solve_error_capped(exact.corners(), 1_000);
    assert!(generous.chosen.len() < strict.chosen.len());
    assert!(generous.cost <= 1_000_000);
    assert!(strict.cost <= 1_000);
}
