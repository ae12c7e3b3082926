//! Persistence integration tests: every summary type round-trips through its
//! binary encoding, decoded sketches keep answering (and ingesting), and
//! corrupted inputs fail loudly instead of producing wrong answers.

use bed::pbe::{burstiness, CurveSketch, ExactCurve, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed::sketch::{CmPbe, SketchParams};
use bed::stream::{Codec, CodecError};
use bed::{BurstDetector, BurstQueries, BurstSpan, EventId, PbeVariant, QueryRequest, Timestamp};

fn spiky(n: u64) -> Vec<u64> {
    let mut ts: Vec<u64> = (0..n).map(|i| i * 3 + (i % 7)).collect();
    for t in 100..160 {
        for _ in 0..5 {
            ts.push(t);
        }
    }
    ts.sort_unstable();
    ts
}

#[test]
fn pbe1_roundtrip_mid_stream_and_finalized() {
    let ts = spiky(2_000);
    let mut p = Pbe1::new(Pbe1Config { n_buf: 300, eta: 24 }).unwrap();
    for &t in &ts {
        p.update(Timestamp(t));
    }
    // mid-stream: live buffer present
    let bytes = p.to_bytes();
    let decoded = Pbe1::from_bytes(&bytes).unwrap();
    for t in (0..6_200u64).step_by(97) {
        assert_eq!(p.estimate_cum(Timestamp(t)), decoded.estimate_cum(Timestamp(t)), "t={t}");
    }
    assert_eq!(p.arrivals(), decoded.arrivals());
    assert_eq!(p.size_bytes(), decoded.size_bytes());
    assert_eq!(p.accumulated_area_error(), decoded.accumulated_area_error());

    // the decoded sketch keeps ingesting identically
    let mut a = p.clone();
    let mut b = decoded;
    for t in 6_200..6_400u64 {
        a.update(Timestamp(t));
        b.update(Timestamp(t));
    }
    a.finalize();
    b.finalize();
    for t in (0..6_400u64).step_by(41) {
        assert_eq!(a.estimate_cum(Timestamp(t)), b.estimate_cum(Timestamp(t)));
    }
}

#[test]
fn pbe2_roundtrip_preserves_open_polygon() {
    let ts = spiky(3_000);
    let mut p = Pbe2::new(Pbe2Config { gamma: 3.0, max_vertices: 48 }).unwrap();
    for &t in &ts {
        p.update(Timestamp(t));
    }
    let decoded = Pbe2::from_bytes(&p.to_bytes()).unwrap();
    assert_eq!(p.segments(), decoded.segments());
    assert_eq!(p.arrivals(), decoded.arrivals());
    assert_eq!(p.cap_cuts(), decoded.cap_cuts());
    for t in (0..10_000u64).step_by(173) {
        assert_eq!(p.estimate_cum(Timestamp(t)), decoded.estimate_cum(Timestamp(t)), "t={t}");
    }
    // continue both and verify identical segment structure afterwards
    let mut a = p;
    let mut b = decoded;
    for t in 10_000..10_400u64 {
        a.update(Timestamp(t));
        b.update(Timestamp(t));
    }
    a.finalize();
    b.finalize();
    assert_eq!(a.segments(), b.segments());
}

#[test]
fn exact_curve_roundtrip() {
    let mut e = ExactCurve::new();
    for &t in &spiky(500) {
        e.update(Timestamp(t));
    }
    let decoded = ExactCurve::from_bytes(&e.to_bytes()).unwrap();
    assert_eq!(e.curve(), decoded.curve());
    assert_eq!(e.arrivals(), decoded.arrivals());
}

#[test]
fn cmpbe_roundtrip_generic_over_cells() {
    let mut cm = CmPbe::new(SketchParams { epsilon: 0.02, delta: 0.1 }, 9, || {
        Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 32 }).unwrap()
    })
    .unwrap();
    for i in 0..5_000u64 {
        cm.update(EventId((i % 50) as u32), Timestamp(i / 5));
    }
    cm.finalize();
    let decoded: CmPbe<Pbe2> = CmPbe::from_bytes(&cm.to_bytes()).unwrap();
    let tau = BurstSpan::new(100).unwrap();
    for e in 0..50u32 {
        assert_eq!(
            burstiness(cm.probe3(EventId(e), Timestamp(900), tau)),
            burstiness(decoded.probe3(EventId(e), Timestamp(900), tau))
        );
    }
    assert_eq!(cm.size_bytes(), decoded.size_bytes());
}

#[test]
fn detector_roundtrip_all_backends() {
    let tau = BurstSpan::new(50).unwrap();
    let configs = [
        BurstDetector::builder().single_event().variant(PbeVariant::pbe2(2.0)),
        BurstDetector::builder().universe(32).hierarchical(false).variant(PbeVariant::pbe1(16)),
        BurstDetector::builder().universe(32).hierarchical(true).variant(PbeVariant::pbe2(2.0)),
    ];
    for builder in configs {
        let mut det = builder.build().unwrap();
        let single = det.config().universe.is_none();
        for t in 0..2_000u64 {
            if single {
                det.ingest_single(Timestamp(t)).unwrap();
            } else {
                det.ingest(EventId((t % 32) as u32), Timestamp(t)).unwrap();
                if t >= 1_900 {
                    for _ in 0..4 {
                        det.ingest(EventId(7), Timestamp(t)).unwrap();
                    }
                }
            }
        }
        det.finalize();
        let bytes = det.to_bytes();
        let decoded = BurstDetector::from_bytes(&bytes).unwrap();
        assert_eq!(det.arrivals(), decoded.arrivals());
        assert_eq!(det.size_bytes(), decoded.size_bytes());
        // A single-event detector's one stream is event 0.
        let events: &[u32] = if single { &[0] } else { &[0, 7, 31] };
        for t in (0..2_100u64).step_by(111) {
            for &e in events {
                let point = QueryRequest::Point { event: EventId(e), t: Timestamp(t), tau };
                assert_eq!(
                    det.query(&point).unwrap(),
                    decoded.query(&point).unwrap(),
                    "t={t} e={e}"
                );
            }
        }
        if !single {
            let events = QueryRequest::BurstyEvents {
                t: Timestamp(1_999),
                theta: 10.0,
                tau,
                strategy: bed::QueryStrategy::Pruned,
            };
            assert_eq!(det.query(&events).unwrap().hits(), decoded.query(&events).unwrap().hits());
        }
    }
}

#[test]
fn corrupted_inputs_are_rejected_never_panic() {
    let mut det =
        BurstDetector::builder().universe(16).variant(PbeVariant::pbe2(2.0)).build().unwrap();
    for t in 0..500u64 {
        det.ingest(EventId((t % 16) as u32), Timestamp(t)).unwrap();
    }
    det.finalize();
    let bytes = det.to_bytes();

    // truncations at every prefix length must decode to Err, not panic
    for cut in 0..bytes.len().min(200) {
        assert!(BurstDetector::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
    }
    // a sample of deeper truncations
    for cut in (200..bytes.len()).step_by(997) {
        assert!(BurstDetector::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
    }

    // single-byte corruptions: either a clean error or a successful decode
    // (bytes in f64 payloads can change values without breaking framing) —
    // but never a panic
    for pos in (0..bytes.len()).step_by(131) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        let _ = BurstDetector::from_bytes(&bad);
    }

    // wrong magic
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(BurstDetector::from_bytes(&bad), Err(CodecError::BadMagic { .. })));

    // trailing garbage
    let mut bad = bytes.clone();
    bad.push(0);
    assert!(matches!(
        BurstDetector::from_bytes(&bad),
        Err(CodecError::TrailingBytes { remaining: 1 })
    ));
}

#[test]
fn format_is_stable_across_encodes() {
    let mut p = Pbe1::new(Pbe1Config { n_buf: 100, eta: 8 }).unwrap();
    for &t in &spiky(300) {
        p.update(Timestamp(t));
    }
    assert_eq!(p.to_bytes(), p.to_bytes(), "encoding must be deterministic");
    let decoded = Pbe1::from_bytes(&p.to_bytes()).unwrap();
    assert_eq!(decoded.to_bytes(), p.to_bytes(), "re-encoding must be identical");
}
