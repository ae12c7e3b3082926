//! Full-system integration on the uspolitics-like workload: generator →
//! detector → national-moment detection, "what is bursting now" at the
//! stream head, and crafted-bytes decode hardening.

use bed::stream::Codec;
use bed::workload::politics::{self, Party, PoliticsConfig};
use bed::{
    BurstDetector, BurstQueries, BurstSpan, PbeVariant, QueryRequest, QueryResponse, QueryStrategy,
    Timestamp,
};

fn build_politics() -> (BurstDetector, politics::PoliticsStream) {
    let data = politics::generate(PoliticsConfig { total_elements: 120_000, skew: 1.0, seed: 6 });
    let mut det = BurstDetector::builder()
        .universe(data.universe)
        .variant(PbeVariant::pbe2(4.0))
        .accuracy(0.005, 0.02)
        .seed(11)
        .build()
        .unwrap();
    for el in data.stream.iter() {
        det.ingest(el.event, el.ts).unwrap();
    }
    det.finalize();
    (det, data)
}

#[test]
fn national_moments_dominate_their_party() {
    let (det, data) = build_politics();
    let tau = BurstSpan::DAY_SECONDS;
    // RNC day (48): total Republican burstiness among bursty events should
    // dwarf the Democrat total at the same instant.
    let events =
        |t| QueryRequest::BurstyEvents { t, theta: 20.0, tau, strategy: QueryStrategy::Pruned };
    let t = Timestamp(48 * 86_400 + 43_200);
    let answer = det.query(&events(t)).unwrap();
    let mut dem = 0.0;
    let mut rep = 0.0;
    for h in answer.hits().unwrap() {
        match data.party_of(h.event) {
            Party::Democrat => dem += h.burstiness,
            Party::Republican => rep += h.burstiness,
        }
    }
    assert!(rep > dem * 2.0, "RNC day: rep={rep} dem={dem}");

    // DNC day (55): the reverse.
    let answer = det.query(&events(Timestamp(55 * 86_400 + 43_200))).unwrap();
    let mut dem = 0.0;
    let mut rep = 0.0;
    for h in answer.hits().unwrap() {
        match data.party_of(h.event) {
            Party::Democrat => dem += h.burstiness,
            Party::Republican => rep += h.burstiness,
        }
    }
    // idiosyncratic spikes of the other party add noise at this scale, so
    // require a clear lead rather than the RNC's 2× margin
    assert!(dem > rep * 1.2, "DNC day: rep={rep} dem={dem}");
}

#[test]
fn series_api_recovers_the_campaign_shape() {
    let (det, data) = build_politics();
    let tau = BurstSpan::DAY_SECONDS;
    // the most popular event (rank 0) has several spikes; its series over
    // the horizon must have both quiet days (≈0) and spike days (≫0)
    let range = bed::TimeRange {
        start: Timestamp(86_400),
        end: Timestamp(politics::POLITICS_HORIZON_SECS - 1),
    };
    let series = QueryRequest::Series { event: bed::EventId(0), tau, range, step: 86_400 };
    let series = det.query(&series).unwrap();
    let series = series.samples().unwrap();
    let max = series.iter().map(|&(_, b)| b).fold(f64::MIN, f64::max);
    let quiet_days = series.iter().filter(|&&(_, b)| b.abs() < max / 50.0).count();
    assert!(max > 100.0, "no spike found (max {max})");
    assert!(quiet_days > series.len() / 4, "campaign should have quiet days");
    let _ = data;
}

#[test]
fn monitor_over_politics_prefix() {
    let data = politics::generate(PoliticsConfig { total_elements: 60_000, skew: 1.0, seed: 6 });
    let mut det = BurstDetector::builder()
        .universe(data.universe)
        .variant(PbeVariant::pbe2(4.0))
        .accuracy(0.005, 0.02)
        .seed(11)
        .build()
        .unwrap();
    // ingest up to just past the RNC, and leave the detector un-finalized:
    // the stream is still live
    let cutoff = Timestamp(49 * 86_400);
    for el in data.stream.iter().filter(|el| el.ts <= cutoff) {
        det.ingest(el.event, el.ts).unwrap();
    }
    // "what is bursting now" is a bursty-event query at the latest
    // ingested timestamp
    let request = QueryRequest::BurstyEvents {
        t: det.last_timestamp().expect("the prefix is not empty"),
        theta: 10.0,
        tau: BurstSpan::DAY_SECONDS,
        strategy: QueryStrategy::Pruned,
    };
    let QueryResponse::BurstyEvents { hits: mut top, .. } = det.query(&request).unwrap() else {
        panic!("a bursty-event request gets a bursty-event answer")
    };
    top.truncate(5);
    assert!(!top.is_empty(), "the convention should be bursting 'now'");
    // the top burster 'now' leans Republican
    assert_eq!(data.party_of(top[0].event), Party::Republican, "{top:?}");
}

#[test]
fn crafted_backend_config_mismatch_is_rejected() {
    // Encode a single-event detector, then flip its config byte to claim a
    // universe: the decoder must detect the backend/config mismatch.
    let mut det = BurstDetector::builder().single_event().build().unwrap();
    for t in 0..50u64 {
        det.ingest_single(Timestamp(t)).unwrap();
    }
    det.finalize();
    let bytes = det.to_bytes();

    // Locate the universe-flag byte: magic(4) + version(2) + variant
    // (tag 1 + gamma 8 + max_vertices 8) + epsilon 8 + delta 8 = offset 39.
    let flag_offset = 4 + 2 + 17 + 16;
    assert_eq!(bytes[flag_offset], 0, "expected single-event flag");
    let mut bad = bytes.clone();
    bad[flag_offset] = 1; // now claims Some(universe) but provides no u32
    assert!(BurstDetector::from_bytes(&bad).is_err());

    // Flip the hierarchy flag instead: config says hierarchical, backend
    // bytes still encode a single cell → mismatch.
    let hier_offset = flag_offset + 1; // no universe u32 present when flag=0
    let mut bad = bytes.clone();
    bad[hier_offset] = 2; // invalid flag value
    assert!(BurstDetector::from_bytes(&bad).is_err());
}
