//! Quickstart: summarise a single event stream with PBE-2 and ask
//! historical burstiness questions.
//!
//! Run with: `cargo run --release --example quickstart`

use bed::{
    BurstDetector, BurstQueries, BurstSpan, EventId, PbeVariant, QueryRequest, QueryResponse,
    Timestamp,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A single "earthquake" event: quiet background chatter, then a sudden
    // cascade of mentions at minute 500, tapering off afterwards.
    let mut detector = BurstDetector::builder()
        .single_event()
        .variant(PbeVariant::pbe2(2.0)) // ≤ 2 mentions of pointwise error
        .build()?;

    for minute in 0..2_000u64 {
        // one background mention every 10 minutes
        if minute % 10 == 0 {
            detector.ingest_single(Timestamp(minute * 60))?;
        }
        // the cascade: 50 mentions/minute for 20 minutes
        if (500..520).contains(&minute) {
            for s in 0..50 {
                detector.ingest_single(Timestamp(minute * 60 + s))?;
            }
        }
    }
    detector.finalize();

    println!(
        "ingested {} mentions, summary uses {} bytes",
        detector.arrivals(),
        detector.size_bytes()
    );

    // POINT QUERY: how bursty was the event at minute 510, with a
    // 10-minute burst span? (A single-event detector's stream is event 0.)
    let tau = BurstSpan::new(600)?;
    let event = EventId(0);
    for minute in [100u64, 505, 515, 530, 560, 1_000] {
        let t = Timestamp(minute * 60);
        let QueryResponse::Point { burstiness, burst_frequency, .. } =
            detector.query(&QueryRequest::Point { event, t, tau })?
        else {
            unreachable!("a Point request gets a Point answer")
        };
        println!("b(minute {minute:>4}) = {burstiness:>8.1}   (rate {burst_frequency:>6.1}/span)");
    }

    // BURSTY TIME QUERY: when did burstiness exceed 300?
    let horizon = Timestamp(2_000 * 60);
    let times = detector.query(&QueryRequest::BurstyTimes { event, theta: 300.0, tau, horizon })?;
    let times = times.samples().expect("a BurstyTimes request gets samples");
    let (first, last) = (times.first().unwrap().0, times.last().unwrap().0);
    println!(
        "burstiness ≥ 300 between minute {} and minute {} ({} probe hits)",
        first.ticks() / 60,
        last.ticks() / 60,
        times.len()
    );
    Ok(())
}
