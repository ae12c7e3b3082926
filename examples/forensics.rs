//! Historical forensics: how close is the sketch to ground truth when you
//! go back in time?
//!
//! Mirrors the paper's motivating scenario — "understand how a city's
//! emergency network responded under an emergency event" — by replaying an
//! incident window and comparing the sketch's answers against the exact
//! baseline it would normally be too expensive to keep.
//!
//! Run with: `cargo run --release --example forensics`

use bed::stream::ExactBaseline;
use bed::{BurstDetector, BurstQueries, BurstSpan, EventId, PbeVariant, QueryRequest, Timestamp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Simulate a city feed: 32 channels (fire, police, transit, ...) with
    // Poisson chatter; a "fire breakout" cascades across three channels with
    // staggered onsets around hour 100.
    let mut rng = SmallRng::seed_from_u64(5);
    let mut els: Vec<(u32, u64)> = Vec::new();
    for hour in 0..240u64 {
        for ch in 0..32u32 {
            let mut rate = 2.0;
            if (100..106).contains(&hour) {
                match ch {
                    0 => rate += 60.0 * (hour - 99) as f64, // fire dept: sharp ramp
                    1 if hour >= 101 => rate += 80.0,       // police: delayed plateau
                    2 if hour >= 103 => rate += 40.0,       // transit: later still
                    _ => {}
                }
            }
            let count = rate as u64 + rng.gen_range(0..3);
            for _ in 0..count {
                els.push((ch, hour * 3_600 + rng.gen_range(0..3_600)));
            }
        }
    }
    els.sort_by_key(|&(_, t)| t);

    // Build both the exact baseline (what you normally can't afford) and
    // the sketch.
    let mut baseline = ExactBaseline::new();
    let mut detector = BurstDetector::builder()
        .universe(32)
        .variant(PbeVariant::pbe1(64))
        .accuracy(0.002, 0.02)
        .seed(3)
        .build()?;
    for &(e, t) in &els {
        baseline.ingest(EventId(e), Timestamp(t))?;
        detector.ingest(EventId(e), Timestamp(t))?;
    }
    detector.finalize();
    println!(
        "stream: {} elements | exact store: {} KB | sketch: {} KB\n",
        els.len(),
        baseline.size_bytes() / 1024,
        detector.size_bytes() / 1024
    );

    // Replay the incident hour by hour: which channels were accelerating?
    let tau = BurstSpan::new(3_600)?;
    println!("hour | channel: sketch b̃ (exact b) for the three responders");
    for hour in 99..108u64 {
        let t = Timestamp(hour * 3_600 + 3_599);
        let mut row = Vec::new();
        for ch in 0..3u32 {
            let event = EventId(ch);
            let answer = detector.query(&QueryRequest::Point { event, t, tau })?;
            let est = answer.burstiness().expect("a Point request gets a Point answer");
            let truth = baseline.point_query(event, t, tau);
            row.push(format!("ch{ch}: {est:>7.0} ({truth:>6})"));
        }
        println!("{hour:>4} | {}", row.join("   "));
    }

    // Mean absolute error over many random historical probes.
    let mut err = 0.0;
    let probes = 1_000;
    for _ in 0..probes {
        let event = EventId(rng.gen_range(0..32));
        let t = Timestamp(rng.gen_range(0..240 * 3_600));
        let answer = detector.query(&QueryRequest::Point { event, t, tau })?;
        let est = answer.burstiness().expect("a Point request gets a Point answer");
        err += (est - baseline.point_query(event, t, tau) as f64).abs();
    }
    println!("\nmean |b̃ − b| over {probes} random historical probes: {:.1}", err / probes as f64);
    Ok(())
}
