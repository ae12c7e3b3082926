//! Historical burst analysis over a mixed stream: the Rio-2016-like
//! workload of the paper's experiments.
//!
//! Builds a CM-PBE-backed detector over ~200k synthetic tweets (864 events,
//! one month at second granularity), then travels back in time:
//!   * point queries on soccer around the "final",
//!   * a bursty-time query recovering the swimming week,
//!   * a bursty-event query for "what burst on day 21?".
//!
//! Run with: `cargo run --release --example olympics`

use bed::workload::olympics::{self, OlympicsConfig};
use bed::{
    BurstDetector, BurstQueries, BurstSpan, PbeVariant, QueryRequest, QueryResponse, QueryStrategy,
    Timestamp,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = olympics::generate(OlympicsConfig { total_elements: 200_000, seed: 2016 });
    println!(
        "generated {} elements over {} events",
        data.stream.len(),
        data.stream.distinct_events().len()
    );

    let mut detector = BurstDetector::builder()
        .universe(data.universe)
        .variant(PbeVariant::pbe2(8.0))
        .accuracy(0.005, 0.02) // the paper's ε/δ
        .seed(7)
        .build()?;
    for el in data.stream.iter() {
        detector.ingest(el.event, el.ts)?;
    }
    detector.finalize();
    println!(
        "detector holds {} KB for a stream the exact baseline stores in {} KB\n",
        detector.size_bytes() / 1024,
        data.stream.len() * 16 / 1024
    );

    let tau = BurstSpan::DAY_SECONDS;
    let day = |d: u64| Timestamp(d * 86_400);

    // Was soccer bursty on the final's day? And the day after?
    for d in [19u64, 21, 23] {
        let answer = detector.query(&QueryRequest::Point { event: data.soccer, t: day(d), tau })?;
        let b = answer.burstiness().expect("a Point request gets a Point answer");
        println!("soccer burstiness on day {d}: {b:>10.0}");
    }

    // When was swimming hot? (bursty-time query)
    let horizon = Timestamp(olympics::OLYMPICS_HORIZON_SECS);
    let times = detector.query(&QueryRequest::BurstyTimes {
        event: data.swimming,
        theta: 400.0,
        tau,
        horizon,
    })?;
    let times = times.samples().expect("a BurstyTimes request gets samples");
    if let (Some(first), Some(last)) = (times.first(), times.last()) {
        println!(
            "\nswimming bursty (θ=400) from day {:.1} to day {:.1}",
            first.0.ticks() as f64 / 86_400.0,
            last.0.ticks() as f64 / 86_400.0
        );
    }

    // What burst on day 21? (bursty-event query, pruned dyadic search)
    let QueryResponse::BurstyEvents { hits, stats } =
        detector.query(&QueryRequest::BurstyEvents {
            t: day(21),
            theta: 2_000.0,
            tau,
            strategy: QueryStrategy::Pruned,
        })?
    else {
        unreachable!("a BurstyEvents request gets a BurstyEvents answer")
    };
    println!(
        "\nbursty events on day 21 (θ=2000): {} hits using {} probes (vs {} events)",
        hits.len(),
        stats.point_queries,
        data.universe
    );
    for h in hits.iter().take(5) {
        let label = if h.event == data.soccer {
            "soccer"
        } else if h.event == data.swimming {
            "swimming"
        } else {
            "other"
        };
        println!("  {:>8}  b̃ = {:>10.0}  ({label})", h.event.to_string(), h.burstiness);
    }
    Ok(())
}
