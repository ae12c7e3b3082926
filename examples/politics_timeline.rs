//! Rebuilding the paper's Fig. 13 storyline: a burst timeline of
//! Democrat vs Republican events across a six-month campaign stream,
//! detected per day with the hierarchical bursty-event query.
//!
//! Run with: `cargo run --release --example politics_timeline`

use bed::workload::politics::{self, Party, PoliticsConfig, POLITICS_HORIZON_SECS};
use bed::{
    BurstDetector, BurstQueries, BurstSpan, PbeVariant, QueryRequest, QueryStrategy, Timestamp,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data =
        politics::generate(PoliticsConfig { total_elements: 200_000, skew: 1.1, seed: 1776 });
    println!("generated {} elements over {} events", data.stream.len(), data.universe);

    let mut detector = BurstDetector::builder()
        .universe(data.universe)
        .variant(PbeVariant::pbe2(8.0))
        .accuracy(0.005, 0.02)
        .seed(11)
        .build()?;
    for el in data.stream.iter() {
        detector.ingest(el.event, el.ts)?;
    }
    detector.finalize();

    let tau = BurstSpan::DAY_SECONDS;
    let theta = 15.0;
    let days = POLITICS_HORIZON_SECS / 86_400;

    println!("\nday  democrat   republican  (one █ per 200 units of summed burstiness)");
    for d in 1..days {
        let t = Timestamp(d * 86_400 + 43_200);
        let answer = detector.query(&QueryRequest::BurstyEvents {
            t,
            theta,
            tau,
            strategy: QueryStrategy::Pruned,
        })?;
        let mut dem = 0.0f64;
        let mut rep = 0.0f64;
        for h in answer.hits().expect("a BurstyEvents request gets hits") {
            match data.party_of(h.event) {
                Party::Democrat => dem += h.burstiness,
                Party::Republican => rep += h.burstiness,
            }
        }
        if dem + rep < 200.0 {
            continue; // quiet day
        }
        let bar = |v: f64| "█".repeat((v / 200.0).min(40.0) as usize);
        let moment: String = data
            .national_moments
            .iter()
            .filter(|&&(md, _)| md == d)
            .map(|&(_, p)| format!("  << {p:?} moment"))
            .collect();
        println!("{d:>3}  D {dem:>8.0} {:<20}  R {rep:>8.0} {}{moment}", bar(dem), bar(rep));
    }
    Ok(())
}
