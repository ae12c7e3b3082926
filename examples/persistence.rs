//! Persistence walkthrough: build a detector, store it as a file, reload it
//! later (or on another machine) and keep querying — the "persistent" in
//! persistent burstiness estimation.
//!
//! Run with: `cargo run --release --example persistence`

use bed::stream::Codec;
use bed::workload::olympics::{self, OlympicsConfig};
use bed::{
    BurstDetector, BurstQueries, BurstSpan, PbeVariant, QueryRequest, QueryResponse, QueryStrategy,
    Timestamp,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = olympics::generate(OlympicsConfig { total_elements: 100_000, seed: 2016 });

    // Phase 1 (the "archiver"): summarise the stream and store the summary.
    let mut det = BurstDetector::builder()
        .universe(data.universe)
        .variant(PbeVariant::pbe2(8.0))
        .accuracy(0.005, 0.02)
        .seed(7)
        .build()?;
    for el in data.stream.iter() {
        det.ingest(el.event, el.ts)?;
    }
    det.finalize();

    let path = std::env::temp_dir().join("rio-2016.bed");
    let bytes = det.to_bytes();
    std::fs::write(&path, &bytes)?;
    println!(
        "archived {} elements into {} ({} KB on disk, summary {} KB)",
        det.arrivals(),
        path.display(),
        bytes.len() / 1024,
        det.size_bytes() / 1024
    );

    // Phase 2 (the "historian", possibly months later): reload and query.
    let restored = BurstDetector::from_bytes(&std::fs::read(&path)?)?;
    let tau = BurstSpan::DAY_SECONDS;
    let day21 = Timestamp(21 * 86_400);
    println!("\nhistorian asks: what burst on day 21?");
    let QueryResponse::BurstyEvents { hits, stats } =
        restored.query(&QueryRequest::BurstyEvents {
            t: day21,
            theta: 1_000.0,
            tau,
            strategy: QueryStrategy::Pruned,
        })?
    else {
        unreachable!("a BurstyEvents request gets a BurstyEvents answer")
    };
    for h in &hits {
        println!("  {}  b̃ = {:.0}", h.event, h.burstiness);
    }
    println!("  ({} probes over a {}-event universe)", stats.point_queries, data.universe);

    // The restored detector answers identically to the original.
    let soccer = QueryRequest::Point { event: data.soccer, t: day21, tau };
    assert_eq!(det.query(&soccer)?, restored.query(&soccer)?);
    println!("\nrestored sketch answers are bit-identical to the original — done.");
    Ok(())
}
