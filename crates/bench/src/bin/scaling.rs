//! Core-aware shard scaling: the 1/2/4/8-shard ingest + query curve with
//! the measurement host's core count stamped into the artifact — the
//! numbers behind `results/sharded_ingest.md`.
//!
//! Ingest is the sharded batch path (`ingest_batch` partitions the stream
//! and runs one scoped worker per shard, `finalize` included so the SoA
//! probe banks are built). Queries run through published epochs with one
//! reader thread per shard, each hammering point probes from its own
//! `bed_core::EpochView` — the concurrent read architecture the serve
//! layer uses.
//! On a single-core host the curve records sharding *overhead* rather
//! than speedup; the `nproc` column makes that legible in the artifact,
//! and CI simply checks the file exists and is well-formed.
//!
//! Scale: `BED_N` arrivals (default 200k; paper-scale runs use 1M),
//! `BED_QUERY_N` total point queries per layout (default 100k).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bed_bench::{env_scale, print_table};
use bed_core::{
    AnyDetector, BurstDetector, BurstQueries, DetectorEpochs, EventSink, PbeVariant, QueryRequest,
};
use bed_stream::{BurstSpan, EventId, Timestamp};
use bed_workload::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const UNIVERSE: u32 = 1_024;

fn query_scale() -> u64 {
    std::env::var("BED_QUERY_N").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000)
}

/// The heavy-tailed mixed workload the sharding layer targets (same shape
/// as the `ingest_sharded` Criterion group).
fn zipf_workload(n: u64) -> Vec<(EventId, Timestamp)> {
    let zipf = Zipf::new(UNIVERSE as usize, 1.1);
    let mut rng = SmallRng::seed_from_u64(0xBED);
    (0..n).map(|i| (EventId(zipf.sample(&mut rng) as u32), Timestamp(i / 20))).collect()
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let n = env_scale();
    let q_total = query_scale();
    let els = zipf_workload(n);
    let horizon = els.last().map_or(0, |&(_, t)| t.0);
    let tau = BurstSpan::new((horizon / 20).max(1)).unwrap();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut det = AnyDetector::Sharded(
            BurstDetector::builder()
                .universe(UNIVERSE)
                .variant(PbeVariant::pbe2(8.0))
                .accuracy(0.005, 0.02)
                .seed(7)
                .shards(shards)
                .build()
                .unwrap(),
        );

        let start = Instant::now();
        det.ingest_batch(&els).unwrap();
        det.finalize();
        let ingest = start.elapsed();

        // One reader thread per shard, each answering its slice of the
        // query budget from its own epoch view.
        let epochs = DetectorEpochs::new(&det);
        let answered = AtomicU64::new(0);
        let per_thread = q_total / shards as u64;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..shards {
                let (epochs, answered) = (&epochs, &answered);
                scope.spawn(move || {
                    let view = epochs.view();
                    let mut rng = SmallRng::seed_from_u64(0xC0DE + worker as u64);
                    let mut ok = 0u64;
                    for _ in 0..per_thread {
                        let req = QueryRequest::Point {
                            event: EventId(rng.gen_range(0..UNIVERSE)),
                            t: Timestamp(rng.gen_range(0..=horizon)),
                            tau,
                        };
                        if view.query(&req).is_ok() {
                            ok += 1;
                        }
                    }
                    answered.fetch_add(ok, Ordering::Relaxed);
                });
            }
        });
        let query = start.elapsed();
        let answered = answered.load(Ordering::Relaxed);

        rows.push(vec![
            nproc.to_string(),
            shards.to_string(),
            format!("{:.3}", ingest.as_secs_f64()),
            format!("{:.0}", els.len() as f64 / ingest.as_secs_f64() / 1e3),
            answered.to_string(),
            format!("{:.3}", query.as_secs_f64()),
            format!("{:.0}", answered as f64 / query.as_secs_f64() / 1e3),
        ]);
    }

    print_table(
        &format!(
            "Shard scaling — nproc={nproc}, {n} Zipf(1.1) arrivals over {UNIVERSE} events, \
             hierarchical CM-PBE-2 (γ=8, ε=0.005, δ=0.02), {q_total} point queries per layout"
        ),
        ["nproc", "shards", "ingest_s", "ingest_kelem_s", "queries", "query_s", "query_kq_s"],
        rows,
    );
}
