//! Concurrent read-path load bench: ingest throughput with 0/1/2/4 reader
//! threads querying the published epochs, plus reader query throughput —
//! the serve-under-load numbers behind `results/concurrent_serve.md`.
//!
//! The writer ingests the full stream in batches, publishing an epoch
//! every `--publish-every`-equivalent cadence (`BED_CADENCE`, default
//! 8 192 arrivals); readers hammer point and bursty-event queries against
//! the latest published epoch until the writer finishes. Zero readers is
//! the baseline; the deltas show what concurrent queries cost ingest
//! (nothing, architecturally: readers never take the writer's locks — on
//! a single-core host they still steal cycles).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use bed_bench::{env_scale, print_table};
use bed_core::{
    AnyDetector, BurstDetector, BurstQueries, CheckpointPolicy, DetectorEpochs, EpochPublisher,
    PbeVariant, QueryRequest, QueryStrategy,
};
use bed_stream::{BurstSpan, EventId, Timestamp};
use bed_workload::{olympics, OlympicsConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cadence() -> u64 {
    std::env::var("BED_CADENCE").ok().and_then(|s| s.parse().ok()).unwrap_or(8_192)
}

/// One run: returns (ingest wall time, total reader queries answered).
fn run(els: &[(EventId, Timestamp)], readers: usize, cadence: u64) -> (Duration, u64) {
    let mut det = AnyDetector::Sharded(
        BurstDetector::builder()
            .universe(864)
            .variant(PbeVariant::pbe2(8.0))
            .accuracy(0.005, 0.02)
            .seed(42)
            .shards(4)
            .build()
            .unwrap(),
    );
    let epochs = DetectorEpochs::new(&det);
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let horizon = els.last().unwrap().1 .0;

    let ingest_time = std::thread::scope(|scope| {
        for i in 0..readers {
            let (epochs, done, queries) = (&epochs, &done, &queries);
            scope.spawn(move || {
                let view = epochs.view();
                let mut rng = SmallRng::seed_from_u64(7 + i as u64);
                let tau = BurstSpan::new(86_400).unwrap();
                let mut n = 0u64;
                while !done.load(Ordering::Acquire) {
                    let t = Timestamp(rng.gen_range(0..=horizon));
                    let req = if rng.gen_bool(0.9) {
                        QueryRequest::Point { event: EventId(rng.gen_range(0..864)), t, tau }
                    } else {
                        QueryRequest::BurstyEvents {
                            t,
                            theta: 100.0,
                            tau,
                            strategy: QueryStrategy::Pruned,
                        }
                    };
                    std::hint::black_box(view.query(&req).unwrap());
                    n += 1;
                }
                queries.fetch_add(n, Ordering::Relaxed);
            });
        }
        let started = std::time::Instant::now();
        let mut publisher = EpochPublisher::new(CheckpointPolicy { every_arrivals: cadence });
        for chunk in els.chunks(1_024) {
            for &(e, t) in chunk {
                det.ingest(e, t).unwrap();
            }
            publisher.maybe_publish(&det, &epochs);
        }
        det.finalize();
        epochs.publish(&det);
        let dt = started.elapsed();
        done.store(true, Ordering::Release);
        dt
    });
    (ingest_time, queries.load(Ordering::Relaxed))
}

fn main() {
    let n = env_scale();
    let cadence = cadence();
    let s = olympics::generate(OlympicsConfig { total_elements: n, seed: 42 });
    let els: Vec<(EventId, Timestamp)> =
        s.stream.elements().iter().map(|el| (el.event, el.ts)).collect();

    let mut rows = Vec::new();
    for readers in [0usize, 1, 2, 4] {
        let (dt, queries) = run(&els, readers, cadence);
        let ingest_rate = els.len() as f64 / dt.as_secs_f64();
        let query_rate = queries as f64 / dt.as_secs_f64();
        rows.push(vec![
            readers.to_string(),
            format!("{:.2}", dt.as_secs_f64()),
            format!("{:.0}", ingest_rate / 1_000.0),
            queries.to_string(),
            format!("{:.0}", query_rate / 1_000.0),
        ]);
    }
    print_table(
        &format!(
            "Concurrent serve: olympics N={}, 4 shards, publish every {} arrivals",
            els.len(),
            cadence
        ),
        ["readers", "ingest_s", "ingest_kelem_s", "queries", "query_k_s"],
        rows,
    );
}
