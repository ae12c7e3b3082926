//! Tier-1 smoke of the concurrent read path: readers hammer the published
//! epochs while a writer ingests, and every sampled answer must equal a
//! fresh same-prefix rebuild. This is the scaled-down always-on cousin of
//! the full harness in `crates/core/tests/concurrent_reads.rs` (4 readers,
//! real workloads, seed sweeps) — small enough for `cargo test -q`, sharp
//! enough to catch a torn or stale read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bed::{
    AnyDetector, BurstDetector, BurstQueries, BurstSpan, DetectorEpochs, EventId, PbeVariant,
    QueryRequest, QueryResponse, QueryStrategy, Timestamp,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const READERS: usize = 2;
const CADENCE: u64 = 512;
const UNIVERSE: u32 = 32;
const TOTAL: u64 = 6_000;
const SAMPLE_CAP: usize = 8;

/// Same-config detector in either layout (0 = plain, n ≥ 2 = sharded).
fn build(layout: usize) -> AnyDetector {
    let builder = BurstDetector::builder()
        .universe(UNIVERSE)
        .variant(PbeVariant::pbe2(2.0))
        .accuracy(0.02, 0.1)
        .seed(11);
    if layout == 0 {
        AnyDetector::Plain(Box::new(builder.build().unwrap()))
    } else {
        AnyDetector::Sharded(builder.shards(layout).build().unwrap())
    }
}

/// A deterministic stream with a hot event so bursty-event queries have
/// something to find.
fn stream() -> Vec<(EventId, Timestamp)> {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut els = Vec::with_capacity(TOTAL as usize);
    let mut t = 0u64;
    while els.len() < TOTAL as usize {
        t += rng.gen_range(0..2);
        let e = if (4_000..4_400).contains(&t) && rng.gen_bool(0.5) {
            EventId(7)
        } else {
            EventId(rng.gen_range(0..UNIVERSE))
        };
        els.push((e, Timestamp(t)));
    }
    els
}

struct Sampled {
    arrivals: u64,
    request: QueryRequest,
    response: QueryResponse,
}

fn reader(
    epochs: &DetectorEpochs,
    horizon: u64,
    published: &Mutex<Vec<u64>>,
    done: &AtomicBool,
    seed: u64,
) -> Vec<Sampled> {
    let view = epochs.view();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut per_event: HashMap<u32, u64> = HashMap::new();
    loop {
        let event = EventId(rng.gen_range(0..UNIVERSE));
        let tau = BurstSpan::new(rng.gen_range(1..=horizon / 4)).unwrap();
        let t = Timestamp(rng.gen_range(0..=horizon));
        let request = match rng.gen_range(0..3) {
            0 => QueryRequest::Point { event, t, tau },
            1 => QueryRequest::TopK { event, k: 3, tau, horizon: t },
            _ => QueryRequest::BurstyEvents {
                t,
                theta: rng.gen_range(1.0..20.0),
                tau,
                strategy: QueryStrategy::Pruned,
            },
        };
        let response = view.query(&request).expect("requests are always valid");
        let arrivals = view.answer_watermark().arrivals;
        assert!(
            published.lock().unwrap().contains(&arrivals),
            "answer from unpublished watermark {arrivals} — torn read"
        );
        if let QueryRequest::Point { event, .. } | QueryRequest::TopK { event, .. } = request {
            let floor = per_event.entry(event.0).or_insert(0);
            assert!(arrivals >= *floor, "event {} went back in time", event.0);
            *floor = arrivals;
        }
        if samples.len() < SAMPLE_CAP {
            samples.push(Sampled { arrivals, request, response });
        }
        if done.load(Ordering::Acquire) {
            assert_eq!(view.refresh_latest().arrivals, TOTAL, "stale past the final publish");
            break;
        }
    }
    samples
}

fn smoke(layout: usize) {
    let els = stream();
    let horizon = els.last().unwrap().1 .0.max(8);
    let mut det = build(layout);
    let epochs = DetectorEpochs::new(&det);
    let published = Mutex::new(vec![0u64]);
    let done = AtomicBool::new(false);

    let per_reader: Vec<Vec<Sampled>> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut last_pub = 0u64;
            for chunk in els.chunks(129) {
                for &(e, t) in chunk {
                    det.ingest(e, t).unwrap();
                }
                let arrivals = det.arrivals();
                if arrivals - last_pub >= CADENCE {
                    // Record before publishing, so any generation a reader
                    // can observe is already in the published set.
                    published.lock().unwrap().push(arrivals);
                    epochs.publish(&det);
                    last_pub = arrivals;
                }
            }
            published.lock().unwrap().push(det.arrivals());
            epochs.publish(&det);
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let (epochs, published, done) = (&epochs, &published, &done);
                scope.spawn(move || reader(epochs, horizon, published, done, 100 + i as u64))
            })
            .collect();
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every sampled answer equals a fresh rebuild of its watermark prefix.
    let mut oracles: HashMap<u64, AnyDetector> = HashMap::new();
    let mut verified = 0usize;
    for s in per_reader.into_iter().flatten() {
        let oracle = oracles.entry(s.arrivals).or_insert_with(|| {
            let mut det = build(layout);
            for &(e, t) in &els[..s.arrivals as usize] {
                det.ingest(e, t).unwrap();
            }
            det.finalize();
            det
        });
        assert_eq!(
            s.response,
            oracle.queries().query(&s.request).unwrap(),
            "diverged from rebuild at arrivals={} for {:?}",
            s.arrivals,
            s.request
        );
        verified += 1;
    }
    assert!(verified > 0, "readers sampled nothing — vacuous run");
}

#[test]
fn plain_layout_concurrent_reads_smoke() {
    smoke(0);
}

#[test]
fn sharded_layout_concurrent_reads_smoke() {
    smoke(2);
}
