//! Concurrency harness: N reader threads hammer all five query kinds
//! against a writer ingesting realistic workloads, with every sampled
//! answer replayed against a freshly built oracle detector at that
//! answer's epoch watermark — bit-for-bit equality, no torn reads, no
//! stale-beyond-cadence reads.
//!
//! The invariants pinned per answer:
//!
//! 1. **Published-only**: the answering epoch's watermark is one the
//!    writer actually published (genesis included) — a torn read would
//!    surface as an arrivals count nobody published.
//! 2. **Monotonicity**: a reader never goes back in time — coherent
//!    (bursty-event) answers are globally non-decreasing per reader, and
//!    per-event answers are non-decreasing per event (shard cells publish
//!    in sequence, so cross-event ordering is deliberately unspecified).
//! 3. **Oracle equality**: a sampled `(request, response, arrivals)`
//!    triple equals the response of a same-layout detector freshly built
//!    from exactly the first `arrivals` stream elements and finalized.
//! 4. **Freshness**: once the writer is done (final publish included),
//!    `refresh_latest` observes the full stream — readers are never stale
//!    beyond the publish cadence.
//!
//! Seeds sweep via `BED_CONCURRENCY_SEED` (default 1), mirroring the
//! recovery suite's `BED_FAULT_SEED`; CI loops a few seeds. The proptest
//! half interleaves publish/read/checkpoint and pins `restored ==
//! published` across generations, down to byte equality of the encoded
//! detectors on the plain layout.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bed_core::{
    recover, AnyDetector, BurstDetector, BurstQueries, DetectorEpochs, EpochReader, PbeVariant,
    QueryRequest, QueryResponse, QueryStrategy, SnapshotCell, SnapshotStore, TimeRange,
};
use bed_stream::{BurstSpan, Codec as _, EventId, Timestamp};
use bed_workload::{olympics, politics, OlympicsConfig, PoliticsConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const READERS: usize = 4;
const CADENCE: u64 = 2_048;
/// Sample every Nth answer for oracle verification, capped per reader so
/// the rebuild phase stays bounded.
const SAMPLE_EVERY: usize = 7;
const SAMPLE_CAP: usize = 24;

fn seed() -> u64 {
    std::env::var("BED_CONCURRENCY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Same-config detector in either layout (0 = plain, n ≥ 2 = sharded).
fn build(layout: usize, universe: u32, seed: u64) -> AnyDetector {
    let builder = BurstDetector::builder()
        .universe(universe)
        .variant(PbeVariant::pbe2(2.0))
        .accuracy(0.02, 0.1)
        .seed(seed);
    if layout == 0 {
        AnyDetector::Plain(Box::new(builder.build().unwrap()))
    } else {
        AnyDetector::Sharded(builder.shards(layout).build().unwrap())
    }
}

/// One of the five canonical kinds with randomized-but-valid parameters.
fn random_request(rng: &mut SmallRng, universe: u32, horizon: u64) -> QueryRequest {
    let event = EventId(rng.gen_range(0..universe));
    let tau = BurstSpan::new(rng.gen_range(1..=(horizon / 4).max(1))).unwrap();
    let t = Timestamp(rng.gen_range(0..=horizon));
    match rng.gen_range(0..5) {
        0 => QueryRequest::Point { event, t, tau },
        1 => QueryRequest::BurstyTimes { event, theta: rng.gen_range(0.5..50.0), tau, horizon: t },
        2 => QueryRequest::BurstyEvents {
            t,
            theta: rng.gen_range(1.0..50.0),
            tau,
            strategy: if rng.gen_bool(0.5) {
                QueryStrategy::Pruned
            } else {
                QueryStrategy::ExactScan
            },
        },
        3 => {
            let (a, b) = (rng.gen_range(0..=horizon), rng.gen_range(0..=horizon));
            QueryRequest::Series {
                event,
                tau,
                range: TimeRange { start: Timestamp(a.min(b)), end: Timestamp(a.max(b)) },
                step: rng.gen_range(1..=(horizon / 8).max(1)),
            }
        }
        _ => QueryRequest::TopK { event, k: rng.gen_range(1..8), tau, horizon: t },
    }
}

/// One answer kept for post-hoc oracle verification.
struct Sampled {
    arrivals: u64,
    request: QueryRequest,
    response: QueryResponse,
}

/// The writer: ingest in chunks, record-then-publish at the cadence, one
/// final publish covering the whole stream, then raise `done`.
///
/// Recording the arrivals count *before* the publish keeps the
/// published-set membership check race-free: by the time any reader can
/// observe a generation, its watermark is already in the set.
fn writer(
    els: &[(EventId, Timestamp)],
    det: &mut AnyDetector,
    epochs: &DetectorEpochs,
    published: &Mutex<Vec<u64>>,
    done: &AtomicBool,
) {
    let mut last_pub = 0u64;
    for chunk in els.chunks(257) {
        for &(e, t) in chunk {
            det.ingest(e, t).unwrap();
        }
        let arrivals = det.arrivals();
        if arrivals - last_pub >= CADENCE {
            published.lock().unwrap().push(arrivals);
            epochs.publish(det);
            last_pub = arrivals;
        }
    }
    published.lock().unwrap().push(det.arrivals());
    epochs.publish(det);
    done.store(true, Ordering::Release);
}

/// One reader: hammer random queries, check the per-answer invariants,
/// sample a bounded subset for oracle verification, and exit once the
/// final epoch is visible.
fn reader(
    epochs: &DetectorEpochs,
    universe: u32,
    horizon: u64,
    total: u64,
    published: &Mutex<Vec<u64>>,
    done: &AtomicBool,
    seed: u64,
) -> Vec<Sampled> {
    let view = epochs.view();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut per_event: HashMap<u32, u64> = HashMap::new();
    let mut coherent_floor = 0u64;
    let mut answered = 0usize;
    loop {
        let request = random_request(&mut rng, universe, horizon);
        let response = view.query(&request).expect("randomized requests are always valid");
        let arrivals = view.answer_watermark().arrivals;
        assert!(
            published.lock().unwrap().contains(&arrivals),
            "answer from unpublished watermark {arrivals} — torn read"
        );
        match request {
            QueryRequest::BurstyEvents { .. } => {
                assert!(
                    arrivals >= coherent_floor,
                    "coherent answers went backwards: {arrivals} < {coherent_floor}"
                );
                coherent_floor = arrivals;
            }
            QueryRequest::Point { event, .. }
            | QueryRequest::BurstyTimes { event, .. }
            | QueryRequest::Series { event, .. }
            | QueryRequest::TopK { event, .. } => {
                let floor = per_event.entry(event.0).or_insert(0);
                assert!(
                    arrivals >= *floor,
                    "event {} answers went backwards: {arrivals} < {floor}",
                    event.0
                );
                *floor = arrivals;
            }
        }
        answered += 1;
        if answered.is_multiple_of(SAMPLE_EVERY) && samples.len() < SAMPLE_CAP {
            samples.push(Sampled { arrivals, request, response });
        }
        // Freshness: after the writer's final publish, one refresh must
        // observe the complete stream.
        if done.load(Ordering::Acquire) {
            let latest = view.refresh_latest().arrivals;
            assert_eq!(latest, total, "stale beyond the final publish");
            break;
        }
    }
    samples
}

/// Rebuilds an oracle per distinct sampled watermark (prefix ingest +
/// finalize) and replays every sampled request against it.
fn verify_against_oracles(
    els: &[(EventId, Timestamp)],
    layout: usize,
    universe: u32,
    seed: u64,
    samples: Vec<Sampled>,
) {
    let mut oracles: HashMap<u64, AnyDetector> = HashMap::new();
    let mut verified = 0usize;
    for s in samples {
        let oracle = oracles.entry(s.arrivals).or_insert_with(|| {
            let mut det = build(layout, universe, seed);
            for &(e, t) in &els[..s.arrivals as usize] {
                det.ingest(e, t).unwrap();
            }
            det.finalize();
            det
        });
        assert_eq!(
            s.response,
            oracle.queries().query(&s.request).expect("oracle accepts the same request"),
            "answer diverged from a fresh rebuild at arrivals={} for {:?}",
            s.arrivals,
            s.request
        );
        verified += 1;
    }
    assert!(verified > 0, "the readers sampled nothing — the harness is vacuous");
}

/// The full stress round for one workload and one layout.
fn stress(els: &[(EventId, Timestamp)], universe: u32, layout: usize, seed: u64) {
    let mut det = build(layout, universe, seed);
    let epochs = DetectorEpochs::new(&det);
    let total = els.len() as u64;
    let horizon = els.last().expect("non-empty workload").1 .0;
    let published = Mutex::new(vec![0u64]);
    let done = AtomicBool::new(false);

    let per_reader: Vec<Vec<Sampled>> = std::thread::scope(|scope| {
        scope.spawn(|| writer(els, &mut det, &epochs, &published, &done));
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let (epochs, published, done) = (&epochs, &published, &done);
                let reader_seed = seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                scope.spawn(move || {
                    reader(epochs, universe, horizon, total, published, done, reader_seed)
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for samples in per_reader {
        verify_against_oracles(els, layout, universe, seed, samples);
    }
}

fn elements(stream: &bed_stream::EventStream) -> Vec<(EventId, Timestamp)> {
    stream.elements().iter().map(|el| (el.event, el.ts)).collect()
}

#[test]
fn olympics_concurrent_reads_match_oracle_rebuilds() {
    let seed = seed();
    let s = olympics::generate(OlympicsConfig { total_elements: 40_000, seed });
    let els = elements(&s.stream);
    for layout in [0, 3] {
        stress(&els, s.universe, layout, seed);
    }
}

#[test]
fn politics_concurrent_reads_match_oracle_rebuilds() {
    let seed = seed();
    let s = politics::generate(PoliticsConfig { total_elements: 40_000, skew: 1.1, seed });
    let els = elements(&s.stream);
    for layout in [0, 3] {
        stress(&els, s.universe, layout, seed);
    }
}

// ---- publish / read / checkpoint interleavings ------------------------

/// Unique scratch directory per proptest case.
fn scratch() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bed-concurrent-reads-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    /// At every cut of a random stream: publish an epoch, checkpoint the
    /// live detector, recover from the checkpoint, and pin `restored ==
    /// published` — watermark equality, query equality over a grid, and
    /// (on the plain layout) byte equality of the encoded detectors.
    #[test]
    fn restored_equals_published_across_generations(
        els in prop::collection::vec((0u32..16, 1u64..4), 20..200),
        cuts in prop::collection::vec(1usize..100, 1..4),
        layout_pick in 0usize..3,
        seed in 0u64..64,
    ) {
        let mut t = 0u64;
        let stream: Vec<(EventId, Timestamp)> = els
            .iter()
            .map(|&(e, dt)| {
                t += dt;
                (EventId(e), Timestamp(t))
            })
            .collect();
        let layout = [0usize, 2, 3][layout_pick];
        let len = stream.len();
        let mut cut_idx: Vec<usize> =
            cuts.iter().map(|&c| (c * len / 100).max(1)).collect();
        cut_idx.sort_unstable();
        cut_idx.dedup();

        let mut det = build(layout, 16, seed);
        let epochs = DetectorEpochs::new(&det);
        let view = epochs.view();
        // A raw cell alongside, for the byte-level check on plain layouts.
        let cell: SnapshotCell<BurstDetector> = SnapshotCell::new();
        let mut cell_reader: EpochReader<BurstDetector> = EpochReader::new();
        let dir = scratch();

        let mut pos = 0usize;
        for (generation, &cut) in cut_idx.iter().enumerate() {
            for &(e, ts) in &stream[pos..cut] {
                det.ingest(e, ts).unwrap();
            }
            pos = cut;

            let watermark = epochs.publish(&det);
            prop_assert_eq!(watermark.arrivals, cut as u64);
            if let AnyDetector::Plain(d) = &det {
                let mut clone = (**d).clone();
                clone.finalize();
                cell.publish(watermark, || clone);
            }

            let store = SnapshotStore::new(dir.join(format!("gen{generation}.beds")));
            store.save(&det).unwrap();
            let outcome = recover(&store, None).unwrap();
            prop_assert_eq!(outcome.watermark.arrivals, cut as u64);
            let mut restored = outcome.detector;
            restored.finalize();

            // The published epoch and the restored checkpoint answer
            // identically at this generation.
            prop_assert_eq!(view.refresh_latest().arrivals, cut as u64);
            let tau = BurstSpan::new(5).unwrap();
            let last = stream[cut - 1].1 .0;
            for e in 0..16u32 {
                for qt in [0u64, last / 2, last] {
                    let req = QueryRequest::Point {
                        event: EventId(e),
                        t: Timestamp(qt),
                        tau,
                    };
                    prop_assert_eq!(
                        view.query(&req).unwrap(),
                        restored.queries().query(&req).unwrap(),
                        "generation {} event {} t {}", generation, e, qt
                    );
                }
            }
            let req = QueryRequest::BurstyEvents {
                t: Timestamp(last),
                theta: 1.0,
                tau,
                strategy: QueryStrategy::ExactScan,
            };
            prop_assert_eq!(
                view.query(&req).unwrap(),
                restored.queries().query(&req).unwrap()
            );

            if let AnyDetector::Plain(restored_plain) = &restored {
                cell_reader.refresh(&cell);
                let epoch = cell_reader.current().expect("published above");
                prop_assert_eq!(epoch.watermark.arrivals, cut as u64);
                prop_assert_eq!(
                    epoch.data.to_bytes(),
                    restored_plain.to_bytes(),
                    "published and restored states diverge at the byte level"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
