//! Ingest throughput of every sketch variant.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use bed_core::{BurstDetector, PbeVariant};
use bed_pbe::{CurveSketch, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed_sketch::{CmPbe, SketchParams};
use bed_stream::{EventId, Timestamp};
use bed_workload::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A deterministic mixed workload: 50k elements over 1k events, mildly
/// bursty timestamps.
fn workload() -> Vec<(EventId, Timestamp)> {
    let mut x = 0x9E37_79B9u64;
    let mut out = Vec::with_capacity(50_000);
    for i in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let e = EventId((x % 1_000) as u32);
        out.push((e, Timestamp(i / 5)));
    }
    out
}

fn bench_ingest(c: &mut Criterion) {
    let els = workload();
    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Elements(els.len() as u64));

    g.bench_function("pbe1_single", |b| {
        b.iter_batched(
            || Pbe1::new(Pbe1Config { n_buf: 1_500, eta: 128 }).unwrap(),
            |mut p| {
                for &(_, t) in &els {
                    p.update(t);
                }
                p.finalize();
                p.size_bytes()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("pbe2_single", |b| {
        b.iter_batched(
            || Pbe2::new(Pbe2Config { gamma: 8.0, max_vertices: 64 }).unwrap(),
            |mut p| {
                for &(_, t) in &els {
                    p.update(t);
                }
                p.finalize();
                p.size_bytes()
            },
            BatchSize::SmallInput,
        )
    });

    let params = SketchParams { epsilon: 0.01, delta: 0.05 };
    g.bench_function("cmpbe1_mixed", |b| {
        b.iter_batched(
            || {
                CmPbe::new(params, 7, || Pbe1::new(Pbe1Config { n_buf: 1_500, eta: 32 }).unwrap())
                    .unwrap()
            },
            |mut cm| {
                for &(e, t) in &els {
                    cm.update(e, t);
                }
                cm.finalize();
                cm.size_bytes()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("cmpbe2_mixed", |b| {
        b.iter_batched(
            || {
                CmPbe::new(params, 7, || {
                    Pbe2::new(Pbe2Config { gamma: 8.0, max_vertices: 64 }).unwrap()
                })
                .unwrap()
            },
            |mut cm| {
                for &(e, t) in &els {
                    cm.update(e, t);
                }
                cm.finalize();
                cm.size_bytes()
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

/// A 1M-arrival Zipf(1.1) stream over 1024 events — the heavy-tailed
/// mixed workload the sharding layer targets.
fn zipf_workload(n: u64, universe: u32) -> Vec<(EventId, Timestamp)> {
    let zipf = Zipf::new(universe as usize, 1.1);
    let mut rng = SmallRng::seed_from_u64(0xBED);
    (0..n).map(|i| (EventId(zipf.sample(&mut rng) as u32), Timestamp(i / 20))).collect()
}

/// Shard scaling of batch ingestion: the same hierarchical detector
/// configuration split 1/2/4/8 ways. `results/sharded_ingest.md` tracks
/// the throughput curve; speedup above 1 shard needs as many free cores.
fn bench_ingest_sharded(c: &mut Criterion) {
    let universe = 1_024u32;
    let els = zipf_workload(1_000_000, universe);
    let mut g = c.benchmark_group("ingest_sharded");
    g.throughput(Throughput::Elements(els.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            b.iter_batched(
                || {
                    BurstDetector::builder()
                        .universe(universe)
                        .variant(PbeVariant::pbe2(8.0))
                        .accuracy(0.005, 0.02)
                        .seed(7)
                        .shards(n)
                        .build()
                        .unwrap()
                },
                |mut det| {
                    det.ingest_batch(&els).unwrap();
                    det.finalize();
                    det.arrivals()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_ingest_sharded
}
criterion_main!(benches);
