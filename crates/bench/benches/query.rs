//! Query latency: point queries across structures, and bursty-event
//! queries pruned vs scanned.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use bed_core::{
    AnyDetector, BurstDetector, BurstQueries as _, DetectorEpochs, PbeVariant, QueryRequest,
    Traceable as _, Tracer, TracerConfig,
};
use bed_hierarchy::DyadicCmPbe;
use bed_pbe::{burstiness, CurveSketch, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed_sketch::{Combiner, QueryScratch, SketchParams};
use bed_stream::{BurstSpan, EventId, ExactBaseline, Timestamp};

const UNIVERSE: u32 = 1_024;

/// Mixed workload with a handful of bursting events.
fn workload() -> Vec<(EventId, Timestamp)> {
    let mut x = 0xDEAD_BEEFu64;
    let mut out = Vec::with_capacity(120_000);
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((EventId((x % UNIVERSE as u64) as u32), Timestamp(i / 10)));
    }
    // bursts for events 17 and 600 near the end
    for t in 9_000..10_000u64 {
        for _ in 0..10 {
            out.push((EventId(17), Timestamp(t)));
            out.push((EventId(600), Timestamp(t)));
        }
    }
    out.sort_by_key(|&(_, t)| t);
    out
}

fn bench_query(c: &mut Criterion) {
    let els = workload();
    let tau = BurstSpan::new(500).unwrap();
    let t_query = Timestamp(9_800);

    let mut baseline = ExactBaseline::new();
    let mut pbe1 = Pbe1::new(Pbe1Config { n_buf: 1_500, eta: 64 }).unwrap();
    let mut pbe2 = Pbe2::new(Pbe2Config { gamma: 8.0, max_vertices: 64 }).unwrap();
    let mut forest =
        DyadicCmPbe::new(UNIVERSE, SketchParams { epsilon: 0.01, delta: 0.05 }, 7, |_| {
            Pbe2::new(Pbe2Config { gamma: 8.0, max_vertices: 64 }).unwrap()
        })
        .unwrap();
    for &(e, t) in &els {
        baseline.ingest(e, t).unwrap();
        forest.update(e, t).unwrap();
        if e == EventId(17) {
            pbe1.update(t);
            pbe2.update(t);
        }
    }
    pbe1.finalize();
    pbe2.finalize();
    forest.finalize();

    let mut g = c.benchmark_group("point_query");
    g.bench_function("exact_baseline", |b| {
        b.iter(|| baseline.point_query(EventId(17), t_query, tau))
    });
    g.bench_function("pbe1", |b| b.iter(|| pbe1.estimate_burstiness(t_query, tau)));
    g.bench_function("pbe2", |b| b.iter(|| pbe2.estimate_burstiness(t_query, tau)));
    g.bench_function("cmpbe_leaf", |b| {
        b.iter(|| burstiness(forest.grid(0).probe3(EventId(17), t_query, tau)))
    });
    g.finish();

    let mut g = c.benchmark_group("bursty_event_query");
    g.bench_function("dyadic_pruned", |b| b.iter(|| forest.bursty_events(t_query, 2_000.0, tau)));
    g.bench_function("naive_scan", |b| b.iter(|| forest.bursty_events_scan(t_query, 2_000.0, tau)));
    g.finish();

    // Fused kernels vs the composed reference path (the heap-median
    // `probe3_by` ablation probe per instant, fresh candidate allocation per
    // query) — the before/after pair behind results/query_throughput.md.
    let grid = forest.grid(0);
    let theta = 1_000.0;
    let horizon = Timestamp(11_000);

    let mut g = c.benchmark_group("query");
    g.bench_function("bursty_time/composed", |b| {
        b.iter(|| {
            let mut knees: Vec<Timestamp> = Vec::new();
            grid.for_each_segment_start(EventId(17), &mut |knee| knees.push(knee));
            knees.sort_unstable();
            knees.dedup();
            let mut cands: Vec<u64> = Vec::new();
            for knee in knees {
                for delta in [0, tau.ticks(), tau.ticks().saturating_mul(2)] {
                    let t = knee.ticks().saturating_add(delta);
                    if t <= horizon.ticks() {
                        cands.push(t);
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let mut hits: Vec<(Timestamp, f64)> = Vec::new();
            for t in cands {
                let b =
                    burstiness(grid.probe3_by(EventId(17), Timestamp(t), tau, Combiner::Median));
                if b >= theta {
                    hits.push((Timestamp(t), b));
                }
            }
            hits
        })
    });
    g.bench_function("bursty_time/fused", |b| {
        let mut scratch = QueryScratch::new();
        let mut out: Vec<(Timestamp, f64)> = Vec::new();
        b.iter(|| {
            grid.bursty_times_into(EventId(17), theta, tau, horizon, &mut scratch, &mut out);
            out.len()
        })
    });
    g.bench_function("bursty_event/composed", |b| {
        b.iter(|| {
            let mut hits: Vec<(EventId, f64)> = Vec::new();
            for e in 0..UNIVERSE {
                let b = burstiness(grid.probe3_by(EventId(e), t_query, tau, Combiner::Median));
                if b >= theta {
                    hits.push((EventId(e), b));
                }
            }
            hits
        })
    });
    g.bench_function("bursty_event/batched", |b| {
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let mut hits = 0u32;
            grid.burstiness_scan_into(0, UNIVERSE, t_query, tau, &mut scratch, |_, b| {
                if b >= theta {
                    hits += 1;
                }
            });
            hits
        })
    });
    g.finish();

    // Struct-of-arrays bank vs array-of-structs cells: the same fused
    // kernels on the same finalized grid, with and without the probe
    // mirror — the before/after pair behind results/query_soa.md.
    let soa = grid.clone();
    assert!(soa.has_bank(), "finalize must have built the bank");
    let mut aos = grid.clone();
    aos.clear_bank();

    let mut g = c.benchmark_group("soa");
    g.bench_function("probe3/aos", |b| b.iter(|| aos.probe3(EventId(17), t_query, tau)));
    g.bench_function("probe3/soa", |b| b.iter(|| soa.probe3(EventId(17), t_query, tau)));
    g.bench_function("bursty_event_scan/aos", |b| {
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let mut hits = 0u32;
            aos.burstiness_scan_into(0, UNIVERSE, t_query, tau, &mut scratch, |_, b| {
                if b >= theta {
                    hits += 1;
                }
            });
            hits
        })
    });
    g.bench_function("bursty_event_scan/soa", |b| {
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let mut hits = 0u32;
            soa.burstiness_scan_into(0, UNIVERSE, t_query, tau, &mut scratch, |_, b| {
                if b >= theta {
                    hits += 1;
                }
            });
            hits
        })
    });
    g.bench_function("bursty_time/aos", |b| {
        let mut scratch = QueryScratch::new();
        let mut out: Vec<(Timestamp, f64)> = Vec::new();
        b.iter(|| {
            aos.bursty_times_into(EventId(17), theta, tau, horizon, &mut scratch, &mut out);
            out.len()
        })
    });
    g.bench_function("bursty_time/soa", |b| {
        let mut scratch = QueryScratch::new();
        let mut out: Vec<(Timestamp, f64)> = Vec::new();
        b.iter(|| {
            soa.bursty_times_into(EventId(17), theta, tau, horizon, &mut scratch, &mut out);
            out.len()
        })
    });
    g.finish();
}

/// The `/query` serving path end to end: an epoch view answering exactly
/// as `bed serve` drives it — a trace id minted and stamped into the
/// scratch per request, explain off.
///
/// `BED_BENCH_TRACED=1` installs an enabled-but-unsampled tracer (the
/// state a production server idles in). CI's bench-regression job runs
/// the gate in that mode against baselines recorded untraced, so the
/// "tracing costs one relaxed ticket fetch-add and zero allocation"
/// claim is enforced by the same tolerance as every other query bench.
fn bench_serve_path(c: &mut Criterion) {
    let els = workload();
    let traced = std::env::var("BED_BENCH_TRACED").is_ok_and(|v| v == "1");
    let tracer = Arc::new(if traced {
        Tracer::new(TracerConfig {
            sample_every: u64::MAX,
            slow_threshold_ns: u64::MAX,
            buffer_capacity: 64,
            slow_capacity: 1,
            dump_slow_on_drop: false,
        })
    } else {
        Tracer::disabled()
    });

    let mut det = AnyDetector::Plain(Box::new(
        BurstDetector::builder()
            .universe(UNIVERSE)
            .variant(PbeVariant::pbe2(8.0))
            .accuracy(0.01, 0.05)
            .seed(7)
            .build()
            .unwrap(),
    ));
    det.set_tracer(Arc::clone(&tracer));
    for &(e, t) in &els {
        det.ingest(e, t).unwrap();
    }
    let mut epochs = DetectorEpochs::new(&det);
    epochs.set_tracer(Arc::clone(&tracer));
    let view = epochs.view();
    view.refresh_latest();

    let tau = BurstSpan::new(500).unwrap();
    let point = QueryRequest::Point { event: EventId(17), t: Timestamp(9_800), tau };
    let events = QueryRequest::BurstyEvents {
        t: Timestamp(9_800),
        theta: 2_000.0,
        tau,
        strategy: bed_core::QueryStrategy::Pruned,
    };
    let mut scratch = QueryScratch::new();
    // Warm the scratch and burn sampler ticket 0: the first ticket
    // matches any period, so it must not land inside a measured loop.
    view.query_reusing(&point, &mut scratch).unwrap();
    view.query_reusing(&events, &mut scratch).unwrap();

    let mut g = c.benchmark_group("serve_path");
    g.bench_function("point_epoch_view", |b| {
        b.iter(|| {
            scratch.trace_id = tracer.next_trace_id().0;
            view.query_reusing(&point, &mut scratch).unwrap()
        })
    });
    g.bench_function("bursty_events_epoch_view", |b| {
        b.iter(|| {
            scratch.trace_id = tracer.next_trace_id().0;
            view.query_reusing(&events, &mut scratch).unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_query, bench_serve_path
}
criterion_main!(benches);
