//! Baseline cost table (Sections II-B and VI setup): exact storage vs the
//! sketches, with construction and point-query times.
//!
//! Paper anchor: "The baseline method that stores F(t) exactly for the
//! entire olympicrio or uspolitics requires approximately 1GB" (at the
//! authors' 5M-element scale with full metadata); the PBEs use KBs and the
//! CM-PBEs use MBs.

use bed_bench::{data, env_scale, kb, measure, print_table, secs, time};
use bed_pbe::{burstiness, CurveSketch, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed_sketch::SketchParams;
use bed_stream::{BurstSpan, EventId, ExactBaseline, Timestamp};
use bed_workload::truth;
use std::time::Duration;

fn per_query(d: Duration, q: usize) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6 / q as f64)
}

fn main() {
    let n = env_scale();
    let tau = BurstSpan::DAY_SECONDS;
    let q = 2_000usize;
    let olympics = data::olympics_stream(n);
    let stream = olympics.stream;
    let events = stream.distinct_events();
    let horizon = Timestamp(bed_workload::olympics::OLYMPICS_HORIZON_SECS);
    let queries = truth::random_point_queries(&events, horizon, q, 3);

    let (baseline, t_base) = time(|| ExactBaseline::from_stream(&stream));
    let (_, t_base_q) = time(|| {
        let mut acc = 0i64;
        for &(e, t) in &queries {
            acc += baseline.point_query(e, t, tau);
        }
        acc
    });

    // Single-stream sketches on the soccer projection.
    let soccer = stream.project(olympics.soccer);
    let (p1, t_p1) = measure::build_pbe1(&soccer, 100, 1_500);
    let (p2, t_p2) = measure::build_pbe2(&soccer, 50.0);
    let (_, t_p1_q) = time(|| {
        let mut acc = 0.0;
        for &(_, t) in &queries {
            acc += p1.estimate_burstiness(t, tau);
        }
        acc
    });
    let (_, t_p2_q) = time(|| {
        let mut acc = 0.0;
        for &(_, t) in &queries {
            acc += p2.estimate_burstiness(t, tau);
        }
        acc
    });

    // Mixed-stream sketches.
    let params = SketchParams::PAPER;
    let (cm1, t_cm1) = measure::build_cmpbe(&stream, params, 5, || {
        Pbe1::new(Pbe1Config { n_buf: 1_500, eta: 32 }).unwrap()
    });
    let (cm2, t_cm2) = measure::build_cmpbe(&stream, params, 5, || {
        Pbe2::new(Pbe2Config { gamma: 16.0, max_vertices: 64 }).unwrap()
    });
    let (_, t_cm1_q) = time(|| {
        let mut acc = 0.0;
        for &(e, t) in &queries {
            acc += burstiness(cm1.probe3(e, t, tau));
        }
        acc
    });
    let (_, t_cm2_q) = time(|| {
        let mut acc = 0.0;
        for &(e, t) in &queries {
            acc += burstiness(cm2.probe3(e, t, tau));
        }
        acc
    });

    let soccer_baseline = data::single_baseline(&soccer);
    let rows = vec![
        vec![
            "exact-baseline (mixed)".to_string(),
            kb(baseline.size_bytes()),
            secs(t_base),
            per_query(t_base_q, q),
            "0".into(),
        ],
        vec![
            "exact-baseline (soccer)".to_string(),
            kb(soccer_baseline.size_bytes()),
            "-".into(),
            "-".into(),
            "0".into(),
        ],
        vec![
            "PBE-1 eta=100 (soccer)".to_string(),
            kb(p1.size_bytes()),
            secs(t_p1),
            per_query(t_p1_q, q),
            format!(
                "{:.1}",
                measure::single_stream_error(&p1, &soccer_baseline, horizon, tau, 200, 4)
            ),
        ],
        vec![
            "PBE-2 gamma=50 (soccer)".to_string(),
            kb(p2.size_bytes()),
            secs(t_p2),
            per_query(t_p2_q, q),
            format!(
                "{:.1}",
                measure::single_stream_error(&p2, &soccer_baseline, horizon, tau, 200, 4)
            ),
        ],
        vec![
            "CM-PBE-1 eta=32 (mixed)".to_string(),
            kb(cm1.size_bytes()),
            secs(t_cm1),
            per_query(t_cm1_q, q),
            format!("{:.1}", measure::cmpbe_error(&cm1, &baseline, &events, horizon, tau, 200, 4)),
        ],
        vec![
            "CM-PBE-2 gamma=16 (mixed)".to_string(),
            kb(cm2.size_bytes()),
            secs(t_cm2),
            per_query(t_cm2_q, q),
            format!("{:.1}", measure::cmpbe_error(&cm2, &baseline, &events, horizon, tau, 200, 4)),
        ],
    ];

    print_table(
        &format!(
            "Baseline cost table (olympicrio N={}, K={}, {} point queries for timing)",
            stream.len(),
            events.len(),
            q
        ),
        ["structure", "space_kb", "build_s", "query_us", "mean_abs_err"],
        rows,
    );

    // Suppress unused warnings for ids used only in docs.
    let _ = EventId(0);
}
