//! Sketch construction and accuracy measurement helpers.

use std::time::Duration;

use bed_pbe::{burstiness, CurveSketch, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed_sketch::{CmPbe, SketchParams};
use bed_stream::{BurstSpan, EventId, EventStream, ExactBaseline, SingleEventStream, Timestamp};
use bed_workload::truth;

use crate::time;

/// Builds a PBE-1 over a single stream, returning it with the construction
/// time.
pub fn build_pbe1(stream: &SingleEventStream, eta: usize, n_buf: usize) -> (Pbe1, Duration) {
    time(|| {
        let mut p = Pbe1::new(Pbe1Config { n_buf, eta }).expect("valid config");
        for &t in stream.timestamps() {
            p.update(t);
        }
        p.finalize();
        p
    })
}

/// Builds a PBE-2 over a single stream.
pub fn build_pbe2(stream: &SingleEventStream, gamma: f64) -> (Pbe2, Duration) {
    time(|| {
        let mut p = Pbe2::new(Pbe2Config { gamma, max_vertices: 64 }).expect("valid config");
        for &t in stream.timestamps() {
            p.update(t);
        }
        p.finalize();
        p
    })
}

/// Binary-searches γ so the finished PBE-2 lands within ~5% of
/// `target_bytes` (used for the equal-space comparisons of Figs. 10–11).
pub fn pbe2_for_budget(stream: &SingleEventStream, target_bytes: usize) -> Pbe2 {
    let mut lo = 0.5f64;
    let mut hi = 65_536.0f64;
    let mut best: Option<Pbe2> = None;
    for _ in 0..24 {
        let gamma = (lo * hi).sqrt();
        let (p, _) = build_pbe2(stream, gamma);
        let size = p.size_bytes();
        let better = match &best {
            None => true,
            Some(b) => {
                (size as i64 - target_bytes as i64).abs()
                    < (b.size_bytes() as i64 - target_bytes as i64).abs()
            }
        };
        if better {
            best = Some(p.clone());
        }
        if size > target_bytes {
            lo = gamma; // need looser γ → fewer segments
        } else {
            hi = gamma;
        }
        if (size as f64 - target_bytes as f64).abs() / target_bytes as f64 <= 0.05 {
            break;
        }
    }
    best.expect("at least one iteration ran")
}

/// Mean absolute burstiness error of a single-stream sketch over `q` random
/// historical point queries.
pub fn single_stream_error(
    sketch: &impl CurveSketch,
    baseline: &ExactBaseline,
    horizon: Timestamp,
    tau: BurstSpan,
    q: usize,
    seed: u64,
) -> f64 {
    let queries = truth::random_point_queries(&[EventId(0)], horizon, q, seed);
    truth::mean_abs_error(baseline, &queries, tau, |_, t| sketch.estimate_burstiness(t, tau))
}

/// Builds a CM-PBE over a mixed stream from a cell factory.
pub fn build_cmpbe<P: CurveSketch>(
    stream: &EventStream,
    params: SketchParams,
    seed: u64,
    make_cell: impl FnMut() -> P,
) -> (CmPbe<P>, Duration) {
    time(|| {
        let mut cm = CmPbe::new(params, seed, make_cell).expect("valid params");
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        cm.finalize();
        cm
    })
}

/// Mean absolute burstiness error of a CM-PBE over `q` random
/// `(event, time)` queries drawn from the observed events.
pub fn cmpbe_error<P: CurveSketch>(
    cm: &CmPbe<P>,
    baseline: &ExactBaseline,
    events: &[EventId],
    horizon: Timestamp,
    tau: BurstSpan,
    q: usize,
    seed: u64,
) -> f64 {
    let queries = truth::random_point_queries(events, horizon, q, seed);
    truth::mean_abs_error(baseline, &queries, tau, |e, t| burstiness(cm.probe3(e, t, tau)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn budgeted_pbe2_hits_target() {
        let (soccer, _) = data::single_streams(3_000);
        let target = 2_048;
        let p = pbe2_for_budget(&soccer, target);
        let size = p.size_bytes();
        assert!(
            size >= target / 4 && size <= target * 4,
            "size {size} too far from target {target}"
        );
    }

    #[test]
    fn errors_shrink_with_budget() {
        let (soccer, _) = data::single_streams(3_000);
        let baseline = data::single_baseline(&soccer);
        let horizon = data::horizon(&soccer);
        let tau = BurstSpan::DAY_SECONDS;
        let (small, _) = build_pbe1(&soccer, 8, 400);
        let (large, _) = build_pbe1(&soccer, 200, 400);
        let e_small = single_stream_error(&small, &baseline, horizon, tau, 60, 1);
        let e_large = single_stream_error(&large, &baseline, horizon, tau, 60, 1);
        assert!(e_large <= e_small, "{e_large} > {e_small}");
    }
}
