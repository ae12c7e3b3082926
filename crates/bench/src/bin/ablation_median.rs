//! Row-combiner ablation (Section IV design choice): the paper combines the
//! d per-row estimates by **median**, not the classic Count-Min minimum.
//!
//! With plain counters, min is right because the only error is collision
//! inflation. With PBE cells the per-cell estimate also *under*-shoots (by
//! up to Δ/γ), so min compounds the under-estimation while max compounds the
//! collision over-estimation; the median splits the difference — exactly the
//! argument under Theorem 1. This binary quantifies it.

use bed_bench::{data, env_queries, env_scale, measure, print_table};
use bed_pbe::{burstiness, Pbe2, Pbe2Config};
use bed_sketch::{Combiner, SketchParams};
use bed_stream::{BurstSpan, ExactBaseline, Timestamp};
use bed_workload::truth;

fn main() {
    let n = env_scale();
    let q = env_queries();
    let tau = BurstSpan::DAY_SECONDS;
    let olympics = data::olympics_stream(n);
    let stream = olympics.stream;
    let baseline = ExactBaseline::from_stream(&stream);
    let events = stream.distinct_events();
    let horizon = Timestamp(bed_workload::olympics::OLYMPICS_HORIZON_SECS);
    let queries = truth::random_point_queries(&events, horizon, q, 31);

    let mut rows = Vec::new();
    for gamma in [4.0f64, 16.0, 64.0, 256.0] {
        let (cm, _) = measure::build_cmpbe(&stream, SketchParams::PAPER, 5, || {
            Pbe2::new(Pbe2Config { gamma, max_vertices: 64 }).unwrap()
        });
        // rowwise median (median of per-row burstiness) vs the paper's
        // compose-from-median-F̃ (Lemma 5's formulation)
        let rowwise_err = truth::mean_abs_error(&baseline, &queries, tau, |e, t| {
            cm.estimate_burstiness_rowwise(e, t, tau)
        });
        rows.push(vec![
            format!("{gamma}"),
            "Median(rowwise)".to_string(),
            format!("{rowwise_err:.1}"),
            "-".to_string(),
        ]);
        for combiner in [Combiner::Median, Combiner::Min, Combiner::Max] {
            let err = truth::mean_abs_error(&baseline, &queries, tau, |e, t| {
                burstiness(cm.probe3_by(e, t, tau, combiner))
            });
            // signed bias of the cumulative estimate at the horizon
            let bias: f64 = events
                .iter()
                .map(|&e| {
                    let truth = baseline.cumulative_frequency(e, horizon) as f64;
                    cm.probe3_by(e, horizon, tau, combiner)[0] - truth
                })
                .sum::<f64>()
                / events.len() as f64;
            rows.push(vec![
                format!("{gamma}"),
                format!("{combiner:?}"),
                format!("{err:.1}"),
                format!("{bias:+.1}"),
            ]);
        }
    }

    print_table(
        &format!(
            "Combiner ablation (olympicrio N={}, K={}, {} queries): median vs min vs max",
            stream.len(),
            events.len(),
            q
        ),
        ["gamma", "combiner", "mean_abs_burstiness_err", "mean_signed_cum_bias"],
        rows,
    );
}
