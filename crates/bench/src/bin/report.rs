//! estorm-style HTML report (the paper's web demo at estorm.org, Fig. 13):
//! a self-contained SVG timeline of Democrat vs Republican burstiness with
//! the major "national moments" circled on top of their bursts, plus the
//! run's `bed-obs` metrics snapshot (ingest/query latency histograms and
//! structural gauges) for the detector that produced the timeline.
//!
//! Writes `results/report.html`; open it in any browser.

use std::fmt::Write as _;

use bed_bench::{data, env_scale};
use bed_core::{BurstDetector, BurstQueries, PbeVariant, QueryRequest, QueryStrategy};
use bed_sketch::SketchParams;
use bed_stream::{BurstSpan, Timestamp};
use bed_workload::politics::{Party, POLITICS_HORIZON_SECS, POLITICS_UNIVERSE};

const WIDTH: f64 = 1100.0;
const HEIGHT: f64 = 360.0;
const MARGIN: f64 = 50.0;

fn main() -> std::io::Result<()> {
    let n = env_scale();
    let tau = BurstSpan::DAY_SECONDS;
    let s = data::politics_stream(n);

    let mut det = BurstDetector::builder()
        .universe(POLITICS_UNIVERSE)
        .variant(PbeVariant::pbe2(8.0))
        .accuracy(SketchParams::PAPER.epsilon, SketchParams::PAPER.delta)
        .seed(17)
        .build()
        .expect("paper params are valid");
    for el in s.stream.iter() {
        det.ingest(el.event, el.ts).expect("generator stays in universe");
    }
    det.finalize();

    let theta = (n as f64 * 5e-5).max(2.0);
    let days = POLITICS_HORIZON_SECS / 86_400;
    let mut dem_series = Vec::new();
    let mut rep_series = Vec::new();
    for d in 1..days {
        let t = Timestamp(d * 86_400 + 43_200);
        let request = QueryRequest::BurstyEvents { t, theta, tau, strategy: QueryStrategy::Pruned };
        let answer = det.query(&request).expect("theta is positive and finite");
        let (mut dem, mut rep) = (0.0, 0.0);
        for h in answer.hits().expect("a BurstyEvents request gets hits") {
            match s.party_of(h.event) {
                Party::Democrat => dem += h.burstiness,
                Party::Republican => rep += h.burstiness,
            }
        }
        dem_series.push((d, dem));
        rep_series.push((d, rep));
    }

    let max_b = dem_series.iter().chain(rep_series.iter()).map(|&(_, b)| b).fold(1.0f64, f64::max);
    let x = |day: u64| MARGIN + (day as f64 / days as f64) * (WIDTH - 2.0 * MARGIN);
    let y = |b: f64| HEIGHT - MARGIN - (b / max_b) * (HEIGHT - 2.0 * MARGIN);

    let polyline = |series: &[(u64, f64)]| -> String {
        series
            .iter()
            .map(|&(d, b)| format!("{:.1},{:.1}", x(d), y(b)))
            .collect::<Vec<_>>()
            .join(" ")
    };

    let mut svg = String::new();
    // axes
    let _ = write!(
        svg,
        r##"<line x1="{m}" y1="{h}" x2="{w}" y2="{h}" stroke="#888"/>
<line x1="{m}" y1="{m}" x2="{m}" y2="{h}" stroke="#888"/>"##,
        m = MARGIN,
        h = HEIGHT - MARGIN,
        w = WIDTH - MARGIN
    );
    // month ticks every 30 days
    for d in (0..days).step_by(30) {
        let _ = write!(
            svg,
            r##"<text x="{:.1}" y="{:.1}" font-size="11" fill="#555" text-anchor="middle">day {d}</text>"##,
            x(d),
            HEIGHT - MARGIN + 18.0
        );
    }
    // series
    let _ = write!(
        svg,
        r##"<polyline points="{}" fill="none" stroke="#1f77b4" stroke-width="1.6"/>
<polyline points="{}" fill="none" stroke="#d62728" stroke-width="1.6"/>"##,
        polyline(&dem_series),
        polyline(&rep_series)
    );
    // national-moment circles ("we have marked major event happenings with
    // circle on top of its bursts")
    for &(day, party) in &s.national_moments {
        let series = match party {
            Party::Democrat => &dem_series,
            Party::Republican => &rep_series,
        };
        if let Some(&(_, b)) = series.iter().find(|&&(d, _)| d == day) {
            let colour = match party {
                Party::Democrat => "#1f77b4",
                Party::Republican => "#d62728",
            };
            let _ = write!(
                svg,
                r##"<circle cx="{:.1}" cy="{:.1}" r="7" fill="none" stroke="{colour}" stroke-width="2"/>"##,
                x(day),
                y(b)
            );
        }
    }

    // bed-obs snapshot of the run that produced the figure: every ingest,
    // each day's bursty-event query, and the finished structure's gauges.
    let metrics_text = det.metrics().to_text();

    // Latest recorded query-kernel numbers, if a perf run has been logged.
    let query_perf = std::fs::read_to_string("results/query_throughput.md")
        .map(|md| {
            format!(
                r##"<h3>Query-kernel throughput (recorded)</h3>
<pre style="font-size: 12px; background: #f6f6f6; padding: 1em; overflow-x: auto;">{md}</pre>"##
            )
        })
        .unwrap_or_default();

    let html = format!(
        r##"<!doctype html>
<html><head><meta charset="utf-8"><title>bed — burst timeline</title></head>
<body style="font-family: sans-serif; max-width: {WIDTH}px; margin: 2em auto;">
<h2>Bursty event timeline — uspolitics-like stream</h2>
<p>N = {n_actual} elements, K = {k} events, &tau; = 1 day, &theta; = {theta:.0}.
Detected with a CM-PBE-2-backed dyadic hierarchy
(<span style="color:#1f77b4">&#9632; Democrat</span>,
<span style="color:#d62728">&#9632; Republican</span>; circles mark planted
national moments — conventions, debates, election day).</p>
<svg width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">{svg}</svg>
<h3>Run metrics (bed-obs)</h3>
<pre style="font-size: 12px; background: #f6f6f6; padding: 1em; overflow-x: auto;">{metrics_text}</pre>
{query_perf}
<p style="color:#777">Generated by <code>bed-bench::report</code>, after Fig. 13
of Paul, Peng &amp; Li, ICDE 2019 (estorm.org).</p>
</body></html>
"##,
        n_actual = s.stream.len(),
        k = POLITICS_UNIVERSE,
    );

    std::fs::create_dir_all("results")?;
    std::fs::write("results/report.html", html)?;
    println!("wrote results/report.html ({} days, max party burstiness {max_b:.0})", days);
    Ok(())
}
