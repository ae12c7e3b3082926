//! Property-based tests for the Count-Min substrate and CM-PBE.

use bed_pbe::{burstiness, ExactCurve, Pbe2, Pbe2Config};
use bed_sketch::{CmPbe, Combiner, CountMin, MEDIAN_STACK};
use bed_stream::{BurstSpan, EventId, EventStream, Timestamp};
use proptest::prelude::*;

fn arb_stream() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..32, 0u64..1_000), 1..300).prop_map(|mut v| {
        v.sort_by_key(|&(_, t)| t);
        v
    })
}

/// A Zipf-flavoured heavy-tailed stream: raw draws are folded through a
/// square so low ids dominate — with a 4-cell-wide grid every row is
/// collision-heavy, which is exactly where the combiners diverge.
fn arb_skewed_stream() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..1_024, 0u64..1_000), 32..300).prop_map(|mut v| {
        for (e, _) in &mut v {
            let u = *e as f64 / 1_024.0;
            *e = (31.0 * u * u) as u32; // quadratic fold: mass piles on small ids
        }
        v.sort_by_key(|&(_, t)| t);
        v
    })
}

proptest! {
    /// Classic CM never underestimates any item's count.
    #[test]
    fn countmin_one_sided(els in arb_stream(), seed in 0u64..100) {
        let mut cm = CountMin::with_dimensions(4, 16, seed);
        for &(e, _) in &els {
            cm.update(e as u64, 1);
        }
        for e in 0..32u32 {
            let truth = els.iter().filter(|&&(x, _)| x == e).count() as u64;
            prop_assert!(cm.estimate(e as u64) >= truth);
        }
    }

    /// CM-PBE with exact cells: every estimate is sandwiched between the
    /// event's own curve and the full stream count, at every query time.
    #[test]
    fn cmpbe_exact_cells_sandwich(els in arb_stream(), seed in 0u64..100, q in 0u64..1_200) {
        let stream: EventStream = els.iter().copied().collect();
        let mut cm = CmPbe::with_dimensions(3, 8, seed, ExactCurve::new);
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        let t = Timestamp(q);
        let n_upto = els.iter().filter(|&&(_, ts)| ts <= q).count() as f64;
        for e in 0..32u32 {
            let truth = stream.project(EventId(e)).cumulative_frequency(t) as f64;
            let est = cm.estimate_cum(EventId(e), t);
            prop_assert!(est >= truth, "under-estimate with exact cells is impossible");
            prop_assert!(est <= n_upto, "estimate cannot exceed the stream prefix size");
        }
    }

    /// Estimates are monotone in t regardless of cell type.
    #[test]
    fn cmpbe_estimates_monotone(els in arb_stream(), seed in 0u64..50) {
        let mut cm = CmPbe::with_dimensions(3, 8, seed, ExactCurve::new);
        for &(e, t) in &els {
            cm.update(EventId(e), Timestamp(t));
        }
        for e in [0u32, 5, 31] {
            let mut prev = -1.0;
            let mut t = 0u64;
            while t <= 1_100 {
                let v = cm.estimate_cum(EventId(e), Timestamp(t));
                prop_assert!(v >= prev);
                prev = v;
                t += 37;
            }
        }
    }

    /// PBE-2 cells: the final count estimate is within collision mass plus γ
    /// of the truth — and the total over all cells of one row is N.
    #[test]
    fn cmpbe_pbe2_total_mass(els in arb_stream(), seed in 0u64..50) {
        let stream: EventStream = els.iter().copied().collect();
        let mut cm = CmPbe::with_dimensions(3, 8, seed, || {
            Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 32 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        cm.finalize();
        let horizon = Timestamp(2_000);
        let n = els.len() as f64;
        for e in 0..32u32 {
            let truth = stream.project(EventId(e)).len() as f64;
            let est = cm.estimate_cum(EventId(e), horizon);
            // lower side: PBE underestimates by ≤ γ per cell; median keeps it
            prop_assert!(est >= truth - 2.0 - 1e-6, "event {}: {} < {}", e, est, truth);
            prop_assert!(est <= n + 1e-6);
        }
    }

    /// Combiner ablation on collision-heavy skewed streams: rows with
    /// exact cells only ever *over*-count (collision mass is one-sided),
    /// so at every query time `truth ≤ Min ≤ Median ≤ Max` — the median
    /// is never farther from the per-event truth than the Max row, and
    /// the public `estimate_cum` is exactly the Median combiner.
    #[test]
    fn median_combiner_is_bracketed(els in arb_skewed_stream(), seed in 0u64..100, q in 0u64..1_200) {
        let stream: EventStream = els.iter().copied().collect();
        let mut cm = CmPbe::with_dimensions(3, 4, seed, ExactCurve::new);
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        let t = Timestamp(q);
        // Only the `F̃(t)` leg is read, so any span serves.
        let cum = |e: EventId, c: Combiner| cm.probe3_by(e, t, BurstSpan::new(1).unwrap(), c)[0];
        for e in 0..32u32 {
            let e = EventId(e);
            let truth = stream.project(e).cumulative_frequency(t) as f64;
            let lo = cum(e, Combiner::Min);
            let med = cum(e, Combiner::Median);
            let hi = cum(e, Combiner::Max);
            prop_assert!(truth <= lo + 1e-9, "exact cells cannot undershoot: {} < {}", lo, truth);
            prop_assert!(lo <= med + 1e-9 && med <= hi + 1e-9, "ordering broke: {} {} {}", lo, med, hi);
            prop_assert!(
                (med - truth).abs() <= (hi - truth).abs() + 1e-9,
                "median farther from truth than max: |{} − {}| vs |{} − {}|",
                med, truth, hi, truth
            );
            prop_assert_eq!(cm.estimate_cum(e, t).to_bits(), med.to_bits());
        }
    }

    /// The same bracketing holds with lossy PBE-2 cells, where rows are
    /// two-sided (collision mass up, γ down): the median's distance to the
    /// truth never exceeds the worse of the Min and Max rows, at any time
    /// and for burstiness composed per-term from the same combiner.
    #[test]
    fn median_combiner_never_worst_with_pbe2_cells(
        els in arb_skewed_stream(),
        seed in 0u64..50,
        q in 0u64..1_200,
        tau in 1u64..200,
    ) {
        let stream: EventStream = els.iter().copied().collect();
        let mut cm = CmPbe::with_dimensions(3, 4, seed, || {
            Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 32 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        cm.finalize();
        let t = Timestamp(q);
        let tau = BurstSpan::new(tau).unwrap();
        for e in [0u32, 1, 2, 7, 31] {
            let e = EventId(e);
            // Combined `F̃_e(q)` of one combiner: the first leg of its probe
            // at `q`, pre-epoch instants reading 0.
            let cum = |q: Option<Timestamp>, c: Combiner| {
                q.map_or(0.0, |q| cm.probe3_by(e, q, tau, c)[0])
            };
            let truth = stream.project(e).cumulative_frequency(t) as f64;
            let lo = cum(Some(t), Combiner::Min);
            let med = cum(Some(t), Combiner::Median);
            let hi = cum(Some(t), Combiner::Max);
            prop_assert!(lo <= med + 1e-9 && med <= hi + 1e-9);
            let worst = (lo - truth).abs().max((hi - truth).abs());
            prop_assert!(
                (med - truth).abs() <= worst + 1e-9,
                "median is the farthest combiner: med={} min={} max={} truth={}",
                med, lo, hi, truth
            );
            // Eq. 2 composition is combiner-consistent: each burstiness is
            // the telescope of its own combiner's cumulative estimates.
            let (t1, t2) = (t.checked_sub(tau.ticks()), t.checked_sub(2 * tau.ticks()));
            for c in [Combiner::Min, Combiner::Median, Combiner::Max] {
                let expect = cum(Some(t), c) - 2.0 * cum(t1, c) + cum(t2, c);
                prop_assert_eq!(burstiness(cm.probe3_by(e, t, tau, c)).to_bits(), expect.to_bits());
            }
            // Lemma 5's rationale end-to-end, in envelope form. The naive
            // pairing "dist(median) ≤ max(dist(Min), dist(Max))" is FALSE
            // for burstiness — Eq. 2's offset terms enter with opposite
            // sign, so a Min (or Max) row can cancel toward the truth
            // while the median's terms do not (found by this very test).
            // The sound statement: every per-term combination of row
            // extremes brackets the median telescope, so the median's
            // burstiness is never farther from the exact truth than the
            // worst corner of the Min/Max envelope.
            let b_lo = cum(Some(t), Combiner::Min) - 2.0 * cum(t1, Combiner::Max)
                + cum(t2, Combiner::Min);
            let b_hi = cum(Some(t), Combiner::Max) - 2.0 * cum(t1, Combiner::Min)
                + cum(t2, Combiner::Max);
            let b_med = burstiness(cm.probe3_by(e, t, tau, Combiner::Median));
            prop_assert!(
                b_lo - 1e-9 <= b_med && b_med <= b_hi + 1e-9,
                "median burstiness escaped the Min/Max envelope: {} ∉ [{}, {}]",
                b_med, b_lo, b_hi
            );
            let own = stream.project(e);
            let f = |q: Option<Timestamp>| q.map_or(0.0, |q| own.cumulative_frequency(q) as f64);
            let b_true = f(Some(t)) - 2.0 * f(t1) + f(t2);
            prop_assert!(
                (b_med - b_true).abs() <= (b_lo - b_true).abs().max((b_hi - b_true).abs()) + 1e-9,
                "median farther from truth than both envelope corners for {:?} at t={} τ={}",
                e, t.ticks(), tau.ticks()
            );
        }
    }

    /// Burstiness composed from median estimates equals the Eq. 2 telescope
    /// of the public estimate_cum values.
    #[test]
    fn cmpbe_burstiness_consistent(els in arb_stream(), seed in 0u64..50, q in 0u64..1_200, tau in 1u64..200) {
        let mut cm = CmPbe::with_dimensions(3, 8, seed, ExactCurve::new);
        for &(e, t) in &els {
            cm.update(EventId(e), Timestamp(t));
        }
        let tau = BurstSpan::new(tau).unwrap();
        let t = Timestamp(q);
        for e in [0u32, 9] {
            let e = EventId(e);
            let at = |q: Option<Timestamp>| q.map_or(0.0, |q| cm.estimate_cum(e, q));
            let expect = cm.estimate_cum(e, t)
                - 2.0 * at(t.checked_sub(tau.ticks()))
                + at(t.checked_sub(2 * tau.ticks()));
            prop_assert_eq!(burstiness(cm.probe3(e, t, tau)), expect);
        }
    }
}

/// Shared body for the SoA-bank transparency property: ingest `els`, build
/// the bank (with or without finalizing — the mid-stream states exercise
/// PBE-1 buffers and PBE-2 open polygons / pending corners), then compare
/// every query kernel bit-for-bit against a bank-free clone of the same
/// grid. The probe instant sweeps below `τ` and `2τ`, so the pre-epoch
/// zero legs are covered, and event ids past the populated universe hit
/// empty cells.
fn check_bank_transparent<P: bed_pbe::CurveSketch + Clone>(
    mut grid: CmPbe<P>,
    els: &[(u32, u64)],
    q: u64,
    tau: BurstSpan,
    finalize: bool,
) -> Result<(), TestCaseError> {
    use bed_sketch::QueryScratch;
    for &(e, t) in els {
        grid.update(EventId(e), Timestamp(t));
    }
    if finalize {
        grid.finalize();
    } else {
        grid.build_bank();
    }
    prop_assert!(grid.has_bank());
    let mut plain = grid.clone();
    plain.clear_bank();
    prop_assert!(!plain.has_bank());
    let q = Timestamp(q);
    let horizon = Timestamp(1_400);
    for e in (0..48u32).step_by(5) {
        let a = grid.probe3(EventId(e), q, tau);
        let b = plain.probe3(EventId(e), q, tau);
        // The heap-median ablation probe is the reference both answer.
        let r = grid.probe3_by(EventId(e), q, tau, Combiner::Median);
        for k in 0..3 {
            prop_assert_eq!(a[k].to_bits(), b[k].to_bits(), "probe3 leg {} event {}", k, e);
            prop_assert_eq!(a[k].to_bits(), r[k].to_bits(), "probe3_by leg {} event {}", k, e);
        }
        prop_assert_eq!(
            grid.estimate_cum(EventId(e), q).to_bits(),
            plain.estimate_cum(EventId(e), q).to_bits()
        );
    }
    let mut sa = QueryScratch::new();
    let mut sb = QueryScratch::new();
    // Dense scan (range ≥ width for every layout used below) and a sparse
    // sub-range scan, both against the bank-free kernels.
    for (lo, hi) in [(0u32, 48u32), (3, 7)] {
        let mut got: Vec<(EventId, u64)> = Vec::new();
        let mut want: Vec<(EventId, u64)> = Vec::new();
        grid.burstiness_scan_into(lo, hi, q, tau, &mut sa, |e, b| got.push((e, b.to_bits())));
        plain.burstiness_scan_into(lo, hi, q, tau, &mut sb, |e, b| want.push((e, b.to_bits())));
        prop_assert_eq!(got, want);
    }
    let mut oa = Vec::new();
    let mut ob = Vec::new();
    for e in [0u32, 7, 31, 40] {
        grid.bursty_times_into(EventId(e), 0.5, tau, horizon, &mut sa, &mut oa);
        plain.bursty_times_into(EventId(e), 0.5, tau, horizon, &mut sb, &mut ob);
        prop_assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(&ob) {
            prop_assert_eq!(x.0, y.0);
            prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }
    Ok(())
}

proptest! {
    /// The SoA bank is a bit-for-bit transparent mirror of the AoS path on
    /// every query kernel, for exact, PBE-1, and PBE-2 cell layouts alike
    /// (hashed and direct-indexed, and deeper than the stack kernels),
    /// mid-stream and finalized, pre-epoch probes and empty cells included.
    #[test]
    fn soa_bank_is_bitwise_transparent(
        els in arb_stream(),
        seed in 0u64..50,
        q in 0u64..1_200,
        tau_ticks in 1u64..800,
        finalize in proptest::arbitrary::any::<bool>(),
    ) {
        use bed_pbe::{Pbe1, Pbe1Config};
        let tau = BurstSpan::new(tau_ticks).unwrap();
        // Narrow exact grid: heavy collisions, staircase pieces.
        check_bank_transparent(
            CmPbe::with_dimensions(3, 8, seed, ExactCurve::new), &els, q, tau, finalize,
        )?;
        // Wide PBE-1 grid: empty cells in every row, buffered corners.
        check_bank_transparent(
            CmPbe::with_dimensions(4, 64, seed, || Pbe1::new(Pbe1Config { n_buf: 8, eta: 4 }).unwrap()),
            &els, q, tau, finalize,
        )?;
        // PBE-2 grid: PLA segments, open polygon, pending corner.
        check_bank_transparent(
            CmPbe::with_dimensions(3, 16, seed, || Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()),
            &els, q, tau, finalize,
        )?;
        // Direct-indexed PBE-2 row, as the dyadic hierarchy uses.
        check_bank_transparent(
            CmPbe::direct_indexed(48, || Pbe2::with_gamma(2.0).unwrap()),
            &els, q, tau, finalize,
        )?;
        // Deep PBE-2 grid: every kernel takes its `d > MEDIAN_STACK` fallback.
        check_bank_transparent(
            CmPbe::with_dimensions(MEDIAN_STACK + 1, 16, seed, || Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()),
            &els, q, tau, finalize,
        )?;
    }
}
