//! The common interface of all frequency-curve summaries.

use crate::kernel::CumHint;
use crate::soa::CurvePiece;
use bed_stream::{BurstSpan, TimeRange, Timestamp};

/// How a summary's estimate behaves between its piece boundaries — drives
/// the exact range computation in [`bursty_time_ranges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interpolation {
    /// Constant between boundaries (staircase summaries: PBE-1, exact
    /// curves). The estimate jumps only at boundaries.
    Step,
    /// Linear between boundaries (PLA summaries: PBE-2). Threshold crossings
    /// can fall strictly inside a piece.
    Linear,
}

/// Structural readings of one summary, for observability rollups
/// (`bed-obs`): how many pieces the approximation holds, how much exact
/// state is still buffered, and the byte footprint. Plain data — this crate
/// stays dependency-free and leaves metric registration to `bed-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Compressed pieces retained (staircase points for PBE-1, PLA segments
    /// for PBE-2 — including the open piece, if any).
    pub pieces: usize,
    /// Exact state awaiting compression (PBE-1 buffer corner points; PBE-2
    /// feasible-polygon vertices of the open piece).
    pub buffered: usize,
    /// Byte footprint, same accounting as [`CurveSketch::size_bytes`].
    pub bytes: usize,
}

/// Burstiness `b(t) = F(t) − 2·F(t−τ) + F(t−2τ)` (Eq. 2) from the three
/// probes `[F(t), F(t−τ), F(t−2τ)]` — the one place every summary, grid and
/// query layer composes them.
#[inline]
pub fn burstiness([f0, f1, f2]: [f64; 3]) -> f64 {
    f0 - 2.0 * f1 + f2
}

/// A streaming summary of one cumulative frequency curve `F(t)` supporting
/// historical estimates.
///
/// Implementations must be *persistent* in the paper's sense: after ingesting
/// the whole stream they can estimate `F̃(t)` — and hence burstiness
/// `b̃(t)` — for **any** `t` in the past, not just "now".
///
/// The estimate is expected to never overestimate: `F̃(t) ≤ F(t)` at every
/// constraint point the sketch has retained (this is what makes the median
/// combination in CM-PBE sound).
pub trait CurveSketch {
    /// Records one arrival at `ts`. Timestamps must be non-decreasing across
    /// calls; violations are a logic error (checked in debug builds).
    fn update(&mut self, ts: Timestamp);

    /// Estimated cumulative frequency `F̃(t)`.
    fn estimate_cum(&self, t: Timestamp) -> f64;

    /// `F̃(t)` with rank resumption: identical value to
    /// [`estimate_cum`](CurveSketch::estimate_cum), but implementations with
    /// a sorted piece array resume the search from `hint` (the rank of the
    /// previous call) and store the new rank back, making monotone probe
    /// sequences `O(1)` amortised. The default ignores the hint.
    fn estimate_cum_hinted(&self, t: Timestamp, hint: &mut CumHint) -> f64 {
        let _ = hint;
        self.estimate_cum(t)
    }

    /// Fused `[F̃(t), F̃(t−τ), F̃(t−2τ)]` — the three probes of Eq. 2 in one
    /// call, pre-epoch offsets reading 0. Implementations resolve the
    /// latest offset with one full search and reach the earlier two by
    /// bounded backward steps (`t−2τ ≤ t−τ ≤ t`). Must be bit-for-bit equal
    /// to composing three [`estimate_cum`](CurveSketch::estimate_cum) calls.
    fn probe3(&self, t: Timestamp, tau: BurstSpan) -> [f64; 3] {
        [
            self.estimate_cum(t),
            self.estimate_cum_offset(t, tau.ticks()),
            self.estimate_cum_offset(t, tau.ticks().saturating_mul(2)),
        ]
    }

    /// `F̃(t − delta)`, treating pre-epoch times as 0.
    fn estimate_cum_offset(&self, t: Timestamp, delta: u64) -> f64 {
        match t.checked_sub(delta) {
            Some(earlier) => self.estimate_cum(earlier),
            None => 0.0,
        }
    }

    /// Estimated burst frequency `b̃f(t) = F̃(t) − F̃(t − τ)`.
    fn estimate_burst_frequency(&self, t: Timestamp, tau: BurstSpan) -> f64 {
        self.estimate_cum(t) - self.estimate_cum_offset(t, tau.ticks())
    }

    /// Estimated burstiness `b̃(t) = F̃(t) − 2·F̃(t−τ) + F̃(t−2τ)` (Eq. 2),
    /// evaluated through the fused [`probe3`](CurveSketch::probe3) kernel.
    fn estimate_burstiness(&self, t: Timestamp, tau: BurstSpan) -> f64 {
        burstiness(self.probe3(t, tau))
    }

    /// Flushes any internal buffering so that `size_bytes` reflects the final
    /// summary (PBE-1 compresses a partial buffer; PBE-2 closes the open
    /// polygon into a segment). Queries are valid both before and after.
    fn finalize(&mut self);

    /// Current summary size in bytes, using the workspace-wide accounting of
    /// 16 bytes per staircase point and 24 bytes per PLA segment.
    fn size_bytes(&self) -> usize;

    /// Timestamps at which the approximation starts a new piece. Between two
    /// consecutive knees the approximate incoming rate is constant, which is
    /// what makes bursty-time queries linear in the summary size (Section V).
    fn segment_starts(&self) -> Vec<Timestamp>;

    /// Visits every piece-start timestamp without allocating. The default
    /// walks [`segment_starts`](CurveSketch::segment_starts); summaries
    /// backed by in-memory piece arrays override this with a plain loop so
    /// the hot bursty-time candidate path stays heap-free. Visit order and
    /// multiplicity follow the underlying piece array (callers that need a
    /// sorted, deduplicated list must do so themselves, as
    /// [`bursty_time_candidates`] does).
    fn for_each_segment_start(&self, f: &mut dyn FnMut(Timestamp)) {
        for t in self.segment_starts() {
            f(t);
        }
    }

    /// Visits the summary's estimate as canonical [`CurvePiece`]s in
    /// strictly ascending `start` order — the export that feeds the
    /// struct-of-arrays [`crate::soa::PieceBank`]. Evaluating the last piece
    /// starting at or before `t` (0 before the first) must reproduce
    /// [`estimate_cum`](CurveSketch::estimate_cum) **bit for bit**.
    ///
    /// The default covers [`Interpolation::Step`] summaries by emitting one
    /// staircase piece per knee holding the estimate at that knee;
    /// [`Interpolation::Linear`] implementations must override it with their
    /// exact segments.
    fn for_each_piece(&self, f: &mut dyn FnMut(CurvePiece)) {
        debug_assert!(
            self.interpolation() == Interpolation::Step,
            "Linear summaries must override for_each_piece"
        );
        self.for_each_segment_start(&mut |knee| {
            f(CurvePiece::staircase(knee.ticks(), self.estimate_cum(knee)));
        });
    }

    /// All timestamps at which the estimate's slope may change — piece
    /// starts *and* the first tick after each piece ends (where a PLA
    /// segment's line hands over to the flat hold). Staircase summaries only
    /// change at starts, so the default suffices for them.
    fn piece_boundaries(&self) -> Vec<Timestamp> {
        self.segment_starts()
    }

    /// Shape of the estimate between boundaries.
    fn interpolation(&self) -> Interpolation {
        Interpolation::Step
    }

    /// Whether this summary honours the exact
    /// [`for_each_piece`](CurveSketch::for_each_piece) export contract the
    /// struct-of-arrays [`crate::soa::PieceBank`] depends on. Composite
    /// summaries that cannot express their estimate as a flat piece array
    /// (e.g. a tier-compacted cell adding a frozen staircase prefix to a
    /// live PLA curve) return `false`; grids skip the bank for them and
    /// answer from the AoS path instead.
    fn bankable(&self) -> bool {
        true
    }

    /// Number of arrivals ingested so far.
    fn arrivals(&self) -> u64;

    /// Structural readings for observability. The default derives `pieces`
    /// from [`segment_starts`](CurveSketch::segment_starts) and reports no
    /// buffering; implementations with internal buffers should override.
    fn summary_stats(&self) -> SummaryStats {
        SummaryStats { pieces: self.segment_starts().len(), buffered: 0, bytes: self.size_bytes() }
    }
}

/// Blanket helper: candidate query instants for a bursty-time query over a
/// sketch — every knee plus its `+τ` and `+2τ` echoes (burstiness changes
/// only when one of the three terms of Eq. 2 crosses a knee).
pub fn bursty_time_candidates<S: CurveSketch + ?Sized>(
    sketch: &S,
    tau: BurstSpan,
    horizon: Timestamp,
) -> Vec<Timestamp> {
    let mut out: Vec<u64> = Vec::new();
    bursty_time_candidates_into(sketch, tau, horizon, &mut out);
    out.into_iter().map(Timestamp).collect()
}

/// Allocation-reusing form of [`bursty_time_candidates`]: fills `out` with
/// the sorted, deduplicated candidate ticks, clearing it first. Knees are
/// gathered through the [`CurveSketch::for_each_segment_start`] visitor, so
/// no intermediate `Vec` of piece starts is built.
pub fn bursty_time_candidates_into<S: CurveSketch + ?Sized>(
    sketch: &S,
    tau: BurstSpan,
    horizon: Timestamp,
    out: &mut Vec<u64>,
) {
    out.clear();
    sketch.for_each_segment_start(&mut |knee| {
        for delta in [0, tau.ticks(), tau.ticks().saturating_mul(2)] {
            let t = knee.ticks().saturating_add(delta);
            if t <= horizon.ticks() {
                out.push(t);
            }
        }
    });
    out.sort_unstable();
    out.dedup();
}

/// Exact bursty-time **ranges** over a sketch's estimate (an extension of
/// the paper's knee-probing strategy): returns the maximal closed intervals
/// within `[0, horizon]` where `b̃(t) ≥ θ`.
///
/// The estimate's burstiness `b̃(t) = F̃(t) − 2F̃(t−τ) + F̃(t−2τ)` changes
/// shape only where one of the three terms crosses a piece boundary, so
/// evaluating at every boundary echo (`boundary`, `+τ`, `+2τ`) is exact for
/// [`Interpolation::Step`] summaries; for [`Interpolation::Linear`] ones,
/// `b̃` is linear *between* echoes and the θ-crossings inside a stretch are
/// recovered by interpolation.
pub fn bursty_time_ranges<S: CurveSketch + ?Sized>(
    sketch: &S,
    theta: f64,
    tau: BurstSpan,
    horizon: Timestamp,
) -> Vec<TimeRange> {
    // Candidate instants where the piecewise shape can change.
    let mut cands: Vec<u64> = Vec::new();
    cands.push(0);
    for b in sketch.piece_boundaries() {
        for delta in [0, tau.ticks(), tau.ticks().saturating_mul(2)] {
            let t = b.ticks().saturating_add(delta);
            if t <= horizon.ticks() {
                cands.push(t);
            }
        }
    }
    cands.push(horizon.ticks());
    cands.sort_unstable();
    cands.dedup();

    let mut ranges: Vec<TimeRange> = Vec::new();
    let push = |start: u64, end: u64, ranges: &mut Vec<TimeRange>| {
        if start > end {
            return;
        }
        let range = TimeRange { start: Timestamp(start), end: Timestamp(end) };
        match ranges.last_mut() {
            Some(last) if last.adjacent_or_overlapping(&range) => *last = last.merge(&range),
            _ => ranges.push(range),
        }
    };

    let linear = sketch.interpolation() == Interpolation::Linear;

    for i in 0..cands.len() {
        let c1 = cands[i];
        let v1 = sketch.estimate_burstiness(Timestamp(c1), tau);
        // The stretch owns [c1, c2 − 1] (or through the horizon at the end).
        let stretch_end = match cands.get(i + 1) {
            Some(&c2) => c2 - 1,
            None => horizon.ticks(),
        };
        if stretch_end < c1 {
            continue; // adjacent candidates: the next stretch handles c2
        }
        if !linear || stretch_end == c1 {
            // constant stretch (or a single tick): one evaluation decides
            if v1 >= theta {
                push(c1, stretch_end, &mut ranges);
            }
            continue;
        }
        // Linear on the closed stretch: fit the line on the stretch's own
        // endpoints (the next boundary may start a different piece, so its
        // value must not be used for the slope).
        let v_end = sketch.estimate_burstiness(Timestamp(stretch_end), tau);
        match (v1 >= theta, v_end >= theta) {
            (true, true) => push(c1, stretch_end, &mut ranges),
            (false, false) => {}
            (above_at_start, _) => {
                // exactly one crossing: b̃ is monotone linear on the stretch
                let t_star = c1 as f64 + (theta - v1) * (stretch_end - c1) as f64 / (v_end - v1);
                if above_at_start {
                    let end = (t_star.floor() as u64).clamp(c1, stretch_end);
                    push(c1, end, &mut ranges);
                } else {
                    let start = (t_star.ceil() as u64).clamp(c1, stretch_end);
                    push(start, stretch_end, &mut ranges);
                }
            }
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal fake: exact counter with one knee per arrival timestamp.
    struct Fake(Vec<u64>);
    impl CurveSketch for Fake {
        fn update(&mut self, ts: Timestamp) {
            self.0.push(ts.ticks());
        }
        fn estimate_cum(&self, t: Timestamp) -> f64 {
            self.0.iter().filter(|&&x| x <= t.ticks()).count() as f64
        }
        fn finalize(&mut self) {}
        fn size_bytes(&self) -> usize {
            self.0.len() * 8
        }
        fn segment_starts(&self) -> Vec<Timestamp> {
            let mut v = self.0.clone();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(Timestamp).collect()
        }
        fn arrivals(&self) -> u64 {
            self.0.len() as u64
        }
    }

    #[test]
    fn default_burstiness_combines_three_terms() {
        let mut f = Fake(vec![]);
        for t in [0u64, 0, 0, 0, 5, 5, 5, 5] {
            f.update(Timestamp(t));
        }
        let tau = BurstSpan::new(5).unwrap();
        // F(9)=8, F(4)=4, F(pre-epoch)=0 → b(9) = 8 - 8 + 0 = 0
        assert_eq!(f.estimate_burstiness(Timestamp(9), tau), 0.0);
        // b(4) = F(4) - 2·0 + 0 = 4
        assert_eq!(f.estimate_burstiness(Timestamp(4), tau), 4.0);
        assert_eq!(f.estimate_burst_frequency(Timestamp(9), tau), 4.0);
    }

    #[test]
    fn candidates_include_tau_echoes_within_horizon() {
        let f = Fake(vec![10, 30]);
        let tau = BurstSpan::new(7).unwrap();
        let cands = bursty_time_candidates(&f, tau, Timestamp(40));
        let ticks: Vec<u64> = cands.iter().map(|t| t.ticks()).collect();
        assert_eq!(ticks, vec![10, 17, 24, 30, 37]); // 44 clipped by horizon
    }

    /// Ranges from a step sketch must exactly match per-tick brute force.
    #[test]
    fn step_ranges_match_brute_force() {
        let mut f = Fake(vec![]);
        for t in [5u64, 5, 5, 5, 20, 20, 40] {
            f.update(Timestamp(t));
        }
        let tau = BurstSpan::new(8).unwrap();
        let horizon = Timestamp(80);
        for theta in [-3.0, 1.0, 2.0, 4.0] {
            let ranges = bursty_time_ranges(&f, theta, tau, horizon);
            let mut inside = [false; 81];
            for r in &ranges {
                for t in r.start.ticks()..=r.end.ticks() {
                    inside[t as usize] = true;
                }
            }
            for t in 0..=80u64 {
                let b = f.estimate_burstiness(Timestamp(t), tau);
                assert_eq!(inside[t as usize], b >= theta, "θ={theta} t={t} b={b}");
            }
        }
    }

    /// A fake linear sketch: F̃(t) = t (slope-1 PLA with a single piece).
    struct Ramp;
    impl CurveSketch for Ramp {
        fn update(&mut self, _: Timestamp) {}
        fn estimate_cum(&self, t: Timestamp) -> f64 {
            t.ticks() as f64
        }
        fn finalize(&mut self) {}
        fn size_bytes(&self) -> usize {
            24
        }
        fn segment_starts(&self) -> Vec<Timestamp> {
            vec![Timestamp(0)]
        }
        fn interpolation(&self) -> Interpolation {
            Interpolation::Linear
        }
        fn arrivals(&self) -> u64 {
            0
        }
    }

    /// For a pure ramp, b̃(t) ramps up over [0, 2τ) then settles at 0; the
    /// linear-crossing logic must find the interior crossing exactly.
    #[test]
    fn linear_ranges_find_interior_crossings() {
        let tau = BurstSpan::new(10).unwrap();
        let horizon = Timestamp(100);
        // b̃(t) = t − 2·max(t−10, 0) + max(t−20, 0): rises 0..=10, falls
        // back to 0 at t=20, flat after.
        let ranges = bursty_time_ranges(&Ramp, 4.0, tau, horizon);
        assert_eq!(ranges.len(), 1);
        let r = ranges[0];
        // exact: b̃(t) ≥ 4 ⇔ t ∈ [4, 16]
        assert_eq!(r.start.ticks(), 4, "{r}");
        assert_eq!(r.end.ticks(), 16, "{r}");
    }
}
