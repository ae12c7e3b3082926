//! PBE-1 — persistent burstiness estimation *with buffering* (Section III-A).
//!
//! PBE-1 maintains the exact staircase of the incoming stream until it holds
//! `n_buf` corner points, then replaces the buffer by its optimal η-point
//! under-approximation (computed by the dynamic program in [`dp`]) and starts
//! the next buffer. The retained points are a subset of the true corner
//! points (Lemma 3), so the approximation never overestimates `F`, and each
//! buffer's area error is the minimum achievable Δ* (Lemma 1: the expected
//! burstiness error is at most `4Δ*`).
//!
//! Because the buffer holds *corner points* rather than raw arrivals, `n_buf`
//! counts distinct timestamps — multiple arrivals in one tick do not consume
//! budget (the paper: "the number of points n to represent F(t) could be much
//! less than the actual number of elements N").

pub mod dp;

use bed_stream::curve::{CornerPoint, FrequencyCurve};
use bed_stream::{Codec, StreamError, Timestamp};

use bed_stream::BurstSpan;

use crate::kernel::{rank_resume, CumHint};
use crate::traits::{CurveSketch, SummaryStats};

/// Configuration of a PBE-1 sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pbe1Config {
    /// Buffer capacity in corner points (`n` in the paper; default 1,500 as
    /// used in the experiments).
    pub n_buf: usize,
    /// Points retained per buffer (`η`; the space/accuracy knob of Fig. 8).
    pub eta: usize,
}

impl Default for Pbe1Config {
    fn default() -> Self {
        Pbe1Config { n_buf: 1_500, eta: 128 }
    }
}

impl Pbe1Config {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.eta < 2 {
            return Err(StreamError::BudgetTooSmall { parameter: "eta", got: self.eta, min: 2 });
        }
        if self.n_buf <= self.eta {
            return Err(StreamError::BudgetTooSmall {
                parameter: "n_buf",
                got: self.n_buf,
                min: self.eta + 1,
            });
        }
        Ok(())
    }
}

/// The PBE-1 sketch.
///
/// ```
/// use bed_pbe::{CurveSketch, Pbe1, Pbe1Config};
/// use bed_stream::{BurstSpan, Timestamp};
///
/// let mut pbe = Pbe1::new(Pbe1Config { n_buf: 100, eta: 8 }).unwrap();
/// // steady arrivals, then a burst at t = 800..810
/// for t in (0..800).step_by(10) {
///     pbe.update(Timestamp(t));
/// }
/// for t in 800..810 {
///     for _ in 0..20 {
///         pbe.update(Timestamp(t));
///     }
/// }
/// pbe.finalize();
///
/// let tau = BurstSpan::new(100).unwrap();
/// let quiet = pbe.estimate_burstiness(Timestamp(500), tau);
/// let bursty = pbe.estimate_burstiness(Timestamp(809), tau);
/// assert!(quiet.abs() < 10.0);
/// assert!(bursty > 150.0);
/// assert!(pbe.size_bytes() < 100 * 16); // compressed below the exact curve
/// ```
#[derive(Debug, Clone)]
pub struct Pbe1 {
    config: Pbe1Config,
    /// Compressed corner points from completed buffers (global cumulative
    /// counts, strictly increasing in both coordinates).
    summary: Vec<CornerPoint>,
    /// Exact corner points of the in-flight buffer.
    buffer: Vec<CornerPoint>,
    arrivals: u64,
    /// Σ of the DP's optimal area errors over completed buffers — the Δ* of
    /// Lemma 1 accumulated over the stream.
    accumulated_error: u64,
    compressions: u64,
}

impl Pbe1 {
    /// Creates an empty sketch with the given configuration.
    pub fn new(config: Pbe1Config) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(Pbe1 {
            config,
            summary: Vec::new(),
            buffer: Vec::with_capacity(config.n_buf),
            arrivals: 0,
            accumulated_error: 0,
            compressions: 0,
        })
    }

    /// Offline mode (Section III-A, last paragraph): one optimal DP over an
    /// archived curve, no buffering artifacts.
    pub fn offline(curve: &FrequencyCurve, eta: usize) -> Result<Self, StreamError> {
        let config = Pbe1Config { n_buf: curve.n_points().max(eta + 1) + 1, eta };
        config.validate()?;
        let sol = dp::solve(curve.corners(), eta);
        let summary = sol.chosen.iter().map(|&i| curve.corners()[i]).collect();
        Ok(Pbe1 {
            config,
            summary,
            buffer: Vec::new(),
            arrivals: curve.total(),
            accumulated_error: sol.cost,
            compressions: 1,
        })
    }

    /// Current global cumulative count.
    fn current_cum(&self) -> u64 {
        self.buffer.last().or_else(|| self.summary.last()).map_or(0, |c| c.cum)
    }

    fn compress_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        if self.buffer.len() <= self.config.eta {
            self.summary.append(&mut self.buffer);
            return;
        }
        let sol = dp::solve(&self.buffer, self.config.eta);
        self.summary.extend(sol.chosen.iter().map(|&i| self.buffer[i]));
        self.accumulated_error += sol.cost;
        self.compressions += 1;
        self.buffer.clear();
    }

    /// Number of buffer compressions run so far.
    pub fn compressions(&self) -> u64 {
        self.compressions
    }

    /// Σ of optimal per-buffer area errors (the Δ* driving Lemma 1's bound).
    pub fn accumulated_area_error(&self) -> u64 {
        self.accumulated_error
    }

    /// Points in the compressed summary (excludes the live buffer).
    pub fn summary_len(&self) -> usize {
        self.summary.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> Pbe1Config {
        self.config
    }

    /// Binary search over the concatenation summary ⊕ buffer.
    fn value_at(&self, t: Timestamp) -> u64 {
        // Buffer timestamps are strictly after summary timestamps.
        if let Some(first_buf) = self.buffer.first() {
            if t >= first_buf.t {
                let idx = self.buffer.partition_point(|c| c.t <= t);
                if idx > 0 {
                    return self.buffer[idx - 1].cum;
                }
            }
        }
        let idx = self.summary.partition_point(|c| c.t <= t);
        if idx == 0 {
            0
        } else {
            self.summary[idx - 1].cum
        }
    }

    // --- rank-based view of the conceptual concatenation summary ⊕ buffer,
    //     for the hinted/fused query kernels. Buffer timestamps are strictly
    //     after summary timestamps, so the concatenation is globally sorted
    //     and `value_at(t) == cum_at_rank(rank_of(t))`.

    #[inline]
    fn n_points(&self) -> usize {
        self.summary.len() + self.buffer.len()
    }

    #[inline]
    fn point_t(&self, i: usize) -> Timestamp {
        if i < self.summary.len() {
            self.summary[i].t
        } else {
            self.buffer[i - self.summary.len()].t
        }
    }

    #[inline]
    fn cum_at_rank(&self, r: usize) -> f64 {
        if r == 0 {
            0.0
        } else if r <= self.summary.len() {
            self.summary[r - 1].cum as f64
        } else {
            self.buffer[r - 1 - self.summary.len()].cum as f64
        }
    }

    #[inline]
    fn rank_of(&self, t: Timestamp, from: usize) -> usize {
        rank_resume(self.n_points(), from, |i| self.point_t(i) <= t)
    }
}

impl CurveSketch for Pbe1 {
    fn update(&mut self, ts: Timestamp) {
        debug_assert!(
            self.buffer.last().is_none_or(|c| ts >= c.t)
                && self.summary.last().is_none_or(|c| ts >= c.t),
            "timestamps must be non-decreasing"
        );
        self.arrivals += 1;
        match self.buffer.last_mut() {
            Some(last) if last.t == ts => {
                last.cum += 1;
                return;
            }
            None => {
                // A compression may have just flushed a buffer ending at this
                // very tick; extend that (exactly kept) corner instead of
                // creating a duplicate-timestamp point.
                if let Some(last) = self.summary.last_mut() {
                    if last.t == ts {
                        last.cum += 1;
                        return;
                    }
                }
                let cum = self.current_cum() + 1;
                self.buffer.push(CornerPoint { t: ts, cum });
            }
            _ => {
                let cum = self.current_cum() + 1;
                self.buffer.push(CornerPoint { t: ts, cum });
            }
        }
        if self.buffer.len() >= self.config.n_buf {
            self.compress_buffer();
        }
    }

    fn estimate_cum(&self, t: Timestamp) -> f64 {
        self.value_at(t) as f64
    }

    #[inline]
    fn estimate_cum_hinted(&self, t: Timestamp, hint: &mut CumHint) -> f64 {
        let r = self.rank_of(t, hint.rank);
        hint.rank = r;
        self.cum_at_rank(r)
    }

    #[inline]
    fn probe3(&self, t: Timestamp, tau: BurstSpan) -> [f64; 3] {
        // One full-width search for the latest offset, then bounded backward
        // resumption for t−τ and t−2τ (t−2τ ≤ t−τ ≤ t).
        let r0 = self.rank_of(t, self.n_points());
        let f0 = self.cum_at_rank(r0);
        let (f1, r1) = match t.checked_sub(tau.ticks()) {
            Some(earlier) => {
                let r = self.rank_of(earlier, r0);
                (self.cum_at_rank(r), r)
            }
            None => (0.0, r0),
        };
        let f2 = match t.checked_sub(tau.ticks().saturating_mul(2)) {
            Some(earlier) => self.cum_at_rank(self.rank_of(earlier, r1)),
            None => 0.0,
        };
        [f0, f1, f2]
    }

    fn finalize(&mut self) {
        self.compress_buffer();
    }

    fn size_bytes(&self) -> usize {
        (self.summary.len() + self.buffer.len()) * 16
    }

    fn segment_starts(&self) -> Vec<Timestamp> {
        self.summary.iter().chain(self.buffer.iter()).map(|c| c.t).collect()
    }

    fn for_each_segment_start(&self, f: &mut dyn FnMut(Timestamp)) {
        for c in self.summary.iter().chain(self.buffer.iter()) {
            f(c.t);
        }
    }

    fn for_each_piece(&self, f: &mut dyn FnMut(crate::soa::CurvePiece)) {
        // The rank view is the concatenation summary ⊕ buffer (globally
        // sorted — buffer timestamps are strictly after summary ones), and
        // `cum_at_rank` reads `cum as f64`; one staircase piece per corner
        // reproduces it bit for bit.
        for c in self.summary.iter().chain(self.buffer.iter()) {
            f(crate::soa::CurvePiece::staircase(c.t.ticks(), c.cum as f64));
        }
    }

    fn arrivals(&self) -> u64 {
        self.arrivals
    }

    fn summary_stats(&self) -> SummaryStats {
        SummaryStats {
            pieces: self.summary.len(),
            buffered: self.buffer.len(),
            bytes: self.size_bytes(),
        }
    }
}

/// Persistence (format `PBE1` v1): config, compressed summary, live buffer,
/// and counters — a decoded sketch continues exactly where the encoded one
/// stopped, including an un-flushed buffer.
impl Codec for Pbe1 {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        w.magic(*b"PBE1");
        w.version(1);
        w.u64(self.config.n_buf as u64);
        w.u64(self.config.eta as u64);
        w.len(self.summary.len());
        for c in &self.summary {
            c.encode(w);
        }
        w.len(self.buffer.len());
        for c in &self.buffer {
            c.encode(w);
        }
        w.u64(self.arrivals);
        w.u64(self.accumulated_error);
        w.u64(self.compressions);
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        r.magic(*b"PBE1")?;
        r.version(1)?;
        let config =
            Pbe1Config { n_buf: r.u64("pbe1 n_buf")? as usize, eta: r.u64("pbe1 eta")? as usize };
        config.validate().map_err(|_| CodecError::Invalid { context: "pbe1 config" })?;
        let decode_points = |r: &mut bed_stream::codec::Reader<'_>,
                             what: &'static str|
         -> Result<Vec<CornerPoint>, CodecError> {
            let n = r.len(what, 16)?;
            let mut v: Vec<CornerPoint> = Vec::with_capacity(n);
            for _ in 0..n {
                let p = CornerPoint::decode(r)?;
                if v.last().is_some_and(|l| !(l.t < p.t && l.cum < p.cum)) {
                    return Err(CodecError::Invalid { context: what });
                }
                v.push(p);
            }
            Ok(v)
        };
        let summary = decode_points(r, "pbe1 summary")?;
        let buffer = decode_points(r, "pbe1 buffer")?;
        // Buffer strictly follows the summary in both coordinates.
        if let (Some(s), Some(b)) = (summary.last(), buffer.first()) {
            if !(s.t < b.t && s.cum < b.cum) {
                return Err(CodecError::Invalid { context: "pbe1 summary/buffer boundary" });
            }
        }
        let arrivals = r.u64("pbe1 arrivals")?;
        let accumulated_error = r.u64("pbe1 error")?;
        let compressions = r.u64("pbe1 compressions")?;
        let total = buffer.last().or(summary.last()).map_or(0, |c| c.cum);
        if arrivals < total {
            return Err(CodecError::Invalid { context: "pbe1 arrival count" });
        }
        Ok(Pbe1 { config, summary, buffer, arrivals, accumulated_error, compressions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bed_stream::SingleEventStream;

    fn feed(pbe: &mut Pbe1, ts: &[u64]) {
        for &t in ts {
            pbe.update(Timestamp(t));
        }
    }

    fn curve_of(ts: &[u64]) -> FrequencyCurve {
        FrequencyCurve::from_stream(&SingleEventStream::from_unsorted(
            ts.iter().map(|&t| Timestamp(t)).collect(),
        ))
    }

    #[test]
    fn config_validation() {
        assert!(Pbe1Config { n_buf: 10, eta: 1 }.validate().is_err());
        assert!(Pbe1Config { n_buf: 4, eta: 4 }.validate().is_err());
        assert!(Pbe1Config { n_buf: 5, eta: 4 }.validate().is_ok());
    }

    #[test]
    fn exact_while_buffer_not_full() {
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 100, eta: 4 }).unwrap();
        let ts = [1u64, 1, 4, 9, 9, 16, 25];
        feed(&mut pbe, &ts);
        let exact = curve_of(&ts);
        for t in 0..=30u64 {
            assert_eq!(pbe.estimate_cum(Timestamp(t)), exact.value_at(Timestamp(t)) as f64);
        }
        assert_eq!(pbe.compressions(), 0);
        assert_eq!(pbe.arrivals(), 7);
    }

    #[test]
    fn never_overestimates_after_compression() {
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 10, eta: 3 }).unwrap();
        let ts: Vec<u64> = (0..100).map(|i| i * 3 + (i % 4)).collect();
        feed(&mut pbe, &ts);
        pbe.finalize();
        let exact = curve_of(&ts);
        for t in 0..=400u64 {
            let approx = pbe.estimate_cum(Timestamp(t));
            let truth = exact.value_at(Timestamp(t)) as f64;
            assert!(approx <= truth, "overestimate at t={t}: {approx} > {truth}");
        }
        assert!(pbe.summary_len() < 100);
        // 76 distinct corners through 10-point buffers → ≥ 7 compressions
        assert!(pbe.compressions() >= 7, "{}", pbe.compressions());
    }

    #[test]
    fn estimate_is_monotone_nondecreasing() {
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 8, eta: 3 }).unwrap();
        let ts: Vec<u64> = (0..60).map(|i| i * 7 % 97 + i).map(|x| x as u64).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        feed(&mut pbe, &sorted);
        pbe.finalize();
        let mut last = -1.0;
        for t in 0..300u64 {
            let v = pbe.estimate_cum(Timestamp(t));
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn boundary_points_are_exact_so_curve_reconnects() {
        // After each compression the buffer's last corner is kept exactly,
        // so F̃ equals F at buffer boundaries.
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 5, eta: 2 }).unwrap();
        let ts: Vec<u64> = (1..=20).map(|i| i * 2).collect();
        feed(&mut pbe, &ts);
        pbe.finalize();
        let exact = curve_of(&ts);
        // Buffer boundaries land on every 5th distinct timestamp.
        for boundary in [10u64, 20, 30, 40] {
            assert_eq!(
                pbe.estimate_cum(Timestamp(boundary)),
                exact.value_at(Timestamp(boundary)) as f64,
                "boundary t={boundary}"
            );
        }
    }

    #[test]
    fn offline_equals_streaming_single_buffer() {
        let ts: Vec<u64> = vec![0, 3, 4, 4, 7, 11, 12, 20, 21, 30];
        let curve = curve_of(&ts);
        let offline = Pbe1::offline(&curve, 4).unwrap();
        let mut streaming = Pbe1::new(Pbe1Config { n_buf: 1000, eta: 4 }).unwrap();
        for &t in &ts {
            streaming.update(Timestamp(t));
        }
        streaming.finalize();
        for t in 0..=40u64 {
            assert_eq!(
                offline.estimate_cum(Timestamp(t)),
                streaming.estimate_cum(Timestamp(t)),
                "t={t}"
            );
        }
        assert_eq!(offline.accumulated_area_error(), streaming.accumulated_area_error());
    }

    #[test]
    fn burstiness_error_shrinks_with_eta() {
        use bed_stream::BurstSpan;
        // A bursty ramp: quadratic arrivals. The burst span must cover many
        // staircase knees (as in the paper, where τ is a full day) or the
        // error metric is dominated by knee-local spike artifacts.
        let ts: Vec<u64> = (0..600u64).map(|i| i * i / 40).collect();
        let exact = curve_of(&ts);
        let tau = BurstSpan::new(2000).unwrap();
        let horizon = *ts.last().unwrap();
        let mut errs = Vec::new();
        for eta in [4usize, 16, 64] {
            let mut pbe = Pbe1::new(Pbe1Config { n_buf: 2000, eta }).unwrap();
            for &t in &ts {
                pbe.update(Timestamp(t));
            }
            pbe.finalize();
            let mut total = 0.0;
            let mut count = 0u64;
            let mut t = 0;
            while t <= horizon {
                let est = pbe.estimate_burstiness(Timestamp(t), tau);
                let truth = exact.burstiness(Timestamp(t), tau) as f64;
                total += (est - truth).abs();
                count += 1;
                t += 13;
            }
            errs.push(total / count as f64);
        }
        assert!(errs[0] >= errs[1] && errs[1] >= errs[2], "errors {errs:?} not decreasing");
        assert!(errs[2] < errs[0].max(1.0), "largest eta should clearly beat smallest");
    }

    #[test]
    fn size_accounting_includes_live_buffer_until_finalize() {
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 50, eta: 4 }).unwrap();
        feed(&mut pbe, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(pbe.size_bytes(), 10 * 16);
        pbe.finalize();
        // 10 ≤ buffer capacity but > eta → compressed to eta points
        assert_eq!(pbe.size_bytes(), 4 * 16);
        assert_eq!(pbe.segment_starts().len(), 4);
    }

    #[test]
    fn duplicate_timestamps_do_not_consume_buffer_budget() {
        let mut pbe = Pbe1::new(Pbe1Config { n_buf: 5, eta: 3 }).unwrap();
        for _ in 0..1000 {
            pbe.update(Timestamp(7));
        }
        assert_eq!(pbe.compressions(), 0);
        assert_eq!(pbe.estimate_cum(Timestamp(7)), 1000.0);
        assert_eq!(pbe.estimate_cum(Timestamp(6)), 0.0);
    }
}
