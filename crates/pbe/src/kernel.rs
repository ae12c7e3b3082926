//! Zero-allocation query kernels: hinted rank resumption and the stateful
//! [`CurveCursor`] for monotone probe sequences.
//!
//! Every historical query in the paper reduces to probing a summary's
//! estimate `F̃` at three offsets `t ≥ t−τ ≥ t−2τ` (Eq. 2), and bursty-time
//! queries sweep those probes over a *sorted* candidate list. Both shapes
//! waste work when each probe restarts a full binary search over the piece
//! array. The kernels here exploit the known ordering instead:
//!
//! - [`rank_resume`] finds a partition point starting from a caller-supplied
//!   hint — a bounded backward walk for the `t−τ`/`t−2τ` legs of one probe,
//!   a doubling gallop forward between consecutive probes of a sweep —
//!   falling back to binary search so the worst case stays `O(log n)`.
//! - [`CumHint`] carries one resolved rank between
//!   [`CurveSketch::estimate_cum_hinted`] calls.
//! - [`CurveCursor`] bundles three hints (one per Eq. 2 offset stream) so a
//!   bursty-time sweep advances each stream instead of re-searching.
//!
//! None of this changes any estimate: a hinted search returns the same rank
//! as `partition_point`, so the fused paths are bit-for-bit identical to the
//! composed three-call evaluation (enforced by proptests in
//! `tests/api_contract.rs`).

use crate::traits::CurveSketch;
use bed_stream::{BurstSpan, Timestamp};

/// Resume state for a hinted rank search: the rank returned by the previous
/// [`CurveSketch::estimate_cum_hinted`] call on the same summary.
///
/// A *rank* is a `partition_point` result — the number of pieces whose key
/// is `≤ t`. A default hint (`rank == 0`) is always valid; a stale or
/// wildly wrong hint only costs search time, never correctness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CumHint {
    pub(crate) rank: usize,
}

impl CumHint {
    /// A fresh hint with no resume information.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How many single steps a backward resume takes before giving up and
/// binary-searching the prefix. The `t−τ`/`t−2τ` legs of one probe usually
/// land within a couple of pieces of the previous leg, so a short walk wins;
/// anything farther is handled in `O(log n)`.
const BACKWARD_STEPS: usize = 8;

/// Plain binary search for the partition point of a monotone predicate on
/// `[lo, hi)`, given that every index `< lo` satisfies it and every index
/// `≥ hi` does not.
fn partition(mut lo: usize, mut hi: usize, at_or_before: &impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_or_before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Finds the partition point of the monotone predicate `at_or_before` over
/// `0..n`, resuming from `start` (a previous rank on the same array).
///
/// Returns the same value as `(0..n).partition_point(at_or_before)` for any
/// `start`; the hint only shortens the search. Cost is `O(1)` when the true
/// rank is within `BACKWARD_STEPS` (8) below or a few pieces above `start`,
/// and `O(log n)` otherwise.
pub fn rank_resume(n: usize, start: usize, at_or_before: impl Fn(usize) -> bool) -> usize {
    let mut lo = start.min(n);
    if lo > 0 && !at_or_before(lo - 1) {
        // The target rank is strictly below the hint: walk back a few
        // pieces (the common bounded-backward case for t−τ / t−2τ), then
        // binary search the remaining prefix.
        let mut hi = lo - 1; // invariant: !at_or_before(hi)
        for _ in 0..BACKWARD_STEPS {
            if hi == 0 {
                return 0;
            }
            if at_or_before(hi - 1) {
                return hi;
            }
            hi -= 1;
        }
        return partition(0, hi, &at_or_before);
    }
    // Everything below `lo` satisfies the predicate: gallop forward with a
    // doubling window, then binary search inside it.
    let mut width = 1usize;
    let mut hi = lo;
    loop {
        if hi >= n {
            hi = n;
            break;
        }
        if !at_or_before(hi) {
            break;
        }
        lo = hi + 1;
        hi = hi.saturating_add(width).min(n);
        width = width.saturating_mul(2);
    }
    partition(lo, hi, &at_or_before)
}

/// A stateful probe cursor over one summary, for monotone probe sequences
/// (bursty-time sweeps). Keeps one [`CumHint`] per Eq. 2 offset stream —
/// each stream is itself monotone when the probe instants are — so every
/// probe advances from the previous one instead of re-searching.
///
/// Results are bit-for-bit identical to calling
/// [`CurveSketch::estimate_burstiness`] at each instant; out-of-order
/// probes are still correct, just slower.
#[derive(Debug)]
pub struct CurveCursor<'a, S: CurveSketch + ?Sized> {
    sketch: &'a S,
    hints: [CumHint; 3],
}

impl<'a, S: CurveSketch + ?Sized> CurveCursor<'a, S> {
    /// Starts a cursor with no resume information.
    pub fn new(sketch: &'a S) -> Self {
        Self { sketch, hints: [CumHint::default(); 3] }
    }

    /// `[F̃(t), F̃(t−τ), F̃(t−2τ)]`, pre-epoch offsets reading 0, advancing
    /// the per-offset hints.
    pub fn probe3(&mut self, t: Timestamp, tau: BurstSpan) -> [f64; 3] {
        let f0 = self.sketch.estimate_cum_hinted(t, &mut self.hints[0]);
        let f1 = match t.checked_sub(tau.ticks()) {
            Some(earlier) => self.sketch.estimate_cum_hinted(earlier, &mut self.hints[1]),
            None => 0.0,
        };
        let f2 = match t.checked_sub(tau.ticks().saturating_mul(2)) {
            Some(earlier) => self.sketch.estimate_cum_hinted(earlier, &mut self.hints[2]),
            None => 0.0,
        };
        [f0, f1, f2]
    }

    /// Burstiness `b̃(t)` (Eq. 2) through the hinted probes.
    pub fn burstiness(&mut self, t: Timestamp, tau: BurstSpan) -> f64 {
        crate::burstiness(self.probe3(t, tau))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(keys: &[u64], t: u64) -> usize {
        keys.partition_point(|&k| k <= t)
    }

    #[test]
    fn rank_resume_matches_partition_point_from_any_hint() {
        let keys: Vec<u64> = (0..200).map(|i| i * 3).collect();
        for t in [0u64, 1, 2, 3, 299, 300, 301, 598, 599, 1000] {
            let want = reference(&keys, t);
            for start in [0usize, 1, 5, 50, 100, 150, 199, 200, 500] {
                let got = rank_resume(keys.len(), start, |i| keys[i] <= t);
                assert_eq!(got, want, "t={t} start={start}");
            }
        }
    }

    #[test]
    fn rank_resume_handles_empty_and_tiny_arrays() {
        assert_eq!(rank_resume(0, 0, |_| unreachable!()), 0);
        assert_eq!(rank_resume(0, 7, |_| unreachable!()), 0);
        let keys = [10u64];
        for start in 0..3 {
            assert_eq!(rank_resume(1, start, |i| keys[i] <= 5), 0);
            assert_eq!(rank_resume(1, start, |i| keys[i] <= 10), 1);
        }
    }
}
