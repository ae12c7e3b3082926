//! # Tiered retention — bounded memory over unbounded histories
//!
//! Hokusai ("Sketching Streams in Real Time", PAPERS.md) ages sketch
//! state into progressively coarser tiers: the most recent window keeps
//! full resolution, each older window holds half the detail of the one
//! before it. This module adapts that idea to CM-PBE cells, whose state
//! is a monotone cumulative staircase rather than a counter array: aging
//! a curve means *decimating its knees*, keeping at most `budget` knees
//! per tier so an infinite history occupies `O(budget · log₂ horizon)`
//! knees per cell instead of `O(arrivals)`.
//!
//! ## Tier layout
//!
//! With `window = W` ticks and the current watermark `now`:
//!
//! | tier | age range (ticks)  | span       | grain (ticks/knee) |
//! |------|--------------------|------------|--------------------|
//! | 0    | `[0, W)`           | `W`        | 1 (full resolution)|
//! | 1    | `[W, 2W)`          | `W`        | `max(1, W/budget)` |
//! | k≥1  | `[W·2ᵏ⁻¹, W·2ᵏ)`   | `W·2ᵏ⁻¹`   | `max(1, W·2ᵏ⁻¹/budget)` |
//!
//! Every compaction re-evaluates each knee's tier against the *current*
//! watermark, so knees drift into coarser tiers as the history grows —
//! exactly Hokusai's halving, expressed on staircase knees instead of
//! counter arrays.
//!
//! ## Error budget
//!
//! Decimation keeps the **last** knee of every `(tier, grain-bucket)`
//! pair, so the retained staircase never exceeds the original curve and
//! under-estimates it by at most the mass that arrived inside one grain
//! bucket. Stacked on Theorem 1, a probe served by tier `k` satisfies
//! `F(t) − F̃(t) ≤ 3εN + mass(bucketₖ(t))` — the envelope scaled by the
//! tier's halving factor, pinned by `crates/core/tests/retention.rs`.

use bed_stream::codec::{Reader, Writer};
use bed_stream::{Codec, CodecError};

/// How aggressively old history is coarsened, and how often.
///
/// Attached to a detector config; `window`/`budget` define the tier
/// geometry above, `compact_every` is the cadence (in arrivals) at which
/// the detector folds live PBE state into the frozen tiered prefix.
/// Compaction runs *inside* `ingest` on an arrivals-count trigger so WAL
/// replay reproduces the compacted state bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Width of the full-resolution tier-0 window, in ticks.
    pub window: u64,
    /// Maximum knees retained per tier (per cell) after decimation.
    pub budget: u32,
    /// Compact once per this many arrivals (per detector shard).
    pub compact_every: u64,
}

impl RetentionPolicy {
    /// Default compaction cadence, aligned with the checkpoint cadence
    /// (`CheckpointPolicy::default().every_arrivals`).
    pub const DEFAULT_COMPACT_EVERY: u64 = 65_536;

    /// Builds a policy, validating the invariants.
    pub fn new(window: u64, budget: u32, compact_every: u64) -> Result<Self, String> {
        let p = Self { window, budget, compact_every };
        p.validate()?;
        Ok(p)
    }

    /// Checks `window ≥ 1`, `budget ≥ 1`, `compact_every ≥ 1`.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("retention window must be >= 1 tick".into());
        }
        if self.budget == 0 {
            return Err("retention budget must be >= 1 knee per tier".into());
        }
        if self.compact_every == 0 {
            return Err("retention cadence must be >= 1 arrival".into());
        }
        Ok(())
    }

    /// Parses `"window:budget"` or `"window:budget:every"` (the
    /// `--retention` CLI syntax).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let window = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad retention window in {s:?}"))?;
        let budget = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad retention budget in {s:?} (want window:budget[:every])"))?;
        let every = match parts.next() {
            Some(p) => p.parse().map_err(|_| format!("bad retention cadence in {s:?}"))?,
            None => Self::DEFAULT_COMPACT_EVERY,
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in retention spec {s:?}"));
        }
        Self::new(window, budget, every)
    }

    /// The tier serving a probe at `t` when the watermark is `now`:
    /// 0 while the age is inside the full-resolution window, then one
    /// tier per doubling of age.
    pub fn tier_of(&self, t: u64, now: u64) -> u32 {
        let age = now.saturating_sub(t);
        if age < self.window {
            0
        } else {
            (age / self.window).ilog2() + 1
        }
    }

    /// Knee spacing inside `tier`: tier 0 is verbatim, tier `k ≥ 1`
    /// spreads its `budget` knees over a `window · 2^(k−1)` span.
    pub fn grain(&self, tier: u32) -> u64 {
        if tier == 0 {
            return 1;
        }
        let span = self.window.saturating_mul(1u64.checked_shl(tier - 1).unwrap_or(u64::MAX));
        (span / u64::from(self.budget)).max(1)
    }
}

impl std::fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.window, self.budget, self.compact_every)
    }
}

impl Codec for RetentionPolicy {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.window);
        w.u32(self.budget);
        w.u64(self.compact_every);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let window = r.u64("retention window")?;
        let budget = r.u32("retention budget")?;
        let compact_every = r.u64("retention cadence")?;
        let p = Self { window, budget, compact_every };
        p.validate().map_err(|_| CodecError::Invalid { context: "retention policy" })?;
        Ok(p)
    }
}

/// The frozen, tier-decimated prefix of one cell's cumulative curve.
///
/// Knees are `(t, F(t))` staircase corners in strictly ascending `t`
/// with non-decreasing value; `eval` holds the value of the latest knee
/// at or before `t` (0 before the first knee, the frozen total after
/// the last). Live PBE state starts from zero after every fold, so a
/// tiered cell's estimate is simply `frozen.eval(t) + live(t)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrozenCurve {
    knees: Vec<(u64, f64)>,
    /// Watermark of the latest fold; all frozen mass arrived at `t ≤ cut`.
    cut: u64,
    /// Exact arrival count folded in (the estimate is approximate, the
    /// count is not — occupancy stats stay truthful).
    arrivals: u64,
}

impl FrozenCurve {
    /// An empty prefix (nothing folded yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Staircase evaluation: value of the latest knee with `knee.t ≤ t`.
    pub fn eval(&self, t: u64) -> f64 {
        let idx = self.knees.partition_point(|&(kt, _)| kt <= t);
        if idx == 0 {
            0.0
        } else {
            self.knees[idx - 1].1
        }
    }

    /// Total frozen mass (estimate at or beyond the cut).
    pub fn total(&self) -> f64 {
        self.knees.last().map_or(0.0, |&(_, v)| v)
    }

    /// Watermark of the latest fold.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Exact arrivals folded into this prefix.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Retained knee count.
    pub fn len(&self) -> usize {
        self.knees.len()
    }

    /// True when nothing has been folded.
    pub fn is_empty(&self) -> bool {
        self.knees.is_empty() && self.arrivals == 0
    }

    /// Heap footprint of the retained knees.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.knees.len() * std::mem::size_of::<(u64, f64)>()
    }

    /// Visits every retained knee in ascending `t`.
    pub fn for_each_knee(&self, mut f: impl FnMut(u64, f64)) {
        for &(t, v) in &self.knees {
            f(t, v);
        }
    }

    /// Folds a freshly sampled live staircase into the prefix and
    /// re-decimates everything against the new watermark `now`.
    ///
    /// `samples` are `(t, live_estimate)` pairs in ascending `t` — the
    /// live curve sampled at its own piece boundaries (staircasing a
    /// PBE-2 PLA curve under-estimates it, which keeps the one-sided
    /// error direction). Values are offset by the previous frozen total
    /// and clamped monotone so the merged staircase never regresses.
    /// Samples older than the frozen frontier are skipped: they carry no
    /// post-cut mass (a PBE anchors its first piece one tick before its
    /// first arrival), and folding one would restate the frozen total at
    /// an earlier instant — an over-estimate.
    pub fn fold(
        &mut self,
        samples: impl IntoIterator<Item = (u64, f64)>,
        live_arrivals: u64,
        now: u64,
        policy: &RetentionPolicy,
    ) {
        let offset = self.total();
        let frontier = self.knees.last().map(|&(kt, _)| kt);
        let mut floor = offset;
        for (t, v) in samples {
            if frontier.is_some_and(|f| t < f) {
                continue;
            }
            debug_assert!(self.knees.last().is_none_or(|&(kt, _)| kt <= t), "samples not sorted");
            let v = (offset + v.max(0.0)).max(floor);
            floor = v;
            match self.knees.last_mut() {
                Some(last) if last.0 == t => last.1 = v,
                _ => self.knees.push((t, v)),
            }
        }
        self.arrivals += live_arrivals;
        self.cut = now.max(self.cut);
        self.decimate(now, policy);
    }

    /// One forward pass keeping the **last** knee of each
    /// `(tier, grain-bucket)` pair. Because values ascend, the survivor
    /// carries the exact cumulative value at the bucket's end, so the
    /// decimated staircase only ever under-estimates — and the final
    /// knee (the frozen total) is always in its own newest bucket, so
    /// totals are preserved exactly.
    fn decimate(&mut self, now: u64, policy: &RetentionPolicy) {
        let mut out: Vec<(u64, f64)> = Vec::with_capacity(self.knees.len().min(256));
        let mut last_key: Option<(u32, u64)> = None;
        for &(t, v) in &self.knees {
            let tier = policy.tier_of(t, now);
            let key = (tier, t / policy.grain(tier));
            if last_key == Some(key) {
                *out.last_mut().expect("key implies a survivor") = (t, v);
            } else {
                out.push((t, v));
                last_key = Some(key);
            }
        }
        self.knees = out;
    }
}

impl Codec for FrozenCurve {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.cut);
        w.u64(self.arrivals);
        w.len(self.knees.len());
        for &(t, v) in &self.knees {
            w.u64(t);
            w.f64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cut = r.u64("frozen cut")?;
        let arrivals = r.u64("frozen arrivals")?;
        let n = r.len("frozen knee count", 16)?;
        let mut knees = Vec::with_capacity(n);
        let mut prev_t = None;
        let mut prev_v = 0.0f64;
        for _ in 0..n {
            let t = r.u64("frozen knee t")?;
            let v = r.f64("frozen knee value")?;
            if prev_t.is_some_and(|p| t <= p) || !v.is_finite() || v < prev_v {
                return Err(CodecError::Invalid { context: "frozen knee order" });
            }
            prev_t = Some(t);
            prev_v = v;
            knees.push((t, v));
        }
        if prev_t.is_some_and(|p| p > cut) {
            return Err(CodecError::Invalid { context: "frozen knee beyond cut" });
        }
        Ok(Self { knees, cut, arrivals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_forms() {
        let p = RetentionPolicy::parse("1000:64").unwrap();
        assert_eq!(
            p,
            RetentionPolicy::new(1000, 64, RetentionPolicy::DEFAULT_COMPACT_EVERY).unwrap()
        );
        let p = RetentionPolicy::parse("1000:64:4096").unwrap();
        assert_eq!(p.compact_every, 4096);
        assert!(RetentionPolicy::parse("0:64").is_err());
        assert!(RetentionPolicy::parse("1000").is_err());
        assert!(RetentionPolicy::parse("1000:0").is_err());
        assert!(RetentionPolicy::parse("1000:64:1:9").is_err());
        assert!(RetentionPolicy::parse("x:y").is_err());
    }

    #[test]
    fn tier_geometry() {
        let p = RetentionPolicy::new(100, 10, 1).unwrap();
        // ages: [0,100) → 0, [100,200) → 1, [200,400) → 2, [400,800) → 3 …
        assert_eq!(p.tier_of(1000, 1000), 0);
        assert_eq!(p.tier_of(901, 1000), 0);
        assert_eq!(p.tier_of(900, 1000), 1); // exact seam: age == window
        assert_eq!(p.tier_of(801, 1000), 1);
        assert_eq!(p.tier_of(800, 1000), 2); // age == 2·window
        assert_eq!(p.tier_of(601, 1000), 2);
        assert_eq!(p.tier_of(600, 1000), 3); // age == 4·window
        assert_eq!(p.tier_of(0, 1000), 4);
        // t in the future of the watermark still maps to tier 0
        assert_eq!(p.tier_of(2000, 1000), 0);

        assert_eq!(p.grain(0), 1);
        assert_eq!(p.grain(1), 10); // span 100 / budget 10
        assert_eq!(p.grain(2), 20); // span 200 (ages [200,400))
        assert_eq!(p.grain(3), 40); // span 400
        assert_eq!(p.grain(4), 80);
    }

    #[test]
    fn fold_keeps_recent_verbatim_and_decimates_old() {
        let p = RetentionPolicy::new(10, 2, 1).unwrap();
        let mut f = FrozenCurve::new();
        // 100 unit steps, one per tick.
        f.fold((0..100).map(|t| (t, (t + 1) as f64)), 100, 99, &p);
        assert_eq!(f.total(), 100.0);
        assert_eq!(f.arrivals(), 100);
        assert_eq!(f.cut(), 99);
        // tier 0 (ages < 10 → t in (89, 99]) is verbatim
        for t in 90..100 {
            assert_eq!(f.eval(t), (t + 1) as f64);
        }
        // older ticks under-estimate but never over-estimate, and by at
        // most one grain bucket of mass (grain ticks × 1 unit/tick).
        for t in 0..90 {
            let truth = (t + 1) as f64;
            let tier = p.tier_of(t, 99);
            let slack = p.grain(tier) as f64;
            assert!(f.eval(t) <= truth, "over-estimate at {t}");
            assert!(truth - f.eval(t) <= slack, "gap {} > {slack} at {t}", truth - f.eval(t));
        }
        // far fewer knees than arrivals: ~budget per tier + full window
        assert!(f.len() < 30, "kept {} knees", f.len());
    }

    #[test]
    fn repeated_folds_stay_monotone_and_bounded() {
        let p = RetentionPolicy::new(16, 4, 1).unwrap();
        let mut f = FrozenCurve::new();
        let mut total = 0.0;
        for round in 0..64u64 {
            let base = round * 100;
            let samples: Vec<_> = (0..100).map(|i| (base + i, total + (i + 1) as f64)).collect();
            // fold() offsets by the running total itself; pass raw live values
            let raw: Vec<_> = samples.iter().map(|&(t, v)| (t, v - total)).collect();
            f.fold(raw, 100, base + 99, &p);
            total += 100.0;
            assert_eq!(f.total(), total);
            // eval is monotone in t
            let mut prev = -1.0;
            f.for_each_knee(|_, v| {
                assert!(v >= prev);
                prev = v;
            });
        }
        // 6400 ticks of history under a 16-tick window: O(budget · log)
        // knees, not O(arrivals).
        assert!(f.len() < 80, "kept {} knees for 6400 arrivals", f.len());
    }

    #[test]
    fn codec_roundtrip_and_rejects_disorder() {
        let p = RetentionPolicy::new(10, 4, 128).unwrap();
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(RetentionPolicy::decode(&mut r).unwrap(), p);
        r.finish().unwrap();

        let mut f = FrozenCurve::new();
        f.fold([(5, 1.0), (7, 3.0), (20, 4.5)], 5, 20, &p);
        let mut w = Writer::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = FrozenCurve::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, f);

        // knees out of order → Invalid
        let mut w = Writer::new();
        w.u64(30); // cut
        w.u64(2); // arrivals
        w.len(2);
        w.u64(9);
        w.f64(2.0);
        w.u64(4); // t goes backwards
        w.f64(3.0);
        let bytes = w.into_bytes();
        assert!(FrozenCurve::decode(&mut Reader::new(&bytes)).is_err());
    }
}
