//! Tiered-retention integration: the Hokusai-style aging of PR 9 must be
//! (1) *invisible inside the window* — probes younger than `window` ticks
//! answer bit-for-bit like an unretained detector, (2) *one-sided and
//! bounded outside it* — older probes under-estimate by at most the mass
//! of a few grain buckets (the Theorem-1 envelope scaled by the tier's
//! halving factor), (3) *coherent* — tier stamps flip exactly at the
//! seam, `Series` straddling a seam agrees with its own point queries,
//! and epoch-snapshot readers see the identical stamped answers, and
//! (4) *deterministic* — a detector resumed from an encoded snapshot
//! compacts bit-for-bit like one that never stopped.
//!
//! The CI `retention` job runs this suite under three values of
//! `BED_RETENTION_SEED`; the deterministic tests fold that seed into
//! their stream generators so each run exercises a different history.

use bed_core::{
    BurstDetector, BurstQueries, DetectorEpochs, PbeVariant, QueryRequest, QueryResponse,
    RetentionPolicy, TimeRange,
};
use bed_stream::{BurstSpan, Codec as _, EventId, Timestamp};
use proptest::prelude::*;

fn seed() -> u64 {
    std::env::var("BED_RETENTION_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBED)
}

/// Deterministic xorshift tick stream: `n` sorted arrival ticks in
/// `[0, span)`, shaped by the suite seed so each CI seed ingests a
/// different history.
fn ticks(n: usize, span: u64, salt: u64) -> Vec<u64> {
    let mut x = seed() ^ salt ^ 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % span
        })
        .collect();
    v.sort_unstable();
    v
}

/// One retained and one unretained detector, identically configured and
/// fed the identical single-event stream.
fn single_event_pair(
    ticks: &[u64],
    variant: PbeVariant,
    policy: RetentionPolicy,
) -> (BurstDetector, BurstDetector) {
    let mk = |retention: Option<RetentionPolicy>| {
        let mut d = BurstDetector::builder()
            .single_event()
            .variant(variant)
            .seed(7)
            .retention(retention)
            .build()
            .unwrap();
        for &t in ticks {
            d.ingest_single(Timestamp(t)).unwrap();
        }
        d.finalize();
        d
    };
    (mk(Some(policy)), mk(None))
}

/// True cumulative count of a sorted single-event tick stream at `t`.
fn truth(ticks: &[u64], t: u64) -> f64 {
    ticks.partition_point(|&x| x <= t) as f64
}

proptest! {
    /// The headline envelope, against ground truth. A PBE-1 whose buffer
    /// never fills is exact, so the unretained curve *is* the true count
    /// and every deviation is attributable to decimation alone:
    /// inside the window the tiered estimate is bit-for-bit exact, and at
    /// any age it never over-estimates and trails the truth by at most
    /// the mass of the trailing few grain buckets of its serving tier
    /// (lag compounds only across tier transitions, each bounded by one
    /// grain — four buckets is a safe ceiling).
    #[test]
    fn pbe1_tier_error_stays_inside_scaled_envelope(
        n in 64usize..700,
        span in 256u64..4096,
        window in 16u64..256,
        budget in 2u32..16,
        every in 32u64..512,
        stream_seed in 0u64..1_000,
    ) {
        let ticks = {
            let mut x = stream_seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let mut v: Vec<u64> = (0..n).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                x % span
            }).collect();
            v.sort_unstable();
            v
        };
        let policy = RetentionPolicy::new(window, budget, every).unwrap();
        // n < n_buf (1500) and distinct ticks < η (1024): neither the
        // buffer overflow nor the finalize-time compression ever drops a
        // corner point, so the unretained staircase is the exact count.
        let (ret, unret) = single_event_pair(&ticks, PbeVariant::pbe1(1024), policy);
        prop_assert_eq!(ret.arrivals(), unret.arrivals());
        let now = *ticks.last().unwrap();
        prop_assert!(ret.compactions() >= (ticks.len() as u64) / every);

        let e = EventId(0);
        let tau = BurstSpan::new(1).unwrap();
        let mut t = 0u64;
        while t <= now {
            let point = QueryRequest::Point { event: e, t: Timestamp(t), tau };
            let QueryResponse::Point { cumulative: exact, .. } = unret.query(&point).unwrap() else {
                unreachable!()
            };
            prop_assert_eq!(truth(&ticks, t), exact, "PBE-1 buffer filled; exactness lost");
            let QueryResponse::Point { cumulative: got, .. } = ret.query(&point).unwrap() else {
                unreachable!()
            };
            let tier = policy.tier_of(t, now);
            if tier == 0 {
                prop_assert_eq!(got.to_bits(), exact.to_bits(),
                    "tier 0 must be bit-exact at t={} (now={})", t, now);
            } else {
                prop_assert!(got <= exact + 1e-9, "over-estimate at t={}", t);
                // Mass strictly older than the trailing lag window must
                // survive; arrivals inside it (t − lag inclusive through
                // t) are the decimation's legitimate loss.
                let lag = 4 * policy.grain(tier);
                let floor = ticks.partition_point(|&x| x < t.saturating_sub(lag)) as f64;
                prop_assert!(
                    got >= floor - 1e-9,
                    "t={} tier={} estimate {} below {} (mass older than {} ticks lost)",
                    t, tier, got, floor, lag
                );
            }
            t += 1 + span / 97;
        }
    }

    /// PBE-2 under retention: totals are preserved exactly (the fold
    /// always keeps the final knee), the cumulative curve stays monotone
    /// across every tier seam, and a `Series` response straddling the
    /// window seam agrees bit-for-bit with the same detector's point
    /// queries — the seam is a resolution change, never a discontinuity
    /// in the query plane.
    #[test]
    fn pbe2_seams_are_coherent(
        n in 128usize..600,
        span in 512u64..4096,
        window in 32u64..512,
        budget in 2u32..12,
        every in 32u64..256,
        stream_seed in 0u64..1_000,
    ) {
        let ticks = {
            let mut x = stream_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut v: Vec<u64> = (0..n).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                x % span
            }).collect();
            v.sort_unstable();
            v
        };
        let policy = RetentionPolicy::new(window, budget, every).unwrap();
        let gamma = 2.0;
        let (ret, unret) = single_event_pair(&ticks, PbeVariant::pbe2(gamma), policy);
        let now = *ticks.last().unwrap();
        let e = EventId(0);

        // Totals survive decimation to within the PLA budget: every fold
        // samples a γ-accurate live curve at its cut (errors compound per
        // compaction), the final live part and the unretained reference
        // add one γ each.
        let tau = BurstSpan::new((window / 2).max(1)).unwrap();
        let at_now = QueryRequest::Point { event: e, t: Timestamp(now), tau };
        let QueryResponse::Point { cumulative: rt, .. } = ret.query(&at_now).unwrap() else {
            unreachable!()
        };
        let QueryResponse::Point { cumulative: ut, .. } = unret.query(&at_now).unwrap() else {
            unreachable!()
        };
        let slack = 2.0 * (ret.compactions() as f64 + 2.0) * gamma + 1e-9;
        prop_assert!(
            (rt - ut).abs() <= slack,
            "totals drifted past the PLA budget: retained {} vs unretained {} (> {})",
            rt, ut, slack
        );

        // Near-monotone across all seams: a γ-accurate PLA curve may dip
        // up to 2γ at its own piece boundaries; the tier seams must not
        // add any regression beyond that inherent budget.
        let mut prev = 0.0f64;
        let mut t = 0u64;
        while t <= now {
            let point = QueryRequest::Point { event: e, t: Timestamp(t), tau };
            let QueryResponse::Point { cumulative: v, .. } = ret.query(&point).unwrap() else {
                unreachable!()
            };
            prop_assert!(
                v >= prev - 2.0 * gamma - 1e-9,
                "cumulative regressed past the PLA dip budget at t={} ({} -> {})", t, prev, v
            );
            prev = prev.max(v);
            t += 1 + span / 211;
        }

        // Series through the seam == its own point queries, bit for bit
        let lo = now.saturating_sub(3 * window);
        let range = TimeRange { start: Timestamp(lo), end: Timestamp(now) };
        let step = ((now - lo) / 24).max(1);
        let resp = ret
            .query(&QueryRequest::Series { event: e, tau, range, step })
            .unwrap();
        let samples = resp.samples().unwrap();
        prop_assert!(!samples.is_empty());
        for &(st, sv) in samples {
            let QueryResponse::Point { burstiness, .. } =
                ret.query(&QueryRequest::Point { event: e, t: st, tau }).unwrap()
            else { unreachable!() };
            prop_assert_eq!(sv.to_bits(), burstiness.to_bits(),
                "series sample at t={} disagrees with the point query", st.ticks());
        }
    }
}

/// Tier stamps flip exactly at the seam: a probe aged `window − 1` is
/// served by (and stamped with) tier 0, age `window` by tier 1, age
/// `2·window` by tier 2 — and an unretained detector stamps nothing.
#[test]
fn point_responses_stamp_the_serving_tier_at_exact_seams() {
    let window = 128u64;
    let policy = RetentionPolicy::new(window, 8, 64).unwrap();
    let stream = ticks(1_000, 1 << 12, 0xA11);
    let (ret, unret) = single_event_pair(&stream, PbeVariant::pbe2(2.0), policy);
    let now = *stream.last().unwrap();
    let e = EventId(0);
    let tau = BurstSpan::new(16).unwrap();
    let stamp = |det: &BurstDetector, t: u64| -> Option<u32> {
        let QueryResponse::Point { tier, .. } =
            det.query(&QueryRequest::Point { event: e, t: Timestamp(t), tau }).unwrap()
        else {
            unreachable!()
        };
        tier
    };
    assert_eq!(stamp(&ret, now), Some(0));
    assert_eq!(stamp(&ret, now - (window - 1)), Some(0), "age window-1 is inside the window");
    assert_eq!(stamp(&ret, now - window), Some(1), "age == window crosses the seam");
    assert_eq!(stamp(&ret, now - 2 * window + 1), Some(1), "age 2w-1 is still tier 1");
    assert_eq!(stamp(&ret, now - 2 * window), Some(2), "age == 2·window is tier 2");
    assert_eq!(stamp(&ret, now - 4 * window), Some(3));
    // probes beyond the watermark are served at full resolution
    assert_eq!(stamp(&ret, now + 10), Some(0));
    // no policy -> no stamp
    assert_eq!(stamp(&unret, now - window), None);
}

/// Epoch-snapshot readers observe the identical tiered world: every
/// answer (tier stamp included) from a published view is bit-for-bit the
/// writer's answer, before and after a compaction falls between two
/// publishes.
#[test]
fn epoch_views_serve_stamped_tiers_coherently() {
    let policy = RetentionPolicy::new(64, 4, 256).unwrap();
    let stream = ticks(2_000, 1 << 11, 0xE90C);
    let mut det = BurstDetector::builder()
        .universe(8)
        .variant(PbeVariant::pbe2(2.0))
        .seed(seed())
        .retention(Some(policy))
        .build()
        .unwrap();
    let half = stream.len() / 2;
    for &t in &stream[..half] {
        det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
    }
    let any = bed_core::AnyDetector::Plain(Box::new(det));
    let epochs = DetectorEpochs::new(&any); // publishes generation 1
    let view = epochs.view();
    let bed_core::AnyDetector::Plain(mut det) = any else { unreachable!() };

    let tau = BurstSpan::new(8).unwrap();
    let check = |view: &bed_core::EpochView<'_>, det: &BurstDetector, label: &str| {
        let now = stream[half - 1];
        for (i, age) in [0u64, 63, 64, 127, 128, 300, 700].iter().enumerate() {
            let req = QueryRequest::Point {
                event: EventId((i % 8) as u32),
                t: Timestamp(now.saturating_sub(*age)),
                tau,
            };
            let mut oracle = det.clone();
            oracle.finalize();
            let want = oracle.query(&req).unwrap();
            let got = view.query(&req).unwrap();
            assert_eq!(got, want, "{label}: view diverged at age {age}");
            let QueryResponse::Point { tier, .. } = got else { unreachable!() };
            assert!(tier.is_some(), "{label}: missing tier stamp at age {age}");
        }
    };
    check(&view, &det, "first epoch");
    let before = det.compactions();

    // Drive more stream through — cadence 256 guarantees compactions land
    // between the two publishes — then publish and re-check.
    for &t in &stream[half..] {
        det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
    }
    assert!(det.compactions() > before, "second half must compact");
    let any = bed_core::AnyDetector::Plain(det);
    epochs.publish(&any);
    let bed_core::AnyDetector::Plain(det) = any else { unreachable!() };
    let view = epochs.view();
    check(&view, &det, "post-compaction epoch");

    // The views counted every point answer once, under its serving tier,
    // into the epochs' own metrics (not the published clones' ones).
    let snap = epochs.metrics();
    let tier_queries = |k: u32| snap.counter(&format!("retention.tier{k}.queries"));
    assert!(tier_queries(0).is_some() && tier_queries(1).is_some(), "{snap:?}");
    assert_eq!((0..=64).filter_map(tier_queries).sum::<u64>(), 2 * 7, "{snap:?}");
}

/// Replay determinism across a snapshot boundary: a detector decoded
/// from bytes mid-stream and driven with the tail must land on the
/// byte-identical state (frozen tiers, compaction counter, and all) as
/// one that ingested the whole stream uninterrupted — the property that
/// makes WAL replay of a tiered detector bit-for-bit reproducible.
#[test]
fn snapshot_resume_compacts_bit_for_bit() {
    let policy = RetentionPolicy::new(32, 4, 128).unwrap();
    let stream = ticks(3_000, 1 << 11, 0x5EED);
    let mk = || {
        BurstDetector::builder()
            .universe(4)
            .variant(PbeVariant::pbe2(1.0))
            .seed(3)
            .retention(Some(policy))
            .build()
            .unwrap()
    };
    let mut straight = mk();
    for &t in &stream {
        straight.ingest(EventId((t % 4) as u32), Timestamp(t)).unwrap();
    }

    let mut resumed = mk();
    // a cut that is NOT aligned to the cadence, so the resumed detector
    // must carry the mid-cycle arrival count through the codec
    let cut = 1_111;
    for &t in &stream[..cut] {
        resumed.ingest(EventId((t % 4) as u32), Timestamp(t)).unwrap();
    }
    let mut resumed = BurstDetector::from_bytes(&resumed.to_bytes()).unwrap();
    for &t in &stream[cut..] {
        resumed.ingest(EventId((t % 4) as u32), Timestamp(t)).unwrap();
    }

    assert!(straight.compactions() > 0);
    assert_eq!(straight.compactions(), resumed.compactions());
    assert_eq!(straight.to_bytes(), resumed.to_bytes(), "resumed state diverged");
}

/// Bounded memory at the summary level: under a retention policy the
/// sketch footprint plateaus (growth across the last half of a long
/// stream is marginal) while the unretained footprint keeps climbing —
/// the in-process miniature of the CI soak's RSS assertion.
#[test]
fn summary_footprint_plateaus_under_retention() {
    let policy = RetentionPolicy::new(256, 8, 1_024).unwrap();
    let mk = |retention| {
        BurstDetector::builder()
            .single_event()
            .variant(PbeVariant::pbe2(0.5))
            .seed(1)
            .retention(retention)
            .build()
            .unwrap()
    };
    let mut ret = mk(Some(policy));
    let mut unret = mk(None);
    // Bursty steps: every tick gets a distinct count so PLA pruning
    // cannot collapse the curve on its own.
    let rounds = 16u64;
    let per_round = 8_192u64;
    let mut ret_sizes = Vec::new();
    for r in 0..rounds {
        for i in 0..per_round {
            let t = Timestamp(r * per_round + i);
            // alternate 1 and 3 arrivals per tick: unsmoothable knees
            ret.ingest_single(t).unwrap();
            unret.ingest_single(t).unwrap();
            if i % 2 == 0 {
                for _ in 0..2 {
                    ret.ingest_single(t).unwrap();
                    unret.ingest_single(t).unwrap();
                }
            }
        }
        ret_sizes.push(ret.size_bytes());
    }
    let retained = *ret_sizes.last().unwrap();
    let unretained = unret.size_bytes();
    assert!(
        unretained > 8 * retained,
        "expected ≥8× separation, got unretained={unretained} retained={retained}"
    );
    // plateau: the second half of the stream grew the retained summary by
    // under 30% (log-shaped tail), while the stream itself doubled
    let mid = ret_sizes[ret_sizes.len() / 2 - 1];
    assert!(
        retained < mid + mid * 3 / 10,
        "retained summary still growing linearly: {mid} -> {retained}"
    );
}
