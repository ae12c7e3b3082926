//! Bursty event and bursty time queries over the dyadic forest
//! (Section V, Algorithm 3).

use bed_pbe::kernel::CurveCursor;
use bed_pbe::traits::bursty_time_candidates;
use bed_pbe::{burstiness, CurveSketch};
use bed_sketch::{Clock, NoClock, QueryScratch, StageClock, StageTimings};
use bed_stream::{BurstSpan, EventId, Timestamp};

use crate::dyadic::DyadicRange;
use crate::forest::DyadicCmPbe;

/// One result of a bursty event query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyEventHit {
    /// The qualifying event.
    pub event: EventId,
    /// Its estimated burstiness at the query instant.
    pub burstiness: f64,
}

/// Probe accounting for a hierarchical query — the pruning-effectiveness
/// metric reported in Section VI-D ("in most cases we only need to issue
/// O(log K) point queries").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Point queries issued against any level's CM-PBE.
    pub point_queries: usize,
    /// Subtrees skipped by the Eq. 6 bound.
    pub pruned_subtrees: usize,
    /// Leaves actually evaluated.
    pub leaves_probed: usize,
}

/// The running state of one pruned dyadic search.
struct Search<'a> {
    t: Timestamp,
    theta: f64,
    tau: BurstSpan,
    hits: Vec<BurstyEventHit>,
    stats: QueryStats,
    stages: &'a mut StageTimings,
}

impl<P: CurveSketch> DyadicCmPbe<P> {
    /// BURSTY EVENT QUERY `q(t, θ, τ)` via top-down pruned search
    /// (Algorithm 3). Returns qualifying events (estimated `b̃_e(t) ≥ θ`)
    /// and the probe statistics.
    ///
    /// `theta` must be positive: the pruning bound compares squares, so a
    /// non-positive threshold would qualify every event and any algorithm
    /// degenerates to the full scan (use [`Self::bursty_events_scan`] then).
    ///
    /// **Completeness caveat** (inherent to the paper's bound): burstiness is
    /// signed, and a block's burstiness is the *sum* over its events — a
    /// bursting event can be masked by a sibling that is decelerating just
    /// as hard, in which case the subtree is pruned and the event missed.
    /// This is one of the sources of the < 100% recall the paper reports in
    /// Fig. 12. [`Self::bursty_events_scan`] never prunes and is the
    /// recall-maximising (but O(K)) alternative.
    pub fn bursty_events(
        &self,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
    ) -> (Vec<BurstyEventHit>, QueryStats) {
        self.bursty_events_staged(t, theta, tau, &mut StageTimings::default())
    }

    /// [`Self::bursty_events`], reporting into a query's stage clocks: while
    /// `stages` is armed, every block probe is timed and counted as
    /// cell-probe and median-combine work and the rest of the search as
    /// `hierarchy_prune_ns`. The answer is bit-identical either way.
    pub fn bursty_events_staged(
        &self,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
        stages: &mut StageTimings,
    ) -> (Vec<BurstyEventHit>, QueryStats) {
        assert!(theta > 0.0, "bursty event queries require a positive threshold");
        let stats = QueryStats::default();
        let mut s = Search { t, theta, tau, hits: Vec::new(), stats, stages };
        if s.stages.enabled {
            let started = std::time::Instant::now();
            let probing = s.stages.cell_probe_ns + s.stages.median_combine_ns;
            self.search_from_root::<StageClock>(&mut s);
            let probed = s.stages.cell_probe_ns + s.stages.median_combine_ns - probing;
            let total = started.elapsed().as_nanos() as u64;
            s.stages.hierarchy_prune_ns += total.saturating_sub(probed);
        } else {
            self.search_from_root::<NoClock>(&mut s);
        }
        s.hits.sort_by_key(|h| h.event);
        (s.hits, s.stats)
    }

    fn search_from_root<C: Clock>(&self, s: &mut Search<'_>) {
        let root = DyadicRange { level: self.levels() - 1, index: 0 };
        s.stats.point_queries += 1;
        let b_root = self.block_probe::<C>(root, s);
        self.recurse::<C>(root, b_root, s);
    }

    /// A dyadic block's burstiness through its level grid's fused probe.
    fn block_probe<C: Clock>(&self, node: DyadicRange, s: &mut Search<'_>) -> f64 {
        let grid = self.grid(node.level);
        burstiness(grid.probe3_with::<C>(EventId(node.index), s.t, s.tau, s.stages))
    }

    /// `b_node` is the node's own estimate, computed once by the parent (so
    /// each visited internal node costs exactly two point queries — one per
    /// child — and leaves cost none). Subtrees inside the padding (never
    /// updated) are skipped outright.
    fn recurse<C: Clock>(&self, node: DyadicRange, b_node: f64, s: &mut Search<'_>) {
        if node.start() >= self.universe() {
            s.stats.pruned_subtrees += 1;
            return;
        }
        if node.level == 0 {
            s.stats.leaves_probed += 1;
            if b_node >= s.theta {
                s.hits.push(BurstyEventHit { event: EventId(node.index), burstiness: b_node });
            }
            return;
        }
        let left = node.left_child().expect("non-leaf");
        let right = node.right_child().expect("non-leaf");
        let b_l = self.block_probe::<C>(left, s);
        let b_r = self.block_probe::<C>(right, s);
        s.stats.point_queries += 2;
        // Eq. 6: b_p² − 2·b_l·b_r = b_l² + b_r² (exactly, when estimates are
        // exact); below θ² implies both children are below θ in magnitude.
        if b_node * b_node - 2.0 * b_l * b_r < s.theta * s.theta {
            s.stats.pruned_subtrees += 1;
            return;
        }
        self.recurse::<C>(left, b_l, s);
        self.recurse::<C>(right, b_r, s);
    }

    /// Naive baseline: point-query every event id in the universe
    /// ("query each event id e ∈ Σ using a POINT QUERY"), through the leaf
    /// grid's batched row-major kernel ([`bed_sketch::CmPbe::burstiness_scan_into`]) —
    /// bit-for-bit the per-event loop, but each grid row is walked
    /// sequentially and each distinct cell probed once.
    pub fn bursty_events_scan(
        &self,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
    ) -> (Vec<BurstyEventHit>, QueryStats) {
        let mut hits = Vec::new();
        let mut stats = QueryStats::default();
        let mut scratch = QueryScratch::new();
        self.grid(0).burstiness_scan_into(0, self.universe(), t, tau, &mut scratch, |event, b| {
            stats.point_queries += 1;
            stats.leaves_probed += 1;
            if b >= theta {
                hits.push(BurstyEventHit { event, burstiness: b });
            }
        });
        (hits, stats)
    }
}

/// Bursty-time query over a bare single-stream sketch (no CM layout) — used
/// by the single-event fast path in `bed-core`. The candidate sweep is
/// monotone, so probes go through a [`CurveCursor`] that resumes each
/// Eq. 2 offset stream's piece search instead of re-searching per instant.
pub fn bursty_times_single<S: CurveSketch>(
    sketch: &S,
    theta: f64,
    tau: BurstSpan,
    horizon: Timestamp,
) -> Vec<(Timestamp, f64)> {
    let mut cursor = CurveCursor::new(sketch);
    bursty_time_candidates(sketch, tau, horizon)
        .into_iter()
        .filter_map(|t| {
            let b = cursor.burstiness(t, tau);
            (b >= theta).then_some((t, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bed_pbe::{ExactCurve, Pbe2, Pbe2Config};
    use bed_sketch::SketchParams;

    fn leaf_bursty_times<P: CurveSketch>(
        f: &DyadicCmPbe<P>,
        event: EventId,
        tau: BurstSpan,
    ) -> Vec<(Timestamp, f64)> {
        let mut out = Vec::new();
        f.grid(0).bursty_times_into(
            event,
            40.0,
            tau,
            Timestamp(400),
            &mut QueryScratch::new(),
            &mut out,
        );
        out
    }

    /// 64-event universe where events 3 and 40 burst at t≈100 and everything
    /// else ticks along at a constant rate.
    fn bursty_fixture<P: CurveSketch>(make: impl FnMut(u32) -> P) -> DyadicCmPbe<P> {
        let mut f =
            DyadicCmPbe::new(64, SketchParams { epsilon: 0.002, delta: 0.05 }, 11, make).unwrap();
        let mut els: Vec<(u32, u64)> = Vec::new();
        for e in 0..64u32 {
            for i in 0..20u64 {
                els.push((e, i * 10));
            }
        }
        for burst_e in [3u32, 40] {
            for t in 95..110u64 {
                for _ in 0..6 {
                    els.push((burst_e, t));
                }
            }
        }
        els.sort_by_key(|&(_, t)| t);
        for (e, t) in els {
            f.update(EventId(e), Timestamp(t)).unwrap();
        }
        f.finalize();
        f
    }

    #[test]
    fn finds_bursting_events_with_exact_cells() {
        let f = bursty_fixture(|_| ExactCurve::new());
        let tau = BurstSpan::new(20).unwrap();
        let (hits, stats) = f.bursty_events(Timestamp(110), 40.0, tau);
        let ids: Vec<u32> = hits.iter().map(|h| h.event.value()).collect();
        assert_eq!(ids, vec![3, 40]);
        // pruning must beat the full scan
        let (scan_hits, scan_stats) = f.bursty_events_scan(Timestamp(110), 40.0, tau);
        assert_eq!(scan_hits.len(), 2);
        assert!(
            stats.point_queries < scan_stats.point_queries,
            "pruned {} vs scan {}",
            stats.point_queries,
            scan_stats.point_queries
        );
        assert!(stats.pruned_subtrees > 0);
        assert!(stats.leaves_probed < 64);
    }

    #[test]
    fn agrees_with_scan_baseline() {
        let f = bursty_fixture(|_| ExactCurve::new());
        let tau = BurstSpan::new(20).unwrap();
        for theta in [5.0, 20.0, 40.0, 100.0] {
            let (h1, _) = f.bursty_events(Timestamp(110), theta, tau);
            let (h2, _) = f.bursty_events_scan(Timestamp(110), theta, tau);
            let a: Vec<u32> = h1.iter().map(|h| h.event.value()).collect();
            let b: Vec<u32> = h2.iter().map(|h| h.event.value()).collect();
            assert_eq!(a, b, "θ={theta}");
        }
    }

    #[test]
    fn quiet_instant_prunes_to_root() {
        let f = bursty_fixture(|_| ExactCurve::new());
        let tau = BurstSpan::new(20).unwrap();
        // long after the stream: burstiness ~0 everywhere
        let (hits, stats) = f.bursty_events(Timestamp(10_000), 10.0, tau);
        assert!(hits.is_empty());
        assert!(stats.point_queries <= 3, "{stats:?}");
    }

    #[test]
    fn works_with_pbe2_cells() {
        let f = bursty_fixture(|_| Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 32 }).unwrap());
        let tau = BurstSpan::new(20).unwrap();
        let (hits, _) = f.bursty_events(Timestamp(110), 40.0, tau);
        let ids: Vec<u32> = hits.iter().map(|h| h.event.value()).collect();
        assert!(ids.contains(&3) && ids.contains(&40), "ids={ids:?}");
        assert!(ids.len() <= 6, "too many false positives: {ids:?}");
    }

    #[test]
    #[should_panic(expected = "positive threshold")]
    fn nonpositive_threshold_panics() {
        let f = bursty_fixture(|_| ExactCurve::new());
        f.bursty_events(Timestamp(0), 0.0, BurstSpan::new(5).unwrap());
    }

    #[test]
    fn bursty_times_finds_the_burst_window() {
        let f = bursty_fixture(|_| ExactCurve::new());
        let tau = BurstSpan::new(20).unwrap();
        let times = leaf_bursty_times(&f, EventId(3), tau);
        assert!(!times.is_empty());
        for (t, b) in &times {
            assert!(*b >= 40.0);
            assert!((95..=150).contains(&t.ticks()), "burst reported at unexpected instant {t}");
        }
    }

    #[test]
    fn bursty_times_empty_for_quiet_event() {
        let f = bursty_fixture(|_| ExactCurve::new());
        let tau = BurstSpan::new(20).unwrap();
        let times = leaf_bursty_times(&f, EventId(17), tau);
        assert!(times.is_empty(), "{times:?}");
    }
}
