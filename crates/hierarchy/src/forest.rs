//! The per-level CM-PBE forest (Fig. 6).

use bed_pbe::CurveSketch;
use bed_sketch::{CmPbe, SketchParams};
use bed_stream::{EventId, StreamError, Timestamp};

use crate::dyadic::{level_count, padded_universe};

/// One CM-PBE per level of the dyadic decomposition of `[0, K)`.
///
/// Ingesting `(e, t)` updates every level with the block id `e >> level`
/// ("any `(e1, t) ∈ S` or `(e2, t) ∈ S` adds an element `(e_{1,2}, t)` to
/// `S'`" — realised implicitly by hashing the block id instead of
/// materialising the aggregated streams).
///
/// ```
/// use bed_hierarchy::DyadicCmPbe;
/// use bed_pbe::Pbe2;
/// use bed_sketch::SketchParams;
/// use bed_stream::{BurstSpan, EventId, Timestamp};
///
/// let params = SketchParams::new(0.01, 0.05).unwrap();
/// let mut forest =
///     DyadicCmPbe::new(128, params, 7, |_level| Pbe2::with_gamma(1.0).unwrap()).unwrap();
///
/// for t in 0..500u64 {
///     forest.update(EventId((t % 128) as u32), Timestamp(t)).unwrap();
///     if t >= 480 {
///         for _ in 0..10 {
///             forest.update(EventId(99), Timestamp(t)).unwrap();
///         }
///     }
/// }
/// forest.finalize();
///
/// let tau = BurstSpan::new(50).unwrap();
/// let (hits, stats) = forest.bursty_events(Timestamp(499), 100.0, tau);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].event, EventId(99));
/// // pruned search probes far fewer than the 128-event universe
/// assert!(stats.point_queries < 60, "{stats:?}");
/// ```
///
/// Space: each level's grid width is capped at the number of distinct block
/// ids on that level, so the upper levels cost almost nothing and the total
/// stays `O(log K · |CM-PBE|)`.
#[derive(Debug, Clone)]
pub struct DyadicCmPbe<P> {
    universe: u32,
    k_padded: u32,
    grids: Vec<CmPbe<P>>,
}

impl<P: CurveSketch> DyadicCmPbe<P> {
    /// Builds the forest for a universe of `universe` events.
    ///
    /// `make_cell` constructs each grid cell; it receives the level so cell
    /// budgets can differ per level if desired (pass a closure ignoring it
    /// for uniform cells).
    pub fn new(
        universe: u32,
        params: SketchParams,
        seed: u64,
        mut make_cell: impl FnMut(u32) -> P,
    ) -> Result<Self, StreamError> {
        params.validate()?;
        if universe > (1 << 31) {
            // next_power_of_two would overflow u32; an id space this large
            // should be hashed down before reaching the dyadic tree.
            return Err(StreamError::BudgetTooSmall {
                parameter: "universe (max 2^31)",
                got: universe as usize,
                min: 1,
            });
        }
        let k_padded = padded_universe(universe);
        let levels = level_count(k_padded);
        let mut grids = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            let distinct = (k_padded >> level).max(1) as usize;
            // When the level's id space fits within the hashed width, a
            // direct-indexed (perfect-hash) row is strictly better: zero
            // collision error and `distinct` cells instead of `d × w`.
            let grid = if distinct <= params.width() {
                CmPbe::direct_indexed(distinct, || make_cell(level))
            } else {
                CmPbe::with_dimensions(
                    params.depth(),
                    params.width(),
                    // decorrelate rows across levels
                    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(level as u64 + 1)),
                    || make_cell(level),
                )
            };
            grids.push(grid);
        }
        Ok(DyadicCmPbe { universe, k_padded, grids })
    }

    /// Number of levels (leaves through root).
    pub fn levels(&self) -> u32 {
        self.grids.len() as u32
    }

    /// Universe size K as configured.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Padded universe size K′.
    pub fn padded_universe(&self) -> u32 {
        self.k_padded
    }

    /// The grid summarising `level`.
    pub fn grid(&self, level: u32) -> &CmPbe<P> {
        &self.grids[level as usize]
    }

    /// Visits every level's grid mutably, leaf (level 0) first — retention
    /// compaction folds the cells of every level on one cadence so the
    /// whole forest ages coherently.
    pub fn for_each_grid_mut(&mut self, mut f: impl FnMut(u32, &mut CmPbe<P>)) {
        for (level, grid) in self.grids.iter_mut().enumerate() {
            f(level as u32, grid);
        }
    }

    /// Records one arrival of `event` at `ts` in every level.
    pub fn update(&mut self, event: EventId, ts: Timestamp) -> Result<(), StreamError> {
        if event.value() >= self.universe {
            return Err(StreamError::EventOutOfUniverse {
                event: event.value(),
                universe: self.universe,
            });
        }
        for (level, grid) in self.grids.iter_mut().enumerate() {
            grid.update(EventId(event.value() >> level), ts);
        }
        Ok(())
    }

    /// Flushes buffering in every grid.
    pub fn finalize(&mut self) {
        for grid in &mut self.grids {
            grid.finalize();
        }
    }

    /// Elements ingested (N).
    pub fn arrivals(&self) -> u64 {
        self.grids.first().map_or(0, |g| g.arrivals())
    }

    /// Total size across all levels in bytes.
    pub fn size_bytes(&self) -> usize {
        self.grids.iter().map(|g| g.size_bytes()).sum()
    }

    /// Structural readings for observability: level count, the leaf grid's
    /// shape, and node/cell fill totals over the whole forest.
    pub fn structure(&self) -> ForestStructure {
        let mut total = bed_sketch::CmStructure::default();
        for grid in &self.grids {
            total.accumulate(&grid.structure());
        }
        ForestStructure {
            levels: self.levels(),
            universe: self.universe(),
            padded_universe: self.padded_universe(),
            leaf: self.grids[0].structure(),
            nodes: total.cells,
            occupied_nodes: total.occupied_cells,
            pieces: total.pieces,
            buffered: total.buffered,
            bytes: total.bytes,
        }
    }
}

/// Structural readings of one dyadic forest (see [`DyadicCmPbe::structure`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestStructure {
    /// Levels in the hierarchy (`log₂ K + 1`).
    pub levels: u32,
    /// Declared event-id universe `K`.
    pub universe: u32,
    /// Universe padded to the next power of two.
    pub padded_universe: u32,
    /// Structure of the leaf grid (level 0), which answers point queries.
    pub leaf: bed_sketch::CmStructure,
    /// Total sketch cells across every level.
    pub nodes: usize,
    /// Cells that have ingested at least one arrival, across every level.
    pub occupied_nodes: usize,
    /// Summary pieces across every level.
    pub pieces: usize,
    /// Buffered exact state across every level awaiting compression.
    pub buffered: usize,
    /// Total byte footprint of the forest.
    pub bytes: usize,
}

/// Persistence (format `DYAD` v1): universe sizes plus one CM-PBE per level.
impl<P: bed_stream::Codec> bed_stream::Codec for DyadicCmPbe<P> {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        w.magic(*b"DYAD");
        w.version(1);
        w.u32(self.universe);
        w.u32(self.k_padded);
        w.len(self.grids.len());
        for g in &self.grids {
            g.encode(w);
        }
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        r.magic(*b"DYAD")?;
        r.version(1)?;
        let universe = r.u32("dyadic universe")?;
        let k_padded = r.u32("dyadic padded universe")?;
        if !k_padded.is_power_of_two() || k_padded < universe.max(1) {
            return Err(CodecError::Invalid { context: "dyadic padding" });
        }
        let n = r.len("dyadic level count", 1)?;
        if n as u32 != level_count(k_padded) {
            return Err(CodecError::Invalid { context: "dyadic level count" });
        }
        let mut grids = Vec::with_capacity(n);
        for _ in 0..n {
            grids.push(CmPbe::<P>::decode(r)?);
        }
        Ok(DyadicCmPbe { universe, k_padded, grids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyadic::DyadicRange;
    use bed_pbe::{burstiness, ExactCurve};
    use bed_stream::BurstSpan;

    fn forest(universe: u32) -> DyadicCmPbe<ExactCurve> {
        DyadicCmPbe::new(universe, SketchParams { epsilon: 0.01, delta: 0.05 }, 7, |_| {
            ExactCurve::new()
        })
        .unwrap()
    }

    #[test]
    fn level_structure() {
        let f = forest(864);
        assert_eq!(f.padded_universe(), 1024);
        assert_eq!(f.levels(), 11);
        // root grid width capped at 1 block
        assert_eq!(f.grid(10).width(), 1);
        assert!(f.grid(0).width() > 100);
    }

    #[test]
    fn rejects_out_of_universe() {
        let mut f = forest(8);
        assert!(f.update(EventId(8), Timestamp(0)).is_err());
        assert!(f.update(EventId(7), Timestamp(0)).is_ok());
        assert_eq!(f.arrivals(), 1);
    }

    #[test]
    fn parent_aggregates_children() {
        // With exact cells and a wide grid, level-1 block burstiness equals
        // the sum of its two leaves' burstiness.
        let mut f = forest(16);
        let tau = BurstSpan::new(10).unwrap();
        // event 4 bursts at 95..100, event 5 at 97..102
        let mut els: Vec<(u32, u64)> = (95..100).map(|t| (4u32, t)).collect();
        els.extend((97..102).map(|t| (5u32, t)));
        els.sort_by_key(|&(_, t)| t);
        for (e, t) in els {
            f.update(EventId(e), Timestamp(t)).unwrap();
        }
        let t = Timestamp(101);
        let b =
            |node: DyadicRange| burstiness(f.grid(node.level).probe3(EventId(node.index), t, tau));
        let b4 = b(DyadicRange { level: 0, index: 4 });
        let b5 = b(DyadicRange { level: 0, index: 5 });
        let bp = b(DyadicRange { level: 1, index: 2 }); // covers {4, 5}
        assert!((bp - (b4 + b5)).abs() < 1e-9, "bp={bp} b4={b4} b5={b5}");
    }

    #[test]
    fn size_grows_with_levels_but_sublinearly() {
        use bed_pbe::{Pbe2, Pbe2Config};
        // With bounded PBE cells (the real configuration — exact cells would
        // store every timestamp at every level), upper levels compress well:
        // a root cell sees a near-constant aggregate rate and needs only a
        // handful of PLA segments.
        let mut f = DyadicCmPbe::new(256, SketchParams { epsilon: 0.01, delta: 0.05 }, 7, |_| {
            Pbe2::new(Pbe2Config { gamma: 4.0, max_vertices: 32 }).unwrap()
        })
        .unwrap();
        // Uniformly random event per tick-quarter: every dyadic block sees a
        // constant-rate stream, so each PBE-2 cell needs very few segments.
        // (A round-robin id order would make mid-level blocks burst
        // periodically and legitimately cost many segments.)
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.update(EventId((x % 256) as u32), Timestamp(i / 4)).unwrap();
        }
        f.finalize();
        let leaf_size = f.grid(0).size_bytes();
        let total = f.size_bytes();
        // the whole forest costs less than `levels` copies of the leaf grid
        // (upper levels have fewer, larger cells whose Poisson noise — the
        // driver of PLA segment count — grows only as √rate)
        let levels = f.levels() as usize;
        assert!(total < leaf_size * levels, "total={total} leaf={leaf_size} levels={levels}");
        assert!(total > leaf_size);
    }
}
