//! CM-PBE: Count-Min layout with persistent burstiness estimators as cells
//! (Section IV, Fig. 5).

use std::time::Instant;

use bed_pbe::kernel::CumHint;
use bed_pbe::soa::{bank_of_cells, PieceBank, ProbeRows};
use bed_pbe::{burstiness, CurveSketch};
use bed_stream::{BurstSpan, EventId, StreamError, Timestamp};

use crate::hash::HashFamily;
use crate::params::SketchParams;

/// Row-combination strategy of the ablation probe [`CmPbe::probe3_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// The paper's choice: balances CM over- and PBE under-estimation.
    Median,
    /// Classic Count-Min combiner — biased low with PBE cells.
    Min,
    /// Upper envelope — biased high by collisions.
    Max,
}

/// A `d × w` grid of curve sketches indexed by pairwise-independent hashes.
///
/// Generic over the cell type `P`: `CmPbe<Pbe1>` is the paper's CM-PBE-1,
/// `CmPbe<Pbe2>` is CM-PBE-2, and `CmPbe<ExactCurve>` isolates pure
/// hash-collision error for ablations.
///
/// ```
/// use bed_pbe::{burstiness, Pbe2, Pbe2Config};
/// use bed_sketch::{CmPbe, SketchParams};
/// use bed_stream::{BurstSpan, EventId, Timestamp};
///
/// let params = SketchParams::new(0.01, 0.05).unwrap();
/// let mut cm = CmPbe::new(params, 42, || Pbe2::with_gamma(2.0).unwrap()).unwrap();
///
/// // event 7 bursts at the end of a 1000-tick stream of 50 events
/// for t in 0..1_000u64 {
///     cm.update(EventId((t % 50) as u32), Timestamp(t));
///     if t >= 950 {
///         for _ in 0..5 {
///             cm.update(EventId(7), Timestamp(t));
///         }
///     }
/// }
/// cm.finalize();
///
/// let tau = BurstSpan::new(100).unwrap();
/// let b7 = burstiness(cm.probe3(EventId(7), Timestamp(999), tau));
/// let b3 = burstiness(cm.probe3(EventId(3), Timestamp(999), tau));
/// assert!(b7 > 100.0, "bursting event: {b7}");
/// assert!(b3.abs() < 50.0, "steady event: {b3}");
/// ```
#[derive(Debug, Clone)]
pub struct CmPbe<P> {
    hashes: HashFamily,
    cells: Vec<P>,
    arrivals: u64,
    /// Direct-indexed mode: ids map to `id` itself (a perfect hash). Used
    /// when the id universe fits in one row — no collisions, no need for
    /// multiple rows.
    identity: bool,
    /// Struct-of-arrays query mirror of `cells`: one [`PieceBank`] whose
    /// lane index *is* the flat cell index (`row · w + bucket`), so probes
    /// resolve over four contiguous, cache-line-aligned arrays instead of
    /// chasing `d` heap pointers. Built by [`CmPbe::finalize`] and dropped
    /// by any ingest. Purely an acceleration structure: never persisted
    /// (the `CMPB` codec skips it) and bit-for-bit transparent to every
    /// query.
    bank: Option<PieceBank>,
}

impl<P: CurveSketch> CmPbe<P> {
    /// Builds a grid from accuracy parameters; `make_cell` constructs each
    /// of the `d·w` cells (they must start empty and identical up to
    /// configuration).
    pub fn new(
        params: SketchParams,
        seed: u64,
        make_cell: impl FnMut() -> P,
    ) -> Result<Self, StreamError> {
        params.validate()?;
        Ok(Self::with_dimensions(params.depth(), params.width(), seed, make_cell))
    }

    /// Builds a grid with explicit dimensions.
    pub fn with_dimensions(
        depth: usize,
        width: usize,
        seed: u64,
        mut make_cell: impl FnMut() -> P,
    ) -> Self {
        // A zero-dimension grid has no rows to combine: every estimate
        // would be a fold over an empty sample (±∞ under Min/Max, a panic
        // under Median). Reject at construction instead.
        assert!(depth >= 1, "CmPbe needs at least one row (depth = 0)");
        assert!(width >= 1, "CmPbe needs at least one column (width = 0)");
        let hashes = HashFamily::new(depth, width, seed);
        let cells = (0..depth * width).map(|_| make_cell()).collect();
        CmPbe { hashes, cells, arrivals: 0, identity: false, bank: None }
    }

    /// Builds a **direct-indexed** grid: one row of `universe` cells where id
    /// `x` maps to cell `x`. A perfect hash — zero collision error — used
    /// when the id universe is smaller than the row width a hashed grid
    /// would need (e.g. the upper levels of the dyadic hierarchy, where a
    /// 2-bucket hashed row would collide half the time).
    pub fn direct_indexed(universe: usize, mut make_cell: impl FnMut() -> P) -> Self {
        assert!(universe >= 1, "direct-indexed CmPbe needs a non-empty universe");
        let hashes = HashFamily::new(1, universe, 0);
        let cells = (0..universe).map(|_| make_cell()).collect();
        CmPbe { hashes, cells, arrivals: 0, identity: true, bank: None }
    }

    /// Rows d.
    pub fn depth(&self) -> usize {
        self.hashes.depth()
    }

    /// Columns w.
    pub fn width(&self) -> usize {
        self.hashes.width()
    }

    /// Elements ingested so far (N).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    #[inline]
    fn cell_index(&self, row: usize, event: EventId) -> usize {
        if self.identity {
            assert!(
                (event.value() as usize) < self.width(),
                "event id {} outside the direct-indexed universe of {}",
                event.value(),
                self.width()
            );
            return event.value() as usize;
        }
        row * self.width() + self.hashes.bucket(row, event.value() as u64)
    }

    /// Records `(event, ts)`: one cell per row ingests the timestamp,
    /// ignoring the id (Fig. 5). Timestamps must be non-decreasing.
    pub fn update(&mut self, event: EventId, ts: Timestamp) {
        // Any mutation invalidates the SoA mirror; the next finalize
        // rebuilds it. A plain store — `None` stays `None` on the hot
        // ingest path, so this costs nothing after the first arrival.
        self.bank = None;
        for row in 0..self.depth() {
            let idx = self.cell_index(row, event);
            self.cells[idx].update(ts);
        }
        self.arrivals += 1;
    }

    /// Flushes internal buffering in every cell, then (re)builds the
    /// struct-of-arrays query mirror so every subsequent query rides the
    /// batched SoA kernels. Ingest after finalize drops the mirror again.
    pub fn finalize(&mut self) {
        for cell in &mut self.cells {
            cell.finalize();
        }
        self.build_bank();
    }

    /// (Re)builds the SoA cell bank from the cells' current state without
    /// finalizing them — exposed so equivalence tests and benches can
    /// compare the banked and bank-free paths on identical cell state.
    pub fn build_bank(&mut self) {
        // A single unbankable cell (a tier-compacted composite, say) poisons
        // the whole grid: the bank's piece export would not be bit-identical
        // to the AoS estimate, so the grid stays on the AoS path.
        if self.cells.iter().any(|c| !c.bankable()) {
            self.bank = None;
            return;
        }
        self.bank = Some(bank_of_cells(&self.cells));
    }

    /// Visits every cell immutably (row-major) — observability walks.
    pub fn for_each_cell(&self, mut f: impl FnMut(&P)) {
        for cell in &self.cells {
            f(cell);
        }
    }

    /// Visits every cell mutably (row-major), dropping the SoA mirror
    /// first since any mutation invalidates it. Retention compaction runs
    /// through here.
    pub fn for_each_cell_mut(&mut self, mut f: impl FnMut(&mut P)) {
        self.bank = None;
        for cell in &mut self.cells {
            f(cell);
        }
    }

    /// Drops the SoA mirror, forcing queries back onto the per-cell
    /// array-of-structs path (the bank-free baseline).
    pub fn clear_bank(&mut self) {
        self.bank = None;
    }

    /// Whether the SoA query mirror is currently built.
    pub fn has_bank(&self) -> bool {
        self.bank.is_some()
    }

    /// Resident bytes of the SoA mirror (0 when absent). Reported separately
    /// from [`CmPbe::size_bytes`], which keeps the paper's summary-only
    /// accounting.
    pub fn bank_size_bytes(&self) -> usize {
        self.bank.as_ref().map_or(0, PieceBank::size_bytes)
    }

    /// The cells `event` maps to, one per row in row order — the AoS
    /// cells, never the bank. Each approximates the *mixed* curve of
    /// everything hashed into it, so its estimate is (PBE error aside) an
    /// overestimate of `F_e(t)`.
    #[inline]
    fn row_cells(&self, event: EventId) -> impl Iterator<Item = &P> + '_ {
        (0..self.depth()).map(move |row| &self.cells[self.cell_index(row, event)])
    }

    /// Median-combined estimate `F̃_e(t)` (Theorem 1).
    pub fn estimate_cum(&self, event: EventId, t: Timestamp) -> f64 {
        let d = self.depth();
        if d <= MEDIAN_STACK {
            let mut vals = [0.0f64; MEDIAN_STACK];
            for (row, v) in vals[..d].iter_mut().enumerate() {
                let ci = self.cell_index(row, event);
                *v = match &self.bank {
                    Some(bank) => bank.cum_lane(ci as u32, t),
                    None => self.cells[ci].estimate_cum(t),
                };
            }
            median_stack(&mut vals[..d])
        } else {
            median(self.row_cells(event).map(|cell| cell.estimate_cum(t)).collect())
        }
    }

    /// Fused `[F̃_e(t), F̃_e(t−τ), F̃_e(t−2τ)]` — the three Eq. 2 probes of
    /// one event resolved cell by cell (each cell's own
    /// [`CurveSketch::probe3`] fast path runs once per row), then combined
    /// by three stack medians. Pre-epoch offsets read 0. Bit-for-bit equal
    /// to three [`CmPbe::estimate_cum`] calls and to
    /// [`CmPbe::probe3_by`]`(.., Combiner::Median)`; allocation-free for
    /// `d ≤ MEDIAN_STACK`. Burstiness is [`bed_pbe::burstiness`] of the
    /// result. The untimed instance of [`CmPbe::probe3_with`].
    #[inline]
    pub fn probe3(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> [f64; 3] {
        self.probe3_with::<NoClock>(event, t, tau, &mut StageTimings::default())
    }

    /// [`CmPbe::probe3`] generic over its stage [`Clock`]: one body serves
    /// both the untimed probe (`NoClock`, every hook compiled away) and the
    /// traced one (`StageClock`, which times the cell-probe and
    /// median-combine phases into `stages` and counts bank/scalar probes).
    /// The three estimates are bit-for-bit identical either way.
    #[inline]
    pub fn probe3_with<C: Clock>(
        &self,
        event: EventId,
        t: Timestamp,
        tau: BurstSpan,
        stages: &mut StageTimings,
    ) -> [f64; 3] {
        let d = self.depth();
        let t1 = t.checked_sub(tau.ticks());
        let t2 = t.checked_sub(tau.ticks().saturating_mul(2));
        let probe_t0 = C::TIMED.then(Instant::now);
        if d > MEDIAN_STACK {
            // Deep grids fall back to the heap-median reference probe; the
            // medians interleave with the probes, so the whole pass is
            // attributed to the probe stage.
            let r = self.probe3_by(event, t, tau, Combiner::Median);
            stages.probed(probe_t0, false, 3 * d as u64);
            return r;
        }
        let mut rows = ProbeRows::default();
        match &self.bank {
            // Batched SoA path: all d rows of the (t, τ) probe resolved in
            // one `probe3_rows` pass, combined lane-wise.
            Some(bank) => {
                let mut lanes = [0u32; MEDIAN_STACK];
                for (row, lane) in lanes[..d].iter_mut().enumerate() {
                    *lane = self.cell_index(row, event) as u32;
                }
                bank.probe3_rows(&lanes[..d], t, tau, &mut rows);
            }
            None => {
                for (row, cell) in self.row_cells(event).enumerate() {
                    let p = cell.probe3(t, tau);
                    rows.v0[row] = p[0];
                    rows.v1[row] = p[1];
                    rows.v2[row] = p[2];
                }
            }
        }
        stages.probed(probe_t0, self.bank.is_some(), 3 * d as u64);
        let combine_t0 = C::TIMED.then(Instant::now);
        let r = median_stack_rows(
            d,
            &mut rows.v0,
            &mut rows.v1,
            &mut rows.v2,
            t1.is_some(),
            t2.is_some(),
        );
        stages.combined(combine_t0);
        r
    }

    /// `[F̃_e(t), F̃_e(t−τ), F̃_e(t−2τ)]` with an explicit row combiner —
    /// the ablation probe comparing the paper's median against the classic
    /// Count-Min minimum (wrong here: the PBE's one-sided
    /// *under*-estimation makes the minimum row systematically undershoot)
    /// and the maximum. Each row's cell answers its fused
    /// [`CurveSketch::probe3`] on the AoS path (never the bank), each offset
    /// is combined across rows, and pre-epoch offsets read 0 as in
    /// [`CmPbe::probe3`]. [`Combiner::Median`] runs the heap-sorting
    /// reference median, so it cross-checks [`CmPbe::probe3`] bit for bit.
    pub fn probe3_by(
        &self,
        event: EventId,
        t: Timestamp,
        tau: BurstSpan,
        combiner: Combiner,
    ) -> [f64; 3] {
        let rows: Vec<[f64; 3]> = self.row_cells(event).map(|cell| cell.probe3(t, tau)).collect();
        let live = [
            true,
            t.checked_sub(tau.ticks()).is_some(),
            t.checked_sub(tau.ticks().saturating_mul(2)).is_some(),
        ];
        std::array::from_fn(|k| {
            if !live[k] {
                return 0.0;
            }
            let leg = rows.iter().map(|r| r[k]);
            match combiner {
                Combiner::Median => median(leg.collect()),
                Combiner::Min => leg.fold(f64::INFINITY, f64::min),
                Combiner::Max => leg.fold(f64::NEG_INFINITY, f64::max),
            }
        })
    }

    /// Ablation variant: compute burstiness per row, then take the median of
    /// the d burstiness values (instead of median-then-compose).
    pub fn estimate_burstiness_rowwise(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> f64 {
        median(self.row_cells(event).map(|cell| burstiness(cell.probe3(t, tau))).collect())
    }

    /// Visits every segment-start knee of every cell `event` maps to —
    /// the probe instants of a bursty-time query over this event
    /// (Section V) — without allocating, in row order with duplicates
    /// across rows included (sort and deduplicate for the knee set).
    pub fn for_each_segment_start(&self, event: EventId, f: &mut dyn FnMut(Timestamp)) {
        for cell in self.row_cells(event) {
            cell.for_each_segment_start(f);
        }
    }

    /// Batched bursty-event kernel: evaluates `b̃_e(t)` for every event id
    /// in `lo..hi` and calls `emit(event, burstiness)` for each, in id
    /// order. Instead of `(hi−lo)·d` scattered per-event probes, each
    /// distinct cell answers its fused [`CurveSketch::probe3`] exactly once
    /// into a per-cell probe cache — hash-colliding candidates share one
    /// search, and a scan covering a full row walks the d×w table
    /// **row-major** (one sequential pass over each row's cells) instead of
    /// hopping around it per candidate. Results are bit-for-bit the
    /// per-event `burstiness(probe3(..))` values.
    ///
    /// All working memory lives in `scratch`; after its buffers have grown
    /// to the high-water mark the kernel performs no heap allocation.
    /// Grids deeper than [`MEDIAN_STACK`] rows fall back to one
    /// [`CmPbe::probe3`] per event.
    pub fn burstiness_scan_into(
        &self,
        lo: u32,
        hi: u32,
        t: Timestamp,
        tau: BurstSpan,
        scratch: &mut QueryScratch,
        mut emit: impl FnMut(EventId, f64),
    ) {
        let d = self.depth();
        let count = hi.saturating_sub(lo) as usize;
        if count == 0 {
            return;
        }
        if d > MEDIAN_STACK {
            for e in lo..hi {
                emit(EventId(e), burstiness(self.probe3(EventId(e), t, tau)));
            }
            return;
        }
        let t1 = t.checked_sub(tau.ticks());
        let t2 = t.checked_sub(tau.ticks().saturating_mul(2));
        let ncells = self.cells.len();
        let QueryScratch { cells, order, probes, stages, .. } = scratch;
        // Resolve each candidate's cell per row exactly once (one hash each).
        cells.clear();
        cells.resize(count * d, 0);
        for row in 0..d {
            for (i, e) in (lo..hi).enumerate() {
                cells[i * d + row] = self.cell_index(row, EventId(e));
            }
        }
        probes.clear();
        probes.resize(ncells * 3, 0.0);
        let probe_t0 = stages.enabled.then(Instant::now);
        // With the SoA bank present, each per-cell probe walks the shared
        // key/coefficient arrays (one lane per cell) instead of that cell's
        // own piece structs; values are bit-identical either way.
        let probe_cell = |ci: usize| -> [f64; 3] {
            match &self.bank {
                Some(bank) => bank.probe3_lane(ci as u32, t, tau),
                None => self.cells[ci].probe3(t, tau),
            }
        };
        let mut probed = 0u64;
        if count >= self.width() {
            // Dense scan: nearly every cell is some candidate's — probe the
            // whole table row-major, one sequential cache-friendly pass.
            // With the bank present that pass is a single call walking the
            // contiguous SoA arrays front to back.
            match &self.bank {
                Some(bank) => bank.probe3_all_into(t, tau, &mut probes[..]),
                None => {
                    for ci in 0..ncells {
                        probes[ci * 3..ci * 3 + 3].copy_from_slice(&probe_cell(ci));
                    }
                }
            }
            probed = ncells as u64;
        } else {
            // Sparse scan: lazily probe only the cells candidates map to.
            order.clear();
            order.resize(ncells, 0);
            for &ci in cells.iter() {
                if order[ci] == 0 {
                    order[ci] = 1;
                    probes[ci * 3..ci * 3 + 3].copy_from_slice(&probe_cell(ci));
                    probed += 1;
                }
            }
        }
        stages.probed(probe_t0, self.bank.is_some(), probed);
        let combine_t0 = stages.enabled.then(Instant::now);
        let mut v0 = [0.0f64; MEDIAN_STACK];
        let mut v1 = [0.0f64; MEDIAN_STACK];
        let mut v2 = [0.0f64; MEDIAN_STACK];
        for i in 0..count {
            for row in 0..d {
                let base = cells[i * d + row] * 3;
                v0[row] = probes[base];
                v1[row] = probes[base + 1];
                v2[row] = probes[base + 2];
            }
            let f = median_stack_rows(d, &mut v0, &mut v1, &mut v2, t1.is_some(), t2.is_some());
            emit(EventId(lo + i as u32), burstiness(f));
        }
        stages.combined(combine_t0);
    }

    /// Fused bursty-time kernel for one event: fills `out` with every
    /// `(t, b̃_e(t))` where `t` is a candidate instant (each knee of the
    /// event's cells plus its `+τ`/`+2τ` echoes, clipped to `horizon`) and
    /// `b̃_e(t) ≥ theta`, in ascending `t` order — the same contract as
    /// filtering the [`CmPbe::for_each_segment_start`] candidates through
    /// `burstiness(probe3(..))`, bit for bit.
    ///
    /// The candidate sweep is monotone, so each of the event's `d` cells
    /// keeps one [`CumHint`] per Eq. 2 offset stream and resumes its piece
    /// search instead of re-running `3·d` binary searches per instant. All
    /// working memory lives in `scratch` and `out` (cleared first); after
    /// warm-up the sweep performs no heap allocation beyond `out` growth.
    pub fn bursty_times_into(
        &self,
        event: EventId,
        theta: f64,
        tau: BurstSpan,
        horizon: Timestamp,
        scratch: &mut QueryScratch,
        out: &mut Vec<(Timestamp, f64)>,
    ) {
        out.clear();
        let d = self.depth();
        let QueryScratch { times, knees, probes, order, stages, .. } = scratch;
        // Sort the knees alone, then produce the `+0/+τ/+2τ` echo candidates
        // by a three-way merge of the shifted knee streams — O(n) instead of
        // sorting a 3n-element echo list.
        knees.clear();
        self.for_each_segment_start(event, &mut |knee| knees.push(knee.ticks()));
        knees.sort_unstable();
        knees.dedup();
        times.clear();
        let shifts = [0, tau.ticks(), tau.ticks().saturating_mul(2)];
        let mut at = [0usize; 3];
        loop {
            let mut next: Option<u64> = None;
            for k in 0..3 {
                if let Some(&knee) = knees.get(at[k]) {
                    let c = knee.saturating_add(shifts[k]);
                    next = Some(next.map_or(c, |n| n.min(c)));
                }
            }
            let Some(c) = next else { break };
            // Streams ascend, so once the minimum passes the horizon all
            // remaining candidates do too.
            if c > horizon.ticks() {
                break;
            }
            for k in 0..3 {
                if let Some(&knee) = knees.get(at[k]) {
                    if knee.saturating_add(shifts[k]) == c {
                        at[k] += 1;
                    }
                }
            }
            times.push(c);
        }
        if d > MEDIAN_STACK {
            for &t in times.iter() {
                let b = burstiness(self.probe3(event, Timestamp(t), tau));
                if b >= theta {
                    out.push((Timestamp(t), b));
                }
            }
            return;
        }
        // The three Eq. 2 offset streams of the candidate sweep largely
        // revisit each other's positions (the `t−τ` probe of a `knee+τ`
        // candidate *is* `knee`), so first merge the distinct probe
        // positions `⋃_k {t−kτ : t ∈ times, t ≥ kτ}` into one ascending
        // list (`knees` is done feeding candidates and is reused), keeping
        // for every (instant, offset) its position index in `order`
        // (`u32::MAX` marks a pre-epoch offset, which reads 0).
        order.clear();
        order.resize(times.len() * 3, u32::MAX);
        knees.clear();
        let mut at = [0usize; 3];
        for k in 0..3 {
            // Skip the pre-epoch prefix: those instants keep the sentinel.
            while at[k] < times.len() && times[at[k]] < shifts[k] {
                at[k] += 1;
            }
        }
        loop {
            let mut next: Option<u64> = None;
            for k in 0..3 {
                if let Some(&t) = times.get(at[k]) {
                    let pos = t - shifts[k];
                    next = Some(next.map_or(pos, |n| n.min(pos)));
                }
            }
            let Some(pos) = next else { break };
            let pi = knees.len() as u32;
            knees.push(pos);
            for k in 0..3 {
                if let Some(&t) = times.get(at[k]) {
                    if t - shifts[k] == pos {
                        order[at[k] * 3 + k] = pi;
                        at[k] += 1;
                    }
                }
            }
        }
        // Row-major sweep: each of the event's d cells answers every
        // distinct position exactly once, in one tight ascending pass with a
        // single resumed rank — its segment array stays in cache and no
        // position is searched twice across the three offset streams.
        let npos = knees.len();
        probes.clear();
        probes.resize(d * npos, 0.0);
        let probe_t0 = stages.enabled.then(Instant::now);
        for row in 0..d {
            let ci = self.cell_index(row, event);
            let base = row * npos;
            match &self.bank {
                // SoA sweep: one forward walk of the cell's contiguous key
                // lane answers every ascending position.
                Some(bank) => {
                    bank.cum_lane_sweep(ci as u32, knees, &mut probes[base..base + npos]);
                }
                None => {
                    let cell = &self.cells[ci];
                    let mut h = CumHint::new();
                    for (i, &pos) in knees.iter().enumerate() {
                        probes[base + i] = cell.estimate_cum_hinted(Timestamp(pos), &mut h);
                    }
                }
            }
        }
        stages.probed(probe_t0, self.bank.is_some(), (d * npos) as u64);
        let combine_t0 = stages.enabled.then(Instant::now);
        let mut v0 = [0.0f64; MEDIAN_STACK];
        let mut v1 = [0.0f64; MEDIAN_STACK];
        let mut v2 = [0.0f64; MEDIAN_STACK];
        for (j, &tick) in times.iter().enumerate() {
            let [p0, p1, p2] = [order[j * 3], order[j * 3 + 1], order[j * 3 + 2]];
            for row in 0..d {
                let base = row * npos;
                v0[row] = probes[base + p0 as usize];
                v1[row] = if p1 != u32::MAX { probes[base + p1 as usize] } else { 0.0 };
                v2[row] = if p2 != u32::MAX { probes[base + p2 as usize] } else { 0.0 };
            }
            let f = median_stack_rows(d, &mut v0, &mut v1, &mut v2, p1 != u32::MAX, p2 != u32::MAX);
            let b = burstiness(f);
            if b >= theta {
                out.push((Timestamp(tick), b));
            }
        }
        stages.combined(combine_t0);
    }

    /// Summary size in bytes (sum over cells; hash seeds are negligible).
    pub fn size_bytes(&self) -> usize {
        self.cells.iter().map(|c| c.size_bytes()).sum()
    }

    /// Structural readings for observability: grid dimensions, cell fill,
    /// and the heaviest cell's arrival count (a collision proxy — in a
    /// direct-indexed grid it is simply the most frequent event, while in a
    /// hashed grid a cell far above `N/w` signals colliding heavy ids).
    pub fn structure(&self) -> CmStructure {
        let mut occupied = 0usize;
        let mut heaviest = 0u64;
        let mut pieces = 0usize;
        let mut buffered = 0usize;
        for cell in &self.cells {
            let a = cell.arrivals();
            if a > 0 {
                occupied += 1;
            }
            heaviest = heaviest.max(a);
            let stats = cell.summary_stats();
            pieces += stats.pieces;
            buffered += stats.buffered;
        }
        CmStructure {
            depth: self.depth(),
            width: self.width(),
            cells: self.cells.len(),
            occupied_cells: occupied,
            heaviest_cell_arrivals: heaviest,
            pieces,
            buffered,
            bytes: self.size_bytes(),
        }
    }
}

/// Structural readings of one CM-PBE grid (see [`CmPbe::structure`]).
/// Plain data consumed by `bed-core`'s metrics layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmStructure {
    /// Rows `d`.
    pub depth: usize,
    /// Columns `w`.
    pub width: usize,
    /// Total cells `d·w`.
    pub cells: usize,
    /// Cells that have ingested at least one arrival.
    pub occupied_cells: usize,
    /// Largest per-cell arrival count (collision proxy).
    pub heaviest_cell_arrivals: u64,
    /// Summary pieces across all cells (staircase points / PLA segments).
    pub pieces: usize,
    /// Buffered exact state across all cells awaiting compression.
    pub buffered: usize,
    /// Total byte footprint of the grid's summaries.
    pub bytes: usize,
}

impl CmStructure {
    /// Element-wise sum (used by the hierarchy to roll levels up).
    pub fn accumulate(&mut self, other: &CmStructure) {
        self.depth += other.depth;
        self.width += other.width;
        self.cells += other.cells;
        self.occupied_cells += other.occupied_cells;
        self.heaviest_cell_arrivals = self.heaviest_cell_arrivals.max(other.heaviest_cell_arrivals);
        self.pieces += other.pieces;
        self.buffered += other.buffered;
        self.bytes += other.bytes;
    }
}

/// Persistence (format `CMPB` v1): hash family, every cell, the arrival
/// count, and the indexing mode. Generic over any `Codec` cell type.
impl<P: bed_stream::Codec> bed_stream::Codec for CmPbe<P> {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        w.magic(*b"CMPB");
        w.version(1);
        w.u8(u8::from(self.identity));
        self.hashes.encode(w);
        w.len(self.cells.len());
        for cell in &self.cells {
            cell.encode(w);
        }
        w.u64(self.arrivals);
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        r.magic(*b"CMPB")?;
        r.version(1)?;
        let identity = match r.u8("cmpbe identity flag")? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid { context: "cmpbe identity flag" }),
        };
        let hashes = HashFamily::decode(r)?;
        let n = r.len("cmpbe cell count", 1)?;
        let expected = if identity { hashes.width() } else { hashes.depth() * hashes.width() };
        if n != expected {
            return Err(CodecError::Invalid { context: "cmpbe cell count" });
        }
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(P::decode(r)?);
        }
        let arrivals = r.u64("cmpbe arrivals")?;
        Ok(CmPbe { hashes, cells, arrivals, identity, bank: None })
    }
}

/// Deepest grid the stack-allocated query kernels cover. `d = ⌈ln(1/δ)⌉`,
/// so 8 rows corresponds to a failure probability δ ≈ 3e−4 — beyond any
/// configuration the paper evaluates. Deeper grids fall back to the
/// heap-allocating per-event path. Tied to [`bed_pbe::MAX_LANES`] so the
/// batched SoA kernel's output lanes map one-to-one onto the median stacks.
pub const MEDIAN_STACK: usize = bed_pbe::MAX_LANES;

/// The shared Eq. 2 combine: three cross-row stack medians over the lane
/// buffers of one probe instant, with the `t−τ` / `t−2τ` legs gated to 0
/// when pre-epoch (`live1` / `live2` false). Every batched kernel — the
/// fused per-event probe, the bursty-event scan, and the bursty-time sweep
/// — funnels its lanes through this one helper, so the median semantics
/// (stable insertion sort, average of two middles) live in exactly one
/// place.
#[inline]
fn median_stack_rows(
    d: usize,
    v0: &mut [f64; MEDIAN_STACK],
    v1: &mut [f64; MEDIAN_STACK],
    v2: &mut [f64; MEDIAN_STACK],
    live1: bool,
    live2: bool,
) -> [f64; 3] {
    [
        median_stack(&mut v0[..d]),
        if live1 { median_stack(&mut v1[..d]) } else { 0.0 },
        if live2 { median_stack(&mut v2[..d]) } else { 0.0 },
    ]
}

/// Median of an unsorted sample; averages the two middles for even sizes.
fn median(mut vals: Vec<f64>) -> f64 {
    assert!(!vals.is_empty(), "median of an empty sample");
    vals.sort_by(|a, b| a.partial_cmp(b).expect("estimates are never NaN"));
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        (vals[n / 2 - 1] + vals[n / 2]) / 2.0
    }
}

/// Median of a small sample by in-place insertion sort — no `Vec`, no
/// comparator indirection. Bit-for-bit identical to [`median`] on NaN-free
/// samples: both fully sort (stably — insertion with a strict `>` guard
/// never reorders equal keys) and average the same two middles.
#[inline]
fn median_stack(vals: &mut [f64]) -> f64 {
    debug_assert!(!vals.is_empty(), "median of an empty sample");
    match *vals {
        [a] => a,
        // The 2- and 3-row cases are unrolled with the exact swap decisions
        // of the general insertion sort (strict `>`, so equal keys — and
        // -0.0/0.0 ties — land exactly where the stable sort puts them).
        [a, b] => {
            let (a, b) = if a > b { (b, a) } else { (a, b) };
            (a + b) / 2.0
        }
        [a, b, c] => {
            let (a, b) = if a > b { (b, a) } else { (a, b) };
            let (b, c) = if b > c { (c, b) } else { (b, c) };
            let b = if a > b { a } else { b };
            let _ = c;
            b
        }
        _ => {
            for i in 1..vals.len() {
                let mut j = i;
                while j > 0 && vals[j - 1] > vals[j] {
                    vals.swap(j - 1, j);
                    j -= 1;
                }
            }
            let n = vals.len();
            if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            }
        }
    }
}

/// Reusable working memory for the batched query kernels
/// ([`CmPbe::burstiness_scan_into`], [`CmPbe::bursty_times_into`]).
///
/// Holds resolved cell indices, a candidate-order permutation, the
/// row-major probe buffer, and the candidate-instant list. Buffers grow to
/// the high-water mark of the queries they serve and are then reused, so a
/// warm scratch makes the kernels allocation-free. Create one per query
/// thread and pass it to every query (a fresh scratch is always valid —
/// reuse only saves the allocations).
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Resolved cell index per (candidate, row), candidate-major.
    cells: Vec<usize>,
    /// Candidate permutation used to group candidates by cell within a row.
    order: Vec<u32>,
    /// Row-major probe results: 3 values per (candidate, row).
    probes: Vec<f64>,
    /// Sorted, deduplicated candidate instants of a bursty-time sweep.
    times: Vec<u64>,
    /// Sorted, deduplicated knees feeding the candidate merge.
    knees: Vec<u64>,
    /// Per-stage kernel timings, armed by a tracing root (see
    /// [`StageTimings`]). Defaults to disarmed: the kernels then skip every
    /// clock read.
    pub stages: StageTimings,
    /// Root trace id of the request this scratch is serving (0 = none).
    /// Set by the serving layer so sampled spans and latency exemplars can
    /// share the caller-visible id; ignored by the kernels.
    pub trace_id: u64,
    /// Explain mode: the serving layer arms stage timing and harvests the
    /// populated [`StageTimings`] after the query instead of letting the
    /// tracing root disarm it.
    pub explain: bool,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-stage wall-clock accumulators for one traced query.
///
/// This is how the sampler decision reaches the query kernels without
/// `bed-sketch` depending on any tracing machinery: the component that owns
/// the root span arms the scratch via [`StageTimings::reset`]`(true)`, the
/// kernels accumulate nanoseconds into these plain fields (two
/// `Instant::now()` pairs per kernel call, no allocation), and the root
/// harvests them into child spans. When disarmed — the default — the only
/// cost is a branch on [`StageTimings::enabled`].
///
/// Grids deeper than [`MEDIAN_STACK`] fall back to per-event estimation:
/// the fused probe then attributes its whole pass to the cell-probe stage,
/// while the batched scan and sweep kernels record nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Whether the kernels should time their stages.
    pub enabled: bool,
    /// Nanoseconds spent probing cells (fused Eq. 2 offset resolution).
    pub cell_probe_ns: u64,
    /// Nanoseconds spent in cross-row median combination and emission.
    pub median_combine_ns: u64,
    /// Nanoseconds the dyadic pruned search spent outside its block probes
    /// (recorded by the hierarchy, carried here so one struct reaches the
    /// root).
    pub hierarchy_prune_ns: u64,
    /// Cell probes answered by the SoA bank path (counted only while
    /// `enabled`; lets EXPLAIN name the serving path actually taken).
    pub bank_probes: u64,
    /// Cell probes answered by the scalar per-cell path (counted only
    /// while `enabled`).
    pub scalar_probes: u64,
}

impl StageTimings {
    /// Clears the accumulators and arms (`enabled = true`) or disarms the
    /// stage clocks. Called by whoever starts the root span, once per query.
    #[inline]
    pub fn reset(&mut self, enabled: bool) {
        *self = StageTimings { enabled, ..StageTimings::default() };
    }

    /// Closes a cell-probe phase marked at `since` that ran `probes` cell
    /// probes, on the SoA bank (`banked`) or the scalar per-cell path.
    /// An unmarked (`None`) phase records nothing.
    #[inline]
    pub fn probed(&mut self, since: Option<Instant>, banked: bool, probes: u64) {
        let Some(t0) = since else { return };
        if banked {
            self.bank_probes += probes;
        } else {
            self.scalar_probes += probes;
        }
        self.cell_probe_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Closes a median-combine phase marked at `since`.
    #[inline]
    pub fn combined(&mut self, since: Option<Instant>) {
        if let Some(t0) = since {
            self.median_combine_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// The stage-clock policy a query kernel is compiled with. Kernels generic
/// over it (see [`CmPbe::probe3_with`]) keep one body for the untimed and
/// the traced path: under [`NoClock`] every phase mark is a constant
/// `None`, so its instance is the plain kernel; under [`StageClock`] the
/// phases are timed and the probes counted into [`StageTimings`].
pub trait Clock {
    /// Whether this instance reads the wall clock.
    const TIMED: bool;
}

/// The untimed [`Clock`]: no clock reads, no counters touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoClock;

impl Clock for NoClock {
    const TIMED: bool = false;
}

/// The traced [`Clock`]: times each phase and counts the probes per path.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageClock;

impl Clock for StageClock {
    const TIMED: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bed_pbe::{ExactCurve, Pbe1, Pbe1Config, Pbe2, Pbe2Config};
    use bed_stream::EventStream;

    fn mixed_stream(events: u32, arrivals_per_event: u64) -> EventStream {
        // Interleaved constant-rate streams with different phases.
        let mut els = Vec::new();
        for e in 0..events {
            for i in 0..arrivals_per_event {
                els.push((e, i * 10 + e as u64));
            }
        }
        els.sort_by_key(|&(_, t)| t);
        els.into_iter().collect()
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn median_stack_matches_heap_median() {
        let samples: &[&[f64]] = &[
            &[7.0],
            &[3.0, 1.0],
            &[3.0, 1.0, 2.0],
            &[4.0, 1.0, 2.0, 3.0],
            &[5.0, 5.0, 5.0, 1.0, 9.0],
            &[0.0, -0.0, 2.5, 2.5, -1.0, 4.0],
        ];
        for s in samples {
            let mut buf = s.to_vec();
            assert_eq!(median_stack(&mut buf).to_bits(), median(s.to_vec()).to_bits(), "{s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_depth_grid_is_rejected() {
        let _ = CmPbe::with_dimensions(0, 16, 1, ExactCurve::new);
    }

    #[test]
    #[should_panic(expected = "non-empty universe")]
    fn zero_universe_direct_grid_is_rejected() {
        let _ = CmPbe::direct_indexed(0, ExactCurve::new);
    }

    #[test]
    fn fused_kernels_match_composed_queries() {
        let stream = mixed_stream(40, 30);
        let mut cm = CmPbe::with_dimensions(4, 32, 99, || {
            Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        let tau = BurstSpan::new(40).unwrap();
        let horizon = Timestamp(400);
        let composed = |e: EventId, t: Timestamp| {
            let at = |q: Option<Timestamp>| q.map_or(0.0, |q| cm.estimate_cum(e, q));
            burstiness([
                cm.estimate_cum(e, t),
                at(t.checked_sub(tau.ticks())),
                at(t.checked_sub(tau.ticks().saturating_mul(2))),
            ])
        };
        let mut scratch = QueryScratch::new();
        // batched scan == per-event composition
        let mut batched = Vec::new();
        cm.burstiness_scan_into(0, 40, Timestamp(250), tau, &mut scratch, |e, b| {
            batched.push((e, b));
        });
        assert_eq!(batched.len(), 40);
        for &(e, b) in &batched {
            assert_eq!(b.to_bits(), composed(e, Timestamp(250)).to_bits(), "event {e:?}");
        }
        // fused bursty-time sweep == candidate filter over composed probes
        let mut fused = Vec::new();
        cm.bursty_times_into(EventId(7), 0.5, tau, horizon, &mut scratch, &mut fused);
        let mut knees = Vec::new();
        cm.for_each_segment_start(EventId(7), &mut |knee| knees.push(knee));
        let mut reference = Vec::new();
        for knee in knees {
            for delta in [0, tau.ticks(), tau.ticks() * 2] {
                let t = knee.ticks().saturating_add(delta);
                if t <= horizon.ticks() {
                    reference.push(t);
                }
            }
        }
        reference.sort_unstable();
        reference.dedup();
        let reference: Vec<(Timestamp, f64)> = reference
            .into_iter()
            .map(|t| (Timestamp(t), composed(EventId(7), Timestamp(t))))
            .filter(|&(_, b)| b >= 0.5)
            .collect();
        assert_eq!(fused.len(), reference.len());
        for (got, want) in fused.iter().zip(&reference) {
            assert_eq!(got.0, want.0);
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn stage_probe_counters_name_the_serving_path() {
        let stream = mixed_stream(40, 30);
        let mut cm = CmPbe::with_dimensions(4, 32, 99, || {
            Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        let tau = BurstSpan::new(40).unwrap();
        let mut scratch = QueryScratch::new();

        // Disarmed: counters must stay untouched on the hot path.
        cm.burstiness_scan_into(0, 40, Timestamp(250), tau, &mut scratch, |_, _| {});
        assert_eq!(scratch.stages.bank_probes, 0);
        assert_eq!(scratch.stages.scalar_probes, 0);

        // Armed, bank absent: probes attribute to the scalar path.
        scratch.stages.reset(true);
        assert!(!cm.has_bank());
        cm.burstiness_scan_into(0, 40, Timestamp(250), tau, &mut scratch, |_, _| {});
        assert_eq!(scratch.stages.bank_probes, 0);
        assert!(scratch.stages.scalar_probes > 0);

        // Armed, bank built: same query attributes to the bank path.
        cm.finalize();
        assert!(cm.has_bank());
        scratch.stages.reset(true);
        cm.burstiness_scan_into(0, 40, Timestamp(250), tau, &mut scratch, |_, _| {});
        assert!(scratch.stages.bank_probes > 0);
        assert_eq!(scratch.stages.scalar_probes, 0);

        // The bursty-time sweep counts its per-row position probes too.
        scratch.stages.reset(true);
        let mut out = Vec::new();
        cm.bursty_times_into(EventId(7), 0.0, tau, Timestamp(400), &mut scratch, &mut out);
        assert!(scratch.stages.bank_probes > 0);

        // reset() clears the accumulated counts.
        scratch.stages.reset(false);
        assert_eq!(scratch.stages.bank_probes, 0);
        assert_eq!(scratch.stages.scalar_probes, 0);
    }

    #[test]
    fn probe3_with_matches_probe3_and_attributes_phases() {
        let stream = mixed_stream(40, 30);
        let tau = BurstSpan::new(40).unwrap();
        let (e, t) = (EventId(7), Timestamp(250));
        let bits = |v: [f64; 3]| v.map(f64::to_bits);
        // d = 4 runs the stack-median kernel; d > MEDIAN_STACK the scattered
        // per-offset fallback.
        for depth in [4, MEDIAN_STACK + 2] {
            let mut cm = CmPbe::with_dimensions(depth, 32, 99, || {
                Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()
            });
            for el in stream.iter() {
                cm.update(el.event, el.ts);
            }
            let probes = 3 * depth as u64;
            let mut stages = StageTimings::default();

            // Untimed instance: same bits, clocks and counters untouched.
            let plain = cm.probe3(e, t, tau);
            assert_eq!(bits(cm.probe3_with::<NoClock>(e, t, tau, &mut stages)), bits(plain));
            assert_eq!((stages.bank_probes, stages.scalar_probes), (0, 0));
            assert_eq!((stages.cell_probe_ns, stages.median_combine_ns), (0, 0));

            // Timed, scalar cells: same bits, probes counted per row and offset.
            stages.reset(true);
            assert_eq!(bits(cm.probe3_with::<StageClock>(e, t, tau, &mut stages)), bits(plain));
            assert_eq!((stages.bank_probes, stages.scalar_probes), (0, probes), "d={depth}");

            // Timed, bank built: same bits; shallow grids probe through the
            // SoA lanes, deep ones stay on the scalar fallback.
            cm.finalize();
            let banked = cm.probe3(e, t, tau);
            stages.reset(true);
            assert_eq!(bits(cm.probe3_with::<StageClock>(e, t, tau, &mut stages)), bits(banked));
            let want = if depth <= MEDIAN_STACK { (probes, 0) } else { (0, probes) };
            assert_eq!((stages.bank_probes, stages.scalar_probes), want, "d={depth}");
        }
    }

    #[test]
    fn exact_cells_overestimate_only() {
        // With exact cells the only error is hash collision, which can only
        // inflate the per-row estimate; the median of overestimates is ≥ F.
        let stream = mixed_stream(50, 20);
        let mut cm = CmPbe::with_dimensions(3, 16, 42, ExactCurve::new);
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        for e in 0..50u32 {
            let truth = stream.project(EventId(e)).len() as f64;
            let est = cm.estimate_cum(EventId(e), Timestamp(u64::MAX - 1));
            assert!(est >= truth, "event {e}: {est} < {truth}");
        }
        assert_eq!(cm.arrivals(), 1000);
    }

    #[test]
    fn wide_grid_is_nearly_exact() {
        // Far more columns than events → no collisions → exact.
        let stream = mixed_stream(10, 30);
        let mut cm = CmPbe::with_dimensions(4, 4096, 7, ExactCurve::new);
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        for e in 0..10u32 {
            for t in [50u64, 150, 250] {
                let truth = stream.project(EventId(e)).cumulative_frequency(Timestamp(t)) as f64;
                assert_eq!(cm.estimate_cum(EventId(e), Timestamp(t)), truth);
            }
        }
    }

    #[test]
    fn pbe1_cells_bound_error() {
        let stream = mixed_stream(40, 50);
        let mut cm = CmPbe::with_dimensions(5, 64, 3, || {
            Pbe1::new(Pbe1Config { n_buf: 64, eta: 16 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        cm.finalize();
        let n = cm.arrivals() as f64;
        let mut worst = 0.0f64;
        for e in 0..40u32 {
            let truth = stream.project(EventId(e)).cumulative_frequency(Timestamp(300)) as f64;
            let est = cm.estimate_cum(EventId(e), Timestamp(300));
            worst = worst.max((est - truth).abs());
        }
        // generous sanity bound: collisions ≤ a few ε·N with ε ≈ e/64
        assert!(worst <= 0.2 * n, "worst error {worst} vs N={n}");
    }

    #[test]
    fn pbe2_cells_work_and_burstiness_is_finite() {
        let stream = mixed_stream(20, 40);
        let mut cm = CmPbe::with_dimensions(3, 32, 9, || {
            Pbe2::new(Pbe2Config { gamma: 4.0, max_vertices: 32 }).unwrap()
        });
        for el in stream.iter() {
            cm.update(el.event, el.ts);
        }
        cm.finalize();
        let tau = BurstSpan::new(50).unwrap();
        for e in [0u32, 7, 19] {
            let b = burstiness(cm.probe3(EventId(e), Timestamp(350), tau));
            assert!(b.is_finite());
            let br = cm.estimate_burstiness_rowwise(EventId(e), Timestamp(350), tau);
            assert!(br.is_finite());
        }
        assert!(cm.size_bytes() > 0);
        let mut knees = 0;
        cm.for_each_segment_start(EventId(0), &mut |_| knees += 1);
        assert!(knees > 0);
    }

    #[test]
    fn same_seed_reproduces_estimates() {
        let stream = mixed_stream(30, 10);
        let build = || {
            let mut cm = CmPbe::with_dimensions(4, 32, 1234, || {
                Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()
            });
            for el in stream.iter() {
                cm.update(el.event, el.ts);
            }
            cm.finalize();
            cm
        };
        let a = build();
        let b = build();
        for e in 0..30u32 {
            assert_eq!(
                a.estimate_cum(EventId(e), Timestamp(200)),
                b.estimate_cum(EventId(e), Timestamp(200))
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let r = CmPbe::new(SketchParams { epsilon: 2.0, delta: 0.1 }, 1, ExactCurve::new);
        assert!(r.is_err());
    }
}
