//! The [`BurstDetector`] facade.

use bed_hierarchy::query::bursty_times_single;
use bed_hierarchy::{BurstyEventHit, DyadicCmPbe, QueryStats};
use bed_obs::{MetricsSnapshot, Tracer};
use bed_pbe::{burstiness, CurveSketch};
use bed_sketch::{Clock, CmPbe, NoClock, QueryScratch, StageClock, StageTimings};
use bed_stream::{BurstSpan, EventId, StreamError, Timestamp};

use crate::cell::PbeCell;
use crate::config::{DetectorConfig, PbeVariant};
use crate::error::BedError;
use crate::metrics::{gauge, DetectorMetrics, Entry};
use crate::observe::Traceable;
use crate::pipeline::check_batch;
use crate::query::{
    check_range, check_step, check_theta_finite, check_theta_positive, sort_hits, BurstQueries,
    QueryRequest, QueryResponse, QueryStrategy,
};

/// Storage backend selected by the configuration.
#[derive(Debug, Clone)]
enum Backend {
    /// One PBE over a single event stream (Section III).
    Single(PbeCell),
    /// One CM-PBE over a mixed stream (Section IV).
    Flat(CmPbe<PbeCell>),
    /// Per-level CM-PBEs over the dyadic decomposition (Section V).
    Hierarchical(DyadicCmPbe<PbeCell>),
}

/// What answers a per-event probe (see [`Backend::leaf`]).
enum Leaf<'a> {
    /// The single event stream's PBE.
    Single(&'a PbeCell),
    /// The grid whose cells hold each event's curve.
    Grid(&'a CmPbe<PbeCell>),
}

impl Backend {
    /// The structure answering per-event probes: the single PBE, or the
    /// flat grid, or the hierarchy's leaf level — the levels above only
    /// serve the pruned bursty-event search, so the forest's per-event
    /// estimates *are* its leaf grid's.
    fn leaf(&self) -> Leaf<'_> {
        match self {
            Backend::Single(pbe) => Leaf::Single(pbe),
            Backend::Flat(grid) => Leaf::Grid(grid),
            Backend::Hierarchical(forest) => Leaf::Grid(forest.grid(0)),
        }
    }
}

/// Historical burstiness detector: ingest a stream once, then ask *point*,
/// *bursty time*, and *bursty event* queries about any moment of the past.
///
/// Construct via [`BurstDetector::builder`]; see the crate-level example.
/// A clone answers identically, but its runtime metrics restart: it keeps
/// `ingest.count` and the installed tracer, nothing else.
#[derive(Debug, Clone)]
pub struct BurstDetector {
    config: DetectorConfig,
    backend: Backend,
    last_ts: Option<Timestamp>,
    metrics: DetectorMetrics,
    /// Retention compaction runs completed (runtime gauge; not persisted —
    /// the compacted *state* is, via the cell codec).
    compactions: u64,
}

/// Builder for [`BurstDetector`].
#[derive(Debug, Clone)]
pub struct BurstDetectorBuilder {
    config: DetectorConfig,
}

impl BurstDetector {
    /// Starts a builder with default configuration (single-event PBE-2).
    pub fn builder() -> BurstDetectorBuilder {
        BurstDetectorBuilder { config: DetectorConfig::default() }
    }

    /// Builds directly from a configuration.
    pub fn from_config(config: DetectorConfig) -> Result<Self, BedError> {
        config.variant.validate()?;
        config.sketch.validate()?;
        if let Some(policy) = &config.retention {
            crate::config::validate_retention(policy)?;
        }
        let backend = match (config.universe, config.hierarchical) {
            (None, _) => Backend::Single(config.variant.make_cell()),
            (Some(k), true) => {
                Backend::Hierarchical(DyadicCmPbe::new(k, config.sketch, config.seed, |_| {
                    config.variant.make_cell()
                })?)
            }
            (Some(_), false) => Backend::Flat(CmPbe::new(config.sketch, config.seed, || {
                config.variant.make_cell()
            })?),
        };
        let metrics = DetectorMetrics::default();
        Ok(BurstDetector { config, backend, last_ts: None, metrics, compactions: 0 })
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Records one arrival of `event` at `ts` (mixed-stream modes).
    pub fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        let started = self.metrics.ingest_begin();
        let result = self.ingest_inner(event, ts);
        self.metrics.ingest_end(started, result.is_ok());
        result
    }

    /// Admits an arrival (a refused one leaves the clock where it was),
    /// then updates the backend.
    fn ingest_inner(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        if let Backend::Single(_) = self.backend {
            return Err(BedError::WrongMode {
                operation: "ingest(event, ts)",
                built_for: "a single event stream (use ingest_single)",
            });
        }
        self.last_ts = check_batch(self.config.universe, self.last_ts, &[(event, ts)])?;
        match &mut self.backend {
            Backend::Flat(grid) => grid.update(event, ts),
            Backend::Hierarchical(forest) => forest.update(event, ts)?,
            Backend::Single(_) => unreachable!("refused above"),
        }
        self.maybe_compact();
        Ok(())
    }

    /// Retention trigger: folds live cell state into the frozen tiers once
    /// per `compact_every` arrivals. Runs *inside* the ingest path on the
    /// arrivals counter — a pure function of the arrival history — so WAL
    /// replay through [`Self::ingest`] reproduces the compacted summary
    /// bit-for-bit (checkpoints capture the same determinism for free).
    fn maybe_compact(&mut self) {
        let Some(policy) = self.config.retention else { return };
        let arrivals = self.arrivals();
        if arrivals == 0 || !arrivals.is_multiple_of(policy.compact_every) {
            return;
        }
        let now = self.last_ts.expect("compaction follows an ingest");
        let t0 = std::time::Instant::now();
        match &mut self.backend {
            Backend::Single(cell) => cell.compact(&policy, now),
            Backend::Flat(grid) => grid.for_each_cell_mut(|c| c.compact(&policy, now)),
            Backend::Hierarchical(forest) => forest.for_each_grid_mut(|_, grid| {
                grid.for_each_cell_mut(|c| c.compact(&policy, now));
            }),
        }
        self.metrics.compact_observe(t0.elapsed());
        self.compactions += 1;
    }

    /// Retention compaction runs completed since construction.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Records one arrival on a single-event detector.
    pub fn ingest_single(&mut self, ts: Timestamp) -> Result<(), BedError> {
        let started = self.metrics.ingest_begin();
        let result = self.ingest_single_inner(ts);
        self.metrics.ingest_end(started, result.is_ok());
        result
    }

    fn ingest_single_inner(&mut self, ts: Timestamp) -> Result<(), BedError> {
        let Backend::Single(pbe) = &mut self.backend else {
            return Err(BedError::WrongMode {
                operation: "ingest_single(ts)",
                built_for: "mixed event streams (use ingest)",
            });
        };
        self.last_ts = check_batch(None, self.last_ts, &[(EventId(0), ts)])?;
        pbe.update(ts);
        self.maybe_compact();
        Ok(())
    }

    /// Flushes internal buffering; queries are valid before and after, but
    /// `size_bytes` reflects the final summary only afterwards.
    pub fn finalize(&mut self) {
        let started = std::time::Instant::now();
        match &mut self.backend {
            Backend::Single(pbe) => pbe.finalize(),
            Backend::Flat(grid) => grid.finalize(),
            Backend::Hierarchical(forest) => forest.finalize(),
        }
        self.metrics.finalize_observe(started.elapsed());
    }

    /// The three Eq. 2 probes `[F̃_e(t), F̃_e(t−τ), F̃_e(t−2τ)]` of one
    /// event in one fused probe — burstiness, burst frequency and the
    /// cumulative count all derive from them. The probe is timed into
    /// `stages` while its clocks are armed.
    fn probe3(
        &self,
        event: EventId,
        t: Timestamp,
        tau: BurstSpan,
        stages: &mut StageTimings,
    ) -> [f64; 3] {
        if stages.enabled {
            self.probe3_with::<StageClock>(event, t, tau, stages)
        } else {
            self.probe3_with::<NoClock>(event, t, tau, stages)
        }
    }

    fn probe3_with<C: Clock>(
        &self,
        event: EventId,
        t: Timestamp,
        tau: BurstSpan,
        stages: &mut StageTimings,
    ) -> [f64; 3] {
        match self.backend.leaf() {
            Leaf::Single(pbe) => {
                let started = C::TIMED.then(std::time::Instant::now);
                let f = pbe.probe3(t, tau);
                stages.probed(started, false, 3);
                f
            }
            Leaf::Grid(grid) => grid.probe3_with::<C>(event, t, tau, stages),
        }
    }

    /// BURSTY TIME QUERY `q(e, θ, τ)`: instants within `[0, horizon]` where
    /// the estimated burstiness reaches θ, with the estimates. `scratch`
    /// holds the fused hinted-cursor sweep's working memory.
    fn bursty_times(
        &self,
        event: EventId,
        theta: f64,
        tau: BurstSpan,
        horizon: Timestamp,
        scratch: &mut QueryScratch,
    ) -> Vec<(Timestamp, f64)> {
        match self.backend.leaf() {
            Leaf::Single(pbe) => bursty_times_single(pbe, theta, tau, horizon),
            Leaf::Grid(grid) => {
                let mut out = Vec::new();
                grid.bursty_times_into(event, theta, tau, horizon, scratch, &mut out);
                out
            }
        }
    }

    /// BURSTY TIME QUERY with **interval semantics** (single-event mode
    /// only): the maximal time ranges within `[0, horizon]` where the
    /// estimated burstiness reaches θ — exact with respect to the sketch,
    /// including mid-segment threshold crossings of PLA summaries.
    pub fn bursty_time_ranges(
        &self,
        theta: f64,
        tau: BurstSpan,
        horizon: Timestamp,
    ) -> Result<Vec<bed_stream::TimeRange>, BedError> {
        match &self.backend {
            Backend::Single(pbe) => Ok(bed_pbe::bursty_time_ranges(pbe, theta, tau, horizon)),
            _ => Err(BedError::WrongMode {
                operation: "bursty_time_ranges",
                built_for: "mixed event streams (use bursty_times)",
            }),
        }
    }

    /// BURSTY EVENT QUERY `q(t, θ, τ)`: events whose estimated burstiness at
    /// `t` reaches θ (θ finite and positive), plus probe statistics, in the
    /// canonical order — descending burstiness, ties by event id.
    ///
    /// [`QueryStrategy::Pruned`] runs the hierarchy's Eq. 6 dyadic search;
    /// a flat detector has no hierarchy and scans under either strategy,
    /// keeping `Pruned` usable as the universal default.
    /// [`QueryStrategy::ExactScan`] probes every event id through the leaf
    /// grid's batched row-major kernel ([`CmPbe::burstiness_scan_into`]) —
    /// bit-for-bit the same hits as a per-event point-query loop.
    pub(crate) fn bursty_events(
        &self,
        t: Timestamp,
        theta: f64,
        tau: BurstSpan,
        strategy: QueryStrategy,
        scratch: &mut QueryScratch,
    ) -> Result<(Vec<BurstyEventHit>, QueryStats), BedError> {
        check_theta_positive(theta)?;
        let (mut hits, stats) = match (&self.backend, strategy) {
            (Backend::Single(_), _) => {
                return Err(BedError::WrongMode {
                    operation: "bursty_events",
                    built_for: "a single event stream",
                })
            }
            (Backend::Hierarchical(forest), QueryStrategy::Pruned) => {
                forest.bursty_events_staged(t, theta, tau, &mut scratch.stages)
            }
            _ => {
                let k = self.config.universe.expect("mixed mode implies a universe");
                let Leaf::Grid(grid) = self.backend.leaf() else { unreachable!("refused above") };
                let mut hits = Vec::new();
                let mut stats = QueryStats::default();
                grid.burstiness_scan_into(0, k, t, tau, scratch, |event, b| {
                    stats.point_queries += 1;
                    stats.leaves_probed += 1;
                    if b >= theta {
                        hits.push(BurstyEventHit { event, burstiness: b });
                    }
                });
                (hits, stats)
            }
        };
        sort_hits(&mut hits);
        Ok((hits, stats))
    }

    /// Estimated burstiness time series of one event, sampled every `step`
    /// ticks over `[range.start, range.end]` — the data behind dashboards
    /// and the paper's Fig. 7b / Fig. 13 plots — with its probes timed into
    /// `stages` while armed.
    fn series(
        &self,
        event: EventId,
        tau: BurstSpan,
        range: bed_stream::TimeRange,
        step: u64,
        stages: &mut StageTimings,
    ) -> Vec<(Timestamp, f64)> {
        let mut out = Vec::new();
        let mut t = range.start.ticks();
        while t <= range.end.ticks() {
            out.push((Timestamp(t), burstiness(self.probe3(event, Timestamp(t), tau, stages))));
            t += step;
        }
        out
    }

    /// The `k` most bursty instants of an event within `[0, horizon]`,
    /// ordered by descending estimated burstiness. Probes the sketch's knee
    /// echoes (like [`Self::bursty_times`]) so the cost is linear in the
    /// summary size, not the horizon.
    fn top_bursts(
        &self,
        event: EventId,
        k: usize,
        tau: BurstSpan,
        horizon: Timestamp,
        scratch: &mut QueryScratch,
    ) -> Vec<(Timestamp, f64)> {
        let mut hits = self.bursty_times(event, f64::MIN, tau, horizon, scratch);
        hits.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite estimates"));
        hits.truncate(k);
        hits
    }

    /// Elements ingested so far.
    pub fn arrivals(&self) -> u64 {
        match &self.backend {
            Backend::Single(pbe) => pbe.arrivals(),
            Backend::Flat(grid) => grid.arrivals(),
            Backend::Hierarchical(forest) => forest.arrivals(),
        }
    }

    /// Timestamp of the most recent arrival (`None` before the first).
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.last_ts
    }

    /// The recovery watermark: how far the stream had been consumed when
    /// this state was captured (see [`crate::checkpoint`]).
    pub fn watermark(&self) -> crate::checkpoint::Watermark {
        crate::checkpoint::Watermark { arrivals: self.arrivals(), last_ts: self.last_ts }
    }

    /// Current summary size in bytes.
    pub fn size_bytes(&self) -> usize {
        match &self.backend {
            Backend::Single(pbe) => pbe.size_bytes(),
            Backend::Flat(grid) => grid.size_bytes(),
            Backend::Hierarchical(forest) => forest.size_bytes(),
        }
    }

    /// Resident bytes of the struct-of-arrays probe banks, `0` when none
    /// are built. [`finalize`](Self::finalize) builds them; any ingest
    /// drops them, so a non-zero value means queries ride the vectorized
    /// [`bed_pbe::soa::PieceBank`] kernels instead of the per-cell path.
    /// Deliberately *not* part of [`size_bytes`](Self::size_bytes), which
    /// keeps the paper's summary-only accounting.
    pub fn soa_bank_bytes(&self) -> usize {
        match &self.backend {
            Backend::Single(_) => 0,
            Backend::Flat(grid) => grid.bank_size_bytes(),
            Backend::Hierarchical(forest) => {
                (0..forest.levels()).map(|l| forest.grid(l).bank_size_bytes()).sum()
            }
        }
    }

    /// Captures a [`MetricsSnapshot`] of runtime counters and latency
    /// histograms next to the structural gauges (summary sizes, sketch
    /// fill, forest occupancy) read off the backend now. See the crate
    /// docs for the metric name schema.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut readings = vec![
            gauge("detector.arrivals", self.arrivals() as f64),
            gauge("structure.bytes", self.size_bytes() as f64),
        ];
        match &self.backend {
            Backend::Single(pbe) => {
                let s = pbe.summary_stats();
                readings.push(gauge("structure.pbe.pieces", s.pieces as f64));
                readings.push(gauge("structure.pbe.buffered", s.buffered as f64));
            }
            Backend::Flat(grid) => cm_gauges(&grid.structure(), &mut readings),
            Backend::Hierarchical(forest) => {
                let s = forest.structure();
                readings.extend([
                    gauge("structure.forest.levels", f64::from(s.levels)),
                    gauge("structure.forest.nodes", s.nodes as f64),
                    gauge("structure.forest.occupied_nodes", s.occupied_nodes as f64),
                    gauge("structure.forest.pieces", s.pieces as f64),
                    gauge("structure.forest.buffered", s.buffered as f64),
                ]);
                cm_gauges(&s.leaf, &mut readings);
            }
        }
        self.retention_gauges(&mut readings);
        self.metrics.snapshot(readings)
    }

    /// Visits the frozen prefix of every compacted cell across the backend
    /// (all hierarchy levels included).
    fn for_each_frozen(&self, mut f: impl FnMut(&bed_sketch::FrozenCurve)) {
        fn visit(cell: &PbeCell, f: &mut dyn FnMut(&bed_sketch::FrozenCurve)) {
            if let Some(frozen) = cell.frozen() {
                f(frozen);
            }
        }
        match &self.backend {
            Backend::Single(cell) => visit(cell, &mut f),
            Backend::Flat(grid) => grid.for_each_cell(|c| visit(c, &mut f)),
            Backend::Hierarchical(forest) => {
                for level in 0..forest.levels() {
                    forest.grid(level).for_each_cell(|c| visit(c, &mut f));
                }
            }
        }
    }

    /// Lists the `retention.*` gauges into `out`: compaction count, tiers
    /// in play, and per-tier byte/knee/span accounting (tier 0 carries the
    /// live full-resolution summaries; tiers ≥ 1 the frozen knees that
    /// currently age into them).
    fn retention_gauges(&self, out: &mut Vec<Entry>) {
        let Some(policy) = self.config.retention else { return };
        let now = self.last_ts.map_or(0, Timestamp::ticks);
        let mut tier_bytes: Vec<u64> = vec![0];
        let mut tier_knees: Vec<u64> = vec![0];
        let mut frozen_bytes = 0u64;
        self.for_each_frozen(|frozen| {
            frozen_bytes += frozen.size_bytes() as u64;
            frozen.for_each_knee(|t, _| {
                let k = policy.tier_of(t, now) as usize;
                if tier_bytes.len() <= k {
                    tier_bytes.resize(k + 1, 0);
                    tier_knees.resize(k + 1, 0);
                }
                tier_bytes[k] += std::mem::size_of::<(u64, f64)>() as u64;
                tier_knees[k] += 1;
            });
        });
        // Everything not frozen is the live tier-0 working set.
        tier_bytes[0] += (self.size_bytes() as u64).saturating_sub(frozen_bytes);
        out.extend([
            gauge("retention.compactions", self.compactions as f64),
            gauge("retention.tiers", tier_bytes.len() as f64),
            gauge("retention.window_ticks", policy.window as f64),
        ]);
        for (k, (bytes, knees)) in tier_bytes.iter().zip(&tier_knees).enumerate() {
            let span = if k == 0 {
                policy.window
            } else {
                policy.window.saturating_mul(1u64.checked_shl(k as u32 - 1).unwrap_or(u64::MAX))
            };
            out.extend([
                gauge(format!("retention.tier{k}.bytes"), *bytes as f64),
                gauge(format!("retention.tier{k}.knees"), *knees as f64),
                gauge(format!("retention.tier{k}.span_ticks"), span as f64),
            ]);
        }
    }

    /// Validates an event id against the universe. Single-event detectors
    /// expose their stream as event `0` in a universe of 1, so the unified
    /// query API stays total across modes.
    fn check_event(&self, event: EventId) -> Result<(), BedError> {
        let k = self.config.universe.unwrap_or(1);
        if event.value() >= k {
            return Err(
                StreamError::EventOutOfUniverse { event: event.value(), universe: k }.into()
            );
        }
        Ok(())
    }

    /// Routes one [`QueryRequest`] (validation already uniform per the
    /// [`BurstQueries`] contract), threading `scratch` through the fused
    /// kernels. Touches no metric: the outermost query layer counts,
    /// traces and reads the answer's statistics (see [`crate::observe`]),
    /// so shards and published epochs answer through this directly.
    pub(crate) fn dispatch(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryResponse, BedError> {
        match *request {
            QueryRequest::Point { event, t, tau } => {
                self.check_event(event)?;
                // Under retention the probe is served by the finest tier
                // covering `t` relative to the ingest watermark; stamp it
                // so callers can judge the answer's resolution.
                let now = self.last_ts.map_or(0, Timestamp::ticks);
                let tier = self.config.retention.map(|p| p.tier_of(t.ticks(), now));
                let f = self.probe3(event, t, tau, &mut scratch.stages);
                Ok(QueryResponse::Point {
                    burstiness: burstiness(f),
                    burst_frequency: f[0] - f[1],
                    cumulative: f[0],
                    tier,
                })
            }
            QueryRequest::BurstyTimes { event, theta, tau, horizon } => {
                self.check_event(event)?;
                check_theta_finite(theta)?;
                Ok(QueryResponse::BurstyTimes(
                    self.bursty_times(event, theta, tau, horizon, scratch),
                ))
            }
            QueryRequest::BurstyEvents { t, theta, tau, strategy } => {
                let (hits, stats) = self.bursty_events(t, theta, tau, strategy, scratch)?;
                Ok(QueryResponse::BurstyEvents { hits, stats })
            }
            QueryRequest::Series { event, tau, range, step } => {
                self.check_event(event)?;
                check_range(range)?;
                check_step(step)?;
                Ok(QueryResponse::Series(self.series(event, tau, range, step, &mut scratch.stages)))
            }
            QueryRequest::TopK { event, k, tau, horizon } => {
                self.check_event(event)?;
                Ok(QueryResponse::TopK(self.top_bursts(event, k, tau, horizon, scratch)))
            }
        }
    }
}

/// Lists the leaf-grid gauges (`structure.cmpbe.*`) into `out`.
fn cm_gauges(s: &bed_sketch::CmStructure, out: &mut Vec<Entry>) {
    out.extend([
        gauge("structure.cmpbe.depth", s.depth as f64),
        gauge("structure.cmpbe.width", s.width as f64),
        gauge("structure.cmpbe.occupied_cells", s.occupied_cells as f64),
        gauge("structure.cmpbe.heaviest_cell_arrivals", s.heaviest_cell_arrivals as f64),
        gauge("structure.cmpbe.pieces", s.pieces as f64),
        gauge("structure.cmpbe.buffered", s.buffered as f64),
    ]);
    if s.cells > 0 {
        out.push(gauge("structure.cmpbe.fill_ratio", s.occupied_cells as f64 / s.cells as f64));
    }
}

impl BurstQueries for BurstDetector {
    fn query_reusing(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryResponse, BedError> {
        crate::observe::run_query(&self.metrics.queries, request, scratch, |scratch| {
            self.dispatch(request, scratch)
        })
    }

    fn arrivals(&self) -> u64 {
        BurstDetector::arrivals(self)
    }

    fn size_bytes(&self) -> usize {
        BurstDetector::size_bytes(self)
    }

    fn config(&self) -> &DetectorConfig {
        BurstDetector::config(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        BurstDetector::metrics(self)
    }
}

impl Traceable for BurstDetector {
    fn set_tracer(&mut self, tracer: std::sync::Arc<Tracer>) {
        self.metrics.queries.set_tracer(tracer);
    }

    fn tracer(&self) -> &std::sync::Arc<Tracer> {
        self.metrics.queries.tracer()
    }
}

impl BurstDetectorBuilder {
    /// Selects the PBE variant for every cell.
    pub fn variant(mut self, variant: PbeVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Sets Count-Min accuracy (ε, δ).
    pub fn accuracy(mut self, epsilon: f64, delta: f64) -> Self {
        self.config.sketch = bed_sketch::SketchParams { epsilon, delta };
        self
    }

    /// Declares a mixed stream over `[0, k)` event ids.
    pub fn universe(mut self, k: u32) -> Self {
        self.config.universe = Some(k);
        self
    }

    /// Declares a single-event stream (the default).
    pub fn single_event(mut self) -> Self {
        self.config.universe = None;
        self
    }

    /// Enables/disables the dyadic hierarchy (default on; only meaningful
    /// with a universe).
    pub fn hierarchical(mut self, on: bool) -> Self {
        self.config.hierarchical = on;
        self
    }

    /// Sets the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the tiered retention policy (`None` = unbounded history, the
    /// default). With a policy, live PBE state folds into frozen
    /// Hokusai-style tiers every `compact_every` arrivals, bounding
    /// memory; probes older than the window are answered at the coarser
    /// tier resolution and stamped with the serving tier.
    pub fn retention(mut self, policy: Option<bed_sketch::RetentionPolicy>) -> Self {
        self.config.retention = policy;
        self
    }

    /// Splits the configured universe across `n` hash-partitioned shards,
    /// switching to a [`crate::ShardedDetector`] builder for parallel
    /// ingestion (requires `.universe(k)`).
    pub fn shards(self, n: usize) -> crate::shard::ShardedDetectorBuilder {
        crate::shard::ShardedDetectorBuilder { config: self.config, shards: n }
    }

    /// Builds the detector.
    pub fn build(self) -> Result<BurstDetector, BedError> {
        BurstDetector::from_config(self.config)
    }
}

impl bed_stream::Codec for PbeVariant {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        match *self {
            PbeVariant::Pbe1 { n_buf, eta } => {
                w.u8(1);
                w.u64(n_buf as u64);
                w.u64(eta as u64);
            }
            PbeVariant::Pbe2 { gamma, max_vertices } => {
                w.u8(2);
                w.f64(gamma);
                w.u64(max_vertices as u64);
            }
        }
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        let variant = match r.u8("variant tag")? {
            1 => PbeVariant::Pbe1 {
                n_buf: r.u64("variant n_buf")? as usize,
                eta: r.u64("variant eta")? as usize,
            },
            2 => PbeVariant::Pbe2 {
                gamma: r.f64("variant gamma")?,
                max_vertices: r.u64("variant max_vertices")? as usize,
            },
            _ => return Err(bed_stream::CodecError::Invalid { context: "variant tag" }),
        };
        variant
            .validate()
            .map_err(|_| bed_stream::CodecError::Invalid { context: "variant parameters" })?;
        Ok(variant)
    }
}

/// Persistence (format `BEDD` v1): full configuration plus the backend —
/// a decoded detector answers the same queries and can keep ingesting.
impl bed_stream::Codec for BurstDetector {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        w.magic(*b"BEDD");
        w.version(1);
        self.config.encode(w);
        match self.last_ts {
            Some(t) => {
                w.u8(1);
                t.encode(w);
            }
            None => w.u8(0),
        }
        w.u64(self.compactions);
        match &self.backend {
            Backend::Single(cell) => {
                w.u8(0);
                cell.encode(w);
            }
            Backend::Flat(grid) => {
                w.u8(1);
                grid.encode(w);
            }
            Backend::Hierarchical(forest) => {
                w.u8(2);
                forest.encode(w);
            }
        }
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        r.magic(*b"BEDD")?;
        r.version(1)?;
        let config = crate::config::DetectorConfig::decode(r)?;
        let (universe, hierarchical) = (config.universe, config.hierarchical);
        let last_ts = match r.u8("detector last_ts flag")? {
            0 => None,
            1 => Some(Timestamp::decode(r)?),
            _ => return Err(CodecError::Invalid { context: "detector last_ts flag" }),
        };
        let compactions = r.u64("detector compactions")?;
        let backend = match r.u8("backend tag")? {
            0 => Backend::Single(PbeCell::decode(r)?),
            1 => Backend::Flat(bed_sketch::CmPbe::decode(r)?),
            2 => Backend::Hierarchical(DyadicCmPbe::decode(r)?),
            _ => return Err(CodecError::Invalid { context: "backend tag" }),
        };
        // Backend must match the configuration's mode.
        let consistent = matches!(
            (&backend, universe, hierarchical),
            (Backend::Single(_), None, _)
                | (Backend::Flat(_), Some(_), false)
                | (Backend::Hierarchical(_), Some(_), true)
        );
        if !consistent {
            return Err(CodecError::Invalid { context: "backend/config mismatch" });
        }
        // Metrics are runtime-only and not part of the BEDD format: a
        // decoded detector starts fresh, like a clone.
        let metrics = DetectorMetrics::default();
        let det = BurstDetector { config, backend, last_ts, metrics, compactions };
        det.metrics.seed_ingests(det.arrivals());
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_fixture(det: &mut BurstDetector) {
        // event 0 steady, event 1 bursts at the end
        for t in 0..100u64 {
            det.ingest(EventId(0), Timestamp(t)).unwrap();
            if t >= 90 {
                for _ in 0..10 {
                    det.ingest(EventId(1), Timestamp(t)).unwrap();
                }
            }
        }
        det.finalize();
    }

    #[test]
    fn single_event_roundtrip() {
        let mut det = BurstDetector::builder().variant(PbeVariant::pbe2(1.0)).build().unwrap();
        for t in 0..50u64 {
            det.ingest_single(Timestamp(t)).unwrap();
        }
        det.finalize();
        assert_eq!(det.arrivals(), 50);
        let tau = BurstSpan::new(10).unwrap();
        let point = QueryRequest::Point { event: EventId(0), t: Timestamp(49), tau };
        let b = det.query(&point).unwrap().burstiness().unwrap();
        assert!(b.abs() <= 4.0 + 1e-9, "steady stream burstiness {b}");
        assert!(det.size_bytes() > 0);
        // mixed-mode operations are rejected
        assert!(matches!(det.ingest(EventId(0), Timestamp(60)), Err(BedError::WrongMode { .. })));
        let events = QueryRequest::BurstyEvents {
            t: Timestamp(0),
            theta: 1.0,
            tau,
            strategy: QueryStrategy::Pruned,
        };
        assert!(matches!(det.query(&events), Err(BedError::WrongMode { .. })));
    }

    #[test]
    fn hierarchical_detector_finds_bursts() {
        let mut det = BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .accuracy(0.005, 0.05)
            .seed(3)
            .build()
            .unwrap();
        burst_fixture(&mut det);
        let tau = BurstSpan::new(10).unwrap();
        let events = QueryRequest::BurstyEvents {
            t: Timestamp(99),
            theta: 50.0,
            tau,
            strategy: QueryStrategy::Pruned,
        };
        let QueryResponse::BurstyEvents { hits, stats } = det.query(&events).unwrap() else {
            unreachable!()
        };
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].event, EventId(1));
        assert!(stats.point_queries > 0);
        // bursty times of the bursting event land near the burst
        let times = QueryRequest::BurstyTimes {
            event: EventId(1),
            theta: 50.0,
            tau,
            horizon: Timestamp(200),
        };
        let times = det.query(&times).unwrap();
        let times = times.samples().unwrap();
        assert!(!times.is_empty());
        assert!(times.iter().all(|&(t, _)| (85..=130).contains(&t.ticks())));
    }

    #[test]
    fn a_clone_restarts_its_metrics_but_keeps_ingest_count() {
        let mut det =
            BurstDetector::builder().universe(8).variant(PbeVariant::pbe2(1.0)).build().unwrap();
        burst_fixture(&mut det);
        let tau = BurstSpan::new(10).unwrap();
        det.query(&QueryRequest::Point { event: EventId(1), t: Timestamp(99), tau }).unwrap();
        let before = det.metrics();
        assert_eq!(before.counter("query.point.count"), Some(1));

        let mut clone = det.clone();
        let snap = clone.metrics();
        assert_eq!(snap.counter("ingest.count"), before.counter("ingest.count"));
        for kind in crate::query::QueryKind::ALL {
            assert_eq!(snap.counter(kind.count_metric()), Some(0), "{kind:?}");
            assert_eq!(snap.histogram(kind.latency_metric()).unwrap().count, 0, "{kind:?}");
        }
        assert_eq!(snap.histogram("finalize.latency_ns").unwrap().count, 0);

        clone.ingest(EventId(2), Timestamp(100)).unwrap();
        clone.query(&QueryRequest::Point { event: EventId(2), t: Timestamp(100), tau }).unwrap();
        let after = det.metrics();
        for (name, value) in before.iter() {
            if let bed_obs::MetricValue::Counter(n) = value {
                assert_eq!(after.counter(name), Some(*n), "{name} moved on the original");
            }
        }
        assert_eq!(
            clone.metrics().counter("ingest.count"),
            before.counter("ingest.count").map(|n| n + 1)
        );
    }

    #[test]
    fn flat_detector_scans() {
        let mut det = BurstDetector::builder()
            .universe(8)
            .hierarchical(false)
            .variant(PbeVariant::pbe1(16))
            .seed(3)
            .build()
            .unwrap();
        burst_fixture(&mut det);
        let tau = BurstSpan::new(10).unwrap();
        let events = QueryRequest::BurstyEvents {
            t: Timestamp(99),
            theta: 50.0,
            tau,
            strategy: QueryStrategy::Pruned,
        };
        let QueryResponse::BurstyEvents { hits, stats } = det.query(&events).unwrap() else {
            unreachable!()
        };
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].event, EventId(1));
        assert_eq!(stats.point_queries, 8); // full scan
    }

    #[test]
    fn rejects_non_monotone_and_out_of_universe() {
        let mut det =
            BurstDetector::builder().universe(4).variant(PbeVariant::pbe2(1.0)).build().unwrap();
        det.ingest(EventId(0), Timestamp(10)).unwrap();
        assert!(det.ingest(EventId(0), Timestamp(9)).is_err());
        assert!(det.ingest(EventId(4), Timestamp(11)).is_err());
    }

    #[test]
    fn invalid_configs_rejected_at_build() {
        assert!(BurstDetector::builder()
            .variant(PbeVariant::Pbe1 { n_buf: 2, eta: 5 })
            .build()
            .is_err());
        assert!(BurstDetector::builder().accuracy(0.0, 0.5).universe(4).build().is_err());
    }

    #[test]
    fn series_and_top_bursts() {
        let mut det = BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .seed(3)
            .build()
            .unwrap();
        burst_fixture(&mut det);
        let tau = BurstSpan::new(10).unwrap();
        let range = bed_stream::TimeRange::up_to(Timestamp(120))
            .merge(&bed_stream::TimeRange { start: Timestamp(0), end: Timestamp(120) });
        let series = det.query(&QueryRequest::Series { event: EventId(1), tau, range, step: 10 });
        let series = series.unwrap();
        let series = series.samples().unwrap();
        assert_eq!(series.len(), 13);
        // the series peaks inside the burst window (t ≈ 90..100)
        let (peak_t, peak_b) =
            series.iter().copied().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert!((90..=110).contains(&peak_t.ticks()), "peak at {peak_t}");
        assert!(peak_b > 50.0);

        let top = QueryRequest::TopK { event: EventId(1), k: 3, tau, horizon: Timestamp(200) };
        let top = det.query(&top).unwrap();
        let top = top.samples().unwrap();
        assert!(!top.is_empty() && top.len() <= 3);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "descending order");
        assert!((85..=110).contains(&top[0].0.ticks()), "top burst at {}", top[0].0);
    }

    #[test]
    fn cumulative_and_rate_estimates() {
        let mut det =
            BurstDetector::builder().universe(4).variant(PbeVariant::pbe2(1.0)).build().unwrap();
        for t in 0..40u64 {
            det.ingest(EventId(2), Timestamp(t)).unwrap();
        }
        det.finalize();
        let tau = BurstSpan::new(10).unwrap();
        let point = QueryRequest::Point { event: EventId(2), t: Timestamp(39), tau };
        let QueryResponse::Point { cumulative: f, burst_frequency: bf, .. } =
            det.query(&point).unwrap()
        else {
            unreachable!()
        };
        assert!((f - 40.0).abs() <= 2.0, "F̃={f}");
        assert!((bf - 10.0).abs() <= 3.0, "b̃f={bf}");
    }
}
