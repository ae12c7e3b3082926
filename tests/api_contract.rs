//! API-contract integration tests: error paths and misuse across the
//! public surface, plus the fused-query-kernel contract (bit-for-bit
//! equivalence with the composed estimates, and zero per-probe heap
//! allocation — this binary installs a counting global allocator).

use bed::obs::Histogram;
use bed::pbe::{
    burstiness, CurveCursor, CurveSketch, ExactCurve, Pbe1, Pbe1Config, Pbe2, Pbe2Config,
};
use bed::sketch::{CmPbe, Combiner};
use bed::{
    assemble_trace_tree, AnyDetector, BedError, BurstDetector, BurstQueries, BurstSpan,
    DetectorEpochs, EventId, MetricValue, MetricsSnapshot, PbeVariant, QueryRequest, QueryResponse,
    QueryScratch, QueryStrategy, RetentionPolicy, ShardedDetector, TimeRange, Timestamp,
    TraceEvent, TraceId, Traceable, Tracer, TracerConfig,
};
use proptest::prelude::*;

#[test]
fn builder_rejects_bad_parameters() {
    assert!(BurstDetector::builder()
        .variant(PbeVariant::Pbe1 { n_buf: 10, eta: 10 })
        .build()
        .is_err());
    assert!(BurstDetector::builder()
        .variant(PbeVariant::Pbe2 { gamma: -3.0, max_vertices: 64 })
        .build()
        .is_err());
    assert!(BurstDetector::builder().universe(8).accuracy(1.5, 0.1).build().is_err());
    assert!(BurstDetector::builder().universe(8).accuracy(0.1, 0.0).build().is_err());
}

#[test]
fn mode_mismatches_are_descriptive() {
    let mut single = BurstDetector::builder().single_event().build().unwrap();
    let err = single.ingest(EventId(0), Timestamp(0)).unwrap_err();
    assert!(matches!(err, BedError::WrongMode { .. }));
    assert!(err.to_string().contains("ingest"));

    let mut mixed = BurstDetector::builder().universe(4).build().unwrap();
    let err = mixed.ingest_single(Timestamp(0)).unwrap_err();
    assert!(matches!(err, BedError::WrongMode { .. }));
}

#[test]
fn timestamps_must_not_go_backwards() {
    let mut det = BurstDetector::builder().universe(4).build().unwrap();
    det.ingest(EventId(1), Timestamp(100)).unwrap();
    let err = det.ingest(EventId(2), Timestamp(99)).unwrap_err();
    assert!(err.to_string().contains("non-monotonic"));
    // the failed ingest must not corrupt state: same timestamp is still fine
    det.ingest(EventId(2), Timestamp(100)).unwrap();
    assert_eq!(det.arrivals(), 2);
}

#[test]
fn universe_bounds_are_enforced() {
    let mut det = BurstDetector::builder().universe(4).build().unwrap();
    let err = det.ingest(EventId(4), Timestamp(0)).unwrap_err();
    assert!(err.to_string().contains("universe"));
}

#[test]
fn burst_span_construction() {
    assert!(BurstSpan::new(0).is_err());
    let tau = BurstSpan::new(60).unwrap();
    assert_eq!(tau.ticks(), 60);
}

#[test]
fn queries_on_empty_detectors_are_sane() {
    let det = BurstDetector::builder().universe(16).build().unwrap();
    let tau = BurstSpan::new(10).unwrap();
    let point = det.query(&QueryRequest::Point { event: EventId(3), t: Timestamp(100), tau });
    let Ok(QueryResponse::Point { burstiness, cumulative, .. }) = point else {
        panic!("no point answer: {point:?}");
    };
    assert_eq!((burstiness, cumulative), (0.0, 0.0));
    let events = QueryRequest::BurstyEvents {
        t: Timestamp(100),
        theta: 1.0,
        tau,
        strategy: QueryStrategy::Pruned,
    };
    assert!(det.query(&events).unwrap().hits().unwrap().is_empty());
    let times =
        QueryRequest::BurstyTimes { event: EventId(3), theta: 1.0, tau, horizon: Timestamp(1_000) };
    assert!(det.query(&times).unwrap().samples().unwrap().is_empty());
    assert_eq!(det.arrivals(), 0);
}

#[test]
fn finalize_is_idempotent() {
    let mut det =
        BurstDetector::builder().universe(4).variant(PbeVariant::pbe1(8)).build().unwrap();
    for t in 0..100u64 {
        det.ingest(EventId((t % 4) as u32), Timestamp(t)).unwrap();
    }
    det.finalize();
    let size = det.size_bytes();
    let tau = BurstSpan::new(10).unwrap();
    let point = QueryRequest::Point { event: EventId(0), t: Timestamp(99), tau };
    let b = det.query(&point).unwrap();
    det.finalize();
    assert_eq!(det.size_bytes(), size);
    assert_eq!(det.query(&point).unwrap(), b);
}

#[test]
fn ingest_after_finalize_continues_the_stream() {
    let mut det =
        BurstDetector::builder().universe(4).variant(PbeVariant::pbe2(2.0)).build().unwrap();
    for t in 0..50u64 {
        det.ingest(EventId(0), Timestamp(t)).unwrap();
    }
    det.finalize();
    for t in 50..100u64 {
        det.ingest(EventId(0), Timestamp(t)).unwrap();
    }
    det.finalize();
    let tau = BurstSpan::new(10).unwrap();
    let point = det.query(&QueryRequest::Point { event: EventId(0), t: Timestamp(99), tau });
    let Ok(QueryResponse::Point { cumulative: f, .. }) = point else {
        panic!("no point answer: {point:?}");
    };
    assert!((f - 100.0).abs() <= 4.0, "F̃ = {f}");
}

#[test]
fn errors_are_std_error_and_send_sync() {
    fn assert_properties<E: std::error::Error + Send + Sync + 'static>() {}
    assert_properties::<BedError>();
    assert_properties::<bed::stream::StreamError>();
}

#[test]
fn nonpositive_theta_is_a_typed_error_not_a_panic() {
    let mut det = BurstDetector::builder().universe(4).build().unwrap();
    det.ingest(EventId(0), Timestamp(0)).unwrap();
    let tau = BurstSpan::new(10).unwrap();
    for theta in [0.0, -5.0, f64::NAN] {
        for strategy in [QueryStrategy::Pruned, QueryStrategy::ExactScan] {
            let events = QueryRequest::BurstyEvents { t: Timestamp(0), theta, tau, strategy };
            let err = det.query(&events).unwrap_err();
            assert!(err.to_string().contains("theta"), "{err}");
        }
    }
    // an inverted series range is also a typed error
    let series = QueryRequest::Series {
        event: EventId(0),
        tau,
        range: TimeRange { start: Timestamp(3), end: Timestamp(2) },
        step: 1,
    };
    let err = det.query(&series).unwrap_err();
    assert!(err.to_string().contains("inverted"), "{err}");
}

/// Builds one plain and one sharded detector over the same stream in the
/// direct-indexed (collision-free) regime, where answers match bit for bit.
fn contract_pair() -> (BurstDetector, ShardedDetector) {
    let stream: Vec<(EventId, Timestamp)> = (0..400u64)
        .flat_map(|t| {
            let mut els = vec![(EventId((t % 8) as u32), Timestamp(t))];
            if (300..330).contains(&t) {
                els.extend(std::iter::repeat_n((EventId(6), Timestamp(t)), 8));
            }
            els
        })
        .collect();
    let mut plain = BurstDetector::builder()
        .universe(8)
        .variant(PbeVariant::pbe2(1.0))
        .seed(42)
        .build()
        .unwrap();
    for &(e, t) in &stream {
        plain.ingest(e, t).unwrap();
    }
    plain.finalize();
    let mut sharded = BurstDetector::builder()
        .universe(8)
        .variant(PbeVariant::pbe2(1.0))
        .seed(42)
        .shards(3)
        .build()
        .unwrap();
    sharded.ingest_batch(&stream).unwrap();
    sharded.finalize();
    (plain, sharded)
}

/// Both detectors answer every [`QueryRequest`] variant through a
/// `&dyn BurstQueries` with equal [`QueryResponse`]s (hits-only for
/// `BurstyEvents`, whose probe statistics legitimately depend on layout).
#[test]
fn dyn_query_round_trips_are_shard_invariant() {
    let (plain, sharded) = contract_pair();
    let dets: [&dyn BurstQueries; 2] = [&plain, &sharded];
    let tau = BurstSpan::new(20).unwrap();
    let requests = [
        QueryRequest::Point { event: EventId(6), t: Timestamp(329), tau },
        QueryRequest::BurstyTimes { event: EventId(6), theta: 10.0, tau, horizon: Timestamp(450) },
        QueryRequest::Series {
            event: EventId(2),
            tau,
            range: TimeRange { start: Timestamp(0), end: Timestamp(399) },
            step: 25,
        },
        QueryRequest::TopK { event: EventId(6), k: 3, tau, horizon: Timestamp(450) },
    ];
    for req in &requests {
        let a = dets[0].query(req).unwrap();
        let b = dets[1].query(req).unwrap();
        assert_eq!(a, b, "response diverged for {req:?}");
    }
    // the burst around t=300..330 must actually be visible through the trait
    let resp =
        dets[0].query(&QueryRequest::Point { event: EventId(6), t: Timestamp(329), tau }).unwrap();
    assert!(resp.burstiness().unwrap() > 50.0, "{resp:?}");

    // BurstyEvents: compare hits only (stats depend on the physical layout)
    let req = QueryRequest::BurstyEvents {
        t: Timestamp(329),
        theta: 10.0,
        tau,
        strategy: QueryStrategy::ExactScan,
    };
    let (a, b) = (dets[0].query(&req).unwrap(), dets[1].query(&req).unwrap());
    let (ha, hb) = (a.hits().unwrap(), b.hits().unwrap());
    assert_eq!(ha, hb, "hit sets diverged");
    assert!(ha.iter().any(|h| h.event == EventId(6)), "{ha:?}");

    // validation is uniform across implementors, through the same trait
    for det in dets {
        assert!(det
            .query(&QueryRequest::Point { event: EventId(8), t: Timestamp(0), tau })
            .is_err());
        assert!(det
            .query(&QueryRequest::BurstyEvents {
                t: Timestamp(0),
                theta: f64::NAN,
                tau,
                strategy: QueryStrategy::Pruned,
            })
            .is_err());
        assert!(det
            .query(&QueryRequest::Series {
                event: EventId(0),
                tau,
                range: TimeRange { start: Timestamp(5), end: Timestamp(1) },
                step: 1,
            })
            .is_err());
        assert!(det
            .query(&QueryRequest::Series {
                event: EventId(0),
                tau,
                range: TimeRange { start: Timestamp(0), end: Timestamp(10) },
                step: 0,
            })
            .is_err());
    }
}

/// The struct-of-arrays probe bank is invisible at the query surface: a
/// finalized detector (bank built, queries ride the vectorized kernels)
/// and its codec round-trip (the `BEDD` format excludes the bank, so the
/// copy answers through the array-of-structs cells) return equal
/// [`QueryResponse`]s for every request kind — including pre-epoch
/// instants (`t < 2τ`) and ids that were never ingested (empty-cell
/// rows) — across flat PBE-1, flat PBE-2, and the dyadic hierarchy.
#[test]
fn soa_bank_is_query_invariant_across_detectors() {
    use bed::stream::Codec;
    let variants: [(PbeVariant, bool); 3] = [
        (PbeVariant::Pbe1 { n_buf: 24, eta: 8 }, false),
        (PbeVariant::pbe2(1.0), false),
        (PbeVariant::pbe2(1.0), true),
    ];
    let tau = BurstSpan::new(20).unwrap();
    for (variant, hierarchical) in variants {
        let mut banked = BurstDetector::builder()
            .universe(16)
            .variant(variant)
            .hierarchical(hierarchical)
            .seed(99)
            .build()
            .unwrap();
        // Only ids 0..8 arrive: 8..16 stay empty in every row.
        for t in 0..400u64 {
            banked.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
            if (300..330).contains(&t) {
                for _ in 0..6 {
                    banked.ingest(EventId(5), Timestamp(t)).unwrap();
                }
            }
        }
        banked.finalize();
        assert!(banked.soa_bank_bytes() > 0, "finalize must build the bank ({variant:?})");
        let plain = BurstDetector::from_bytes(&banked.to_bytes()).unwrap();
        assert_eq!(plain.soa_bank_bytes(), 0, "the codec must not persist the bank");

        let mut requests = vec![
            QueryRequest::BurstyTimes {
                event: EventId(5),
                theta: 8.0,
                tau,
                horizon: Timestamp(450),
            },
            QueryRequest::Series {
                event: EventId(5),
                tau,
                range: TimeRange { start: Timestamp(0), end: Timestamp(399) },
                step: 10,
            },
            QueryRequest::TopK { event: EventId(5), k: 4, tau, horizon: Timestamp(450) },
            QueryRequest::BurstyEvents {
                t: Timestamp(329),
                theta: 8.0,
                tau,
                strategy: QueryStrategy::ExactScan,
            },
            QueryRequest::BurstyEvents {
                t: Timestamp(329),
                theta: 8.0,
                tau,
                strategy: QueryStrategy::Pruned,
            },
        ];
        // Point probes: mid-burst, pre-epoch (t < τ and τ ≤ t < 2τ), and a
        // never-seen id hitting empty cells.
        for (e, t) in [(5u32, 329u64), (5, 10), (5, 30), (12, 329), (12, 5)] {
            requests.push(QueryRequest::Point { event: EventId(e), t: Timestamp(t), tau });
        }
        for req in &requests {
            let a = banked.query(req).unwrap();
            let b = plain.query(req).unwrap();
            assert_eq!(a, b, "bank changed the answer for {req:?} ({variant:?}, h={hierarchical})");
        }
    }
}

/// The JSON rendering of a snapshot is byte-stable — goldens downstream
/// consumers (dashboards, the bench report) can rely on.
#[test]
fn metrics_snapshot_json_is_golden() {
    let h = Histogram::new();
    h.record_ns(100);
    let snap = MetricsSnapshot::from_entries([
        ("ingest.count".to_owned(), MetricValue::Counter(3)),
        ("ingest.latency_ns".to_owned(), MetricValue::Histogram(h.snapshot())),
        ("structure.bytes".to_owned(), MetricValue::Gauge(1024.5)),
    ]);
    let golden = concat!(
        "{\"ingest.count\":{\"type\":\"counter\",\"value\":3},",
        "\"ingest.latency_ns\":{\"type\":\"histogram\",\"count\":1,\"sum_ns\":100,",
        "\"buckets\":[[250,1],[1000,0],[4000,0],[16000,0],[64000,0],[250000,0],",
        "[1000000,0],[4000000,0],[16000000,0],[64000000,0],[250000000,0],",
        "[1000000000,0],[null,0]]},",
        "\"structure.bytes\":{\"type\":\"gauge\",\"value\":1024.5}}"
    );
    assert_eq!(snap.to_json(), golden);
    assert_eq!(snap.to_json(), snap.to_json(), "rendering is deterministic");
}

/// The OpenMetrics rendering is byte-stable too — the exact text `bed
/// serve` puts on the `/metrics` wire and `bed stats --format openmetrics`
/// prints: `# HELP`/`# TYPE` framing, the `_total` counter suffix,
/// cumulative `_bucket`/`_sum`/`_count` histogram series, label extraction
/// with OpenMetrics escaping, and the `# EOF` terminator.
#[test]
fn metrics_snapshot_openmetrics_is_golden() {
    let h = Histogram::new();
    h.record_ns(100); // first bucket
    h.record_ns(2_000_000_000); // overflow bucket
    let snap = MetricsSnapshot::from_entries([
        ("ingest.count".to_owned(), MetricValue::Counter(3)),
        ("ingest.latency_ns".to_owned(), MetricValue::Histogram(h.snapshot())),
        ("shard.0.ingest.count".to_owned(), MetricValue::Counter(1)),
        ("shard.10.ingest.count".to_owned(), MetricValue::Counter(2)),
        ("structure.we\"ird\\.bytes".to_owned(), MetricValue::Gauge(1.0)),
    ]);
    let golden = concat!(
        "# HELP bed_ingest_count ingest.count\n",
        "# TYPE bed_ingest_count counter\n",
        "bed_ingest_count_total 3\n",
        "# HELP bed_ingest_latency_ns ingest.latency_ns\n",
        "# TYPE bed_ingest_latency_ns histogram\n",
        "bed_ingest_latency_ns_bucket{le=\"250\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"1000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"4000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"16000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"64000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"250000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"1000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"4000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"16000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"64000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"250000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"1000000000\"} 1\n",
        "bed_ingest_latency_ns_bucket{le=\"+Inf\"} 2\n",
        "bed_ingest_latency_ns_sum 2000000100\n",
        "bed_ingest_latency_ns_count 2\n",
        "# HELP bed_shard_ingest_count shard.*.ingest.count\n",
        "# TYPE bed_shard_ingest_count counter\n",
        "bed_shard_ingest_count_total{shard=\"0\"} 1\n",
        "bed_shard_ingest_count_total{shard=\"10\"} 2\n",
        "# HELP bed_structure_bytes structure.*.bytes\n",
        "# TYPE bed_structure_bytes gauge\n",
        "bed_structure_bytes{layer=\"we\\\"ird\\\\\"} 1\n",
        "# EOF\n",
    );
    assert_eq!(snap.to_openmetrics(), golden);
    assert_eq!(snap.to_openmetrics(), snap.to_openmetrics(), "rendering is deterministic");
}

/// A live detector's snapshot renders as well-formed OpenMetrics: framed
/// family blocks, sample lines that belong to the preceding family, and
/// nothing after `# EOF`.
#[test]
fn live_detector_openmetrics_is_well_formed() {
    let (_, sharded) = contract_pair();
    let tau = BurstSpan::new(20).unwrap();
    sharded.query(&QueryRequest::Point { event: EventId(6), t: Timestamp(329), tau }).unwrap();
    let text = sharded.metrics().to_openmetrics();
    assert!(text.ends_with("# EOF\n"), "{text}");
    let mut current_family: Option<String> = None;
    for line in text.lines() {
        if line == "# EOF" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE ")) {
            current_family = rest.split_whitespace().next().map(str::to_owned);
            continue;
        }
        let family = current_family.as_deref().expect("sample line before any family block");
        assert!(line.starts_with(family), "sample '{line}' does not belong to family '{family}'");
        assert!(line.rsplit(' ').next().is_some_and(|v| !v.is_empty()), "{line}");
    }
    // per-shard gauges show up as labelled series of one family
    assert!(text.contains("bed_shard_arrivals{shard=\"0\"}"), "{text}");
    assert!(text.contains("bed_shard_arrivals{shard=\"2\"}"), "{text}");
}

/// Counters only ever move forward: successive snapshots of a live detector
/// are monotone in every counter, and work done between them shows up.
#[test]
fn metric_counters_are_monotone() {
    let (plain, sharded) = contract_pair();
    let tau = BurstSpan::new(20).unwrap();
    for det in [&plain as &dyn BurstQueries, &sharded as &dyn BurstQueries] {
        let before = det.metrics();
        for _ in 0..5 {
            det.query(&QueryRequest::Point { event: EventId(1), t: Timestamp(100), tau }).unwrap();
        }
        // a failing query still counts (and increments query.errors)
        let _ = det.query(&QueryRequest::Point { event: EventId(99), t: Timestamp(0), tau });
        let after = det.metrics();
        for (name, value) in before.iter() {
            if let MetricValue::Counter(b) = value {
                let a = after.counter(name).expect("counters never disappear");
                assert!(a >= *b, "{name} went backwards: {b} -> {a}");
            }
        }
        let delta = after.counter("query.point.count").unwrap()
            - before.counter("query.point.count").unwrap();
        assert_eq!(delta, 6, "five hits + one miss");
        assert!(
            after.counter("query.errors").unwrap() > before.counter("query.errors").unwrap(),
            "the out-of-universe query must count as an error"
        );
        assert_eq!(after.counter("ingest.count"), before.counter("ingest.count"));
    }
}

// ---------------------------------------------------------------------------
// Fused query kernels: the probe3 / cursor / batched fast paths must be
// bit-for-bit interchangeable with composing three estimate_cum calls.
// ---------------------------------------------------------------------------

/// Reference for `probe3`: three independent `estimate_cum` calls with
/// pre-epoch offsets reading 0 — exactly the composition the fused kernel
/// replaces.
fn composed3<S: CurveSketch + ?Sized>(s: &S, t: Timestamp, tau: BurstSpan) -> [f64; 3] {
    let at = |delta: u64| t.checked_sub(delta).map_or(0.0, |earlier| s.estimate_cum(earlier));
    [at(0), at(tau.ticks()), at(tau.ticks().saturating_mul(2))]
}

fn bits3(v: [f64; 3]) -> [u64; 3] {
    [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()]
}

/// Drives every kernel entry point of one sketch against the composed
/// reference: stateless `probe3`, `estimate_burstiness`, a cursor fed the
/// probes in the given (arbitrary) order, and a second cursor on the sorted
/// (monotone, hint-friendly) order. Probe times include pre-epoch `t < 2τ`
/// whenever the generated `qs` contain small ticks.
fn assert_fused_matches_composed<S: CurveSketch>(sketch: &S, qs: &[u64], tau: BurstSpan) {
    let mut cursor = CurveCursor::new(sketch);
    for &q in qs {
        let t = Timestamp(q);
        let want = composed3(sketch, t, tau);
        assert_eq!(bits3(sketch.probe3(t, tau)), bits3(want), "probe3 diverged at t={q}");
        assert_eq!(bits3(cursor.probe3(t, tau)), bits3(want), "cursor diverged at t={q}");
        let b = want[0] - 2.0 * want[1] + want[2];
        assert_eq!(sketch.estimate_burstiness(t, tau).to_bits(), b.to_bits());
    }
    let mut sorted: Vec<u64> = qs.to_vec();
    sorted.sort_unstable();
    let mut cursor = CurveCursor::new(sketch);
    for &q in &sorted {
        let t = Timestamp(q);
        let want = composed3(sketch, t, tau);
        assert_eq!(bits3(cursor.probe3(t, tau)), bits3(want), "monotone cursor at t={q}");
        assert_eq!(
            cursor.burstiness(t, tau).to_bits(),
            sketch.estimate_burstiness(t, tau).to_bits()
        );
    }
}

fn arb_ticks() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..2_000, 1..250).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

fn arb_probes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..3_000, 1..40)
}

proptest! {
    /// PBE-1: fused kernels equal the composed estimates bit for bit, both
    /// mid-stream (live buffer) and after finalize.
    #[test]
    fn pbe1_fused_kernel_matches_composed(
        ticks in arb_ticks(),
        qs in arb_probes(),
        tau in 1u64..500,
        fin in 0u8..2,
    ) {
        let mut p = Pbe1::new(Pbe1Config { n_buf: 64, eta: 8 }).unwrap();
        for &t in &ticks {
            p.update(Timestamp(t));
        }
        if fin == 1 {
            p.finalize();
        }
        assert_fused_matches_composed(&p, &qs, BurstSpan::new(tau).unwrap());
    }

    /// PBE-2: same contract, covering the open PLA segment and the
    /// pending-first-arrival state.
    #[test]
    fn pbe2_fused_kernel_matches_composed(
        ticks in arb_ticks(),
        qs in arb_probes(),
        tau in 1u64..500,
        fin in 0u8..2,
    ) {
        let mut p = Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap();
        for &t in &ticks {
            p.update(Timestamp(t));
        }
        if fin == 1 {
            p.finalize();
        }
        assert_fused_matches_composed(&p, &qs, BurstSpan::new(tau).unwrap());
    }

    /// Exact curves: the kernel contract holds for the lossless summary too.
    #[test]
    fn exact_curve_fused_kernel_matches_composed(
        ticks in arb_ticks(),
        qs in arb_probes(),
        tau in 1u64..500,
    ) {
        let mut c = ExactCurve::new();
        for &t in &ticks {
            c.update(Timestamp(t));
        }
        assert_fused_matches_composed(&c, &qs, BurstSpan::new(tau).unwrap());
    }

    /// CM-PBE: the per-event fused probe, the batched row-major scan, and
    /// the hinted bursty-time sweep all equal the composed median estimates
    /// bit for bit (pre-epoch `t < 2τ` included whenever `q < 2τ`).
    #[test]
    fn cmpbe_fused_kernels_match_composed(
        els in prop::collection::vec((0u32..32, 0u64..1_000), 1..300),
        seed in 0u64..50,
        q in 0u64..2_500,
        tau in 1u64..400,
        theta in -50.0f64..50.0,
    ) {
        let mut els = els;
        els.sort_by_key(|&(_, t)| t);
        let mut cm = CmPbe::with_dimensions(3, 4, seed, || {
            Pbe2::new(Pbe2Config { gamma: 2.0, max_vertices: 16 }).unwrap()
        });
        for &(e, t) in &els {
            cm.update(EventId(e), Timestamp(t));
        }
        cm.finalize();
        let tau = BurstSpan::new(tau).unwrap();
        let t = Timestamp(q);

        for e in 0..32u32 {
            let e = EventId(e);
            let at = |q: Option<Timestamp>| q.map_or(0.0, |q| cm.estimate_cum(e, q));
            let want = [
                cm.estimate_cum(e, t),
                at(t.checked_sub(tau.ticks())),
                at(t.checked_sub(tau.ticks().saturating_mul(2))),
            ];
            prop_assert_eq!(bits3(cm.probe3(e, t, tau)), bits3(want));
            prop_assert_eq!(bits3(cm.probe3_by(e, t, tau, Combiner::Median)), bits3(want));
            let b = burstiness(want);
            prop_assert_eq!(burstiness(cm.probe3(e, t, tau)).to_bits(), b.to_bits());
        }

        // batched row-major scan == per-event estimates, in id order
        let mut scratch = QueryScratch::new();
        let mut got: Vec<(EventId, f64)> = Vec::new();
        cm.burstiness_scan_into(0, 32, t, tau, &mut scratch, |e, b| got.push((e, b)));
        prop_assert_eq!(got.len(), 32);
        for (i, &(e, b)) in got.iter().enumerate() {
            prop_assert_eq!(e, EventId(i as u32));
            prop_assert_eq!(b.to_bits(), burstiness(cm.probe3(e, t, tau)).to_bits());
        }

        // hinted bursty-time sweep == candidate filter over burstiness(probe3)
        let horizon = Timestamp(2_000);
        for e in [EventId(0), EventId(7), EventId(31)] {
            let mut want: Vec<(Timestamp, f64)> = Vec::new();
            let mut knees: Vec<Timestamp> = Vec::new();
            cm.for_each_segment_start(e, &mut |knee| knees.push(knee));
            let mut cands: Vec<u64> = Vec::new();
            for knee in knees {
                for delta in [0, tau.ticks(), tau.ticks().saturating_mul(2)] {
                    let c = knee.ticks().saturating_add(delta);
                    if c <= horizon.ticks() {
                        cands.push(c);
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            for c in cands {
                let b = burstiness(cm.probe3(e, Timestamp(c), tau));
                if b >= theta {
                    want.push((Timestamp(c), b));
                }
            }
            let mut out: Vec<(Timestamp, f64)> = Vec::new();
            cm.bursty_times_into(e, theta, tau, horizon, &mut scratch, &mut out);
            prop_assert_eq!(out.len(), want.len());
            for (g, w) in out.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }
}

/// `Point` answers against their own cumulative counts: the burst
/// frequency and burstiness at `t` must be bit-for-bit the Eq. 2
/// combinations of the `cumulative` that further `Point` requests report
/// at `t`, `t − τ` and `t − 2τ`, a pre-epoch leg reading 0.
fn assert_points_compose(det: &dyn BurstQueries, requests: &[QueryRequest]) {
    let point = |req: &QueryRequest| match det.query(req) {
        Ok(QueryResponse::Point { burstiness, burst_frequency, cumulative, .. }) => {
            [burstiness, burst_frequency, cumulative]
        }
        other => panic!("no point answer for {req:?}: {other:?}"),
    };
    for req in requests {
        let QueryRequest::Point { event, t, tau } = *req else { unreachable!("point requests") };
        let cumulative_back = |spans: u64| {
            t.checked_sub(tau.ticks().saturating_mul(spans))
                .map_or(0.0, |t| point(&QueryRequest::Point { event, t, tau })[2])
        };
        let [b, bf, f0] = point(req);
        let (f1, f2) = (cumulative_back(1), cumulative_back(2));
        let (got, want) = ([b, bf], [burstiness([f0, f1, f2]), f0 - f1]);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{req:?}: {got:?} vs {want:?} from cumulative [{f0}, {f1}, {f2}]"
        );
    }
}

proptest! {
    /// One fused probe answers all three `Point` numbers bit-for-bit like
    /// the Eq. 2 composition of separately probed cumulative counts, on
    /// every layout — single stream, flat grid, hierarchy, tiered
    /// retention, sharded — both mid-stream (no SoA bank) and finalized
    /// (banked wherever the cells allow).
    #[test]
    fn point_answers_equal_the_standalone_estimators(
        arrivals in prop::collection::vec((0u32..16, 0u64..8), 1..300),
        probes in prop::collection::vec((0u32..16, 0u64..2_500), 1..12),
        tau in 1u64..400,
        layout in 0u8..5,
    ) {
        let tau = BurstSpan::new(tau).unwrap();
        let mut now = 0u64;
        let stream: Vec<(EventId, Timestamp)> = arrivals
            .iter()
            .map(|&(e, gap)| {
                now += gap;
                (EventId(e), Timestamp(now))
            })
            .collect();
        let single = layout == 0;
        let builder = || {
            let b = BurstDetector::builder().variant(PbeVariant::pbe2(1.0)).seed(5);
            match layout {
                0 => b.single_event(),
                1 => b.universe(16).hierarchical(false),
                3 => b.universe(16).retention(Some(RetentionPolicy::new(64, 4, 32).unwrap())),
                _ => b.universe(16),
            }
        };
        let requests: Vec<QueryRequest> = probes
            .iter()
            .map(|&(e, t)| QueryRequest::Point {
                event: EventId(if single { 0 } else { e }),
                t: Timestamp(t),
                tau,
            })
            .collect();
        if layout == 4 {
            let mut det = builder().shards(3).build().unwrap();
            det.ingest_batch(&stream).unwrap();
            let mut banked = det.clone();
            banked.finalize();
            for d in [&det, &banked] {
                assert_points_compose(d, &requests);
            }
        } else {
            let mut det = builder().build().unwrap();
            for &(e, t) in &stream {
                if single { det.ingest_single(t) } else { det.ingest(e, t) }.unwrap();
            }
            let mut banked = det.clone();
            banked.finalize();
            prop_assert_eq!(det.soa_bank_bytes(), 0);
            if layout != 0 && layout != 3 {
                prop_assert!(banked.soa_bank_bytes() > 0, "finalize must build the bank");
            }
            for d in [&det, &banked] {
                assert_points_compose(d, &requests);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation contract: after scratch warm-up, the fused kernels never
// touch the heap. A counting global allocator makes the claim checkable.
// ---------------------------------------------------------------------------

mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// System allocator wrapper counting allocation events per thread
    /// (`dealloc` is free to run — dropping warm buffers is not a probe
    /// cost, and other test threads never perturb this thread's count).
    pub struct CountingAlloc;

    impl CountingAlloc {
        fn bump() {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }

        pub fn current() -> u64 {
            ALLOCATIONS.with(Cell::get)
        }
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::bump();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::bump();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::bump();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The tentpole's zero-allocation claim, enforced: once the scratch buffers
/// have grown to their high-water mark, probe3, the cursor sweep, the
/// batched bursty-event scan, and the hinted bursty-time sweep perform no
/// heap allocation at all.
#[test]
fn warm_fused_kernels_do_not_allocate() {
    const K: u32 = 64;
    let mut cm = CmPbe::with_dimensions(4, 16, 9, || {
        Pbe2::new(Pbe2Config { gamma: 1.0, max_vertices: 16 }).unwrap()
    });
    for t in 0..4_000u64 {
        cm.update(EventId((t % K as u64) as u32), Timestamp(t));
        if (3_000..3_200).contains(&t) {
            for _ in 0..4 {
                cm.update(EventId(11), Timestamp(t));
            }
        }
    }
    cm.finalize();
    assert!(cm.has_bank(), "finalize must build the SoA bank");
    // A bank-free twin: the array-of-structs fallback must stay
    // allocation-free too, so both layouts are measured below.
    let mut aos = cm.clone();
    aos.clear_bank();
    let tau = BurstSpan::new(200).unwrap();
    let t = Timestamp(3_199);
    let horizon = Timestamp(4_500);

    // Warm-up: grow every scratch buffer to its high-water mark.
    let mut scratch = QueryScratch::new();
    let mut hits = 0u32;
    cm.burstiness_scan_into(0, K, t, tau, &mut scratch, |_, _| hits += 1);
    let mut out: Vec<(Timestamp, f64)> = Vec::new();
    cm.bursty_times_into(EventId(11), -1e18, tau, horizon, &mut scratch, &mut out);
    let warm_times = out.len();
    assert!(warm_times > 0, "warm-up sweep must visit candidates");

    // A standalone PBE-2 for the cursor sweep, built before measuring.
    let mut single = Pbe2::new(Pbe2Config { gamma: 1.0, max_vertices: 16 }).unwrap();
    for t in 0..2_000u64 {
        single.update(Timestamp(t));
    }
    single.finalize();

    let base = counting_alloc::CountingAlloc::current();

    for q in 3_000..3_199u64 {
        std::hint::black_box(cm.probe3(EventId(11), Timestamp(q), tau));
        std::hint::black_box(burstiness(cm.probe3(EventId(3), Timestamp(q), tau)));
        std::hint::black_box(aos.probe3(EventId(11), Timestamp(q), tau));
    }
    for q in [3_000u64, 3_050, 3_100, 3_199] {
        cm.burstiness_scan_into(0, K, Timestamp(q), tau, &mut scratch, |_, b| {
            std::hint::black_box(b);
        });
    }
    cm.bursty_times_into(EventId(11), -1e18, tau, horizon, &mut scratch, &mut out);
    assert_eq!(out.len(), warm_times);
    let mut cursor = CurveCursor::new(&single);
    for q in (0..2_000u64).step_by(7) {
        std::hint::black_box(cursor.burstiness(Timestamp(q), tau));
    }

    let delta = counting_alloc::CountingAlloc::current() - base;
    assert_eq!(delta, 0, "warm fused kernels allocated {delta} times");
}

// ---------------------------------------------------------------------------
// Epoch publication contract: the `epoch.*` metric families are stable wire
// text, and the concurrent read path inherits the zero-allocation guarantee.
// ---------------------------------------------------------------------------

/// The `epoch.*` family names on the `/metrics` wire are golden — exact
/// bytes for a deterministic snapshot, so dashboards can rely on
/// `bed_epoch_published_total`, `bed_epoch_publish_latency_ns_*`, and the
/// `bed_epoch_generation` gauge.
#[test]
fn epoch_metrics_openmetrics_is_golden() {
    let h = Histogram::new();
    h.record_ns(100);
    let snap = MetricsSnapshot::from_entries([
        ("epoch.published".to_owned(), MetricValue::Counter(2)),
        ("epoch.generation".to_owned(), MetricValue::Gauge(2.0)),
        ("epoch.publish.latency_ns".to_owned(), MetricValue::Histogram(h.snapshot())),
    ]);
    let golden = concat!(
        "# HELP bed_epoch_generation epoch.generation\n",
        "# TYPE bed_epoch_generation gauge\n",
        "bed_epoch_generation 2\n",
        "# HELP bed_epoch_publish_latency_ns epoch.publish.latency_ns\n",
        "# TYPE bed_epoch_publish_latency_ns histogram\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"250\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"1000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"4000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"16000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"64000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"250000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"1000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"4000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"16000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"64000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"250000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"1000000000\"} 1\n",
        "bed_epoch_publish_latency_ns_bucket{le=\"+Inf\"} 1\n",
        "bed_epoch_publish_latency_ns_sum 100\n",
        "bed_epoch_publish_latency_ns_count 1\n",
        "# HELP bed_epoch_published epoch.published\n",
        "# TYPE bed_epoch_published counter\n",
        "bed_epoch_published_total 2\n",
        "# EOF\n",
    );
    assert_eq!(snap.to_openmetrics(), golden);

    // A live `DetectorEpochs` emits exactly those families (latency values
    // are wall-clock, so the histogram series are asserted by name only).
    let det =
        AnyDetector::Plain(Box::new(BurstDetector::builder().universe(8).seed(7).build().unwrap()));
    let epochs = DetectorEpochs::new(&det); // genesis publish = generation 1
    epochs.publish(&det);
    let om = epochs.metrics().to_openmetrics();
    assert!(om.contains("bed_epoch_published_total 2\n"), "{om}");
    assert!(om.contains("bed_epoch_generation 2\n"), "{om}");
    assert!(om.contains("# TYPE bed_epoch_publish_latency_ns histogram\n"), "{om}");
    assert!(om.contains("bed_epoch_publish_latency_ns_count 2\n"), "{om}");
    // ...plus the query families its views count and time.
    assert!(om.contains("bed_query_point_count_total 0\n"), "{om}");
    assert!(om.contains("# TYPE bed_query_bursty_events_latency_ns histogram\n"), "{om}");
    assert!(om.ends_with("# EOF\n"), "{om}");
}

/// The epoch read path stays zero-allocation once warm: the fast path
/// (generation unchanged — one atomic load) and the slow path (a new epoch
/// was published — the reader copies an `Arc` handle out of a slot) both
/// answer point queries without touching the heap.
#[test]
fn warm_epoch_read_path_does_not_allocate() {
    let mut det = AnyDetector::Plain(Box::new(
        BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .seed(7)
            .build()
            .unwrap(),
    ));
    for t in 0..2_000u64 {
        det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
        if t >= 1_900 {
            for _ in 0..4 {
                det.ingest(EventId(2), Timestamp(t)).unwrap();
            }
        }
    }
    let epochs = DetectorEpochs::new(&det);
    let tau = BurstSpan::new(50).unwrap();

    // Warm-up: pull the genesis epoch through the view and grow its
    // scratch to the high-water mark of every kind we will measure.
    let view = epochs.view();
    view.refresh_latest();
    for e in 0..8u32 {
        view.query(&QueryRequest::Point { event: EventId(e), t: Timestamp(1_999), tau }).unwrap();
    }

    // Ingest more and publish generation 2 *before* measuring: publishing
    // clones the detector (writer-side cost, heap allowed); consuming the
    // publish on the read side must be free.
    for t in 2_000..2_500u64 {
        det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
    }
    epochs.publish(&det);
    // Publishing finalizes the snapshot, which builds the SoA probe bank:
    // every measured point query below rides the batched `probe3_rows`
    // kernel through the epoch reader.
    assert!(epochs.bank_bytes() > 0, "published epochs must carry the SoA bank");

    let base = counting_alloc::CountingAlloc::current();

    // Slow path: the refresh sees generation 2 and swaps in the new epoch.
    assert_eq!(view.refresh_latest().arrivals, 2_900);
    assert_eq!(view.answer_generation(), 2);
    // Fast path: repeated refreshes and point queries against a quiet cell.
    for round in 0..200u64 {
        view.refresh_latest();
        for e in 0..8u32 {
            let req = QueryRequest::Point { event: EventId(e), t: Timestamp(2_000 + round), tau };
            std::hint::black_box(view.query(&req).unwrap());
        }
    }

    let delta = counting_alloc::CountingAlloc::current() - base;
    assert_eq!(delta, 0, "warm epoch read path allocated {delta} times");
}

// ---------------------------------------------------------------------------
// Observability contract: trace-id propagation stays free when the sampler
// skips, exemplars and tracer self-health are stable wire text, and trace
// trees assemble deterministically.
// ---------------------------------------------------------------------------

/// The `/query` hot path with tracing *enabled but unsampled* — a trace id
/// stamped into the scratch, explain off, sampler skipping — stays
/// zero-allocation. This is exactly the serve configuration under load:
/// every response carries a joinable id, yet an unsampled request pays one
/// relaxed `fetch_add` and never touches the heap.
#[test]
fn traced_unsampled_epoch_read_path_does_not_allocate() {
    let tracer = std::sync::Arc::new(Tracer::new(TracerConfig {
        sample_every: u64::MAX,      // enabled, but effectively never samples…
        slow_threshold_ns: u64::MAX, // …and never captures slow queries
        buffer_capacity: 64,
        slow_capacity: 1,
        dump_slow_on_drop: false,
    }));
    let mut det = AnyDetector::Plain(Box::new(
        BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .seed(7)
            .build()
            .unwrap(),
    ));
    det.set_tracer(std::sync::Arc::clone(&tracer));
    for t in 0..2_000u64 {
        det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
    }
    let mut epochs = DetectorEpochs::new(&det);
    epochs.set_tracer(std::sync::Arc::clone(&tracer));
    let tau = BurstSpan::new(50).unwrap();

    // Warm-up grows the scratch AND burns sampler ticket 0 (the first
    // ticket matches any period, so the very first query is the one
    // sampled request this test ever records).
    let view = epochs.view();
    view.refresh_latest();
    let mut scratch = QueryScratch::new();
    for e in 0..8u32 {
        let req = QueryRequest::Point { event: EventId(e), t: Timestamp(1_999), tau };
        view.query_reusing(&req, &mut scratch).unwrap();
    }
    assert_eq!(tracer.metrics_snapshot().counter("trace.sampled"), Some(1));

    let base = counting_alloc::CountingAlloc::current();
    for round in 0..200u64 {
        // Serve stamps a fresh minted id per request: id arithmetic only.
        scratch.trace_id = tracer.next_trace_id().0;
        scratch.explain = false;
        for e in 0..8u32 {
            let req = QueryRequest::Point { event: EventId(e), t: Timestamp(1_000 + round), tau };
            std::hint::black_box(view.query_reusing(&req, &mut scratch).unwrap());
        }
    }
    let delta = counting_alloc::CountingAlloc::current() - base;
    assert_eq!(delta, 0, "traced-unsampled query path allocated {delta} times");

    // Nothing beyond the warm-up query ever reached the ring.
    assert_eq!(tracer.metrics_snapshot().counter("trace.sampled"), Some(1));
}

/// OpenMetrics exemplars on the wire are golden: a bucket that received a
/// traced observation grows ` # {trace_id="..."} <ns>`, and every other
/// bucket renders byte-identically to the pre-exemplar format.
#[test]
fn latency_exemplars_openmetrics_is_golden() {
    let h = Histogram::new();
    h.record_ns(100); // untraced: its bucket stays exemplar-free
    h.record_ns_exemplar(5_000, 0xabc);
    let snap = MetricsSnapshot::from_entries([(
        "query.point.latency_ns".to_owned(),
        MetricValue::Histogram(h.snapshot()),
    )]);
    let golden = concat!(
        "# HELP bed_query_point_latency_ns query.point.latency_ns\n",
        "# TYPE bed_query_point_latency_ns histogram\n",
        "bed_query_point_latency_ns_bucket{le=\"250\"} 1\n",
        "bed_query_point_latency_ns_bucket{le=\"1000\"} 1\n",
        "bed_query_point_latency_ns_bucket{le=\"4000\"} 1\n",
        "bed_query_point_latency_ns_bucket{le=\"16000\"} 2",
        " # {trace_id=\"0000000000000abc\"} 5000\n",
        "bed_query_point_latency_ns_bucket{le=\"64000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"250000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"1000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"4000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"16000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"64000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"250000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"1000000000\"} 2\n",
        "bed_query_point_latency_ns_bucket{le=\"+Inf\"} 2\n",
        "bed_query_point_latency_ns_sum 5100\n",
        "bed_query_point_latency_ns_count 2\n",
        "# EOF\n",
    );
    assert_eq!(snap.to_openmetrics(), golden);
}

/// Tracer self-health on `/metrics` is golden wire text: a tracer driven
/// through a deterministic schedule (1-in-2 sampling, six tickets) renders
/// exact dropped/lap/ticket/occupancy families.
#[test]
fn tracer_self_health_openmetrics_is_golden() {
    let tracer = Tracer::new(TracerConfig {
        sample_every: 2,
        slow_threshold_ns: u64::MAX,
        buffer_capacity: 4,
        slow_capacity: 8,
        dump_slow_on_drop: false,
    });
    for _ in 0..6 {
        if let Some(span) = tracer.start_sampled(bed::SpanName::QUERY_POINT) {
            span.finish(String::new);
        }
    }
    let golden = concat!(
        "# HELP bed_trace_buffer_capacity trace.buffer.capacity\n",
        "# TYPE bed_trace_buffer_capacity gauge\n",
        "bed_trace_buffer_capacity 4\n",
        "# HELP bed_trace_buffer_laps trace.buffer.laps\n",
        "# TYPE bed_trace_buffer_laps gauge\n",
        "bed_trace_buffer_laps 0\n",
        "# HELP bed_trace_dropped trace.dropped\n",
        "# TYPE bed_trace_dropped counter\n",
        "bed_trace_dropped_total 0\n",
        "# HELP bed_trace_sample_every trace.sample_every\n",
        "# TYPE bed_trace_sample_every gauge\n",
        "bed_trace_sample_every 2\n",
        "# HELP bed_trace_sampled trace.sampled\n",
        "# TYPE bed_trace_sampled counter\n",
        "bed_trace_sampled_total 3\n",
        "# HELP bed_trace_sampler_tickets trace.sampler.tickets\n",
        "# TYPE bed_trace_sampler_tickets counter\n",
        "bed_trace_sampler_tickets_total 6\n",
        "# HELP bed_trace_slow_count trace.slow.count\n",
        "# TYPE bed_trace_slow_count counter\n",
        "bed_trace_slow_count_total 0\n",
        "# HELP bed_trace_slow_occupancy trace.slow.occupancy\n",
        "# TYPE bed_trace_slow_occupancy gauge\n",
        "bed_trace_slow_occupancy 0\n",
        "# HELP bed_trace_spans trace.spans\n",
        "# TYPE bed_trace_spans counter\n",
        "bed_trace_spans_total 3\n",
        "# EOF\n",
    );
    assert_eq!(tracer.metrics_snapshot().to_openmetrics(), golden);
}

/// `/trace/<id>` tree assembly is golden for hand-built deterministic
/// events: spans of other traces are filtered, children nest under their
/// parent, and a span whose parent was overwritten in the ring surfaces
/// under `"orphans"` instead of vanishing.
#[test]
fn trace_tree_assembly_is_golden() {
    let ev = |name, trace_id, span_id, parent_id, start_ns, dur_ns| TraceEvent {
        name,
        trace_id,
        span_id,
        parent_id,
        start_ns,
        dur_ns,
    };
    let events = vec![
        ev("query.point", 0xabc, 0x1, 0x0, 10, 900),
        ev("stage.cell_probe", 0xabc, 0x2, 0x1, 20, 300),
        ev("stage.median_combine", 0xabc, 0x3, 0x1, 350, 200),
        ev("query.point", 0xddd, 0x9, 0x0, 0, 50), // different trace: filtered
        ev("stage.hierarchy_prune", 0xabc, 0x4, 0x77, 600, 100), // parent lost
    ];
    let golden = concat!(
        "{\"trace_id\":\"0000000000000abc\",\"roots\":[",
        "{\"name\":\"query.point\",\"span_id\":\"0000000000000001\",",
        "\"start_ns\":10,\"dur_ns\":900,\"children\":[",
        "{\"name\":\"stage.cell_probe\",\"span_id\":\"0000000000000002\",",
        "\"start_ns\":20,\"dur_ns\":300,\"children\":[]},",
        "{\"name\":\"stage.median_combine\",\"span_id\":\"0000000000000003\",",
        "\"start_ns\":350,\"dur_ns\":200,\"children\":[]}]}],",
        "\"orphans\":[",
        "{\"name\":\"stage.hierarchy_prune\",\"trace_id\":\"0000000000000abc\",",
        "\"span_id\":\"0000000000000004\",\"parent_id\":\"0000000000000077\",",
        "\"start_ns\":600,\"dur_ns\":100}]}",
    );
    assert_eq!(assemble_trace_tree(&events, TraceId(0xabc)).as_deref(), Some(golden));
    assert_eq!(assemble_trace_tree(&events, TraceId(0xbeef)), None);
}

// ---------------------------------------------------------------------------
// Metric family contract: every owner's full family list — name, type, and
// the deterministic values — on a fixed stream and query mix. bedbench, the
// CI greps and dashboards key on these names, so a rename, a dropped family
// or a changed type fails here rather than on a scrape.
// ---------------------------------------------------------------------------

/// One line per family: `name type value`. Counters and gauges print their
/// value; histograms their observation count (bucket placement is timing).
fn family_lines(snap: &MetricsSnapshot) -> String {
    snap.iter()
        .map(|(name, value)| match value {
            MetricValue::Counter(n) => format!("{name} counter {n}\n"),
            MetricValue::Gauge(g) => format!("{name} gauge {g}\n"),
            MetricValue::Histogram(h) => format!("{name} histogram {}\n", h.count),
        })
        .collect()
}

/// A fixed stream over 16 event ids: steady background traffic with one
/// burst of event 3 between ticks 3 000 and 3 600.
fn family_stream() -> Vec<(EventId, Timestamp)> {
    let mut out = Vec::new();
    for i in 0..600u64 {
        let ts = Timestamp(i * 10);
        out.push((EventId(((i * 7 + i / 50) % 16) as u32), ts));
        if (300..360).contains(&i) {
            out.push((EventId(3), ts));
        }
    }
    out
}

/// The fixed query mix: every kind once, plus one refused request.
fn family_queries(universe: u32) -> Vec<QueryRequest> {
    let tau = BurstSpan::new(500).unwrap();
    let event = EventId(3 % universe);
    vec![
        QueryRequest::Point { event, t: Timestamp(3_500), tau },
        QueryRequest::Point { event, t: Timestamp(1_000), tau },
        QueryRequest::BurstyTimes { event, theta: 1.0, tau, horizon: Timestamp(6_000) },
        QueryRequest::BurstyEvents {
            t: Timestamp(3_500),
            theta: 1.0,
            tau,
            strategy: QueryStrategy::Pruned,
        },
        QueryRequest::Series {
            event,
            tau,
            range: TimeRange::new(Timestamp(0), Timestamp(6_000)).unwrap(),
            step: 1_000,
        },
        QueryRequest::TopK { event, k: 3, tau, horizon: Timestamp(6_000) },
        QueryRequest::Point { event: EventId(universe), t: Timestamp(0), tau },
    ]
}

fn ask_all(q: &dyn BurstQueries, universe: u32) {
    for request in family_queries(universe) {
        let _ = q.query(&request);
    }
}

/// Feeds the stream in batches (plus one refused arrival) into `det`,
/// finalizes it, and answers the query mix.
fn drive(mut det: AnyDetector) -> AnyDetector {
    let universe = det.config().universe.unwrap_or(1);
    let stream: Vec<_> =
        family_stream().into_iter().map(|(e, ts)| (EventId(e.0 % universe), ts)).collect();
    for batch in stream.chunks(100) {
        bed::EventSink::ingest_batch(&mut det, batch).unwrap();
    }
    assert!(det.ingest(EventId(0), Timestamp(0)).is_err());
    det.finalize();
    ask_all(det.queries(), universe);
    det
}

fn family_detectors() -> Vec<(&'static str, AnyDetector)> {
    let plain = |b: bed::BurstDetectorBuilder| AnyDetector::Plain(Box::new(b.build().unwrap()));
    vec![
        ("flat", plain(BurstDetector::builder().universe(16).hierarchical(false))),
        ("hierarchical", plain(BurstDetector::builder().universe(16))),
        ("single", plain(BurstDetector::builder().single_event())),
        (
            "retention",
            plain(
                BurstDetector::builder()
                    .universe(16)
                    .retention(Some(RetentionPolicy::new(400, 4, 128).unwrap())),
            ),
        ),
        (
            "sharded",
            AnyDetector::Sharded(BurstDetector::builder().universe(16).shards(3).build().unwrap()),
        ),
    ]
}

#[test]
fn metric_families_are_golden() {
    let mut actual = String::new();
    for (label, det) in family_detectors() {
        let det = drive(det);
        actual += &format!("== {label}\n{}", family_lines(&det.queries().metrics()));
        // The epoch surface over the same detector: genesis plus one
        // republish, and the query mix answered through a view.
        let epochs = DetectorEpochs::new(&det);
        epochs.publish(&det);
        ask_all(&epochs.view(), det.config().universe.unwrap_or(1));
        actual += &format!("== {label} epochs\n{}", family_lines(&epochs.metrics()));
    }

    let dir = std::env::temp_dir().join(format!("bed-families-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("arrivals.wal");
    let det = BurstDetector::builder().universe(16).build().unwrap();
    let mut wal = bed::WalWriter::create(&wal_path, det.config(), 0).unwrap();
    for &(event, ts) in &family_stream()[..100] {
        wal.append(event, ts).unwrap();
    }
    wal.sync().unwrap();
    wal.sync().unwrap(); // nothing pending: not a second sync
    actual += &format!("== wal\n{}", family_lines(&wal.metrics()));

    let mut det = AnyDetector::Plain(Box::new(det));
    for &(event, ts) in &family_stream()[..60] {
        det.ingest(event, ts).unwrap();
    }
    let policy = bed::CheckpointPolicy { every_arrivals: 50 };
    let mut ckpt = bed::Checkpointer::new(dir.join("state.snap"), policy);
    ckpt.checkpoint(&det).unwrap();
    let outcome = ckpt.recover(Some(&wal_path)).unwrap();
    assert_eq!(outcome.replayed, 40);
    actual += &format!("== checkpoint\n{}", family_lines(&ckpt.metrics()));
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(actual, METRIC_FAMILIES_GOLDEN, "actual families:\n{actual}");
}

const METRIC_FAMILIES_GOLDEN: &str = "\
== flat
detector.arrivals gauge 660
finalize.latency_ns histogram 1
ingest.count counter 661
ingest.errors counter 1
ingest.latency_ns histogram 11
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 16
query.stats.point_queries counter 16
query.stats.prune_ratio gauge 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.compact.latency_ns histogram 0
structure.bytes gauge 1728
structure.cmpbe.buffered gauge 0
structure.cmpbe.depth gauge 4
structure.cmpbe.fill_ratio gauge 0.029411764705882353
structure.cmpbe.heaviest_cell_arrivals gauge 97
structure.cmpbe.occupied_cells gauge 64
structure.cmpbe.pieces gauge 72
structure.cmpbe.width gauge 544
== flat epochs
epoch.generation gauge 2
epoch.publish.latency_ns histogram 2
epoch.published counter 2
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 16
query.stats.point_queries counter 16
query.stats.prune_ratio gauge 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
== hierarchical
detector.arrivals gauge 660
finalize.latency_ns histogram 1
ingest.count counter 661
ingest.errors counter 1
ingest.latency_ns histogram 11
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 2
query.stats.point_queries counter 15
query.stats.prune_ratio gauge 0.6
query.stats.pruned_subtrees counter 3
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.compact.latency_ns histogram 0
structure.bytes gauge 984
structure.cmpbe.buffered gauge 0
structure.cmpbe.depth gauge 1
structure.cmpbe.fill_ratio gauge 1
structure.cmpbe.heaviest_cell_arrivals gauge 97
structure.cmpbe.occupied_cells gauge 16
structure.cmpbe.pieces gauge 18
structure.cmpbe.width gauge 16
structure.forest.buffered gauge 0
structure.forest.levels gauge 5
structure.forest.nodes gauge 31
structure.forest.occupied_nodes gauge 31
structure.forest.pieces gauge 41
== hierarchical epochs
epoch.generation gauge 2
epoch.publish.latency_ns histogram 2
epoch.published counter 2
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 2
query.stats.point_queries counter 15
query.stats.prune_ratio gauge 0.6
query.stats.pruned_subtrees counter 3
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
== single
detector.arrivals gauge 660
finalize.latency_ns histogram 1
ingest.count counter 661
ingest.errors counter 1
ingest.latency_ns histogram 11
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 2
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 0
query.stats.point_queries counter 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.compact.latency_ns histogram 0
structure.bytes gauge 72
structure.pbe.buffered gauge 0
structure.pbe.pieces gauge 3
== single epochs
epoch.generation gauge 2
epoch.publish.latency_ns histogram 2
epoch.published counter 2
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 2
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 0
query.stats.point_queries counter 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
== retention
detector.arrivals gauge 660
finalize.latency_ns histogram 1
ingest.count counter 661
ingest.errors counter 1
ingest.latency_ns histogram 11
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 16
query.stats.point_queries counter 31
query.stats.prune_ratio gauge 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.compact.latency_ns histogram 5
retention.compactions gauge 5
retention.tier0.bytes gauge 1656
retention.tier0.knees gauge 57
retention.tier0.span_ticks gauge 400
retention.tier1.bytes gauge 128
retention.tier1.knees gauge 8
retention.tier1.span_ticks gauge 400
retention.tier2.bytes gauge 976
retention.tier2.knees gauge 61
retention.tier2.span_ticks gauge 800
retention.tier3.bytes gauge 1232
retention.tier3.knees gauge 77
retention.tier3.queries counter 1
retention.tier3.span_ticks gauge 1600
retention.tier4.bytes gauge 1824
retention.tier4.knees gauge 114
retention.tier4.queries counter 1
retention.tier4.span_ticks gauge 3200
retention.tiers gauge 5
retention.window_ticks gauge 400
structure.bytes gauge 7056
structure.cmpbe.buffered gauge 0
structure.cmpbe.depth gauge 1
structure.cmpbe.fill_ratio gauge 1
structure.cmpbe.heaviest_cell_arrivals gauge 97
structure.cmpbe.occupied_cells gauge 16
structure.cmpbe.pieces gauge 192
structure.cmpbe.width gauge 16
structure.forest.buffered gauge 0
structure.forest.levels gauge 5
structure.forest.nodes gauge 31
structure.forest.occupied_nodes gauge 31
structure.forest.pieces gauge 348
== retention epochs
epoch.generation gauge 2
epoch.publish.latency_ns histogram 2
epoch.published counter 2
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 16
query.stats.point_queries counter 31
query.stats.prune_ratio gauge 0
query.stats.pruned_subtrees counter 0
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.tier3.queries counter 1
retention.tier4.queries counter 1
== sharded
detector.arrivals gauge 660
finalize.latency_ns histogram 3
ingest.count counter 660
ingest.errors counter 0
ingest.latency_ns histogram 12
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 2
query.stats.point_queries counter 21
query.stats.prune_ratio gauge 0.7142857142857143
query.stats.pruned_subtrees counter 5
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
retention.compact.latency_ns histogram 0
shard.0.arrivals gauge 210
shard.0.bytes gauge 600
shard.1.arrivals gauge 261
shard.1.bytes gauge 480
shard.2.arrivals gauge 189
shard.2.bytes gauge 360
shard.batch.count counter 7
shard.batch.elements counter 660
shard.batch.latency_ns histogram 7
shard.count gauge 3
structure.bytes gauge 1440
structure.cmpbe.buffered gauge 0
structure.cmpbe.depth gauge 3
structure.cmpbe.fill_ratio gauge 1
structure.cmpbe.heaviest_cell_arrivals gauge 173
structure.cmpbe.occupied_cells gauge 16
structure.cmpbe.pieces gauge 18
structure.cmpbe.width gauge 48
structure.forest.buffered gauge 0
structure.forest.levels gauge 15
structure.forest.nodes gauge 93
structure.forest.occupied_nodes gauge 50
structure.forest.pieces gauge 60
== sharded epochs
epoch.generation gauge 2
epoch.publish.latency_ns histogram 2
epoch.published counter 2
query.bursty_events.count counter 1
query.bursty_events.latency_ns histogram 1
query.bursty_times.count counter 1
query.bursty_times.latency_ns histogram 1
query.errors counter 1
query.point.count counter 3
query.point.latency_ns histogram 3
query.series.count counter 1
query.series.latency_ns histogram 1
query.stats.leaves_probed counter 2
query.stats.point_queries counter 21
query.stats.prune_ratio gauge 0.7142857142857143
query.stats.pruned_subtrees counter 5
query.top_k.count counter 1
query.top_k.latency_ns histogram 1
== wal
wal.appends counter 100
wal.bytes counter 1600
wal.sync.latency_ns histogram 1
== checkpoint
checkpoint.bytes counter 6203
checkpoint.count counter 1
checkpoint.errors counter 0
checkpoint.latency_ns histogram 1
recovery.count counter 1
recovery.fallbacks counter 0
recovery.latency_ns histogram 1
recovery.replayed counter 40
recovery.torn_tails counter 0
";
