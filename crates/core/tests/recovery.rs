//! Crash-fault injection and kill-and-restore equivalence.
//!
//! The durability contract under test (see `bed_core::checkpoint`):
//!
//! 1. **Bit-for-bit recovery** — a detector killed at any point and
//!    recovered from its latest snapshot + WAL tail is indistinguishable
//!    from one that never died: identical `to_bytes()` encodings and
//!    identical answers (including errors) on all five `QueryRequest`
//!    kinds, across every summary configuration (PBE-1, PBE-2, flat
//!    CM-PBE, the dyadic hierarchy, sharded, single-event).
//! 2. **No panic, no silent corruption** — truncating, bit-flipping, or
//!    tearing any persisted artifact yields `Err` or a clean fallback to
//!    the previous snapshot generation; a recovery that reports `Ok` is
//!    always a true prefix of the original stream.
//!
//! Fault positions are drawn from a seeded RNG; CI sweeps seeds via the
//! `BED_FAULT_SEED` env var (default 1), so each run explores different
//! corruption sites while staying reproducible.

use std::fs;
use std::path::PathBuf;

use bed_core::checkpoint::{CrashPoint, SNAPSHOT_VERSION};
use bed_core::{
    recover, AnyDetector, BurstDetector, CheckpointPolicy, Checkpointer, DetectorConfig, EventSink,
    PbeVariant, QueryRequest, QueryStrategy, RecoveryError, ShardedDetector, Snapshot,
    SnapshotStore, WalSink,
};
use bed_sketch::SketchParams;
use bed_stream::{BurstSpan, Codec, EventId, TimeRange, Timestamp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const UNIVERSE: u32 = 16;

fn fault_seed() -> u64 {
    std::env::var("BED_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Fresh scratch directory, namespaced by fault seed so parallel CI jobs
/// never collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bed-recovery-tests")
        .join(format!("seed-{}", fault_seed()))
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The configuration matrix: every summary layer the snapshot format must
/// carry. `shards == 0` means an unsharded detector.
fn configs() -> Vec<(&'static str, DetectorConfig, u32)> {
    let sketch = SketchParams { epsilon: 0.01, delta: 0.05 };
    let base = DetectorConfig {
        variant: PbeVariant::pbe2(1.0),
        sketch,
        universe: Some(UNIVERSE),
        hierarchical: true,
        seed: 42,
        retention: None,
    };
    vec![
        (
            "single-pbe1",
            DetectorConfig {
                variant: PbeVariant::pbe1(8),
                universe: None,
                hierarchical: false,
                ..base
            },
            0,
        ),
        ("flat-cmpbe2", DetectorConfig { hierarchical: false, ..base }, 0),
        ("hier-cmpbe2", base, 0),
        ("hier-cmpbe1", DetectorConfig { variant: PbeVariant::pbe1(8), ..base }, 0),
        ("sharded", base, 3),
        // Tiered retention: compaction runs inside ingest on an arrivals
        // cadence, so recovery (snapshot + WAL replay through ingest) must
        // reproduce the frozen tiers bit-for-bit.
        (
            "hier-retention",
            DetectorConfig {
                retention: Some(bed_core::RetentionPolicy::new(64, 8, 512).unwrap()),
                ..base
            },
            0,
        ),
        (
            "sharded-retention",
            DetectorConfig {
                retention: Some(bed_core::RetentionPolicy::new(64, 8, 256).unwrap()),
                ..base
            },
            3,
        ),
    ]
}

fn build_empty(config: DetectorConfig, shards: u32) -> AnyDetector {
    if shards == 0 {
        AnyDetector::Plain(Box::new(BurstDetector::from_config(config).unwrap()))
    } else {
        AnyDetector::Sharded(ShardedDetector::from_config(config, shards as usize).unwrap())
    }
}

/// Seeded time-sorted stream over the small universe.
fn gen_stream(rng: &mut SmallRng, n: usize) -> Vec<(EventId, Timestamp)> {
    let mut els: Vec<(u32, u64)> =
        (0..n).map(|_| (rng.gen_range(0..UNIVERSE), rng.gen_range(0..500))).collect();
    els.sort_by_key(|&(_, t)| t);
    els.into_iter().map(|(e, t)| (EventId(e), Timestamp(t))).collect()
}

/// A never-killed detector over `els` (not finalized, like a recovery).
fn golden(config: DetectorConfig, shards: u32, els: &[(EventId, Timestamp)]) -> AnyDetector {
    let mut det = build_empty(config, shards);
    for &(e, t) in els {
        det.ingest(e, t).unwrap();
    }
    det
}

/// All five query kinds (both bursty-event strategies where applicable).
fn probes(single: bool, hierarchical: bool) -> Vec<QueryRequest> {
    let tau = BurstSpan::new(60).unwrap();
    let event = EventId(if single { 0 } else { 2 });
    let range = TimeRange { start: Timestamp(0), end: Timestamp(500) };
    let mut reqs = vec![
        QueryRequest::Point { event, t: Timestamp(300), tau },
        QueryRequest::BurstyTimes { event, theta: 3.0, tau, horizon: Timestamp(500) },
        QueryRequest::BurstyEvents {
            t: Timestamp(300),
            theta: 3.0,
            tau,
            strategy: QueryStrategy::ExactScan,
        },
        QueryRequest::Series { event, tau, range, step: 50 },
        QueryRequest::TopK { event, k: 4, tau, horizon: Timestamp(500) },
    ];
    if hierarchical {
        reqs.push(QueryRequest::BurstyEvents {
            t: Timestamp(300),
            theta: 3.0,
            tau,
            strategy: QueryStrategy::Pruned,
        });
    }
    reqs
}

/// Restored must equal live on the wire format AND on every query kind —
/// `Err` answers included (e.g. bursty-events on a single-event detector
/// must fail identically, not diverge).
fn assert_equivalent(label: &str, live: &mut AnyDetector, restored: &mut AnyDetector) {
    assert_eq!(
        live.to_bytes(),
        restored.to_bytes(),
        "{label}: restored state is not bit-for-bit the live state"
    );
    live.finalize();
    restored.finalize();
    assert_eq!(live.to_bytes(), restored.to_bytes(), "{label}: finalized states diverge");
    let config = *live.config();
    for req in probes(config.universe.is_none(), config.hierarchical) {
        assert_eq!(
            live.queries().query(&req),
            restored.queries().query(&req),
            "{label}: answers diverge on {req:?}"
        );
    }
}

/// Ingest `els` durably (WAL + periodic checkpoints), then "die" without a
/// final checkpoint. Returns the store + wal paths.
fn ingest_and_die(
    dir: &std::path::Path,
    config: DetectorConfig,
    shards: u32,
    els: &[(EventId, Timestamp)],
    every: u64,
) -> (SnapshotStore, PathBuf) {
    let snap = dir.join("snap.beds");
    let wal_path = dir.join("arrivals.wal");
    let det = build_empty(config, shards);
    let mut sink = WalSink::create(&wal_path, det).unwrap();
    let mut ckpt = Checkpointer::new(&snap, CheckpointPolicy { every_arrivals: every });
    for batch in els.chunks(37) {
        sink.ingest_batch(batch).unwrap();
        ckpt.maybe_checkpoint(&sink).unwrap();
    }
    // no final checkpoint, no finalize: the process just died
    drop(sink);
    (SnapshotStore::new(snap), wal_path)
}

#[test]
fn kill_and_restore_is_bit_for_bit_across_all_configs() {
    let mut rng = SmallRng::seed_from_u64(fault_seed());
    for (label, config, shards) in configs() {
        let dir = scratch(&format!("kill-{label}"));
        let els = gen_stream(&mut rng, 600);
        let (store, wal) = ingest_and_die(&dir, config, shards, &els, 97);
        let outcome = recover(&store, Some(&wal)).unwrap();
        assert_eq!(outcome.detector.arrivals(), els.len() as u64, "{label}");
        assert!(outcome.replayed > 0, "{label}: expected a tail past the last checkpoint");
        assert!(!outcome.fell_back && !outcome.torn_tail, "{label}");
        let mut live = golden(config, shards, &els);
        let mut restored = outcome.detector;
        assert_equivalent(label, &mut live, &mut restored);
    }
}

#[test]
fn torn_wal_tail_recovers_the_acknowledged_prefix() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x70_72_6e);
    for (label, config, shards) in configs() {
        let dir = scratch(&format!("torn-{label}"));
        let els = gen_stream(&mut rng, 400);
        let (store, wal) = ingest_and_die(&dir, config, shards, &els, 83);
        // a torn final write: a random partial record fragment
        let frag = rng.gen_range(1..16usize);
        let mut bytes = fs::read(&wal).unwrap();
        bytes.extend(std::iter::repeat_n(0xA5u8, frag));
        fs::write(&wal, &bytes).unwrap();
        let outcome = recover(&store, Some(&wal)).unwrap();
        assert!(outcome.torn_tail, "{label}: fragment of {frag} bytes not flagged");
        assert_eq!(outcome.detector.arrivals(), els.len() as u64, "{label}");
        let mut live = golden(config, shards, &els);
        let mut restored = outcome.detector;
        assert_equivalent(label, &mut live, &mut restored);
    }
}

#[test]
fn snapshot_truncation_always_errors_never_panics() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x74_72_75);
    let (label, config, shards) = &configs()[2];
    let dir = scratch("truncate");
    let els = gen_stream(&mut rng, 300);
    let (store, _) = ingest_and_die(&dir, *config, *shards, &els, 1_000_000);
    let bytes = fs::read(store.path()).unwrap();
    // exhaustive near the edges, seeded sampling in the middle
    let mut cuts: Vec<usize> = (0..32.min(bytes.len())).collect();
    cuts.extend(bytes.len().saturating_sub(16)..bytes.len());
    cuts.extend((0..64).map(|_| rng.gen_range(0..bytes.len())));
    for cut in cuts {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "{label}: truncation to {cut}/{} bytes decoded",
            bytes.len()
        );
    }
}

#[test]
fn bit_flips_fall_back_to_previous_generation() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x66_6c_70);
    let (_, config, shards) = configs()[2];
    let dir = scratch("flip");
    let store = SnapshotStore::new(dir.join("snap.beds"));
    let els = gen_stream(&mut rng, 300);
    let old = golden(config, shards, &els[..200]);
    let new = golden(config, shards, &els);
    store.save(&old).unwrap();
    store.save(&new).unwrap();

    let pristine = fs::read(store.path()).unwrap();
    for _ in 0..40 {
        let mut bad = pristine.clone();
        let pos = rng.gen_range(0..bad.len());
        bad[pos] ^= 1 << rng.gen_range(0..8);
        fs::write(store.path(), &bad).unwrap();
        let (snap, fell_back) = store.load().unwrap();
        assert!(fell_back, "flip at {pos} was not detected");
        assert_eq!(snap.watermark.arrivals, 200, "fallback is the previous generation");
    }

    // both generations damaged → Err, never a half-decoded detector
    let prev = fs::read(store.prev_path()).unwrap();
    let mut bad_prev = prev.clone();
    let pos = rng.gen_range(0..bad_prev.len());
    bad_prev[pos] ^= 0x80;
    fs::write(store.prev_path(), &bad_prev).unwrap();
    assert!(store.load().is_err());
    // the WAL alone cannot rescue a *corrupt* (vs absent) snapshot pair
    fs::write(store.path(), &pristine).unwrap();
    fs::write(store.prev_path(), &prev).unwrap();
    let (snap, _) = store.load().unwrap();
    assert_eq!(snap.watermark.arrivals, els.len() as u64);
}

#[test]
fn mid_wal_corruption_is_an_error_not_data_loss() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x6d6964);
    let (_, config, shards) = configs()[2];
    let dir = scratch("mid-wal");
    let els = gen_stream(&mut rng, 200);
    let (store, wal) = ingest_and_die(&dir, config, shards, &els, 59);
    let pristine = fs::read(&wal).unwrap();
    let header = pristine.len() - 200 * 16;
    // damage a record that is NOT the final one: corruption, not a torn tail
    for _ in 0..20 {
        let mut bad = pristine.clone();
        let rec = rng.gen_range(0..199usize);
        let pos = header + rec * 16 + rng.gen_range(0..16usize);
        bad[pos] ^= 1 << rng.gen_range(0..8);
        fs::write(&wal, &bad).unwrap();
        match recover(&store, Some(&wal)) {
            Err(RecoveryError::WalCorrupt { record }) => {
                assert_eq!(record, rec as u64, "flip at byte {pos}")
            }
            other => panic!("flip in record {rec}: expected WalCorrupt, got {other:?}"),
        }
    }
}

#[test]
fn kill_points_mid_checkpoint_leave_a_loadable_store() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x6b_69_6c);
    let (_, config, shards) = configs()[2];
    for crash in [CrashPoint::MidTempWrite, CrashPoint::AfterTempWrite, CrashPoint::AfterRotate] {
        let dir = scratch(&format!("crash-{crash:?}"));
        let store = SnapshotStore::new(dir.join("snap.beds"));
        let els = gen_stream(&mut rng, 300);
        let gen1 = golden(config, shards, &els[..100]);
        let gen2 = golden(config, shards, &els[..200]);
        store.save(&gen1).unwrap();
        store.save(&gen2).unwrap();
        // the third checkpoint dies at `crash`
        let gen3 = golden(config, shards, &els);
        store.save_until(&gen3, Some(crash)).unwrap();
        let (snap, _) = store.load().unwrap();
        // Never the half-written generation. Mid/after-temp-write crashes
        // leave gen2 as `current`; AfterRotate leaves it as `.prev` — either
        // way the loadable state is the 200-arrival generation.
        assert_eq!(
            snap.watermark.arrivals, 200,
            "{crash:?}: loaded watermark {}",
            snap.watermark.arrivals
        );
        // and the store still accepts the retried checkpoint afterwards
        store.save(&gen3).unwrap();
        let (snap, fell_back) = store.load().unwrap();
        assert!(!fell_back);
        assert_eq!(snap.watermark.arrivals, 300);
    }
}

/// The WAL holds exactly what the detector accepted: arrivals the detector
/// refuses (out of order, outside the universe, or inside a batch that
/// carries one) are refused before they are logged, so a later replay
/// never trips over them.
#[test]
fn refused_arrivals_never_reach_the_wal() {
    for (label, config, shards) in configs() {
        let dir = scratch(&format!("refused-{label}"));
        let wal_path = dir.join("arrivals.wal");
        let mut sink = WalSink::create(&wal_path, build_empty(config, shards)).unwrap();
        sink.ingest(EventId(1), Timestamp(100)).unwrap();
        assert!(sink.ingest(EventId(1), Timestamp(50)).is_err(), "{label}: out of order");
        if config.universe.is_some() {
            assert!(sink.ingest(EventId(UNIVERSE), Timestamp(150)).is_err(), "{label}: universe");
        }
        let mixed = [(EventId(2), Timestamp(200)), (EventId(2), Timestamp(10))];
        assert!(sink.ingest_batch(&mixed).is_err(), "{label}: batch with a refused arrival");
        // Refused arrivals leave the clock at 100: an earlier timestamp
        // than any of them is still in order.
        sink.ingest(EventId(2), Timestamp(120)).unwrap();
        let mut live = sink.into_inner().unwrap();
        assert_eq!(live.arrivals(), 2, "{label}");

        let store = SnapshotStore::new(dir.join("never-written.beds"));
        let outcome = recover(&store, Some(&wal_path)).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(outcome.wal_records, 2, "{label}: the wal logged a refused arrival");
        let mut restored = outcome.detector;
        assert_equivalent(label, &mut live, &mut restored);
    }
}

#[test]
fn wal_from_a_different_config_is_refused_with_a_diff() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x63_66_67);
    let (_, config, shards) = configs()[2];
    let dir = scratch("mismatch");
    let els = gen_stream(&mut rng, 150);
    let (store, _) = ingest_and_die(&dir, config, shards, &els, 50);
    // a WAL whose header says: different seed, different universe
    let other = DetectorConfig { seed: 999, universe: Some(UNIVERSE * 2), ..config };
    let wal2 = dir.join("other.wal");
    let mut w = bed_core::WalWriter::create(&wal2, &other, 4).unwrap();
    w.append(EventId(0), Timestamp(1)).unwrap();
    w.sync().unwrap();
    match recover(&store, Some(&wal2)) {
        Err(RecoveryError::ConfigMismatch { diff }) => {
            assert!(diff.contains("seed"), "{diff}");
            assert!(diff.contains("universe"), "{diff}");
            assert!(diff.contains("shards"), "{diff}");
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn inconsistent_artifacts_and_absent_state_are_typed_errors() {
    let mut rng = SmallRng::seed_from_u64(fault_seed() ^ 0x6e_6f_73);
    let (_, config, shards) = configs()[2];
    let dir = scratch("inconsistent");
    // no snapshot, no wal
    let store = SnapshotStore::new(dir.join("absent.beds"));
    assert!(matches!(recover(&store, None), Err(RecoveryError::NoState)));

    // snapshot claims more coverage than the wal holds
    let els = gen_stream(&mut rng, 120);
    let (store, wal) = ingest_and_die(&dir, config, shards, &els, 40);
    let mut bytes = fs::read(&wal).unwrap();
    let keep = bytes.len() - 60 * 16; // drop 60 acknowledged records
    bytes.truncate(keep);
    fs::write(&wal, &bytes).unwrap();
    assert!(matches!(recover(&store, Some(&wal)), Err(RecoveryError::Corrupt { .. })));

    // wal alone (snapshot genuinely absent) cold-starts from its header
    fs::remove_file(store.path()).unwrap();
    let _ = fs::remove_file(store.prev_path());
    let outcome = recover(&store, Some(&wal)).unwrap();
    assert_eq!(outcome.detector.arrivals(), 60);
    assert_eq!(outcome.watermark.arrivals, 0);
    let mut live = golden(config, shards, &els[..60]);
    let mut restored = outcome.detector;
    assert_equivalent("cold-start", &mut live, &mut restored);
}

proptest! {
    /// Random stream, random kill point, random checkpoint period: the
    /// recovered detector is bit-for-bit the live one, on every config.
    #[test]
    fn recovery_equivalence_holds_for_arbitrary_kill_points(
        stream_seed in 0u64..1_000,
        kill in 1usize..300,
        every in 13u64..211,
        which in 0usize..5,
    ) {
        let (label, config, shards) = configs()[which];
        let dir = scratch(&format!("prop-{label}-{stream_seed}-{kill}-{every}"));
        let mut rng = SmallRng::seed_from_u64(fault_seed().wrapping_mul(1_000_003) ^ stream_seed);
        let els = gen_stream(&mut rng, 300);
        let seen = &els[..kill.min(els.len())];
        let (store, wal) = ingest_and_die(&dir, config, shards, seen, every);
        let outcome = recover(&store, Some(&wal)).unwrap();
        prop_assert_eq!(outcome.detector.arrivals(), seen.len() as u64);
        let mut live = golden(config, shards, seen);
        let mut restored = outcome.detector;
        assert_equivalent(label, &mut live, &mut restored);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary single-byte corruption of the snapshot or WAL: recovery
    /// never panics, and when it reports `Ok` the result is a true prefix
    /// of the stream — never a silently wrong summary.
    #[test]
    fn random_corruption_never_yields_a_wrong_summary(
        stream_seed in 0u64..1_000,
        flip_snapshot in any::<bool>(),
        flip_site in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let (_, config, shards) = configs()[2];
        let dir = scratch(&format!("prop-corrupt-{stream_seed}-{flip_snapshot}-{flip_site}-{bit}"));
        let mut rng = SmallRng::seed_from_u64(fault_seed().wrapping_mul(7_777_777) ^ stream_seed);
        let els = gen_stream(&mut rng, 200);
        let (store, wal) = ingest_and_die(&dir, config, shards, &els, 71);
        let victim = if flip_snapshot { store.path().to_path_buf() } else { wal.clone() };
        let mut bytes = fs::read(&victim).unwrap();
        let pos = flip_site % bytes.len();
        bytes[pos] ^= 1 << bit;
        fs::write(&victim, &bytes).unwrap();

        if let Ok(outcome) = recover(&store, Some(&wal)) {
            let n = outcome.detector.arrivals() as usize;
            prop_assert!(n <= els.len());
            let mut live = golden(config, shards, &els[..n]);
            let mut restored = outcome.detector;
            assert_equivalent("corrupted-prefix", &mut live, &mut restored);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The snapshot format self-identifies: its version constant is what the
/// envelope writes, and v1-tagged data is refused by the envelope decoder.
#[test]
fn snapshot_version_is_pinned() {
    assert_eq!(SNAPSHOT_VERSION, 2);
    let (_, config, shards) = configs()[2];
    let det = golden(config, shards, &[(EventId(1), Timestamp(5))]);
    let bytes = Snapshot::of(&det).to_bytes();
    assert_eq!(&bytes[..4], b"BEDS");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
}
