//! Durable checkpoints and crash recovery.
//!
//! A production detector serving historical burst queries cannot afford to
//! lose hours of summary state on a crash and re-ingest the entire
//! history. This module provides the durability layer:
//!
//! * **BEDS v2 snapshots** — a versioned, CRC-validated envelope around a
//!   full detector record ([`Snapshot`]). The payload is the existing
//!   `BEDD`/`BEDS v1` encoding, so every summary layer (PBE-1 buffers and
//!   knees, PBE-2 segment lists, CM-PBE cell tables, the dyadic hierarchy,
//!   per-shard state) rides along unchanged; the envelope adds an ingest
//!   [`Watermark`] and a whole-file CRC-32 so damage is *detected*, never
//!   silently decoded.
//! * **Atomic persistence with rotation** — [`SnapshotStore`] writes
//!   snapshots via write-to-temp + fsync + rename and keeps the previous
//!   snapshot as `<path>.prev`; a crash at any point leaves a loadable
//!   snapshot on disk, and [`SnapshotStore::load`] falls back to the
//!   previous generation when the latest is damaged.
//! * **Periodic checkpoint policy** — [`Checkpointer`] wraps a store with
//!   an every-N-arrivals policy and `bed-obs` metrics
//!   (`checkpoint.{count,errors,bytes,latency_ns}`,
//!   `recovery.{count,fallbacks,replayed,torn_tails}`).
//! * **Recovery** — [`recover`] loads the newest intact snapshot and
//!   replays the write-ahead-log tail past the watermark (see
//!   [`crate::wal`]), reconstructing a detector that is bit-for-bit the
//!   one that crashed.
//!
//! Recovery invariants:
//!
//! 1. WAL append (+ sync) happens *before* the arrival is ingested, so the
//!    log is always a superset of any snapshot's state.
//! 2. A snapshot's watermark counts arrivals, which equals the number of
//!    WAL records its state covers; replay resumes at that record index.
//! 3. Every corruption — truncated snapshot, torn or bit-flipped WAL
//!    record, interrupted checkpoint — ends in a typed [`RecoveryError`]
//!    or a clean fallback to the previous snapshot. Never a panic, never a
//!    silently wrong estimate.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use bed_stream::codec::{Reader, Writer};
use bed_stream::{crc32, Codec, CodecError, EventId, Timestamp};

use crate::config::DetectorConfig;
use crate::detector::BurstDetector;
use crate::error::BedError;
use crate::metrics::CheckpointMetrics;
use crate::observe::Traceable;
use crate::pipeline::EventSink;
use crate::query::BurstQueries;
use crate::shard::ShardedDetector;
use crate::wal::{read_wal, WalContents};

/// How far the stream had been consumed when a snapshot was taken.
///
/// `arrivals` doubles as the WAL replay cursor: with the WAL written
/// strictly in ingest order, the snapshot covers exactly the first
/// `arrivals` records, and recovery replays everything after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watermark {
    /// Elements ingested (equivalently: WAL records covered).
    pub arrivals: u64,
    /// Timestamp of the newest ingested element.
    pub last_ts: Option<Timestamp>,
}

impl Codec for Watermark {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.arrivals);
        match self.last_ts {
            Some(t) => {
                w.u8(1);
                t.encode(w);
            }
            None => w.u8(0),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let arrivals = r.u64("watermark arrivals")?;
        let last_ts = match r.u8("watermark last_ts flag")? {
            0 => None,
            1 => Some(Timestamp::decode(r)?),
            _ => return Err(CodecError::Invalid { context: "watermark last_ts flag" }),
        };
        Ok(Watermark { arrivals, last_ts })
    }
}

/// A detector of either physical layout — the unit of persistence. Query
/// commands, snapshots, and recovery are all agnostic of whether the state
/// is one [`BurstDetector`] or a [`ShardedDetector`].
#[derive(Debug, Clone)]
pub enum AnyDetector {
    /// Unsharded detector (boxed: it embeds its metric handles and dwarfs
    /// the sharded facade variant).
    Plain(Box<BurstDetector>),
    /// Hash-sharded detector.
    Sharded(ShardedDetector),
}

impl AnyDetector {
    /// The unified query surface.
    pub fn queries(&self) -> &dyn BurstQueries {
        match self {
            AnyDetector::Plain(d) => d.as_ref(),
            AnyDetector::Sharded(d) => d,
        }
    }

    /// The configuration in force (per-shard config when sharded).
    pub fn config(&self) -> &DetectorConfig {
        match self {
            AnyDetector::Plain(d) => d.config(),
            AnyDetector::Sharded(d) => d.config(),
        }
    }

    /// Shard count of the physical layout: 0 for an unsharded detector,
    /// `n ≥ 1` for a sharded one (the distinction matters — a 1-sharded
    /// detector is still a `BEDS v1` record).
    pub fn layout_shards(&self) -> u32 {
        match self {
            AnyDetector::Plain(_) => 0,
            AnyDetector::Sharded(d) => d.num_shards() as u32,
        }
    }

    /// Records one arrival, routing to the layout's ingest entry point
    /// (single-event detectors ignore `event`, which the WAL stores as 0).
    pub fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        match self {
            AnyDetector::Plain(d) => EventSink::ingest(d.as_mut(), event, ts),
            AnyDetector::Sharded(d) => d.ingest(event, ts),
        }
    }

    /// Flushes internal buffering on every layer.
    pub fn finalize(&mut self) {
        match self {
            AnyDetector::Plain(d) => d.finalize(),
            AnyDetector::Sharded(d) => d.finalize(),
        }
    }

    /// Elements ingested so far.
    pub fn arrivals(&self) -> u64 {
        match self {
            AnyDetector::Plain(d) => d.arrivals(),
            AnyDetector::Sharded(d) => d.arrivals(),
        }
    }

    /// Current summary size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            AnyDetector::Plain(d) => d.size_bytes(),
            AnyDetector::Sharded(d) => d.size_bytes(),
        }
    }

    /// The recovery watermark of the current state.
    pub fn watermark(&self) -> Watermark {
        match self {
            AnyDetector::Plain(d) => d.watermark(),
            AnyDetector::Sharded(d) => d.watermark(),
        }
    }
}

/// An [`AnyDetector`] feeds anywhere a detector does — `bed build`,
/// [`crate::wal::WalSink`] — with ingest routed per its layout and mode.
impl EventSink for AnyDetector {
    fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        AnyDetector::ingest(self, event, ts)
    }

    fn ingest_batch(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        match self {
            AnyDetector::Plain(d) => d.ingest_batch(batch),
            AnyDetector::Sharded(d) => d.ingest_batch(batch),
        }
    }

    fn finalize(&mut self) {
        AnyDetector::finalize(self)
    }

    fn arrivals(&self) -> u64 {
        AnyDetector::arrivals(self)
    }
}

/// Dispatches on the `BEDD` / `BEDS v1` magic+version prefix. A `BEDS v2`
/// snapshot envelope is *not* a detector record; decode it via
/// [`Snapshot`] instead (the error says so).
impl Codec for AnyDetector {
    fn encode(&self, w: &mut Writer) {
        match self {
            AnyDetector::Plain(d) => d.encode(w),
            AnyDetector::Sharded(d) => d.encode(w),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let head = r.peek(6, "detector record prefix")?;
        match &head[..4] {
            b"BEDD" => Ok(AnyDetector::Plain(Box::new(BurstDetector::decode(r)?))),
            b"BEDS" => {
                if u16::from_le_bytes([head[4], head[5]]) == SNAPSHOT_VERSION {
                    return Err(CodecError::Invalid {
                        context: "detector record (found a BEDS v2 snapshot envelope; \
                                  decode it as a Snapshot)",
                    });
                }
                Ok(AnyDetector::Sharded(ShardedDetector::decode(r)?))
            }
            other => Err(CodecError::BadMagic {
                expected: *b"BEDD",
                found: [other[0], other[1], other[2], other[3]],
            }),
        }
    }
}

/// Magic tag of the snapshot envelope (shared with the sharded-detector
/// record; the version field disambiguates).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"BEDS";
/// Envelope format version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// A CRC-validated, versioned checkpoint of a detector (format `BEDS` v2).
///
/// Layout: magic `BEDS` · `u16` version 2 · [`Watermark`] · `u64` payload
/// length · payload (a `BEDD`/`BEDS v1` record) · `u32` CRC-32 over every
/// preceding byte, magic included. The trailing whole-file CRC means *any*
/// bit flip — header, watermark, payload, or length field — surfaces as
/// [`CodecError::ChecksumMismatch`] (or a framing error) on load.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Stream position the state covers.
    pub watermark: Watermark,
    /// The checkpointed detector.
    pub detector: AnyDetector,
}

impl Snapshot {
    /// Captures a snapshot of `detector` (clones the state; prefer
    /// [`Checkpointer::checkpoint`] to persist without cloning).
    pub fn of(detector: &AnyDetector) -> Self {
        Snapshot { watermark: detector.watermark(), detector: detector.clone() }
    }
}

/// Encodes the envelope around an already-encoded detector payload.
fn encode_envelope(watermark: Watermark, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.magic(SNAPSHOT_MAGIC);
    w.version(SNAPSHOT_VERSION);
    watermark.encode(&mut w);
    w.len(payload.len());
    w.bytes(payload);
    let crc = crc32(w.written());
    w.u32(crc);
    w.into_bytes()
}

impl Codec for Snapshot {
    fn encode(&self, w: &mut Writer) {
        let mut payload = Writer::new();
        self.detector.encode(&mut payload);
        w.bytes(&encode_envelope(self.watermark, &payload.into_bytes()));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let start = r.pos();
        r.magic(SNAPSHOT_MAGIC)?;
        let version = r.u16("snapshot version")?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if version != SNAPSHOT_VERSION {
            // v1 with this magic is a bare sharded-detector record, not an
            // envelope; refusing here keeps the two formats unambiguous.
            return Err(CodecError::Invalid {
                context: "snapshot version (BEDS v1 is a sharded detector record)",
            });
        }
        let watermark = Watermark::decode(r)?;
        let n = r.len("snapshot payload length", 1)?;
        let payload = r.bytes(n, "snapshot payload")?;
        let body_end = r.pos();
        let stored = r.u32("snapshot crc")?;
        let computed = crc32(&r.source()[start..body_end]);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch {
                context: "snapshot envelope",
                expected: stored,
                found: computed,
            });
        }
        let detector = AnyDetector::from_bytes(payload)?;
        if detector.arrivals() != watermark.arrivals {
            return Err(CodecError::Invalid {
                context: "snapshot watermark (does not match payload arrivals)",
            });
        }
        Ok(Snapshot { watermark, detector })
    }
}

/// Errors surfaced by checkpointing and recovery.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure.
    Io(io::Error),
    /// A persisted artifact failed to decode (framing, version, CRC).
    Codec(CodecError),
    /// The artifacts are mutually inconsistent (e.g. the WAL ends before
    /// the snapshot's watermark).
    Corrupt {
        /// What is inconsistent.
        context: &'static str,
    },
    /// A WAL record failed its CRC before the tail — damage, not a torn
    /// final write.
    WalCorrupt {
        /// Zero-based record index.
        record: u64,
    },
    /// The WAL/snapshot/target configurations describe different
    /// detectors; restoring would produce a mixed-state summary.
    ConfigMismatch {
        /// `field: ours vs theirs` clauses.
        diff: String,
    },
    /// Replay was rejected by the detector (e.g. non-monotone WAL).
    Detector(BedError),
    /// Neither a snapshot nor a WAL exists to recover from.
    NoState,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "i/o failure during recovery: {e}"),
            RecoveryError::Codec(e) => write!(f, "corrupt persisted state: {e}"),
            RecoveryError::Corrupt { context } => write!(f, "inconsistent state: {context}"),
            RecoveryError::WalCorrupt { record } => {
                write!(f, "wal record {record} failed its checksum before the tail")
            }
            RecoveryError::ConfigMismatch { diff } => {
                write!(f, "configuration mismatch, refusing a mixed-state restore: {diff}")
            }
            RecoveryError::Detector(e) => write!(f, "replay rejected: {e}"),
            RecoveryError::NoState => write!(f, "nothing to recover: no snapshot and no wal"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::Codec(e) => Some(e),
            RecoveryError::Detector(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}
impl From<CodecError> for RecoveryError {
    fn from(e: CodecError) -> Self {
        RecoveryError::Codec(e)
    }
}
impl From<BedError> for RecoveryError {
    fn from(e: BedError) -> Self {
        RecoveryError::Detector(e)
    }
}

/// State that can be checkpointed without cloning: the persisted payload
/// plus the watermark it covers. Implemented by [`BurstDetector`],
/// [`ShardedDetector`], [`AnyDetector`], and [`crate::wal::WalSink`].
pub trait Checkpointable {
    /// Appends the detector record (`BEDD`/`BEDS v1`) to `w`.
    fn encode_state(&self, w: &mut Writer);

    /// The watermark of the current state.
    fn watermark(&self) -> Watermark;

    /// The summary-shaping configuration.
    fn config(&self) -> &DetectorConfig;

    /// Physical layout (0 = unsharded; see [`AnyDetector::layout_shards`]).
    fn layout_shards(&self) -> u32;
}

impl Checkpointable for BurstDetector {
    fn encode_state(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn watermark(&self) -> Watermark {
        BurstDetector::watermark(self)
    }
    fn config(&self) -> &DetectorConfig {
        BurstDetector::config(self)
    }
    fn layout_shards(&self) -> u32 {
        0
    }
}

impl Checkpointable for ShardedDetector {
    fn encode_state(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn watermark(&self) -> Watermark {
        ShardedDetector::watermark(self)
    }
    fn config(&self) -> &DetectorConfig {
        ShardedDetector::config(self)
    }
    fn layout_shards(&self) -> u32 {
        self.num_shards() as u32
    }
}

impl Checkpointable for AnyDetector {
    fn encode_state(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn watermark(&self) -> Watermark {
        AnyDetector::watermark(self)
    }
    fn config(&self) -> &DetectorConfig {
        AnyDetector::config(self)
    }
    fn layout_shards(&self) -> u32 {
        AnyDetector::layout_shards(self)
    }
}

/// Interrupt point for crash-fault injection: [`SnapshotStore::save_until`]
/// runs the *real* save sequence and stops dead at the chosen boundary,
/// leaving on disk exactly what a `SIGKILL` at that syscall would.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Killed while writing the temp file: a partial `.tmp` exists.
    MidTempWrite,
    /// Killed after the temp write, before any rename.
    AfterTempWrite,
    /// Killed between rotating `path → path.prev` and publishing the new
    /// snapshot: only `.prev` and `.tmp` exist.
    AfterRotate,
}

/// Atomic snapshot persistence with one-generation rotation.
///
/// For a base `path`, the store manages three files: `path` (current),
/// `path.prev` (previous generation, the fallback), and `path.tmp`
/// (in-flight write, never read back). See the module docs for the crash
/// matrix this layout survives.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    path: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SnapshotStore { path: path.into() }
    }

    /// The current-snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The previous-generation path.
    pub fn prev_path(&self) -> PathBuf {
        append_ext(&self.path, "prev")
    }

    /// The in-flight temp path.
    fn temp_path(&self) -> PathBuf {
        append_ext(&self.path, "tmp")
    }

    /// Persists `state` atomically: encode → write `path.tmp` → fsync →
    /// rotate `path` to `path.prev` → rename `path.tmp` to `path` → fsync
    /// the directory. Returns the envelope size in bytes.
    pub fn save(&self, state: &impl Checkpointable) -> Result<u64, RecoveryError> {
        self.save_until(state, None)
    }

    /// [`Self::save`] that aborts at `crash` (fault injection; see
    /// [`CrashPoint`]). Returns 0 when aborted early.
    #[doc(hidden)]
    pub fn save_until(
        &self,
        state: &impl Checkpointable,
        crash: Option<CrashPoint>,
    ) -> Result<u64, RecoveryError> {
        let mut payload = Writer::new();
        state.encode_state(&mut payload);
        let bytes = encode_envelope(Checkpointable::watermark(state), payload.written());

        let tmp = self.temp_path();
        if crash == Some(CrashPoint::MidTempWrite) {
            // A torn temp write: half the envelope, no fsync, no rename.
            fs::write(&tmp, &bytes[..bytes.len() / 2])?;
            return Ok(0);
        }
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if crash == Some(CrashPoint::AfterTempWrite) {
            return Ok(0);
        }
        if self.path.exists() {
            fs::rename(&self.path, self.prev_path())?;
        }
        if crash == Some(CrashPoint::AfterRotate) {
            return Ok(0);
        }
        fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        Ok(bytes.len() as u64)
    }

    /// Loads the newest intact snapshot: the current file, or — when that
    /// is missing or damaged in any way — the previous generation. The
    /// flag reports whether the fallback was taken. Fails only when no
    /// generation decodes.
    pub fn load(&self) -> Result<(Snapshot, bool), RecoveryError> {
        match load_snapshot_file(&self.path) {
            Ok(snap) => Ok((snap, false)),
            Err(primary) => match load_snapshot_file(&self.prev_path()) {
                Ok(snap) => Ok((snap, true)),
                // The current generation's failure is the actionable one.
                Err(_) => Err(primary),
            },
        }
    }

    /// Whether any snapshot generation exists on disk (the in-flight temp
    /// file does not count — it is never read back).
    fn any_generation_exists(&self) -> bool {
        self.path.exists() || self.prev_path().exists()
    }
}

fn load_snapshot_file(path: &Path) -> Result<Snapshot, RecoveryError> {
    let bytes = fs::read(path)?;
    Ok(Snapshot::from_bytes(&bytes)?)
}

/// `path` with `ext` appended to the full file name (`snap.beds` →
/// `snap.beds.prev`).
fn append_ext(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".");
    name.push(ext);
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path` so the renames themselves are
/// durable (no-op where directories cannot be opened, e.g. some CI
/// filesystems).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// When to take a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once at least this many new arrivals have accumulated
    /// since the last one (0 = every poll).
    pub every_arrivals: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        // Roughly every few hundred ms of single-core ingest; recovery
        // then replays at most this many WAL records.
        CheckpointPolicy { every_arrivals: 65_536 }
    }
}

impl Traceable for AnyDetector {
    fn set_tracer(&mut self, tracer: std::sync::Arc<bed_obs::Tracer>) {
        match self {
            AnyDetector::Plain(d) => d.set_tracer(tracer),
            AnyDetector::Sharded(d) => d.set_tracer(tracer),
        }
    }

    fn tracer(&self) -> &std::sync::Arc<bed_obs::Tracer> {
        match self {
            AnyDetector::Plain(d) => d.tracer(),
            AnyDetector::Sharded(d) => d.tracer(),
        }
    }
}

/// A [`SnapshotStore`] plus a periodic policy and metrics — the handle an
/// ingest loop polls after every batch.
#[derive(Debug)]
pub struct Checkpointer {
    store: SnapshotStore,
    policy: CheckpointPolicy,
    last_arrivals: Option<u64>,
    checkpoints: u64,
    metrics: CheckpointMetrics,
    tracer: std::sync::Arc<bed_obs::Tracer>,
}

impl Checkpointer {
    /// A checkpointer writing to `path` under `policy`.
    pub fn new(path: impl Into<PathBuf>, policy: CheckpointPolicy) -> Self {
        Checkpointer {
            store: SnapshotStore::new(path),
            policy,
            last_arrivals: None,
            checkpoints: 0,
            metrics: CheckpointMetrics::default(),
            tracer: std::sync::Arc::new(bed_obs::Tracer::disabled()),
        }
    }

    /// Installs a tracer; checkpoint and recovery spans bypass the sampler
    /// (`start_always`) because both are rare and heavyweight.
    pub fn set_tracer(&mut self, tracer: std::sync::Arc<bed_obs::Tracer>) {
        self.tracer = tracer;
    }

    /// The underlying store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Checkpoints taken through this handle.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints
    }

    /// Takes a checkpoint now, unconditionally.
    pub fn checkpoint(&mut self, state: &impl Checkpointable) -> Result<(), RecoveryError> {
        let trace = self.tracer.start_always(bed_obs::SpanName::CHECKPOINT_SAVE);
        let started = std::time::Instant::now();
        let result = self.store.save(state);
        match &result {
            Ok(bytes) => {
                self.metrics.checkpoint_ok(*bytes, started.elapsed());
                self.last_arrivals = Some(Checkpointable::watermark(state).arrivals);
                self.checkpoints += 1;
            }
            Err(_) => self.metrics.checkpoint_err(),
        }
        if let Some(trace) = trace {
            let arrivals = Checkpointable::watermark(state).arrivals;
            let bytes = *result.as_ref().unwrap_or(&0);
            trace.finish(move || format!("checkpoint arrivals={arrivals} bytes={bytes}"));
        }
        result.map(|_| ())
    }

    /// Takes a checkpoint iff the policy says it is due; returns whether
    /// one was taken. This is the hook ingest loops call per batch — cheap
    /// when not due (one counter read).
    pub fn maybe_checkpoint(&mut self, state: &impl Checkpointable) -> Result<bool, RecoveryError> {
        let arrivals = Checkpointable::watermark(state).arrivals;
        let due = match self.last_arrivals {
            None => arrivals > 0,
            Some(last) => arrivals.saturating_sub(last) >= self.policy.every_arrivals.max(1),
        };
        if !due {
            return Ok(false);
        }
        self.checkpoint(state)?;
        Ok(true)
    }

    /// Recovers through this handle's store, recording recovery metrics.
    pub fn recover(&mut self, wal: Option<&Path>) -> Result<RecoveryOutcome, RecoveryError> {
        let trace = self.tracer.start_always(bed_obs::SpanName::CHECKPOINT_RECOVER);
        let started = std::time::Instant::now();
        let result = recover(&self.store, wal);
        if let Some(trace) = trace {
            let replayed = result.as_ref().map(|o| o.replayed).unwrap_or(0);
            trace.finish(move || format!("recover replayed={replayed}"));
        }
        let outcome = result?;
        self.metrics.recovery_ok(&outcome, started.elapsed());
        self.last_arrivals = Some(outcome.detector.arrivals());
        Ok(outcome)
    }

    /// Snapshot of `checkpoint.*` / `recovery.*` metrics.
    pub fn metrics(&self) -> bed_obs::MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// What [`recover`] reconstructed and how.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The reconstructed detector (not finalized — callers that are done
    /// ingesting should call [`AnyDetector::finalize`]).
    pub detector: AnyDetector,
    /// Watermark of the snapshot the recovery started from (zero when
    /// cold-starting from a WAL alone).
    pub watermark: Watermark,
    /// WAL records replayed past the watermark.
    pub replayed: u64,
    /// Total intact WAL records seen.
    pub wal_records: u64,
    /// Whether the previous-generation snapshot had to be used.
    pub fell_back: bool,
    /// Whether the WAL ended in a torn (partially written) record, which
    /// was discarded as an unacknowledged write.
    pub torn_tail: bool,
}

/// Restores a detector from `store`'s newest intact snapshot plus the WAL
/// tail past its watermark.
///
/// With no snapshot on disk but a WAL present, cold-starts an empty
/// detector from the WAL header's configuration and replays everything.
/// With a snapshot but no WAL, restores the snapshot alone. See
/// [`RecoveryError`] for every refusal; none of them panic.
pub fn recover(
    store: &SnapshotStore,
    wal: Option<&Path>,
) -> Result<RecoveryOutcome, RecoveryError> {
    let snapshot = if store.any_generation_exists() {
        let (snap, fell_back) = store.load()?;
        Some((snap, fell_back))
    } else {
        None
    };
    let wal = match wal {
        Some(path) if path.exists() => Some(read_wal(path)?),
        _ => None,
    };
    match (snapshot, wal) {
        (None, None) => Err(RecoveryError::NoState),
        (Some((snap, fell_back)), None) => Ok(RecoveryOutcome {
            watermark: snap.watermark,
            replayed: 0,
            wal_records: 0,
            fell_back,
            torn_tail: false,
            detector: snap.detector,
        }),
        (snapshot, Some(wal)) => {
            let (mut detector, watermark, fell_back) = match snapshot {
                Some((snap, fell_back)) => {
                    let snap_layout = (snap.detector.config(), snap.detector.layout_shards());
                    check_same_layout(snap_layout, (&wal.config, wal.shards))?;
                    (snap.detector, snap.watermark, fell_back)
                }
                None => (build_empty(&wal)?, Watermark::default(), false),
            };
            let replayed = replay_tail(&mut detector, &wal, watermark.arrivals)?;
            Ok(RecoveryOutcome {
                watermark,
                replayed,
                wal_records: wal.records.len() as u64,
                fell_back,
                torn_tail: wal.torn_tail,
                detector,
            })
        }
    }
}

/// Verifies two `(config, shards)` layouts (`shards` 0 = unsharded)
/// describe the same detector, naming every differing field in order
/// `ours vs theirs`. A mismatch means the artifacts belong to different
/// builds — a snapshot and a foreign WAL, or a restore onto another
/// sketch — and combining them would mix states.
pub fn check_same_layout(
    (config, shards): (&DetectorConfig, u32),
    (theirs, their_shards): (&DetectorConfig, u32),
) -> Result<(), RecoveryError> {
    let mut diff = config.diff(theirs).unwrap_or_default();
    if shards != their_shards {
        if !diff.is_empty() {
            diff.push_str("; ");
        }
        diff.push_str(&format!("shards: {shards} vs {their_shards} (0 = unsharded)"));
    }
    if diff.is_empty() {
        Ok(())
    } else {
        Err(RecoveryError::ConfigMismatch { diff })
    }
}

/// An empty detector matching the WAL header (cold start).
fn build_empty(wal: &WalContents) -> Result<AnyDetector, RecoveryError> {
    Ok(if wal.shards == 0 {
        AnyDetector::Plain(Box::new(BurstDetector::from_config(wal.config)?))
    } else {
        AnyDetector::Sharded(ShardedDetector::from_config(wal.config, wal.shards as usize)?)
    })
}

/// Replays every WAL record past `from` into `detector`.
fn replay_tail(
    detector: &mut AnyDetector,
    wal: &WalContents,
    from: u64,
) -> Result<u64, RecoveryError> {
    let total = wal.records.len() as u64;
    if total < from {
        // The snapshot claims coverage the log does not have — one of the
        // two is not from this stream (or the log was truncated *before*
        // the watermark, which rotation never does).
        return Err(RecoveryError::Corrupt { context: "wal ends before the snapshot watermark" });
    }
    for &(event, ts) in &wal.records[from as usize..] {
        detector.ingest(event, ts)?;
    }
    Ok(total - from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbeVariant;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bed-checkpoint-unit").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_detector(n: u64) -> BurstDetector {
        let mut det = BurstDetector::builder()
            .universe(8)
            .variant(PbeVariant::pbe2(1.0))
            .seed(7)
            .build()
            .unwrap();
        for t in 0..n {
            det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
        }
        det
    }

    #[test]
    fn snapshot_roundtrip_all_layouts() {
        let plain = AnyDetector::Plain(Box::new(small_detector(100)));
        let sharded = {
            let mut d = BurstDetector::builder().universe(8).seed(7).shards(3).build().unwrap();
            d.ingest_batch(&[(EventId(1), Timestamp(0)), (EventId(2), Timestamp(5))]).unwrap();
            AnyDetector::Sharded(d)
        };
        for det in [plain, sharded] {
            let snap = Snapshot::of(&det);
            let bytes = snap.to_bytes();
            let back = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(back.watermark, det.watermark());
            assert_eq!(back.detector.to_bytes(), det.to_bytes());
        }
    }

    #[test]
    fn envelope_rejects_damage_everywhere() {
        let det = AnyDetector::Plain(Box::new(small_detector(200)));
        let bytes = Snapshot::of(&det).to_bytes();
        // every truncation fails
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // every single-byte flip fails (whole-file CRC)
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(Snapshot::from_bytes(&bad).is_err(), "flip at {pos}");
        }
        // version from the future
        let mut bad = bytes.clone();
        bad[4] = 9;
        bad[5] = 0;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(CodecError::UnsupportedVersion { found: 9, .. })
        ));
    }

    #[test]
    fn store_rotates_and_falls_back() {
        let dir = tmp_dir("rotate");
        let store = SnapshotStore::new(dir.join("snap.beds"));
        let a = AnyDetector::Plain(Box::new(small_detector(50)));
        let b = AnyDetector::Plain(Box::new(small_detector(80)));
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        assert!(store.prev_path().exists());
        let (snap, fell_back) = store.load().unwrap();
        assert!(!fell_back);
        assert_eq!(snap.watermark.arrivals, 80);
        // damage the current generation → previous one answers
        let mut cur = fs::read(store.path()).unwrap();
        let mid = cur.len() / 2;
        cur[mid] ^= 0xFF;
        fs::write(store.path(), &cur).unwrap();
        let (snap, fell_back) = store.load().unwrap();
        assert!(fell_back);
        assert_eq!(snap.watermark.arrivals, 50);
    }

    #[test]
    fn policy_spacing() {
        let dir = tmp_dir("policy");
        let mut ckpt =
            Checkpointer::new(dir.join("snap.beds"), CheckpointPolicy { every_arrivals: 100 });
        let mut det = small_detector(0);
        assert!(!ckpt.maybe_checkpoint(&det).unwrap(), "nothing ingested yet");
        for t in 0..99u64 {
            det.ingest(EventId(0), Timestamp(t)).unwrap();
        }
        assert!(ckpt.maybe_checkpoint(&det).unwrap(), "first checkpoint captures any progress");
        assert!(!ckpt.maybe_checkpoint(&det).unwrap(), "not due again yet");
        for t in 99..200u64 {
            det.ingest(EventId(0), Timestamp(t)).unwrap();
        }
        assert!(ckpt.maybe_checkpoint(&det).unwrap());
        assert_eq!(ckpt.checkpoints_taken(), 2);
        let m = ckpt.metrics();
        assert_eq!(m.counter("checkpoint.count"), Some(2));
        assert!(m.counter("checkpoint.bytes").unwrap() > 0);
    }
}
