//! Append-only write-ahead log of arrivals (format `BEDW` v1).
//!
//! The WAL makes the gap between two checkpoints durable: every arrival is
//! appended (and synced) *before* it reaches the detector, so after a
//! crash the log is a superset of any snapshot's state and recovery is
//! "load snapshot, replay the tail" (see [`crate::checkpoint::recover`]).
//! [`WalSink`] checks each batch against the detector's admission rule
//! first, so the log never holds an arrival the detector refused — one
//! would make every later replay fail.
//!
//! On-disk layout:
//!
//! ```text
//! header  := "BEDW" · u16 version=1 · DetectorConfig · u32 shards · u32 crc
//! record  := u32 event · u64 ts · u32 crc          (fixed 16 bytes)
//! ```
//!
//! The header CRC covers every preceding header byte. Each record's CRC
//! covers its zero-based sequence number concatenated with the event and
//! timestamp bytes — binding records to their *position*, so a duplicated,
//! reordered, or relocated record fails validation, not just a damaged
//! one. `shards` records the physical layout the log feeds (0 =
//! unsharded), letting recovery rebuild the right detector from the log
//! alone and refuse a replay into a mismatched one.
//!
//! Because records are fixed-size and appended tail-only, a crash can
//! damage at most the end of the file. [`read_wal`] therefore treats a
//! trailing partial record — or a CRC failure on the *final* complete
//! record — as a torn tail: the write was never acknowledged, dropping it
//! is correct. A CRC failure anywhere earlier is real corruption and
//! surfaces as [`RecoveryError::WalCorrupt`].

use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use bed_stream::codec::{Reader, Writer};
use bed_stream::{crc32, Codec, CodecError, EventId, Timestamp};

use crate::checkpoint::{Checkpointable, RecoveryError, Watermark};
use crate::config::DetectorConfig;
use crate::error::BedError;
use crate::metrics::WalMetrics;
use crate::observe::Traceable;
use crate::pipeline::{check_batch, EventSink};

/// Magic tag of the WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"BEDW";
/// WAL format version.
pub const WAL_VERSION: u16 = 1;
/// On-disk size of one arrival record.
pub const WAL_RECORD_BYTES: usize = 16;

/// CRC input of record `seq`: position, event, timestamp.
fn record_crc(seq: u64, event: EventId, ts: Timestamp) -> u32 {
    let mut buf = [0u8; 20];
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..12].copy_from_slice(&event.0.to_le_bytes());
    buf[12..].copy_from_slice(&ts.ticks().to_le_bytes());
    crc32(&buf)
}

fn encode_header(config: &DetectorConfig, shards: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.magic(WAL_MAGIC);
    w.version(WAL_VERSION);
    config.encode(&mut w);
    w.u32(shards);
    let crc = crc32(w.written());
    w.u32(crc);
    w.into_bytes()
}

/// Appends arrivals to a `BEDW` log with explicit durability points.
///
/// [`Self::append`] only buffers; [`Self::sync`] flushes and fsyncs. The
/// WAL-before-ingest contract is: append the batch, sync, *then* ingest it
/// — which is exactly what [`WalSink`] does.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<fs::File>,
    path: PathBuf,
    seq: u64,
    pending: bool,
    metrics: WalMetrics,
}

impl WalWriter {
    /// Creates (truncating) a WAL at `path` for a detector of `config` and
    /// `shards` physical layout (0 = unsharded); the header is synced
    /// before returning.
    pub fn create(
        path: impl Into<PathBuf>,
        config: &DetectorConfig,
        shards: u32,
    ) -> Result<Self, RecoveryError> {
        let path = path.into();
        let file = fs::File::create(&path)?;
        let mut file = BufWriter::new(file);
        file.write_all(&encode_header(config, shards))?;
        file.flush()?;
        file.get_ref().sync_all()?;
        Ok(WalWriter { file, path, seq: 0, pending: false, metrics: WalMetrics::default() })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far (acknowledged or not).
    pub fn appended(&self) -> u64 {
        self.seq
    }

    /// Buffers one arrival record. Not durable until [`Self::sync`].
    pub fn append(&mut self, event: EventId, ts: Timestamp) -> Result<(), RecoveryError> {
        let mut rec = [0u8; WAL_RECORD_BYTES];
        rec[..4].copy_from_slice(&event.0.to_le_bytes());
        rec[4..12].copy_from_slice(&ts.ticks().to_le_bytes());
        rec[12..].copy_from_slice(&record_crc(self.seq, event, ts).to_le_bytes());
        self.file.write_all(&rec)?;
        self.seq += 1;
        self.pending = true;
        self.metrics.appended(1, WAL_RECORD_BYTES as u64);
        Ok(())
    }

    /// Flushes buffered records and fsyncs the file. No-op when nothing is
    /// pending.
    pub fn sync(&mut self) -> Result<(), RecoveryError> {
        if !self.pending {
            return Ok(());
        }
        let started = self.metrics.sync_begin();
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        self.pending = false;
        self.metrics.sync_end(started);
        Ok(())
    }

    /// Snapshot of the `wal.*` metrics.
    pub fn metrics(&self) -> bed_obs::MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// Everything an intact (or cleanly torn) WAL contains.
#[derive(Debug, Clone)]
pub struct WalContents {
    /// Detector configuration from the header.
    pub config: DetectorConfig,
    /// Physical layout from the header (0 = unsharded).
    pub shards: u32,
    /// The validated arrival records, in append order.
    pub records: Vec<(EventId, Timestamp)>,
    /// Whether the file ended in a torn (unacknowledged) write that was
    /// discarded.
    pub torn_tail: bool,
}

/// Reads and validates a `BEDW` log. See the module docs for the
/// torn-tail-vs-corruption distinction.
pub fn read_wal(path: impl AsRef<Path>) -> Result<WalContents, RecoveryError> {
    let bytes = fs::read(path.as_ref())?;
    let mut r = Reader::new(&bytes);
    r.magic(WAL_MAGIC)?;
    r.version(WAL_VERSION)?;
    let config = DetectorConfig::decode(&mut r)?;
    let shards = r.u32("wal shards")?;
    let header_end = r.pos();
    let stored = r.u32("wal header crc")?;
    let computed = crc32(&bytes[..header_end]);
    if stored != computed {
        return Err(RecoveryError::Codec(CodecError::ChecksumMismatch {
            context: "wal header",
            expected: stored,
            found: computed,
        }));
    }

    let body = &bytes[r.pos()..];
    let whole = body.len() / WAL_RECORD_BYTES;
    let mut torn_tail = body.len() % WAL_RECORD_BYTES != 0;
    let mut records = Vec::with_capacity(whole);
    for i in 0..whole {
        let rec = &body[i * WAL_RECORD_BYTES..(i + 1) * WAL_RECORD_BYTES];
        let event = EventId(u32::from_le_bytes(rec[..4].try_into().expect("4 bytes")));
        let ts = Timestamp(u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes")));
        let stored = u32::from_le_bytes(rec[12..].try_into().expect("4 bytes"));
        if stored != record_crc(i as u64, event, ts) {
            if i + 1 == whole {
                // Damage confined to the very end of the file: a torn
                // final write, dropped as unacknowledged.
                torn_tail = true;
                break;
            }
            return Err(RecoveryError::WalCorrupt { record: i as u64 });
        }
        records.push((event, ts));
    }
    Ok(WalContents { config, shards, records, torn_tail })
}

/// An [`EventSink`] that logs every arrival before handing it to the
/// wrapped detector — the WAL-before-ingest ordering invariant, packaged.
///
/// Works with any sink that is also [`Checkpointable`] (both detector
/// layouts and [`crate::checkpoint::AnyDetector`]), so an ingest loop can
/// be made durable by wrapping its detector:
///
/// ```no_run
/// use bed_core::wal::WalSink;
/// use bed_core::BurstDetector;
/// use bed_core::pipeline::EventSink;
/// use bed_stream::{EventId, Timestamp};
///
/// let det = BurstDetector::builder().universe(16).build().unwrap();
/// let mut durable = WalSink::create("arrivals.wal", det).unwrap();
/// durable.ingest(EventId(3), Timestamp(7)).unwrap(); // logged, synced, then ingested
/// ```
#[derive(Debug)]
pub struct WalSink<D> {
    wal: WalWriter,
    inner: D,
    tracer: std::sync::Arc<bed_obs::Tracer>,
}

impl<D: EventSink + Checkpointable> WalSink<D> {
    /// Creates the WAL at `path` (header from the detector's own config
    /// and layout) and wraps `inner`.
    pub fn create(path: impl Into<PathBuf>, inner: D) -> Result<Self, RecoveryError> {
        let wal = WalWriter::create(path, Checkpointable::config(&inner), inner.layout_shards())?;
        Ok(WalSink { wal, inner, tracer: std::sync::Arc::new(bed_obs::Tracer::disabled()) })
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps, returning the detector (the WAL file stays on disk).
    pub fn into_inner(mut self) -> Result<D, RecoveryError> {
        self.wal.sync()?;
        Ok(self.inner)
    }

    /// The underlying log writer.
    pub fn wal(&self) -> &WalWriter {
        &self.wal
    }

    /// Refuses `batch` unless the wrapped detector would accept all of it,
    /// then logs and syncs it. Nothing reaches the log on refusal.
    fn log_and_sync(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        let last = Checkpointable::watermark(&self.inner).last_ts;
        check_batch(Checkpointable::config(&self.inner).universe, last, batch)?;
        let trace = self.tracer.start_sampled(bed_obs::SpanName::WAL_APPEND);
        let log = |e: RecoveryError| BedError::Wal(e.to_string());
        let result = (|| {
            for &(event, ts) in batch {
                self.wal.append(event, ts).map_err(log)?;
            }
            self.wal.sync().map_err(log)
        })();
        if let Some(trace) = trace {
            let n = batch.len();
            trace.finish(|| format!("wal records={n}"));
        }
        result
    }
}

impl<D: EventSink + Checkpointable + Traceable> Traceable for WalSink<D> {
    /// Installs the tracer on the append/sync path **and** the wrapped
    /// detector.
    fn set_tracer(&mut self, tracer: std::sync::Arc<bed_obs::Tracer>) {
        self.tracer = std::sync::Arc::clone(&tracer);
        self.inner.set_tracer(tracer);
    }

    fn tracer(&self) -> &std::sync::Arc<bed_obs::Tracer> {
        &self.tracer
    }
}

impl<D: EventSink + Checkpointable> EventSink for WalSink<D> {
    fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), BedError> {
        self.log_and_sync(&[(event, ts)])?;
        self.inner.ingest(event, ts)
    }

    fn ingest_batch(&mut self, batch: &[(EventId, Timestamp)]) -> Result<(), BedError> {
        self.log_and_sync(batch)?;
        self.inner.ingest_batch(batch)
    }

    fn finalize(&mut self) {
        let _ = self.wal.sync();
        self.inner.finalize();
    }

    fn arrivals(&self) -> u64 {
        self.inner.arrivals()
    }
}

impl<D: EventSink + Checkpointable> Checkpointable for WalSink<D> {
    fn encode_state(&self, w: &mut Writer) {
        self.inner.encode_state(w);
    }
    fn watermark(&self) -> Watermark {
        Checkpointable::watermark(&self.inner)
    }
    fn config(&self) -> &DetectorConfig {
        Checkpointable::config(&self.inner)
    }
    fn layout_shards(&self) -> u32 {
        self.inner.layout_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bed-wal-unit");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_sample(path: &Path, n: u64) -> DetectorConfig {
        let config = DetectorConfig::default();
        let mut w = WalWriter::create(path, &config, 0).unwrap();
        for i in 0..n {
            w.append(EventId(i as u32), Timestamp(i * 2)).unwrap();
        }
        w.sync().unwrap();
        config
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip.wal");
        write_sample(&path, 10);
        let wal = read_wal(&path).unwrap();
        assert_eq!(wal.shards, 0);
        assert_eq!(wal.records.len(), 10);
        assert!(!wal.torn_tail);
        assert_eq!(wal.records[3], (EventId(3), Timestamp(6)));
        assert_eq!(wal.config, DetectorConfig::default());
    }

    #[test]
    fn torn_partial_tail_is_dropped() {
        let path = tmp("torn.wal");
        write_sample(&path, 5);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7); // mid-record
        fs::write(&path, &bytes).unwrap();
        let wal = read_wal(&path).unwrap();
        assert_eq!(wal.records.len(), 4);
        assert!(wal.torn_tail);
    }

    #[test]
    fn damaged_final_record_is_a_torn_tail() {
        let path = tmp("torn-final.wal");
        write_sample(&path, 5);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF; // inside the last record's crc
        fs::write(&path, &bytes).unwrap();
        let wal = read_wal(&path).unwrap();
        assert_eq!(wal.records.len(), 4);
        assert!(wal.torn_tail);
    }

    #[test]
    fn damaged_middle_record_is_corruption() {
        let path = tmp("corrupt.wal");
        write_sample(&path, 5);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2 * WAL_RECORD_BYTES + 1] ^= 0x10; // record 3 of 0..=4
        fs::write(&path, &bytes).unwrap();
        match read_wal(&path) {
            Err(RecoveryError::WalCorrupt { record: 3 }) => {}
            other => panic!("expected WalCorrupt at record 3, got {other:?}"),
        }
    }

    #[test]
    fn damaged_header_is_detected() {
        let path = tmp("header.wal");
        write_sample(&path, 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0x01; // inside the config bytes
        fs::write(&path, &bytes).unwrap();
        assert!(read_wal(&path).is_err());
    }

    #[test]
    fn records_are_position_bound() {
        let path = tmp("swap.wal");
        write_sample(&path, 4);
        let mut bytes = fs::read(&path).unwrap();
        let body_start = bytes.len() - 4 * WAL_RECORD_BYTES;
        // swap records 0 and 1 — both individually intact
        let (a, b) = (body_start, body_start + WAL_RECORD_BYTES);
        for i in 0..WAL_RECORD_BYTES {
            bytes.swap(a + i, b + i);
        }
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_wal(&path), Err(RecoveryError::WalCorrupt { record: 0 })));
    }
}
