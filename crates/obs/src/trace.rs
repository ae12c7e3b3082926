//! Structured tracing: spans with monotonic timing, a lock-free bounded
//! ring buffer, a JSON-lines event encoder, and a bounded slow-query log.
//!
//! The design is allocation-free on both the untraced path (one relaxed
//! atomic read) and the traced hot path (span names come from a closed
//! static table, child spans live in a fixed inline array, and ring slots
//! are preallocated `AtomicU64` words). Strings are only materialised when
//! a root span crosses the slow-query threshold — a cold path by
//! definition — or when a caller explicitly renders events to JSON.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::snapshot::MetricsSnapshot;
use crate::MetricValue;

/// Closed table of span names. Keeping names as indices into a static
/// table means the ring buffer never stores or clones strings.
static SPAN_NAMES: [&str; 13] = [
    "query.point",
    "query.bursty_times",
    "query.bursty_events",
    "query.series",
    "query.top_k",
    "stage.cell_probe",
    "stage.median_combine",
    "stage.hierarchy_prune",
    "wal.append",
    "checkpoint.save",
    "checkpoint.recover",
    "epoch.publish",
    "span.unknown",
];

/// A span name drawn from the closed static name table.
///
/// Only the predefined constants can be constructed; this keeps the
/// lock-free [`TraceBuffer`] free of string storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(u16);

impl SpanName {
    /// Root span for a point (`f_x(t, tau)`) query.
    pub const QUERY_POINT: SpanName = SpanName(0);
    /// Root span for a bursty-time query.
    pub const QUERY_BURSTY_TIMES: SpanName = SpanName(1);
    /// Root span for a bursty-event query.
    pub const QUERY_BURSTY_EVENTS: SpanName = SpanName(2);
    /// Root span for a burstiness-series query.
    pub const QUERY_SERIES: SpanName = SpanName(3);
    /// Root span for a top-k query.
    pub const QUERY_TOP_K: SpanName = SpanName(4);
    /// Child stage: probing sketch cells / resolving Eq. 2 offsets.
    pub const STAGE_CELL_PROBE: SpanName = SpanName(5);
    /// Child stage: cross-row median combination.
    pub const STAGE_MEDIAN_COMBINE: SpanName = SpanName(6);
    /// Child stage: dyadic pruned search over the hierarchy.
    pub const STAGE_HIERARCHY_PRUNE: SpanName = SpanName(7);
    /// Root span for a WAL append + fsync.
    pub const WAL_APPEND: SpanName = SpanName(8);
    /// Root span for a checkpoint save.
    pub const CHECKPOINT_SAVE: SpanName = SpanName(9);
    /// Root span for snapshot + WAL recovery.
    pub const CHECKPOINT_RECOVER: SpanName = SpanName(10);
    /// Root span for publishing one epoch snapshot to concurrent readers.
    pub const EPOCH_PUBLISH: SpanName = SpanName(11);

    /// The string form of this span name.
    pub fn as_str(self) -> &'static str {
        SPAN_NAMES.get(self.0 as usize).copied().unwrap_or("span.unknown")
    }

    fn from_index(ix: u64) -> SpanName {
        if (ix as usize) < SPAN_NAMES.len() {
            SpanName(ix as u16)
        } else {
            SpanName((SPAN_NAMES.len() - 1) as u16)
        }
    }
}

/// Identifier shared by every span recorded under one root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// One finished span as read back out of the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name from the closed table.
    pub name: &'static str,
    /// Trace id shared with the root and all siblings.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 for root spans.
    pub parent_id: u64,
    /// Start offset in nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl TraceEvent {
    /// Encodes the event as a single JSON line (no trailing newline).
    ///
    /// Field order is fixed so output is byte-stable for golden tests.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\
             \"parent_id\":\"{:016x}\",\"start_ns\":{},\"dur_ns\":{}}}",
            self.name, self.trace_id, self.span_id, self.parent_id, self.start_ns, self.dur_ns
        );
        s
    }
}

/// One ring slot: a sequence word plus six payload words.
///
/// The sequence word implements a per-slot seqlock: even = stable,
/// odd = write in progress. Writers claim a slot with a compare-exchange
/// (failed claims drop the event rather than block), so the buffer is
/// lock-free for any number of concurrent writers and readers.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    name: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            name: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// Lock-free bounded ring of finished spans.
///
/// Writers advance a shared cursor with a relaxed `fetch_add` and publish
/// into the addressed slot under its seqlock; readers snapshot slots and
/// discard any observed mid-write. When the ring wraps, the oldest spans
/// are overwritten — the buffer is a diagnostic window, not a log.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// Creates a ring with room for `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let n = capacity.max(1);
        TraceBuffer {
            slots: (0..n).map(|_| Slot::new()).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of span slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Spans discarded because their slot was mid-write (contended wrap).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn push(&self, ev: &TraceEvent, name: SpanName) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[at];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            // Another writer wrapped onto this slot and is mid-publish;
            // dropping is cheaper and safer than spinning.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot.seq.compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.name.store(name.0 as u64, Ordering::Relaxed);
        slot.trace_id.store(ev.trace_id, Ordering::Relaxed);
        slot.span_id.store(ev.span_id, Ordering::Relaxed);
        slot.parent_id.store(ev.parent_id, Ordering::Relaxed);
        slot.start_ns.store(ev.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(ev.dur_ns, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Snapshots every stable slot, oldest first by start offset.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue; // never written, or write in flight
            }
            let ev = TraceEvent {
                name: SpanName::from_index(slot.name.load(Ordering::Relaxed)).as_str(),
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_id: slot.parent_id.load(Ordering::Relaxed),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // torn read: slot was reused while we copied it
            }
            out.push(ev);
        }
        out.sort_by_key(|e| (e.start_ns, e.span_id));
        out
    }
}

/// One captured slow query: the rendered request parameters plus the full
/// span tree (root last, children in recording order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Request parameters, rendered by the caller-supplied closure.
    pub params: String,
    /// Total root-span duration in nanoseconds.
    pub total_ns: u64,
    /// Child spans followed by the root span.
    pub spans: Vec<TraceEvent>,
}

impl SlowQuery {
    /// Encodes the capture as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"params\":");
        crate::snapshot::push_json_string(&mut s, &self.params);
        let _ = write!(s, ",\"total_ns\":{},\"spans\":[", self.total_ns);
        for (i, ev) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&ev.to_json_line());
        }
        s.push_str("]}");
        s
    }
}

/// Tracer configuration. All knobs are fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracerConfig {
    /// Sample 1 in `sample_every` root spans; 0 disables tracing entirely
    /// (the untraced fast path is a single relaxed load), 1 traces all.
    pub sample_every: u64,
    /// Root spans at least this long are captured into the slow-query
    /// log. 0 captures every traced query.
    pub slow_threshold_ns: u64,
    /// Ring-buffer capacity in spans.
    pub buffer_capacity: usize,
    /// Maximum retained slow queries (oldest evicted first).
    pub slow_capacity: usize,
    /// Dump retained slow queries to stderr when the tracer drops.
    pub dump_slow_on_drop: bool,
}

impl Default for TracerConfig {
    fn default() -> TracerConfig {
        TracerConfig {
            sample_every: 0,
            slow_threshold_ns: 10_000_000,
            buffer_capacity: 4096,
            slow_capacity: 128,
            dump_slow_on_drop: false,
        }
    }
}

/// Sampling tracer with a lock-free span ring and a bounded slow-query log.
///
/// Cost model: when disabled (`sample_every == 0`) starting a span is one
/// relaxed atomic load and no allocation. When sampling skips a request it
/// is one relaxed `fetch_add`. A traced request allocates nothing until it
/// finishes; only a slow capture materialises strings.
#[derive(Debug)]
pub struct Tracer {
    sample_every: u64,
    slow_threshold_ns: u64,
    dump_slow_on_drop: bool,
    epoch: Instant,
    ticket: AtomicU64,
    next_id: AtomicU64,
    sampled: AtomicU64,
    buffer: TraceBuffer,
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_capacity: usize,
    slow_count: AtomicU64,
}

/// `splitmix64` finaliser: spreads a sequential counter into ids that look
/// random but stay deterministic per process.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Tracer {
    /// Builds a tracer from `config`.
    pub fn new(config: TracerConfig) -> Tracer {
        Tracer {
            sample_every: config.sample_every,
            slow_threshold_ns: config.slow_threshold_ns,
            dump_slow_on_drop: config.dump_slow_on_drop,
            epoch: Instant::now(),
            ticket: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            buffer: TraceBuffer::new(config.buffer_capacity),
            slow: Mutex::new(VecDeque::new()),
            slow_capacity: config.slow_capacity.max(1),
            slow_count: AtomicU64::new(0),
        }
    }

    /// A tracer that never samples; the default installed everywhere.
    pub fn disabled() -> Tracer {
        Tracer::new(TracerConfig {
            sample_every: 0,
            buffer_capacity: 1,
            slow_capacity: 1,
            ..TracerConfig::default()
        })
    }

    /// Whether any root span can ever start.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// The configured 1-in-N sampling period (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The slow-query capture threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    fn fresh_id(&self) -> u64 {
        // `| 1` keeps ids nonzero so 0 can mean "no parent".
        splitmix64(self.next_id.fetch_add(1, Ordering::Relaxed)) | 1
    }

    /// Mints a fresh [`TraceId`] without starting a span. Lets callers
    /// stamp a response with a joinable id even when the request itself
    /// was not sampled into the ring.
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.fresh_id())
    }

    fn start(&self, name: SpanName, root: Option<TraceId>) -> ActiveTrace<'_> {
        self.sampled.fetch_add(1, Ordering::Relaxed);
        let trace_id = match root {
            Some(TraceId(id)) if id != 0 => id,
            _ => self.fresh_id(),
        };
        ActiveTrace {
            tracer: self,
            name,
            trace_id,
            span_id: self.fresh_id(),
            start: Instant::now(),
            children: [None; MAX_CHILDREN],
            n_children: 0,
        }
    }

    /// Starts a root span subject to 1-in-N sampling. Returns `None` on
    /// the untraced path without allocating.
    pub fn start_sampled(&self, name: SpanName) -> Option<ActiveTrace<'_>> {
        self.start_sampled_with(name, None)
    }

    /// Like [`Tracer::start_sampled`], but adopts `root` as the trace id
    /// when supplied (and nonzero) instead of minting a fresh one. This is
    /// how a caller-assigned request id propagates into recorded spans.
    pub fn start_sampled_with(
        &self,
        name: SpanName,
        root: Option<TraceId>,
    ) -> Option<ActiveTrace<'_>> {
        if self.sample_every == 0 {
            return None;
        }
        if self.sample_every > 1
            && !self.ticket.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.sample_every)
        {
            return None;
        }
        Some(self.start(name, root))
    }

    /// Starts a root span whenever tracing is enabled, bypassing the
    /// sampler. For rare, heavyweight operations (checkpoint, recovery).
    pub fn start_always(&self, name: SpanName) -> Option<ActiveTrace<'_>> {
        self.start_always_with(name, None)
    }

    /// Like [`Tracer::start_always`], but adopts `root` as the trace id
    /// when supplied (and nonzero).
    pub fn start_always_with(
        &self,
        name: SpanName,
        root: Option<TraceId>,
    ) -> Option<ActiveTrace<'_>> {
        if self.sample_every == 0 {
            return None;
        }
        Some(self.start(name, root))
    }

    /// Snapshot of the span ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buffer.events()
    }

    /// Assembles the spans recorded under `id` into a nested JSON tree.
    /// Returns `None` when the ring holds no span for that trace.
    pub fn trace_tree_json(&self, id: TraceId) -> Option<String> {
        assemble_trace_tree(&self.events(), id)
    }

    /// The span ring rendered as JSON lines (one event per line).
    pub fn events_json_lines(&self) -> String {
        let mut s = String::new();
        for ev in self.events() {
            s.push_str(&ev.to_json_line());
            s.push('\n');
        }
        s
    }

    /// Clones the retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().map(|q| q.iter().cloned().collect()).unwrap_or_default()
    }

    /// The slow-query log rendered as one JSON array (with newline).
    pub fn slow_json(&self) -> String {
        let mut s = String::from("[");
        for (i, q) in self.slow_queries().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&q.to_json());
        }
        s.push_str("]\n");
        s
    }

    /// Tracer health rendered as metrics, mergeable into a
    /// [`MetricsSnapshot`] for the `/metrics` endpoint: sampled/recorded/
    /// dropped span counters, sampler tickets, ring laps, and slow-log
    /// occupancy.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let recorded = self.buffer.recorded();
        let capacity = self.buffer.capacity() as u64;
        let occupancy = self.slow.lock().map(|q| q.len()).unwrap_or(0);
        MetricsSnapshot::from_entries(vec![
            (
                "trace.sampled".to_string(),
                MetricValue::Counter(self.sampled.load(Ordering::Relaxed)),
            ),
            ("trace.spans".to_string(), MetricValue::Counter(recorded)),
            ("trace.dropped".to_string(), MetricValue::Counter(self.buffer.dropped())),
            (
                "trace.sampler.tickets".to_string(),
                MetricValue::Counter(self.ticket.load(Ordering::Relaxed)),
            ),
            (
                "trace.slow.count".to_string(),
                MetricValue::Counter(self.slow_count.load(Ordering::Relaxed)),
            ),
            ("trace.sample_every".to_string(), MetricValue::Gauge(self.sample_every as f64)),
            ("trace.buffer.capacity".to_string(), MetricValue::Gauge(capacity as f64)),
            (
                "trace.buffer.laps".to_string(),
                MetricValue::Gauge((recorded / capacity.max(1)) as f64),
            ),
            ("trace.slow.occupancy".to_string(), MetricValue::Gauge(occupancy as f64)),
        ])
    }

    fn capture_slow(&self, params: String, total_ns: u64, spans: Vec<TraceEvent>) {
        self.slow_count.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut q) = self.slow.lock() {
            if q.len() == self.slow_capacity {
                q.pop_front();
            }
            q.push_back(SlowQuery { params, total_ns, spans });
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if !self.dump_slow_on_drop {
            return;
        }
        for q in self.slow_queries() {
            eprintln!("bed-obs slow-query {}", q.to_json());
        }
    }
}

fn write_span_node(out: &mut String, events: &[TraceEvent], node: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"span_id\":\"{:016x}\",\"start_ns\":{},\"dur_ns\":{},\"children\":[",
        node.name, node.span_id, node.start_ns, node.dur_ns
    );
    let mut first = true;
    for ev in events {
        if ev.parent_id == node.span_id && ev.span_id != node.span_id {
            if !first {
                out.push(',');
            }
            first = false;
            write_span_node(out, events, ev);
        }
    }
    out.push_str("]}");
}

/// Assembles every span in `events` whose trace id equals `id` into one
/// nested JSON tree: `{"trace_id":"...","roots":[...],"orphans":[...]}`.
///
/// Roots are spans with `parent_id == 0`; a span whose parent was already
/// overwritten in the ring surfaces under `"orphans"` as a flat event so
/// nothing silently disappears. Events are expected in the order
/// [`TraceBuffer::events`] yields them (sorted by start then span id), so
/// output is deterministic for golden tests. Returns `None` when no span
/// carries `id`.
pub fn assemble_trace_tree(events: &[TraceEvent], id: TraceId) -> Option<String> {
    let mine: Vec<TraceEvent> = events.iter().filter(|e| e.trace_id == id.0).cloned().collect();
    if mine.is_empty() {
        return None;
    }
    let present: Vec<u64> = mine.iter().map(|e| e.span_id).collect();
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"trace_id\":\"{:016x}\",\"roots\":[", id.0);
    let mut first = true;
    for ev in &mine {
        if ev.parent_id == 0 {
            if !first {
                out.push(',');
            }
            first = false;
            write_span_node(&mut out, &mine, ev);
        }
    }
    out.push_str("],\"orphans\":[");
    let mut first = true;
    for ev in &mine {
        if ev.parent_id != 0 && !present.contains(&ev.parent_id) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev.to_json_line());
        }
    }
    out.push_str("]}");
    Some(out)
}

/// Maximum child spans recorded under one root. Extra children are
/// counted into the last slot's sibling and otherwise dropped — the
/// request path records at most four stages today.
pub const MAX_CHILDREN: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Child {
    name: SpanName,
    start_ns: u64,
    dur_ns: u64,
}

/// A live root span. Children accumulate in a fixed inline array (no
/// heap allocation); everything is published to the ring on
/// [`ActiveTrace::finish`].
#[derive(Debug)]
pub struct ActiveTrace<'t> {
    tracer: &'t Tracer,
    name: SpanName,
    trace_id: u64,
    span_id: u64,
    start: Instant,
    children: [Option<Child>; MAX_CHILDREN],
    n_children: usize,
}

impl<'t> ActiveTrace<'t> {
    /// The id shared by this root and all of its children.
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace_id)
    }

    /// Records a child span that ran from `started` until now.
    pub fn child(&mut self, name: SpanName, started: Instant) {
        let dur_ns = started.elapsed().as_nanos() as u64;
        let start_ns = started
            .checked_duration_since(self.tracer.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        self.push_child(Child { name, start_ns, dur_ns });
    }

    /// Records a duration-only child span (e.g. a stage timing harvested
    /// from `QueryScratch`). Its start is pinned to the root's start, so
    /// durations are exact but stage ordering is not encoded.
    pub fn child_ns(&mut self, name: SpanName, dur_ns: u64) {
        let start_ns = self
            .start
            .checked_duration_since(self.tracer.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        self.push_child(Child { name, start_ns, dur_ns });
    }

    fn push_child(&mut self, child: Child) {
        if self.n_children < MAX_CHILDREN {
            self.children[self.n_children] = Some(child);
            self.n_children += 1;
        }
    }

    /// Finishes the root span: publishes children then the root to the
    /// ring, and — only if the root crossed the slow threshold — renders
    /// `params` and captures the whole tree into the slow-query log.
    pub fn finish(self, params: impl FnOnce() -> String) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let start_ns = self
            .start
            .checked_duration_since(self.tracer.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut spans: [Option<TraceEvent>; MAX_CHILDREN + 1] = Default::default();
        let mut n = 0;
        for child in self.children.iter().take(self.n_children).flatten() {
            let ev = TraceEvent {
                name: child.name.as_str(),
                trace_id: self.trace_id,
                span_id: self.tracer.fresh_id(),
                parent_id: self.span_id,
                start_ns: child.start_ns,
                dur_ns: child.dur_ns,
            };
            self.tracer.buffer.push(&ev, child.name);
            spans[n] = Some(ev);
            n += 1;
        }
        let root = TraceEvent {
            name: self.name.as_str(),
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: 0,
            start_ns,
            dur_ns,
        };
        self.tracer.buffer.push(&root, self.name);
        spans[n] = Some(root);
        n += 1;
        if dur_ns >= self.tracer.slow_threshold_ns {
            let tree: Vec<TraceEvent> = spans.into_iter().take(n).flatten().collect();
            self.tracer.capture_slow(params(), dur_ns, tree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(sample_every: u64, slow_threshold_ns: u64) -> Tracer {
        Tracer::new(TracerConfig {
            sample_every,
            slow_threshold_ns,
            buffer_capacity: 64,
            slow_capacity: 4,
            dump_slow_on_drop: false,
        })
    }

    /// Every constant reads back its own name, directly and through the
    /// ring's index decoding, so dropping a table entry cannot rename the
    /// spans after it.
    #[test]
    fn span_constants_keep_their_names() {
        let pinned = [
            (SpanName::QUERY_POINT, "query.point"),
            (SpanName::QUERY_BURSTY_TIMES, "query.bursty_times"),
            (SpanName::QUERY_BURSTY_EVENTS, "query.bursty_events"),
            (SpanName::QUERY_SERIES, "query.series"),
            (SpanName::QUERY_TOP_K, "query.top_k"),
            (SpanName::STAGE_CELL_PROBE, "stage.cell_probe"),
            (SpanName::STAGE_MEDIAN_COMBINE, "stage.median_combine"),
            (SpanName::STAGE_HIERARCHY_PRUNE, "stage.hierarchy_prune"),
            (SpanName::WAL_APPEND, "wal.append"),
            (SpanName::CHECKPOINT_SAVE, "checkpoint.save"),
            (SpanName::CHECKPOINT_RECOVER, "checkpoint.recover"),
            (SpanName::EPOCH_PUBLISH, "epoch.publish"),
        ];
        for (span, name) in pinned {
            assert_eq!(span.as_str(), name);
            assert_eq!(SpanName::from_index(span.0 as u64), span);
        }
        assert_eq!(SPAN_NAMES.len(), pinned.len() + 1, "one constant per name, plus span.unknown");
    }

    #[test]
    fn disabled_tracer_never_samples() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(t.start_sampled(SpanName::QUERY_POINT).is_none());
        assert!(t.start_always(SpanName::CHECKPOINT_SAVE).is_none());
        assert!(t.events().is_empty());
    }

    #[test]
    fn sampling_takes_one_in_n() {
        let t = traced(4, u64::MAX);
        let taken = (0..16)
            .filter(|_| {
                t.start_sampled(SpanName::QUERY_POINT).map(|a| a.finish(String::new)).is_some()
            })
            .count();
        assert_eq!(taken, 4);
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn finished_spans_carry_trace_id_and_children() {
        let t = traced(1, u64::MAX);
        let mut root = t.start_sampled(SpanName::QUERY_BURSTY_EVENTS).unwrap();
        let id = root.trace_id();
        root.child_ns(SpanName::STAGE_CELL_PROBE, 111);
        root.child_ns(SpanName::STAGE_MEDIAN_COMBINE, 222);
        root.finish(String::new);
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.trace_id == id.0));
        let root_ev = events.iter().find(|e| e.name == "query.bursty_events").unwrap();
        assert_eq!(root_ev.parent_id, 0);
        for stage in ["stage.cell_probe", "stage.median_combine"] {
            let child = events.iter().find(|e| e.name == stage).unwrap();
            assert_eq!(child.parent_id, root_ev.span_id);
        }
    }

    #[test]
    fn slow_threshold_zero_captures_every_traced_query() {
        let t = traced(1, 0);
        let root = t.start_sampled(SpanName::QUERY_TOP_K).unwrap();
        root.finish(|| "k=5".to_string());
        let slow = t.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].params, "k=5");
        assert_eq!(slow[0].spans.last().unwrap().name, "query.top_k");
        assert!(t.slow_json().starts_with("[{\"params\":\"k=5\""));
    }

    #[test]
    fn fast_queries_skip_params_rendering() {
        let t = traced(1, u64::MAX);
        let root = t.start_sampled(SpanName::QUERY_POINT).unwrap();
        root.finish(|| panic!("params must not render on the fast path"));
        assert!(t.slow_queries().is_empty());
    }

    #[test]
    fn slow_log_is_bounded_oldest_evicted() {
        let t = traced(1, 0);
        for i in 0..9 {
            let root = t.start_sampled(SpanName::QUERY_POINT).unwrap();
            root.finish(move || format!("q={i}"));
        }
        let slow = t.slow_queries();
        assert_eq!(slow.len(), 4); // slow_capacity
        assert_eq!(slow[0].params, "q=5");
        assert_eq!(slow[3].params, "q=8");
    }

    #[test]
    fn ring_wraps_keeping_latest() {
        let t = Tracer::new(TracerConfig {
            sample_every: 1,
            slow_threshold_ns: u64::MAX,
            buffer_capacity: 8,
            slow_capacity: 1,
            dump_slow_on_drop: false,
        });
        for _ in 0..20 {
            t.start_sampled(SpanName::QUERY_SERIES).unwrap().finish(String::new);
        }
        assert_eq!(t.events().len(), 8);
        assert_eq!(t.metrics_snapshot().counter("trace.spans"), Some(20));
    }

    #[test]
    fn json_line_shape_is_stable() {
        let ev = TraceEvent {
            name: "query.point",
            trace_id: 0xabc,
            span_id: 0x1,
            parent_id: 0,
            start_ns: 5,
            dur_ns: 7,
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"name\":\"query.point\",\"trace_id\":\"0000000000000abc\",\
             \"span_id\":\"0000000000000001\",\"parent_id\":\"0000000000000000\",\
             \"start_ns\":5,\"dur_ns\":7}"
        );
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_the_ring() {
        let t = traced(1, u64::MAX);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(root) = t.start_sampled(SpanName::QUERY_POINT) {
                            root.finish(String::new);
                        }
                    }
                });
            }
        });
        // Every surviving slot decodes to a known span name.
        for ev in t.events() {
            assert_eq!(ev.name, "query.point");
            assert_ne!(ev.span_id, 0);
        }
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("trace.sampled"), Some(800));
    }

    #[test]
    fn metrics_snapshot_names() {
        let t = traced(2, 0);
        assert_eq!(t.metrics_snapshot().counter("trace.sampled"), Some(0));
        assert_eq!(t.metrics_snapshot().gauge("trace.sample_every"), Some(2.0));
    }

    #[test]
    fn metrics_snapshot_reports_tracer_self_health() {
        let t = Tracer::new(TracerConfig {
            sample_every: 1,
            slow_threshold_ns: 0,
            buffer_capacity: 4,
            slow_capacity: 2,
            dump_slow_on_drop: false,
        });
        for _ in 0..9 {
            t.start_sampled(SpanName::QUERY_POINT).unwrap().finish(String::new);
        }
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("trace.sampler.tickets"), Some(0)); // 1-in-1 skips the ticket
        assert_eq!(snap.gauge("trace.buffer.capacity"), Some(4.0));
        assert_eq!(snap.gauge("trace.buffer.laps"), Some(2.0)); // 9 spans / 4 slots
        assert_eq!(snap.gauge("trace.slow.occupancy"), Some(2.0)); // bounded at slow_capacity
        let skip = traced(4, u64::MAX);
        for _ in 0..6 {
            let _ = skip.start_sampled(SpanName::QUERY_POINT).map(|a| a.finish(String::new));
        }
        assert_eq!(skip.metrics_snapshot().counter("trace.sampler.tickets"), Some(6));
    }

    #[test]
    fn supplied_trace_id_propagates_to_all_spans() {
        let t = traced(1, u64::MAX);
        let want = TraceId(0xfeed_beef);
        let mut root = t.start_sampled_with(SpanName::QUERY_POINT, Some(want)).unwrap();
        assert_eq!(root.trace_id(), want);
        root.child_ns(SpanName::STAGE_CELL_PROBE, 10);
        root.finish(String::new);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.trace_id == want.0));
        // A zero id is "no id supplied": fall back to a fresh one.
        let root = t.start_always_with(SpanName::QUERY_POINT, Some(TraceId(0))).unwrap();
        assert_ne!(root.trace_id().0, 0);
        root.finish(String::new);
    }

    #[test]
    fn next_trace_id_is_nonzero_and_distinct() {
        let t = Tracer::disabled();
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert_ne!(a.0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_tree_assembles_nested_children() {
        let t = traced(1, u64::MAX);
        let mut root = t.start_sampled_with(SpanName::QUERY_BURSTY_EVENTS, None).unwrap();
        let id = root.trace_id();
        root.child_ns(SpanName::STAGE_HIERARCHY_PRUNE, 42);
        root.finish(String::new);
        let tree = t.trace_tree_json(id).unwrap();
        assert!(tree.starts_with(&format!("{{\"trace_id\":\"{:016x}\",\"roots\":[", id.0)));
        assert!(tree.contains("\"name\":\"query.bursty_events\""));
        assert!(tree.contains("\"name\":\"stage.hierarchy_prune\""));
        assert!(tree.ends_with("],\"orphans\":[]}"));
        assert!(t.trace_tree_json(TraceId(2)).is_none());
    }

    #[test]
    fn trace_tree_golden_from_fixed_events() {
        let events = vec![
            TraceEvent {
                name: "query.point",
                trace_id: 0xa1,
                span_id: 0x10,
                parent_id: 0,
                start_ns: 100,
                dur_ns: 900,
            },
            TraceEvent {
                name: "stage.cell_probe",
                trace_id: 0xa1,
                span_id: 0x11,
                parent_id: 0x10,
                start_ns: 100,
                dur_ns: 300,
            },
            TraceEvent {
                name: "stage.median_combine",
                trace_id: 0xa1,
                span_id: 0x12,
                parent_id: 0x10,
                start_ns: 400,
                dur_ns: 200,
            },
            // Different trace: must not leak into the assembled tree.
            TraceEvent {
                name: "query.series",
                trace_id: 0xb2,
                span_id: 0x20,
                parent_id: 0,
                start_ns: 50,
                dur_ns: 10,
            },
            // Parent evicted from the ring: surfaces as an orphan.
            TraceEvent {
                name: "shard.fan_out",
                trace_id: 0xa1,
                span_id: 0x13,
                parent_id: 0x99,
                start_ns: 150,
                dur_ns: 5,
            },
        ];
        let tree = assemble_trace_tree(&events, TraceId(0xa1)).unwrap();
        assert_eq!(
            tree,
            "{\"trace_id\":\"00000000000000a1\",\"roots\":[\
             {\"name\":\"query.point\",\"span_id\":\"0000000000000010\",\
             \"start_ns\":100,\"dur_ns\":900,\"children\":[\
             {\"name\":\"stage.cell_probe\",\"span_id\":\"0000000000000011\",\
             \"start_ns\":100,\"dur_ns\":300,\"children\":[]},\
             {\"name\":\"stage.median_combine\",\"span_id\":\"0000000000000012\",\
             \"start_ns\":400,\"dur_ns\":200,\"children\":[]}]}],\
             \"orphans\":[\
             {\"name\":\"shard.fan_out\",\"trace_id\":\"00000000000000a1\",\
             \"span_id\":\"0000000000000013\",\"parent_id\":\"0000000000000099\",\
             \"start_ns\":150,\"dur_ns\":5}]}"
        );
        assert!(assemble_trace_tree(&events, TraceId(0xdead)).is_none());
    }
}
