//! `bed serve` — a hand-rolled HTTP/1.1 query server over a live ingest.
//!
//! The workspace builds without external dependencies, so there is no
//! HTTP framework: a [`TcpListener`] and a worker pool parse just enough of
//! HTTP/1.1 to answer a handful of routes, always closing the connection
//! afterwards:
//!
//! - `GET`/`POST /query` — one of the five canonical [`QueryRequest`]
//!   kinds, as query-string parameters or a JSON body. Answers come from
//!   the **latest published epoch** ([`bed_core::DetectorEpochs`]), so
//!   queries never wait on ingest; every answer is stamped with
//!   the epoch it came from (`generation`, `arrivals`, `last_ts`).
//! - `GET /metrics` — the detector's metrics merged with the tracer's,
//!   the epoch publisher's (staleness gauges computed at scrape time),
//!   the self-profiler's and the server's own, rendered as OpenMetrics
//!   text exposition with trace-id exemplars on the latency histograms.
//!   The detector's families (`bed_ingest_count_total`, the structure
//!   sizes, ...) are as of the latest published epoch, while
//!   `bed_epoch_lag_arrivals` says how far live ingest has run past it;
//! - `GET /livez` — liveness (`ok` whenever the process answers);
//! - `GET /readyz` — readiness: `503` with a JSON reason list until the
//!   genesis epoch is published (and the state dir, when configured, is
//!   writable), or once the ingest thread has died; `200` with the
//!   answering generation otherwise;
//! - `GET /healthz` — `ok` once ready, `503` with the readiness reasons
//!   otherwise (kept for existing scrapers; `/livez` is pure liveness);
//! - `GET /trace/recent` — the tracer's span ring as JSON lines;
//! - `GET /trace/<id>` — one trace assembled into a nested span tree;
//! - `GET /profile` — the self-profiler's folded-stack dump
//!   (`bed;<stage> <busy_ns>` per line, flamegraph-ready);
//! - `GET /slow` — the tracer's slow-query log as a JSON array.
//!
//! Every `/query` answer carries a root `trace_id` (client-supplied via a
//! `trace_id` field when present, minted otherwise) that propagates into
//! sampled spans and latency-histogram exemplars; `?explain=1` adds a
//! per-stage timing breakdown of how the answer was served.
//!
//! Before binding, the whole input TSV is checked with the one admission
//! rule ([`bed_core::check_batch`]), so `serve` refuses exactly the input
//! `bed build` refuses, with the same message. While the responder runs, a
//! background thread drains the stream into the detector, publishing an
//! epoch every `--publish-every` arrivals (plus a final publish once the
//! stream is drained). The epoch
//! views count, time, and trace every `/query` they answer, so the query
//! families on `/metrics`, `/trace`, and `/slow` describe served traffic.
//!
//! # Threads
//!
//! - **Acceptor** (the calling thread): a blocking `accept` hands each
//!   connection to a bounded queue of `QUEUE_DEPTH` (64). When the queue is
//!   full the acceptor answers `503 Service Unavailable` with
//!   `Retry-After: 1` itself and closes the connection: load beyond
//!   capacity is shed explicitly instead of piling up as threads.
//! - **Workers**, a fixed pool of `WORKERS` (8): each takes one connection
//!   at a time off the queue and answers it. A worker gives a request
//!   `READ_TIMEOUT` (500 ms) in all to arrive, one deadline however the
//!   client spaces its bytes, and a connection that already waited longer
//!   than that in the queue gets the same `503` unread. Idle or trickling
//!   sockets therefore hold a worker for at most 500 ms each, and drain
//!   instead of stalling real requests. A panic while answering is a
//!   `500` with a JSON error, and the worker goes on to the next
//!   connection.
//! - **Ingest** owns the detector; nothing else touches it, so there is no
//!   detector lock. At every epoch publish it also publishes the
//!   detector's metrics snapshot, and after every chunk it stores the live
//!   watermark in atomics: `/metrics` and the staleness gauges never wait
//!   on ingest. A panic here is caught: `/readyz` and `/healthz` turn
//!   `503` with `ingest stopped: <message>`, while `/query` keeps
//!   answering from the last published epoch.
//! - **Watcher**: samples the self-profiler at its cadence and polls the
//!   shutdown flag, off the request path.
//!
//! Shutdown: `SIGTERM`/`SIGINT` store to an [`AtomicBool`] and do nothing
//! else. The watcher observes the flag and makes one loopback connection
//! to the bound port, which wakes the blocking `accept`; the acceptor
//! drops that connection uncounted, stops accepting, and closes the queue.
//! Workers finish their in-flight request and drain the queue before the
//! enclosing [`std::thread::scope`] joins them, so a response being written
//! when the signal arrived is always finished before the process exits.
//!
//! The serve tier counts itself on `/metrics` as `bed_server_*`:
//! `server.accepted` and `server.shed` connections, and
//! `server.queue_depth` and `server.workers_busy` at scrape time.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use bed_core::{
    check_batch, AnyDetector, BurstQueries as _, BurstSpan, CheckpointPolicy, DetectorEpochs,
    EpochPublisher, EventId, MetricValue, MetricsSnapshot, Profiler, QueryRequest, QueryResponse,
    QueryScratch, QueryStrategy, SnapshotCell, TimeRange, Timestamp, TraceId, Traceable as _,
    Tracer, TracerConfig, Watermark,
};
use bed_obs::Counter;

use crate::args::DetectorFlags;
use crate::commands::{detector_from_flags, read_elements};
use crate::json::{self, Json};
use crate::CliError;

/// Process-wide shutdown flag flipped by the signal handler in `main`.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Request headers larger than this are refused outright.
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Request bodies larger than this are refused with `413` before being
/// read — a query body is a few hundred bytes.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Worker threads answering connections. Set by slow clients, not by
/// throughput: bedbench's `serve` traffic keeps two connections open, and
/// its p50 is the same within noise at 2, 4 and 8 workers. What the pool
/// size buys is room for clients that hold a worker for the full
/// [`READ_TIMEOUT`]: two closed-loop query clients are answered at full
/// speed beside `WORKERS - 1` such clients (measured at 1 of 2, 3 of 4
/// and 7 of 8 workers), and the queue fills, most answers turning `503`,
/// once they take every worker. 8 workers cost 0.6–3.8 MiB more
/// resident memory than 2 (`results/serve_pool.md`).
const WORKERS: usize = 8;
/// Accepted connections that may wait for a worker; the acceptor sheds
/// beyond this. It bounds the sockets held waiting rather than setting a
/// measured rate: no benchmark fills it, and under a flood of idle
/// sockets 16, 64 and 256 all recover within one [`READ_TIMEOUT`]
/// (`results/serve_pool.md`). 64 leaves room for a burst of
/// `WORKERS + QUEUE_DEPTH` simultaneous connections without a `503`.
const QUEUE_DEPTH: usize = 64;
/// The whole time a worker waits for one request's bytes (one deadline
/// per connection, not per read), and so the longest a connection may
/// wait in the queue before it is shed unread.
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// How often the watcher thread checks the shutdown flag.
const STOP_POLL: Duration = Duration::from_millis(20);

const CT_TEXT: &str = "text/plain; charset=utf-8";
const CT_JSON: &str = "application/json; charset=utf-8";

/// Requests a cooperative shutdown of a running `bed serve` loop.
///
/// Async-signal-safe: a single atomic store, so `main` may call it from a
/// `SIGTERM`/`SIGINT` handler.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Knobs for [`serve`] beyond detector construction.
#[derive(Debug, Clone)]
pub(crate) struct ServeOptions {
    /// Listen address; port 0 binds any free port (the bound address is
    /// printed before serving starts).
    pub addr: String,
    /// Trace 1 in N queries (0 disables tracing).
    pub sample: u64,
    /// Slow-query capture threshold in ns (0 captures every traced query).
    pub slow_threshold_ns: u64,
    /// Publish a query epoch every this many arrivals.
    pub publish_every: u64,
    /// Milliseconds between self-profiler samples (0 disables sampling;
    /// `/profile` then reports zero ticks).
    pub profile_every_ms: u64,
    /// Milliseconds the ingest thread waits before draining the stream.
    /// Leaves a deliberate pre-genesis window in which `/readyz` answers
    /// `503` — used by smoke tests to observe the not-ready state.
    pub ingest_delay_ms: u64,
    /// Directory `/readyz` probes for writability (WAL/checkpoint home).
    /// `None` skips the probe: readiness is then epoch-publication only.
    pub state_dir: Option<String>,
}

/// Everything the worker, ingest and watcher threads share. The detector
/// is not here: the ingest thread owns it, and the other threads read what
/// it publishes — epochs, its metrics snapshot, the live watermark.
/// Readiness and the `/query` gate read `epochs.generation()`, which turns
/// positive only once every shard of the genesis epoch is visible.
struct ServeCtx {
    epochs: DetectorEpochs,
    /// The detector's metrics as of its latest publish (single writer:
    /// the ingest thread).
    det_metrics: SnapshotCell<MetricsSnapshot>,
    /// The live detector's stream position, stored after every chunk.
    live: LiveWatermark,
    tracer: Arc<Tracer>,
    profiler: Profiler,
    server: ServerMetrics,
    /// Directory `/readyz` probes for writability (`None` skips it).
    state_dir: Option<String>,
    /// Why the ingest thread stopped, once it panicked.
    ingest_failure: OnceLock<String>,
}

impl ServeCtx {
    /// A context over `det`'s layout with no epoch published yet. Installs
    /// one tracer on `det` and on the epochs.
    fn new(det: &mut AnyDetector, opts: &ServeOptions) -> ServeCtx {
        let tracer = Arc::new(Tracer::new(TracerConfig {
            sample_every: opts.sample,
            slow_threshold_ns: opts.slow_threshold_ns,
            dump_slow_on_drop: true,
            ..TracerConfig::default()
        }));
        det.set_tracer(Arc::clone(&tracer));
        // Unpublished start: `/readyz` reports the truth (503) until the
        // ingest thread publishes the genesis epoch.
        let mut epochs = DetectorEpochs::new_unpublished(det);
        epochs.set_tracer(Arc::clone(&tracer));
        let ctx = ServeCtx {
            epochs,
            det_metrics: SnapshotCell::new(),
            live: LiveWatermark::default(),
            tracer,
            profiler: Profiler::with_default_stages(),
            server: ServerMetrics::default(),
            state_dir: opts.state_dir.clone(),
            ingest_failure: OnceLock::new(),
        };
        // The detector's families are on `/metrics` from the first scrape.
        ctx.publish_metrics(det);
        ctx
    }

    /// Publishes `det`'s metrics snapshot for `/metrics` and the profiler.
    fn publish_metrics(&self, det: &AnyDetector) {
        self.det_metrics.publish(det.watermark(), || det.queries().metrics());
    }

    /// The detector's last published metrics merged with the epoch
    /// publisher's: what the profiler samples and `/metrics` starts from.
    fn stage_metrics(&self) -> MetricsSnapshot {
        let epochs = self.epochs.metrics();
        match self.det_metrics.load() {
            Some(det) => det.data.merge(&epochs),
            None => epochs,
        }
    }

    /// Readiness reasons, empty when the server may answer `/query`: the
    /// ingest thread must be alive, the genesis epoch must be published,
    /// and the state dir (when configured) must accept writes.
    fn unready_reasons(&self) -> Vec<String> {
        let mut reasons: Vec<String> = self.ingest_failure.get().cloned().into_iter().collect();
        if self.epochs.generation() == 0 {
            reasons.push("no epoch published yet (ingest has not reached genesis)".to_string());
        }
        if let Some(dir) = &self.state_dir {
            let probe = std::path::Path::new(dir).join(".bed-readyz-probe");
            match std::fs::write(&probe, b"probe") {
                Ok(()) => {
                    let _ = std::fs::remove_file(&probe);
                }
                Err(e) => reasons.push(format!("state dir '{dir}' not writable: {e}")),
            }
        }
        reasons
    }

    /// `/readyz` payload: `(ready, body)`.
    fn readiness(&self) -> (bool, String) {
        let reasons = self.unready_reasons();
        if reasons.is_empty() {
            (true, format!("{{\"ready\":true,\"generation\":{}}}\n", self.epochs.generation()))
        } else {
            let list = reasons
                .iter()
                .map(|r| format!("\"{}\"", json::escape(r)))
                .collect::<Vec<_>>()
                .join(",");
            (false, format!("{{\"ready\":false,\"reasons\":[{list}]}}\n"))
        }
    }
}

/// The live detector's [`Watermark`], readable without the detector.
#[derive(Default)]
struct LiveWatermark {
    arrivals: AtomicU64,
    last_ts: AtomicU64,
}

impl LiveWatermark {
    fn store(&self, w: Watermark) {
        self.last_ts.store(w.last_ts.map_or(0, |t| t.0), Ordering::Relaxed);
        // Released after `last_ts`: a reader that sees these arrivals sees
        // a timestamp at least as new.
        self.arrivals.store(w.arrivals, Ordering::Release);
    }

    fn load(&self) -> Watermark {
        let arrivals = self.arrivals.load(Ordering::Acquire);
        let last_ts = (arrivals > 0).then(|| Timestamp(self.last_ts.load(Ordering::Relaxed)));
        Watermark { arrivals, last_ts }
    }
}

/// The serve tier's own `server.*` families.
#[derive(Default)]
struct ServerMetrics {
    accepted: Counter,
    shed: Counter,
    /// Connections waiting in the queue (`server.queue_depth`).
    queued: AtomicU64,
    /// Workers answering a connection (`server.workers_busy`).
    busy: AtomicU64,
}

impl ServerMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        let level = |n: &AtomicU64| MetricValue::Gauge(n.load(Ordering::Relaxed) as f64);
        MetricsSnapshot::from_entries([
            ("server.accepted".to_owned(), MetricValue::Counter(self.accepted.get())),
            ("server.shed".to_owned(), MetricValue::Counter(self.shed.get())),
            ("server.queue_depth".to_owned(), level(&self.queued)),
            ("server.workers_busy".to_owned(), level(&self.busy)),
        ])
    }
}

/// An accepted connection waiting for a worker.
struct Queued {
    stream: TcpStream,
    accepted: Instant,
}

/// Runs the query server until `SIGTERM`/`SIGINT`, returning a summary.
pub(crate) fn serve(
    input: &str,
    flags: &DetectorFlags,
    opts: &ServeOptions,
) -> Result<String, CliError> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    serve_until(input, flags, opts, &SHUTDOWN, |addr| {
        println!(
            "bed serve listening on http://{addr}/ (GET|POST /query, GET /metrics /livez /readyz /healthz /trace/recent /trace/<id> /profile /slow)"
        );
    })
}

/// [`serve`] with an injected stop flag and bound-address callback, so the
/// loop is drivable in-process by tests.
fn serve_until(
    input: &str,
    flags: &DetectorFlags,
    opts: &ServeOptions,
    stop: &AtomicBool,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<String, CliError> {
    let els = read_elements(input)?;
    let total = els.len();
    let mut det = detector_from_flags(flags)?;
    check_batch(det.config().universe, None, &els)?;
    let ctx = ServeCtx::new(&mut det, opts);

    let listener = TcpListener::bind(&opts.addr)?;
    let bound = listener.local_addr()?;
    on_bound(bound);

    let ingested = AtomicU64::new(0);
    let (queue, jobs) = mpsc::sync_channel(QUEUE_DEPTH);
    let jobs = Mutex::new(jobs);

    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            supervise_ingest(&ctx, || ingest_loop(det, &els, &ctx, stop, opts, &ingested))
        });
        scope.spawn(|| watch_loop(&ctx, stop, opts.profile_every_ms, bound));
        for _ in 0..WORKERS {
            scope.spawn(|| worker_loop(&jobs, &ctx, respond));
        }
        let r = accept_loop(&listener, queue, &ctx, stop);
        // Any exit from the accept loop (including an error) must release
        // the ingest and watcher threads before the scope joins them. The
        // loop dropped the queue's sender, so the workers drain what is
        // queued and exit; the join is what guarantees an in-flight
        // response finishes after a signal.
        stop.store(true, Ordering::SeqCst);
        r
    });
    result?;

    let server = &ctx.server;
    Ok(format!(
        "served {} requests on {bound}; ingested {}/{total} elements; published {} epochs\n",
        server.accepted.get() - server.shed.get(),
        ingested.load(Ordering::Relaxed),
        ctx.epochs.generation(),
    ))
}

/// Accepts connections until `stop`, queueing each for the worker pool
/// and shedding it when the queue is full. A failure on one connection
/// never takes the server down. Dropping `queue` on return tells the
/// workers to drain and exit.
fn accept_loop(
    listener: &TcpListener,
    queue: SyncSender<Queued>,
    ctx: &ServeCtx,
    stop: &AtomicBool,
) -> Result<(), CliError> {
    let server = &ctx.server;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {
                continue
            }
            Err(e) => return Err(CliError::Io(e)),
        };
        // The watcher's wake-up is a connection too: once `stop` is set,
        // whatever woke the accept is dropped uncounted.
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        server.accepted.inc();
        // Counted before the send, so a worker's decrement never runs first.
        server.queued.fetch_add(1, Ordering::Relaxed);
        if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) =
            queue.try_send(Queued { stream, accepted: Instant::now() })
        {
            server.queued.fetch_sub(1, Ordering::Relaxed);
            shed(job.stream, server);
        }
    }
}

/// Maps a parsed request to `(status, content type, body)`: [`respond`]
/// in the server, a panicking stand-in in tests.
type Route = fn(&Request, &ServeCtx) -> (&'static str, &'static str, String);

/// One pool worker: answers queued connections through `route` until the
/// acceptor closes the queue and it is drained. A connection that waited
/// longer than [`READ_TIMEOUT`] is shed unread; a panic while answering is
/// contained to its connection, so the pool never shrinks.
fn worker_loop(jobs: &Mutex<Receiver<Queued>>, ctx: &ServeCtx, route: Route) {
    let server = &ctx.server;
    loop {
        // The guard drops at the end of this `let` (a `while let` would
        // hold it through the body): one idle worker waits in `recv`
        // while the others answer.
        let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = next else { return };
        server.queued.fetch_sub(1, Ordering::Relaxed);
        server.busy.fetch_add(1, Ordering::Relaxed);
        if job.accepted.elapsed() > READ_TIMEOUT {
            shed(job.stream, server);
        } else {
            let _ = caught(|| handle_connection(job.stream, ctx, route));
        }
        server.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answers `503` + `Retry-After: 1` without parsing the request, and
/// closes the connection without blocking. The reply is followed by a FIN
/// (`shutdown(Write)`), and request bytes that already arrived are drained
/// before and after it: closing with unread bytes would send a reset,
/// which can make the client discard the reply.
fn shed(mut stream: TcpStream, server: &ServerMetrics) {
    server.shed.inc();
    let _ = stream.set_nonblocking(true);
    drain(&mut stream);
    let _ = write_response(
        &mut stream,
        "503 Service Unavailable",
        "Retry-After: 1\r\n",
        CT_JSON,
        &error_body("server busy: connection shed under load; retry later"),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    drain(&mut stream);
}

/// Reads and discards what a non-blocking `stream` already holds, up to
/// one header block.
fn drain(stream: &mut TcpStream) {
    let mut sink = [0u8; 1024];
    for _ in 0..MAX_HEADER_BYTES / sink.len() {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// Runs `f`, turning a panic into its message.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// Runs the ingest thread's body. A panic becomes the reason `/readyz`
/// and `/healthz` report; every other route keeps answering, `/query`
/// from the last published epoch.
fn supervise_ingest(ctx: &ServeCtx, ingest: impl FnOnce()) {
    if let Err(message) = caught(ingest) {
        let _ = ctx.ingest_failure.set(format!("ingest stopped: {message}"));
    }
}

/// Drains the stream into the detector it owns in chunks, publishing
/// epochs (and the detector's metrics) at the configured cadence and once
/// more after the drain.
fn ingest_loop(
    mut det: AnyDetector,
    els: &[(EventId, Timestamp)],
    ctx: &ServeCtx,
    stop: &AtomicBool,
    opts: &ServeOptions,
    ingested: &AtomicU64,
) {
    const CHUNK: usize = 512;
    // Optional pre-genesis hold: nothing is ingested (and so nothing is
    // published) until the delay elapses, keeping /readyz observably 503.
    let delay_until = Instant::now() + Duration::from_millis(opts.ingest_delay_ms);
    while opts.ingest_delay_ms > 0 && Instant::now() < delay_until && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut publisher =
        EpochPublisher::new(CheckpointPolicy { every_arrivals: opts.publish_every });
    for chunk in els.chunks(CHUNK) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        for &(event, ts) in chunk {
            det.ingest(event, ts).expect("the input was admitted before binding");
        }
        if publisher.maybe_publish(&det, &ctx.epochs) {
            ctx.publish_metrics(&det);
        }
        ctx.live.store(det.watermark());
        ingested.fetch_add(chunk.len() as u64, Ordering::Relaxed);
    }
    det.finalize();
    // After `finalize`, so the scraped structure gauges are the finalized
    // sizes, and before the final epoch, so a reader that sees the full
    // stream also sees them.
    ctx.publish_metrics(&det);
    // Unconditional final publish: once the drain completes, `/query`
    // must answer from the full stream, not the last cadence boundary.
    ctx.epochs.publish(&det);
}

/// Samples the cumulative per-stage counters into the self-profiler every
/// `profile_every_ms` (0 = never) and watches the shutdown flag; once it
/// is set, wakes the blocking accept with one connection to `bound`. The
/// sampled snapshot is the one `/metrics` serves, so profiler attribution
/// can never disagree with the scraped histograms.
fn watch_loop(ctx: &ServeCtx, stop: &AtomicBool, profile_every_ms: u64, bound: SocketAddr) {
    let period = Duration::from_millis(profile_every_ms);
    let slice = if profile_every_ms > 0 { period.min(STOP_POLL) } else { STOP_POLL };
    let mut last: Option<Instant> = None; // first sample fires immediately
    while !stop.load(Ordering::SeqCst) {
        if profile_every_ms > 0 && last.is_none_or(|l| l.elapsed() >= period) {
            ctx.profiler.sample(&ctx.stage_metrics());
            last = Some(Instant::now());
        }
        std::thread::sleep(slice);
    }
    let _ = TcpStream::connect_timeout(&loopback(bound), Duration::from_secs(1));
}

/// `addr` with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback:
/// where this process can reach its own listener.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Answers one request on `stream` and closes it. The request's bytes
/// must arrive within [`READ_TIMEOUT`] of this call, however the client
/// spaces them. A panic in `route` is answered `500` with a JSON error
/// while the stream is still ours, not by closing it unanswered.
fn handle_connection(mut stream: TcpStream, ctx: &ServeCtx, route: Route) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let request = match read_request(&mut stream, Instant::now() + READ_TIMEOUT)? {
        ReadOutcome::Request(r) => r,
        ReadOutcome::Empty => return Ok(()),
        ReadOutcome::TooLarge => {
            return write_response(
                &mut stream,
                "413 Payload Too Large",
                "",
                CT_JSON,
                &error_body(&format!("request larger than {MAX_BODY_BYTES} bytes")),
            );
        }
    };
    let (status, content_type, body) = caught(|| route(&request, ctx)).unwrap_or_else(|panic| {
        ("500 Internal Server Error", CT_JSON, error_body(&format!("internal error: {panic}")))
    });
    write_response(&mut stream, status, "", content_type, &body)
}

/// Routes one parsed request. Unknown paths get `404`; known paths with
/// the wrong method get `405`; `/query` failures get typed `400`s.
fn respond(req: &Request, ctx: &ServeCtx) -> (&'static str, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET" | "POST", "/query") => query_route(req, ctx),
        ("GET", "/metrics") => {
            // Staleness is read against the live watermark at scrape time,
            // so scrapes see the current epoch age / arrival lag.
            let merged = ctx
                .stage_metrics()
                .merge(&ctx.epochs.staleness(ctx.live.load()))
                .merge(&ctx.tracer.metrics_snapshot())
                .merge(&ctx.profiler.metrics_snapshot())
                .merge(&ctx.server.snapshot());
            (
                "200 OK",
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                merged.to_openmetrics(),
            )
        }
        ("GET", "/livez") => ("200 OK", CT_TEXT, "ok\n".to_string()),
        ("GET", "/readyz") => match ctx.readiness() {
            (true, body) => ("200 OK", CT_JSON, body),
            (false, body) => ("503 Service Unavailable", CT_JSON, body),
        },
        ("GET", "/healthz") => match ctx.readiness() {
            (true, _) => ("200 OK", CT_TEXT, "ok\n".to_string()),
            (false, body) => ("503 Service Unavailable", CT_JSON, body),
        },
        ("GET", "/trace/recent") => ("200 OK", CT_TEXT, ctx.tracer.events_json_lines()),
        ("GET", path) if path.starts_with("/trace/") => trace_route(path, ctx),
        ("GET", "/profile") => ("200 OK", CT_TEXT, ctx.profiler.to_folded()),
        ("GET", "/slow") => ("200 OK", CT_JSON, ctx.tracer.slow_json()),
        (_, "/query" | "/metrics" | "/livez" | "/readyz" | "/healthz" | "/profile" | "/slow") => {
            ("405 Method Not Allowed", CT_TEXT, "method not allowed\n".to_string())
        }
        (_, path) if path.starts_with("/trace/") => {
            ("405 Method Not Allowed", CT_TEXT, "method not allowed\n".to_string())
        }
        _ => ("404 Not Found", CT_TEXT, "not found\n".to_string()),
    }
}

/// `/trace/<id>`: one trace assembled into a nested span tree. The id is
/// the 16-hex-digit form every `/query` response and exemplar carries
/// (decimal accepted too).
fn trace_route(path: &str, ctx: &ServeCtx) -> (&'static str, &'static str, String) {
    let raw = &path["/trace/".len()..];
    let id = u64::from_str_radix(raw.trim_start_matches("0x"), 16)
        .ok()
        .or_else(|| raw.parse::<u64>().ok());
    let Some(id) = id.filter(|&id| id != 0) else {
        return bad_request(&format!("'{raw}' is not a trace id (expected hex)"));
    };
    match ctx.tracer.trace_tree_json(TraceId(id)) {
        Some(tree) => ("200 OK", CT_JSON, format!("{tree}\n")),
        None => (
            "404 Not Found",
            CT_JSON,
            format!("{{\"error\":\"no spans recorded for trace {id:016x}\"}}\n"),
        ),
    }
}

/// `/query`: decode the request (query string or JSON body), answer it
/// from the latest published epoch, and stamp the answer with that epoch.
fn query_route(req: &Request, ctx: &ServeCtx) -> (&'static str, &'static str, String) {
    let fields = if req.method == "POST" {
        match json::parse(&req.body) {
            Ok(v @ Json::Obj(_)) => v,
            Ok(_) => return bad_request("request body must be a JSON object"),
            Err(e) => return bad_request(&format!("malformed JSON: {e}")),
        }
    } else {
        params_to_fields(&req.query)
    };
    let request = match request_from_fields(&fields) {
        Ok(r) => r,
        Err(e) => return bad_request(&e),
    };
    // Epoch views must not be dereferenced before the genesis publish;
    // readiness is the contract, and the 503 names it.
    if ctx.epochs.generation() == 0 {
        return (
            "503 Service Unavailable",
            CT_JSON,
            error_body("not ready: no epoch published yet (see /readyz)"),
        );
    }
    // The root trace id: adopted from the client when supplied (hex or
    // decimal), minted otherwise. Minting is id arithmetic only — it does
    // not record a span, so unsampled requests stay off the ring.
    let trace_id = match field_trace_id(&fields) {
        Ok(Some(id)) => id,
        Ok(None) => ctx.tracer.next_trace_id().0,
        Err(e) => return bad_request(&e),
    };
    let explain = field_flag(&fields, "explain");
    // A view per connection: each handler thread gets its own cursors and
    // scratch, so concurrent queries never contend with each other (or
    // with ingest — the epoch read path is lock-free). The view arms the
    // stage clocks for EXPLAIN and leaves them populated for the block.
    let view = ctx.epochs.view();
    let mut scratch = QueryScratch::new();
    scratch.trace_id = trace_id;
    scratch.explain = explain;
    let started = Instant::now();
    let result = view.query_reusing(&request, &mut scratch);
    let root_ns = started.elapsed().as_nanos() as u64;
    match result {
        Ok(response) => {
            let explain_block = explain.then(|| {
                render_explain(&request, &response, &scratch, root_ns, view.answer_generation())
            });
            (
                "200 OK",
                CT_JSON,
                render_answer(
                    &request,
                    &response,
                    view.answer_generation(),
                    view.answer_watermark(),
                    trace_id,
                    explain_block.as_deref(),
                ),
            )
        }
        Err(e) => bad_request(&e.to_string()),
    }
}

/// Reads an optional client-supplied `trace_id` field: a hex string (the
/// form `/query` responses and exemplars carry) or a positive integer.
fn field_trace_id(fields: &Json) -> Result<Option<u64>, String> {
    match fields.get("trace_id") {
        None => Ok(None),
        Some(Json::Int(i)) if *i > 0 => Ok(Some(*i as u64)),
        Some(Json::Str(s)) => u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .ok()
            .filter(|&id| id != 0)
            .map(Some)
            .ok_or_else(|| format!("field 'trace_id' '{s}' is not a nonzero hex id")),
        Some(_) => Err("field 'trace_id' must be a hex string or positive integer".to_string()),
    }
}

/// A truthy boolean-ish field: `1`, `true`, or `"true"`/`"1"`.
fn field_flag(fields: &Json, key: &str) -> bool {
    match fields.get(key) {
        Some(Json::Bool(b)) => *b,
        Some(Json::Int(i)) => *i != 0,
        Some(Json::Str(s)) => s == "1" || s.eq_ignore_ascii_case("true"),
        _ => false,
    }
}

/// The `?explain=1` block: per-stage kernel nanoseconds harvested from the
/// armed [`QueryScratch`], the serving path actually taken, the retention
/// tier (point answers), and the answering epoch — everything an operator
/// needs to see *how* the answer was produced.
fn render_explain(
    request: &QueryRequest,
    response: &QueryResponse,
    scratch: &QueryScratch,
    root_ns: u64,
    generation: u64,
) -> String {
    use std::fmt::Write as _;
    let st = &scratch.stages;
    let path = probe_path(st.bank_probes, st.scalar_probes);
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"root_ns\":{root_ns},\"stages\":{{\"cell_probe_ns\":{},\"median_combine_ns\":{},\"hierarchy_prune_ns\":{}}},\"path\":\"{path}\",\"probes\":{{\"bank\":{},\"scalar\":{}}}",
        st.cell_probe_ns, st.median_combine_ns, st.hierarchy_prune_ns, st.bank_probes,
        st.scalar_probes,
    );
    if let QueryRequest::BurstyEvents { strategy, .. } = request {
        let name = match strategy {
            QueryStrategy::Pruned => "pruned",
            QueryStrategy::ExactScan => "exact_scan",
        };
        let _ = write!(out, ",\"strategy\":\"{name}\"");
    }
    if let QueryResponse::Point { tier, .. } = response {
        match tier {
            Some(t) => {
                let _ = write!(out, ",\"tier\":{t}");
            }
            None => out.push_str(",\"tier\":null"),
        }
    }
    let _ = write!(out, ",\"generation\":{generation}}}");
    out
}

/// The probe kernel that answered, read off the stage counters: `bank`
/// when any probe rode the SoA bank, `scalar` when only per-cell probes
/// ran, `none` when the answer needed no probe at all.
pub(crate) fn probe_path(bank_probes: u64, scalar_probes: u64) -> &'static str {
    match (bank_probes, scalar_probes) {
        (0, 0) => "none",
        (0, _) => "scalar",
        _ => "bank",
    }
}

fn bad_request(message: &str) -> (&'static str, &'static str, String) {
    ("400 Bad Request", CT_JSON, error_body(message))
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", json::escape(message))
}

/// Converts `k=v&k=v` query-string parameters into the same [`Json`]
/// object shape a POST body parses to, so both entry points share
/// [`request_from_fields`]. Values are typed by trial: integer, then
/// float, then string.
fn params_to_fields(query: &str) -> Json {
    let mut fields = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let value = if let Ok(i) = v.parse::<i64>() {
            Json::Int(i)
        } else if let Ok(f) = v.parse::<f64>() {
            Json::Float(f)
        } else {
            Json::Str(v.to_string())
        };
        fields.push((k.to_string(), value));
    }
    Json::Obj(fields)
}

fn field_u64(fields: &Json, key: &str) -> Result<u64, String> {
    match fields.get(key) {
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(Json::Str(s)) if s.parse::<u64>().is_ok() => Ok(s.parse().unwrap()),
        Some(_) => Err(format!("field '{key}' must be a non-negative integer")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn field_f64(fields: &Json, key: &str) -> Result<f64, String> {
    match fields.get(key) {
        Some(Json::Int(i)) => Ok(*i as f64),
        Some(Json::Float(f)) => Ok(*f),
        Some(Json::Str(s)) if s.parse::<f64>().is_ok() => Ok(s.parse().unwrap()),
        Some(_) => Err(format!("field '{key}' must be a number")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn field_event(fields: &Json) -> Result<EventId, String> {
    let id = field_u64(fields, "event")?;
    u32::try_from(id).map(EventId).map_err(|_| "field 'event' exceeds u32".to_string())
}

fn field_tau(fields: &Json) -> Result<BurstSpan, String> {
    BurstSpan::new(field_u64(fields, "tau")?).map_err(|e| e.to_string())
}

/// Builds a [`QueryRequest`] from decoded fields. Every failure is a
/// message naming the offending field — the `/query` 400 body.
fn request_from_fields(fields: &Json) -> Result<QueryRequest, String> {
    let kind = match fields.get("kind") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("field 'kind' must be a string".into()),
        None => return Err("missing field 'kind'".into()),
    };
    match kind {
        "point" => Ok(QueryRequest::Point {
            event: field_event(fields)?,
            t: Timestamp(field_u64(fields, "t")?),
            tau: field_tau(fields)?,
        }),
        "bursty_times" => Ok(QueryRequest::BurstyTimes {
            event: field_event(fields)?,
            theta: field_f64(fields, "theta")?,
            tau: field_tau(fields)?,
            horizon: Timestamp(field_u64(fields, "horizon")?),
        }),
        "bursty_events" => {
            let strategy = match fields.get("strategy") {
                None => QueryStrategy::Pruned,
                Some(Json::Str(s)) if s == "pruned" => QueryStrategy::Pruned,
                Some(Json::Str(s)) if s == "exact_scan" => QueryStrategy::ExactScan,
                Some(_) => {
                    return Err(
                        "field 'strategy' must be \"pruned\" or \"exact_scan\"".to_string()
                    )
                }
            };
            Ok(QueryRequest::BurstyEvents {
                t: Timestamp(field_u64(fields, "t")?),
                theta: field_f64(fields, "theta")?,
                tau: field_tau(fields)?,
                strategy,
            })
        }
        "series" => Ok(QueryRequest::Series {
            event: field_event(fields)?,
            tau: field_tau(fields)?,
            // Range inversion is the query layer's typed error, so the
            // struct literal (not `TimeRange::new`) is deliberate.
            range: TimeRange {
                start: Timestamp(match fields.get("start") {
                    None => 0,
                    Some(_) => field_u64(fields, "start")?,
                }),
                end: Timestamp(field_u64(fields, "end")?),
            },
            step: field_u64(fields, "step")?,
        }),
        "top_k" => Ok(QueryRequest::TopK {
            event: field_event(fields)?,
            k: field_u64(fields, "k")? as usize,
            tau: field_tau(fields)?,
            horizon: Timestamp(field_u64(fields, "horizon")?),
        }),
        other => Err(format!(
            "unknown query kind '{other}' (expected point, bursty_times, bursty_events, series, or top_k)"
        )),
    }
}

/// Renders a `/query` answer. Every response carries the request kind,
/// the root trace id, and the epoch stamp; the payload shape follows the
/// [`QueryResponse`] variant, and `explain` (when requested) is appended
/// as a pre-rendered JSON object.
fn render_answer(
    request: &QueryRequest,
    response: &QueryResponse,
    generation: u64,
    watermark: Watermark,
    trace_id: u64,
    explain: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let kind = match request {
        QueryRequest::Point { .. } => "point",
        QueryRequest::BurstyTimes { .. } => "bursty_times",
        QueryRequest::BurstyEvents { .. } => "bursty_events",
        QueryRequest::Series { .. } => "series",
        QueryRequest::TopK { .. } => "top_k",
    };
    let last_ts = watermark.last_ts.map_or("null".to_string(), |t| t.0.to_string());
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"kind\":\"{kind}\",\"trace_id\":\"{trace_id:016x}\",\"epoch\":{{\"generation\":{generation},\"arrivals\":{},\"last_ts\":{last_ts}}}",
        watermark.arrivals
    );
    match response {
        QueryResponse::Point { burstiness, burst_frequency, cumulative, tier } => {
            let _ = write!(
                out,
                ",\"burstiness\":{},\"burst_frequency\":{},\"cumulative\":{}",
                json::num(*burstiness),
                json::num(*burst_frequency),
                json::num(*cumulative)
            );
            if let Some(tier) = tier {
                let _ = write!(out, ",\"tier\":{tier}");
            }
        }
        QueryResponse::BurstyEvents { hits, stats } => {
            out.push_str(",\"hits\":[");
            for (i, hit) in hits.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"event\":{},\"burstiness\":{}}}",
                    hit.event.0,
                    json::num(hit.burstiness)
                );
            }
            let _ = write!(
                out,
                "],\"stats\":{{\"point_queries\":{},\"pruned_subtrees\":{},\"leaves_probed\":{}}}",
                stats.point_queries, stats.pruned_subtrees, stats.leaves_probed
            );
        }
        // BurstyTimes, Series, and TopK are all `(t, value)` samples.
        _ => {
            out.push_str(",\"samples\":[");
            for (i, (t, v)) in response.samples().unwrap_or(&[]).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", t.0, json::num(*v));
            }
            out.push(']');
        }
    }
    if let Some(explain) = explain {
        let _ = write!(out, ",\"explain\":{explain}");
    }
    out.push_str("}\n");
    out
}

/// One parsed request: method, path, query string, and body (decoded
/// lossily — query bodies are ASCII JSON).
struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

enum ReadOutcome {
    Request(Request),
    /// Headers or declared body exceed the caps → `413`.
    TooLarge,
    /// Nothing (parseable) arrived; close silently.
    Empty,
}

/// Reads one request: headers up to `\r\n\r\n` (capped), then as much of
/// the declared `Content-Length` body as the client sends (capped, before
/// any of it is buffered). Reading stops at `deadline` however the bytes
/// are spaced, and a stalled client's request is served from whatever
/// arrived by then.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<ReadOutcome> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Ok(ReadOutcome::TooLarge);
        }
        match read_before(stream, &mut chunk, deadline)? {
            Some(0) | None => break buf.len(),
            Some(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end.min(buf.len())]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || target.is_empty() {
        return Ok(ReadOutcome::Empty);
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        // Refused on the declared length alone: the body is never read.
        return Ok(ReadOutcome::TooLarge);
    }

    let mut body = buf[header_end.min(buf.len())..].to_vec();
    while body.len() < content_length {
        match read_before(stream, &mut chunk, deadline)? {
            Some(0) | None => break,
            Some(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    Ok(ReadOutcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// One `read` that returns by `deadline`: `Some(n)` bytes (0 at end of
/// stream), or `None` once the deadline has passed with nothing read.
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> std::io::Result<Option<usize>> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(chunk) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one response in a single `write`. `headers` are extra header
/// lines, each ending in `\r\n` (empty for none).
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    headers: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n",
        body.len()
    );
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn fixture(name: &str) -> String {
        let dir = std::env::temp_dir().join("bed-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut text = String::new();
        for t in 0..300u64 {
            text.push_str(&format!("{}\t{t}\n", t % 8));
            if t >= 250 {
                for _ in 0..6 {
                    text.push_str(&format!("2\t{t}\n"));
                }
            }
        }
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: bed\r\nConnection: close\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let split = resp.find("\r\n\r\n").expect("header/body split");
        (resp[..split].to_string(), resp[split + 4..].to_string())
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST {path} HTTP/1.1\r\nHost: bed\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let split = resp.find("\r\n\r\n").expect("header/body split");
        (resp[..split].to_string(), resp[split + 4..].to_string())
    }

    fn flags(shards: usize) -> DetectorFlags {
        DetectorFlags {
            variant: "pbe2".into(),
            eta: 128,
            gamma: 2.0,
            universe: Some(8),
            epsilon: 0.01,
            delta: 0.05,
            flat: false,
            seed: 7,
            shards,
            retention: None,
        }
    }

    fn opts(publish_every: u64) -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            sample: 1,
            slow_threshold_ns: 0,
            publish_every,
            profile_every_ms: 20,
            ingest_delay_ms: 0,
            state_dir: None,
        }
    }

    /// Polls `/readyz` until the genesis epoch is published (the server
    /// starts unpublished, so readiness-dependent routes would otherwise
    /// race the first ingest chunk).
    fn wait_ready(addr: SocketAddr) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (head, body) = get(addr, "/readyz");
            if head.starts_with("HTTP/1.1 200") {
                assert!(body.contains("\"ready\":true"), "{body}");
                return;
            }
            assert!(Instant::now() < deadline, "server never became ready: {head} {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Runs `serve_until` on a scoped thread and hands the bound address
    /// to `check`; flips the stop flag afterwards — also when `check`
    /// panics, so a failed assertion fails the test instead of leaving the
    /// scope waiting on a live server — and returns the summary.
    fn with_server(
        input: &str,
        flags: &DetectorFlags,
        opts: &ServeOptions,
        check: impl FnOnce(SocketAddr),
    ) -> String {
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let handle = scope
                .spawn(|| serve_until(input, flags, opts, &stop, |addr| tx.send(addr).unwrap()));
            let addr = rx.recv().unwrap();
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(addr)));
            stop.store(true, Ordering::SeqCst);
            if let Err(panic) = checked {
                std::panic::resume_unwind(panic);
            }
            handle.join().unwrap().unwrap()
        })
    }

    #[test]
    fn serve_answers_metrics_healthz_and_slow_while_ingesting() {
        let input = fixture("serve.tsv");
        let summary = with_server(&input, &flags(1), &opts(128), |addr| {
            // Liveness is unconditional; health joins it once ready.
            let (head, body) = get(addr, "/livez");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");
            wait_ready(addr);
            let (head, body) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");

            let (head, body) = get(addr, "/metrics");
            assert!(head.contains("application/openmetrics-text"), "{head}");
            assert!(body.contains("bed_ingest_count_total"), "{body}");
            assert!(body.contains("bed_trace_sampled_total"), "{body}");
            assert!(body.contains("bed_epoch_published_total"), "{body}");
            // Tracer self-health, staleness gauges, and the profiler ride
            // the same scrape.
            assert!(body.contains("bed_trace_dropped_total"), "{body}");
            assert!(body.contains("bed_epoch_lag_arrivals"), "{body}");
            assert!(body.contains("bed_profile_ticks_total"), "{body}");
            assert!(body.ends_with("# EOF\n"), "{body}");

            // The profiler thread ticks at 20ms; folded stacks follow.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let (head, folded) = get(addr, "/profile");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                if folded.lines().any(|l| l.starts_with("bed;")) {
                    break;
                }
                assert!(Instant::now() < deadline, "no profiler output: {folded}");
                std::thread::sleep(Duration::from_millis(25));
            }

            // Served queries are traced (sample=1) before the answer is
            // written, so the span ring and — threshold 0 — the slow log
            // hold the bursty-event query as soon as it returns.
            let (head, body) = get(addr, "/query?kind=bursty_events&t=299&theta=1&tau=40");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            let (head, lines) = get(addr, "/trace/recent");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(lines.contains("query.bursty_events"), "no spans recorded: {lines}");
            let (_, slow) = get(addr, "/slow");
            assert!(slow.contains("query.bursty_events"), "no slow query captured: {slow}");

            let (head, _) = get(addr, "/nope");
            assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        });
        assert!(summary.contains("served"), "{summary}");
        assert!(summary.contains("ingested"), "{summary}");
        assert!(summary.contains("published"), "{summary}");
    }

    #[test]
    fn query_answers_all_five_kinds_from_published_epochs() {
        let input = fixture("serve-query.tsv");
        // Two shards: /query must fan out coherently, not just read one cell.
        with_server(&input, &flags(2), &opts(256), |addr| {
            wait_ready(addr);
            wait_drained(addr);
            let (head, body) = get(addr, "/query?kind=point&event=2&t=299&tau=40");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"kind\":\"point\""), "{body}");
            assert!(body.contains("\"trace_id\":\""), "{body}");
            assert!(body.contains("\"epoch\":{\"generation\":"), "{body}");
            assert!(body.contains("\"last_ts\":299"), "{body}");

            let (head, body) =
                get(addr, "/query?kind=bursty_times&event=2&theta=20&tau=40&horizon=299");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"samples\":[["), "{body}");

            let (head, body) = get(addr, "/query?kind=series&event=2&end=299&step=50&tau=40");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"samples\":[[0,"), "{body}");

            let (head, body) = get(addr, "/query?kind=top_k&event=2&k=3&tau=40&horizon=299");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"samples\":["), "{body}");

            let (head, body) =
                post(addr, "/query", r#"{"kind":"bursty_events","t":299,"theta":20,"tau":40}"#);
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"hits\":[{\"event\":2,"), "{body}");
            assert!(body.contains("\"stats\":{\"point_queries\":"), "{body}");

            let (_, exact) = post(
                addr,
                "/query",
                r#"{"kind":"bursty_events","t":299,"theta":20,"tau":40,"strategy":"exact_scan"}"#,
            );
            assert!(exact.contains("\"hits\":[{\"event\":2,"), "{exact}");
        });
    }

    #[test]
    fn query_rejects_bad_requests_with_typed_errors() {
        let input = fixture("serve-errors.tsv");
        with_server(&input, &flags(1), &opts(8_192), |addr| {
            wait_ready(addr);
            // Malformed JSON body.
            let (head, body) = post(addr, "/query", "{\"kind\":");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("malformed JSON"), "{body}");

            // A JSON body that is not an object.
            let (head, body) = post(addr, "/query", "[1,2,3]");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("JSON object"), "{body}");

            // Unknown query kind.
            let (head, body) = get(addr, "/query?kind=warp&event=1&t=1&tau=1");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("unknown query kind 'warp'"), "{body}");

            // Missing fields.
            let (head, body) = get(addr, "/query?kind=point&event=1");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("missing field"), "{body}");

            // τ = 0 is rejected before the detector sees it.
            let (head, body) = get(addr, "/query?kind=point&event=1&t=10&tau=0");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("error"), "{body}");

            // Out-of-universe event becomes the detector's typed error.
            let (head, body) = get(addr, "/query?kind=point&event=99&t=10&tau=40");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("error"), "{body}");

            // Negative event id is a field error, not a panic.
            let (head, body) = get(addr, "/query?kind=point&event=-3&t=10&tau=40");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("'event'"), "{body}");

            // Garbage client trace ids are refused, not adopted.
            let (head, body) = get(addr, "/query?kind=point&event=1&t=10&tau=40&trace_id=zz");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            assert!(body.contains("'trace_id'"), "{body}");

            // A malformed /trace id is a 400, an unknown one a 404.
            let (head, _) = get(addr, "/trace/not-hex");
            assert!(head.starts_with("HTTP/1.1 400"), "{head}");
            let (head, body) = get(addr, "/trace/00000000deadbeef");
            assert!(head.starts_with("HTTP/1.1 404"), "{head}");
            assert!(body.contains("no spans recorded"), "{body}");

            // Oversized declared body → 413 without reading it.
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "POST /query HTTP/1.1\r\nHost: bed\r\nContent-Length: 100000\r\n\r\n")
                .unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

            // Known path, wrong method.
            let (head, _) = post(addr, "/metrics", "");
            assert!(head.starts_with("HTTP/1.1 405"), "{head}");

            // The server is still healthy after all of the above.
            let (head, _) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        });
    }

    #[test]
    fn serve_refuses_the_input_build_refuses() {
        let dir = std::env::temp_dir().join("bed-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // A late arrival (t15 after t20), then an id outside the universe
        // of 8; without the late line, the id is the first refusal.
        for (name, text, refusal) in [
            ("serve-late.tsv", "0\t10\n1\t20\n2\t15\n9\t25\n3\t30\n", "t15 arrived after t20"),
            ("serve-outside.tsv", "0\t10\n1\t20\n9\t25\n3\t30\n", "universe"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let input = path.to_string_lossy().into_owned();
            for shards in [1, 2] {
                let mut det = detector_from_flags(&flags(shards)).unwrap();
                let built =
                    bed_core::EventSink::ingest_batch(&mut det, &read_elements(&input).unwrap())
                        .unwrap_err();
                let stop = AtomicBool::new(true);
                let served = serve_until(&input, &flags(shards), &opts(8), &stop, |addr| {
                    panic!("{name}: bound {addr} for input that build refuses")
                })
                .unwrap_err();
                assert_eq!(served.to_string(), CliError::from(built).to_string(), "{name}");
                assert!(served.to_string().contains(refusal), "{name}: {served}");
            }
        }
    }

    #[test]
    fn serve_rejects_non_get_and_survives_garbage() {
        let input = fixture("serve-bad.tsv");
        with_server(&input, &flags(1), &opts(8_192), |addr| {
            // The final /healthz needs genesis; the pool answers faster
            // than the first ingest chunk publishes it.
            wait_ready(addr);
            // DELETE on a known path is refused but answered.
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "DELETE /metrics HTTP/1.1\r\nHost: bed\r\n\r\n").unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

            // a connection that sends nothing and closes is ignored
            drop(TcpStream::connect(addr).unwrap());

            // the server still answers afterwards
            let (head, _) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        });
    }

    #[test]
    fn in_flight_response_finishes_after_shutdown_request() {
        let input = fixture("serve-shutdown.tsv");
        let stop = AtomicBool::new(false);
        let o = opts(8_192);
        let f = flags(1);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let handle =
                scope.spawn(|| serve_until(&input, &f, &o, &stop, |addr| tx.send(addr).unwrap()));
            let addr = rx.recv().unwrap();
            wait_ready(addr);

            // Open a request but stall before the blank line, then request
            // shutdown while the handler is mid-read.
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET /healthz HTTP/1.1\r\nHost: bed\r\n").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            stop.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(60));
            write!(s, "\r\n").unwrap();
            s.flush().unwrap();

            // The response still completes: the scope joins the connection
            // thread before serve_until returns.
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.ends_with("ok\n"), "{resp}");

            let summary = handle.join().unwrap().unwrap();
            assert!(summary.contains("served"), "{summary}");
        });
    }

    /// Extracts the first `"key":<digits>` value after `key` in `body`.
    fn json_u64(body: &str, key: &str) -> u64 {
        let needle = format!("\"{key}\":");
        let at = body.find(&needle).unwrap_or_else(|| panic!("no {key} in {body}"));
        body[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| panic!("bad {key} in {body}"))
    }

    #[test]
    fn readiness_gates_query_until_genesis() {
        let input = fixture("serve-ready.tsv");
        let mut o = opts(128);
        // Hold ingest back so the pre-genesis state is observable.
        o.ingest_delay_ms = 600;
        with_server(&input, &flags(1), &o, |addr| {
            // Liveness never depends on readiness.
            let (head, body) = get(addr, "/livez");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");

            // Before genesis: /readyz and /healthz are 503 with a reason,
            // and /query refuses rather than dereferencing an empty epoch.
            let (head, body) = get(addr, "/readyz");
            assert!(head.starts_with("HTTP/1.1 503"), "{head} {body}");
            assert!(body.contains("\"ready\":false"), "{body}");
            assert!(body.contains("no epoch published"), "{body}");
            let (head, body) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 503"), "{head} {body}");
            assert!(body.contains("no epoch published"), "{body}");
            let (head, body) = get(addr, "/query?kind=point&event=1&t=10&tau=40");
            assert!(head.starts_with("HTTP/1.1 503"), "{head} {body}");
            assert!(body.contains("not ready"), "{body}");

            // After genesis the same routes flip to 200.
            wait_ready(addr);
            let (head, _) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let (head, body) = get(addr, "/query?kind=point&event=1&t=10&tau=40");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
        });
    }

    #[test]
    fn state_dir_probe_feeds_readiness() {
        let input = fixture("serve-statedir.tsv");
        let mut o = opts(128);
        o.state_dir = Some("/nonexistent/bed-serve-state".into());
        with_server(&input, &flags(1), &o, |addr| {
            // Even once the epoch publishes, an unwritable state dir keeps
            // readiness false — and names the directory.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let (head, body) = get(addr, "/readyz");
                assert!(head.starts_with("HTTP/1.1 503"), "{head} {body}");
                assert!(body.contains("\"ready\":false"), "{body}");
                if !body.contains("no epoch published") {
                    assert!(body.contains("not writable"), "{body}");
                    break;
                }
                assert!(Instant::now() < deadline, "genesis never published: {body}");
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    }

    #[test]
    fn client_trace_id_propagates_to_spans_and_tree() {
        let input = fixture("serve-trace.tsv");
        // sample=1: every query is traced into the ring.
        with_server(&input, &flags(1), &opts(128), |addr| {
            wait_ready(addr);
            let (head, body) = get(addr, "/query?kind=point&event=2&t=200&tau=40&trace_id=abc123");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"trace_id\":\"0000000000abc123\""), "{body}");

            // The adopted id is joinable: /trace/<id> assembles the tree.
            let (head, tree) = get(addr, "/trace/0000000000abc123");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {tree}");
            assert!(tree.contains("\"trace_id\":\"0000000000abc123\""), "{tree}");
            assert!(tree.contains("query.point"), "{tree}");

            // The ring view carries the same span.
            let (_, lines) = get(addr, "/trace/recent");
            assert!(lines.contains("0000000000abc123"), "{lines}");

            // Minted ids differ per request and are echoed in the body.
            let (_, a) = get(addr, "/query?kind=point&event=2&t=200&tau=40");
            let (_, b) = get(addr, "/query?kind=point&event=2&t=200&tau=40");
            let id_of = |body: &str| {
                let at = body.find("\"trace_id\":\"").unwrap() + "\"trace_id\":\"".len();
                body[at..at + 16].to_string()
            };
            assert_ne!(id_of(&a), id_of(&b), "{a} {b}");
        });
    }

    #[test]
    fn explain_reports_stages_path_and_epoch() {
        let input = fixture("serve-explain.tsv");
        with_server(&input, &flags(2), &opts(256), |addr| {
            wait_ready(addr);
            wait_drained(addr);

            let (head, body) =
                get(addr, "/query?kind=bursty_events&t=299&theta=20&tau=40&explain=1");
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            assert!(body.contains("\"explain\":{"), "{body}");
            // Kernel stage time can never exceed the serve-measured root.
            let root = json_u64(&body, "root_ns");
            let stages = json_u64(&body, "cell_probe_ns")
                + json_u64(&body, "median_combine_ns")
                + json_u64(&body, "hierarchy_prune_ns");
            assert!(stages <= root, "stage sum {stages} > root {root}: {body}");
            // Published epochs are finalized, so probes take the SoA bank
            // path, and the pruned strategy names itself.
            assert!(body.contains("\"path\":\"bank\""), "{body}");
            assert!(body.contains("\"strategy\":\"pruned\""), "{body}");
            assert!(json_u64(&body, "generation") > 0, "{body}");

            // Point explains carry the retention tier (null when untired).
            let (_, body) = get(addr, "/query?kind=point&event=2&t=299&tau=40&explain=1");
            assert!(body.contains("\"explain\":{"), "{body}");
            assert!(body.contains("\"tier\":"), "{body}");

            // Series probes are clocked too, and the probe counters (not a
            // guess) name the banked path they took.
            let (_, body) =
                get(addr, "/query?kind=series&event=2&end=299&step=50&tau=40&explain=1");
            assert!(json_u64(&body, "cell_probe_ns") > 0, "{body}");
            assert!(json_u64(&body, "bank") > 0, "{body}");
            assert!(body.contains("\"path\":\"bank\""), "{body}");

            // explain=0 and absence both skip the block.
            let (_, body) = get(addr, "/query?kind=point&event=2&t=299&tau=40&explain=0");
            assert!(!body.contains("\"explain\""), "{body}");
        });
    }

    /// Reads `name`'s sample value from an OpenMetrics scrape (0 when the
    /// family is absent).
    fn metric_value(scrape: &str, name: &str) -> u64 {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map_or(0, |v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
    }

    /// Waits for the post-drain publish, whose epoch covers the fixture's
    /// full stream (300 base + 50×6 burst arrivals).
    fn wait_drained(addr: SocketAddr) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = get(addr, "/query?kind=point&event=2&t=299&tau=40");
            if body.contains("\"arrivals\":600") {
                return;
            }
            assert!(Instant::now() < deadline, "drain publish never arrived: {body}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn served_queries_are_counted_and_traced_on_every_layout() {
        let input = fixture("serve-served.tsv");
        let queries = [
            ("point", "kind=point&event=2&t=299&tau=40"),
            ("bursty_times", "kind=bursty_times&event=2&theta=20&tau=40&horizon=299"),
            ("bursty_events", "kind=bursty_events&t=299&theta=20&tau=40"),
            ("series", "kind=series&event=2&end=299&step=50&tau=40"),
            ("top_k", "kind=top_k&event=2&k=3&tau=40&horizon=299"),
        ];
        const N: u64 = 3;
        const PROBES: &str = "bed_query_stats_point_queries_total";
        for shards in [1, 2] {
            with_server(&input, &flags(shards), &opts(256), |addr| {
                wait_ready(addr);
                wait_drained(addr);
                for (kind, params) in queries {
                    let family = format!("bed_query_{kind}_latency_ns_count");
                    let scrape = get(addr, "/metrics").1;
                    let before = metric_value(&scrape, &family);
                    let probes_before = metric_value(&scrape, PROBES);
                    for _ in 0..N {
                        let (head, body) = get(addr, &format!("/query?{params}"));
                        assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
                        // sample=1: the answer's id resolves to exactly one
                        // root span of this kind.
                        let at = body.find("\"trace_id\":\"").unwrap() + 12;
                        let (_, tree) = get(addr, &format!("/trace/{}", &body[at..at + 16]));
                        assert_eq!(tree.matches("\"name\":\"query.").count(), 1, "{tree}");
                        assert!(tree.contains(&format!("\"name\":\"query.{kind}\"")), "{tree}");
                    }
                    let scrape = get(addr, "/metrics").1;
                    let after = metric_value(&scrape, &family);
                    assert_eq!(after - before, N, "{family} with {shards} shard(s)");
                    // the views read each bursty-event answer's probe stats
                    let probes = metric_value(&scrape, PROBES) - probes_before;
                    assert_eq!(probes > 0, kind == "bursty_events", "{PROBES} after {kind}");
                }
            });
        }
    }

    #[test]
    fn metrics_scrape_answers_while_a_large_stream_ingests() {
        // Enough arrivals that the drain outlasts the scrape by far.
        const N: u64 = 400_000;
        let path = std::env::temp_dir().join("bed-serve-tests").join("serve-large.tsv");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text: String = (0..N).map(|t| format!("{}\t{t}\n", t % 8)).collect();
        std::fs::write(&path, text).unwrap();
        with_server(path.to_str().unwrap(), &flags(1), &opts(4_096), |addr| {
            wait_ready(addr);
            let started = Instant::now();
            let (head, body) = get(addr, "/metrics");
            let took = started.elapsed();
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("bed_ingest_count_total"), "{body}");
            assert!(body.contains("bed_epoch_lag_arrivals"), "{body}");
            // The scrape never waits on the ingest thread.
            assert!(took < Duration::from_secs(1), "scrape took {took:?}");
            // ... and it landed mid-drain: the answering epoch is partial.
            let (_, answer) = get(addr, "/query?kind=point&event=2&t=10&tau=4");
            assert!(json_u64(&answer, "arrivals") < N, "ingest already drained: {answer}");
        });
    }

    fn request(method: &str, target: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: method.into(),
            path: path.into(),
            query: query.into(),
            body: String::new(),
        }
    }

    /// A query that races the genesis publish of a sharded layout must get
    /// a `503` (not ready) or an answer, never a connection closed by a
    /// panicking dispatch: `epochs.generation()` may only turn positive
    /// once every shard of the genesis epoch is visible.
    #[test]
    fn queries_racing_the_sharded_genesis_publish_are_answered() {
        let input = fixture("genesis.tsv");
        // Wide sketches make each shard's clone slow enough that queries
        // easily land while the genesis publish is still building.
        let flags = DetectorFlags { universe: Some(4096), epsilon: 0.0005, ..flags(8) };
        let opts = ServeOptions { profile_every_ms: 0, ..opts(1 << 20) };
        for _ in 0..3 {
            with_server(&input, &flags, &opts, |addr| {
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut answered = 0;
                while answered < 16 {
                    assert!(Instant::now() < deadline, "no answers within 10 s");
                    for event in 0..8 {
                        let (head, body) =
                            get(addr, &format!("/query?kind=point&event={event}&t=250&tau=40"));
                        if head.starts_with("HTTP/1.1 200") {
                            answered += 1;
                        } else {
                            assert!(head.starts_with("HTTP/1.1 503"), "{head} {body}");
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn ingest_panic_turns_readiness_red_and_keeps_answering() {
        let mut det = detector_from_flags(&flags(1)).unwrap();
        let ctx = ServeCtx::new(&mut det, &opts(128));
        for t in 0..64u64 {
            det.ingest(EventId((t % 8) as u32), Timestamp(t)).unwrap();
        }
        ctx.epochs.publish(&det);
        assert!(ctx.readiness().0, "{}", ctx.readiness().1);

        // The same helper the ingest thread runs under contains the panic.
        supervise_ingest(&ctx, || panic!("chunk 3 exploded"));

        for route in ["/readyz", "/healthz"] {
            let (status, _, body) = respond(&request("GET", route), &ctx);
            assert_eq!(status, "503 Service Unavailable", "{route}: {body}");
            assert!(body.contains("ingest stopped: chunk 3 exploded"), "{route}: {body}");
        }
        // Everything else answers: /query from the last published epoch.
        let (status, _, body) =
            respond(&request("GET", "/query?kind=point&event=2&t=60&tau=8"), &ctx);
        assert_eq!(status, "200 OK", "{body}");
        assert!(body.contains("\"arrivals\":64"), "{body}");
        for route in ["/metrics", "/livez"] {
            let (status, _, body) = respond(&request("GET", route), &ctx);
            assert_eq!(status, "200 OK", "{route}: {body}");
        }
    }

    /// A panicking answer is a `500` with a JSON error, and the worker
    /// that caught it goes on to answer the next queued connection.
    #[test]
    fn a_panicking_answer_is_a_500_and_the_worker_serves_on() {
        fn exploding(req: &Request, ctx: &ServeCtx) -> (&'static str, &'static str, String) {
            if req.path == "/boom" {
                panic!("answer exploded");
            }
            respond(req, ctx)
        }
        let mut det = detector_from_flags(&flags(1)).unwrap();
        let ctx = ServeCtx::new(&mut det, &opts(128));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (queue, jobs) = mpsc::sync_channel(QUEUE_DEPTH);
        let mut clients = Vec::new();
        for path in ["/boom", "/livez"] {
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            write!(client, "GET {path} HTTP/1.1\r\nHost: bed\r\n\r\n").unwrap();
            let (stream, _) = listener.accept().unwrap();
            ctx.server.queued.fetch_add(1, Ordering::Relaxed);
            queue.send(Queued { stream, accepted: Instant::now() }).unwrap();
            clients.push(client);
        }
        drop(queue);
        // One worker on this thread answers both, then finds the queue
        // closed and drained and returns.
        worker_loop(&Mutex::new(jobs), &ctx, exploding);

        let mut answers = clients.into_iter().map(|mut client| {
            let mut resp = String::new();
            client.read_to_string(&mut resp).unwrap();
            resp
        });
        let boom = answers.next().unwrap();
        assert!(boom.starts_with("HTTP/1.1 500 Internal Server Error\r\n"), "{boom}");
        assert!(boom.contains(CT_JSON), "{boom}");
        assert!(boom.ends_with("{\"error\":\"internal error: answer exploded\"}\n"), "{boom}");
        let next = answers.next().unwrap();
        assert!(
            next.starts_with("HTTP/1.1 200 OK\r\n") && next.ends_with("\r\n\r\nok\n"),
            "{next}"
        );
        assert_eq!(ctx.server.queued.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.server.busy.load(Ordering::Relaxed), 0);
    }
}
