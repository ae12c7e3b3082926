//! Command execution.

use std::fmt::Write as _;
use std::fs;

use bed_core::{
    AnyDetector, BurstDetector, EventSink as _, PbeVariant, QueryRequest, QueryResponse,
    QueryScratch, QueryStrategy, Snapshot, SnapshotStore,
};
use bed_stream::{BurstSpan, Codec, EventId, Timestamp};
use bed_workload::{olympics, politics};

use crate::args::{Command, DetectorFlags, StatsFormat};
use crate::CliError;

/// A persisted sketch of any format: `BEDD`, `BEDS v1`, or a `BEDS v2`
/// snapshot envelope (whose embedded detector is unwrapped). The commands
/// are agnostic of the physical layout and of whether the file was a
/// checkpoint.
type AnySketch = AnyDetector;

fn bursty_time_ranges(
    det: &AnySketch,
    theta: f64,
    tau: BurstSpan,
    horizon: Timestamp,
) -> Result<Vec<bed_core::TimeRange>, bed_core::BedError> {
    match det {
        AnyDetector::Plain(d) => d.bursty_time_ranges(theta, tau, horizon),
        AnyDetector::Sharded(_) => Err(bed_core::BedError::WrongMode {
            operation: "bursty_time_ranges",
            built_for: "mixed event streams (use bursty_times)",
        }),
    }
}

/// The query answered a different variant than asked — impossible per the
/// [`BurstQueries`] contract, surfaced as an error rather than a panic.
fn mismatched() -> CliError {
    CliError::BadInput("internal: query response variant mismatch".into())
}

/// Runs one query command: loads the sketch, answers `request` through
/// the scratch-reusing path (one [`QueryScratch`], so even multi-probe
/// queries stay off the per-probe allocator; EXPLAIN arms its stage
/// clocks), renders the response, then appends the `--explain` breakdown
/// and the `--metrics` snapshot when asked. `render` returns `None` for a
/// response variant it does not expect.
fn query_command(
    path: &str,
    request: QueryRequest,
    metrics: bool,
    explain: bool,
    render: impl FnOnce(QueryResponse) -> Option<String>,
) -> Result<String, CliError> {
    let det = load(path)?;
    let mut scratch = QueryScratch::new();
    scratch.explain = explain;
    let started = std::time::Instant::now();
    let response = det.queries().query_reusing(&request, &mut scratch)?;
    let root_ns = started.elapsed().as_nanos() as u64;
    let mut out = render(response).ok_or_else(mismatched)?;
    if explain {
        // Mirrors the `/query?explain=1` block in aligned text form.
        let st = &scratch.stages;
        let path = crate::serve::probe_path(st.bank_probes, st.scalar_probes);
        out.push_str("\nexplain:\n");
        writeln!(out, " root               {root_ns} ns").expect("string write");
        writeln!(out, " cell probe         {} ns", st.cell_probe_ns).expect("string write");
        writeln!(out, " median combine     {} ns", st.median_combine_ns).expect("string write");
        writeln!(out, " hierarchy prune    {} ns", st.hierarchy_prune_ns).expect("string write");
        writeln!(
            out,
            " probe path         {path} ({} bank / {} scalar probes)",
            st.bank_probes, st.scalar_probes
        )
        .expect("string write");
    }
    if metrics {
        out.push_str("\nmetrics:\n");
        out.push_str(&det.queries().metrics().to_text());
    }
    Ok(out)
}

/// Executes a parsed command, returning its stdout text.
pub fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Generate { dataset, n, seed, out } => generate(&dataset, n, seed, &out),
        Command::Build { input, out, flags } => build(&input, &out, &flags),
        Command::Info { sketch } => info(&sketch),
        Command::Point { sketch, event, t, tau, metrics, explain } => {
            point(&sketch, event, t, tau, metrics, explain)
        }
        Command::Times { sketch, event, theta, tau, horizon, metrics, explain } => {
            times(&sketch, event, theta, tau, horizon, metrics, explain)
        }
        Command::Events { sketch, t, theta, tau, scan, metrics, explain } => {
            events(&sketch, t, theta, tau, scan, metrics, explain)
        }
        Command::Ranges { sketch, theta, tau, horizon } => ranges(&sketch, theta, tau, horizon),
        Command::Series { sketch, event, tau, horizon, step, metrics, explain } => {
            series(&sketch, event, tau, horizon, step, metrics, explain)
        }
        Command::Stats { sketch, format } => stats(&sketch, format),
        Command::Serve {
            input,
            addr,
            flags,
            sample,
            slow_threshold_ns,
            publish_every,
            profile_every_ms,
            ingest_delay_ms,
            state_dir,
        } => crate::serve::serve(
            &input,
            &flags,
            &crate::serve::ServeOptions {
                addr,
                sample,
                slow_threshold_ns,
                publish_every,
                profile_every_ms,
                ingest_delay_ms,
                state_dir,
            },
        ),
        Command::Trace { addr, id } => trace(&addr, id.as_deref()),
        Command::Profile { addr } => profile(&addr),
        Command::Ingest { input, out, wal, every, flags } => {
            ingest(&input, &out, &wal, every, &flags)
        }
        Command::Checkpoint { sketch, out } => checkpoint(&sketch, &out),
        Command::Restore { snapshot, wal, out, onto } => {
            restore(&snapshot, wal.as_deref(), &out, onto.as_deref())
        }
    }
}

fn generate(dataset: &str, n: u64, seed: u64, out: &str) -> Result<String, CliError> {
    let (stream, universe) = match dataset {
        "olympics" => {
            let s = olympics::generate(olympics::OlympicsConfig { total_elements: n, seed });
            (s.stream, s.universe)
        }
        _ => {
            let s =
                politics::generate(politics::PoliticsConfig { total_elements: n, skew: 1.1, seed });
            (s.stream, s.universe)
        }
    };
    let mut text = String::with_capacity(stream.len() * 12);
    for el in stream.iter() {
        writeln!(text, "{}\t{}", el.event.value(), el.ts.ticks()).expect("string write");
    }
    fs::write(out, text)?;
    Ok(format!(
        "wrote {} elements over universe {} to {out} (dataset={dataset}, seed={seed})\n",
        stream.len(),
        universe
    ))
}

/// Parses one `event<TAB>timestamp` line.
fn parse_line(line: &str, lineno: usize) -> Result<(EventId, Timestamp), CliError> {
    let mut parts = line.split('\t');
    let bad = || CliError::BadInput(format!("line {lineno}: expected 'event<TAB>timestamp'"));
    let event: u32 = parts.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
    let ts: u64 = parts.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
    Ok((EventId(event), Timestamp(ts)))
}

/// Reads a whole TSV stream into memory. Shared by `build`, `ingest`, and
/// `serve`.
pub(crate) fn read_elements(input: &str) -> Result<Vec<(EventId, Timestamp)>, CliError> {
    let text = fs::read_to_string(input)?;
    let mut els = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        els.push(parse_line(line, i + 1)?);
    }
    Ok(els)
}

/// Builds an empty detector of the layout described by `flags`. Shared by
/// `build`, `ingest`, and `serve` so flag semantics cannot drift between
/// the three ingestion commands.
pub(crate) fn detector_from_flags(f: &DetectorFlags) -> Result<AnyDetector, CliError> {
    let variant = match f.variant.as_str() {
        "pbe1" => PbeVariant::pbe1(f.eta),
        _ => PbeVariant::pbe2(f.gamma),
    };
    let mut builder = BurstDetector::builder()
        .variant(variant)
        .accuracy(f.epsilon, f.delta)
        .hierarchical(!f.flat)
        .seed(f.seed)
        .retention(f.retention);
    builder = match f.universe {
        Some(k) => builder.universe(k),
        None => builder.single_event(),
    };
    Ok(if f.shards > 1 {
        AnyDetector::Sharded(builder.shards(f.shards).build()?)
    } else {
        AnyDetector::Plain(Box::new(builder.build()?))
    })
}

fn build(input: &str, out: &str, flags: &DetectorFlags) -> Result<String, CliError> {
    let els = read_elements(input)?;
    let count = els.len();
    let mut det = detector_from_flags(flags)?;
    det.ingest_batch(&els)?;
    det.finalize();
    let bytes = det.to_bytes();
    let summary_bytes = det.size_bytes();
    fs::write(out, &bytes)?;
    Ok(format!(
        "ingested {count} elements; sketch summary {summary_bytes} bytes (file {} bytes) -> {out}\n",
        bytes.len()
    ))
}

/// Durable build: every arrival goes to the WAL (synced) before the
/// detector, and a `BEDS v2` snapshot is taken every `--every` arrivals —
/// so a `SIGKILL` at any instant loses nothing that was acknowledged.
/// `bed restore` turns the snapshot + WAL back into a queryable sketch.
fn ingest(
    input: &str,
    out: &str,
    wal: &str,
    every: u64,
    flags: &DetectorFlags,
) -> Result<String, CliError> {
    let els = read_elements(input)?;
    let count = els.len();
    let det = detector_from_flags(flags)?;
    let mut sink = bed_core::WalSink::create(wal, det)?;
    let mut ckpt =
        bed_core::Checkpointer::new(out, bed_core::CheckpointPolicy { every_arrivals: every });
    // Batch bounded by the checkpoint period, so the policy is honoured to
    // within one batch without an fsync per element.
    let chunk = every.clamp(1, 4096) as usize;
    for batch in els.chunks(chunk) {
        sink.ingest_batch(batch)?;
        ckpt.maybe_checkpoint(&sink)?;
    }
    // Final checkpoint covers the tail, so a restore replays zero records.
    ckpt.checkpoint(&sink)?;
    sink.into_inner()?;
    Ok(format!(
        "ingested {count} elements; {} checkpoints -> {out} (wal: {wal}, {count} records)\n",
        ckpt.checkpoints_taken(),
    ))
}

/// Wraps an existing sketch (any format) in a `BEDS v2` snapshot.
fn checkpoint(sketch: &str, out: &str) -> Result<String, CliError> {
    let det = load(sketch)?;
    let store = SnapshotStore::new(out);
    let bytes = store.save(&det)?;
    Ok(format!(
        "checkpointed {sketch} -> {out}: {bytes} bytes, watermark {} arrivals\n",
        det.watermark().arrivals
    ))
}

/// Recovers a detector from a snapshot plus the WAL tail, finalizes it,
/// and writes it back out as a plain queryable sketch.
fn restore(
    snapshot: &str,
    wal: Option<&str>,
    out: &str,
    onto: Option<&str>,
) -> Result<String, CliError> {
    let store = SnapshotStore::new(snapshot);
    let outcome = bed_core::recover(&store, wal.map(std::path::Path::new))?;
    let mut det = outcome.detector;
    if let Some(onto_path) = onto {
        let target = load(onto_path)?;
        bed_core::check_same_layout(
            (target.config(), target.layout_shards()),
            (det.config(), det.layout_shards()),
        )?;
    }
    det.finalize();
    fs::write(out, det.to_bytes())?;
    let mut notes = Vec::new();
    if outcome.fell_back {
        notes.push("fell back to the previous snapshot generation".to_string());
    }
    if outcome.torn_tail {
        notes.push("dropped a torn (unacknowledged) wal tail".to_string());
    }
    let notes = if notes.is_empty() { String::new() } else { format!("  [{}]", notes.join("; ")) };
    Ok(format!(
        "restored {} arrivals (snapshot {} + {} replayed of {} wal records) -> {out}{notes}\n",
        det.arrivals(),
        outcome.watermark.arrivals,
        outcome.replayed,
        outcome.wal_records,
    ))
}

fn load(path: &str) -> Result<AnySketch, CliError> {
    let bytes = fs::read(path)?;
    // A BEDS v2 file is a snapshot envelope around a detector record;
    // anything else is a bare BEDD / BEDS v1 record.
    if bytes.len() >= 6
        && bytes.starts_with(&bed_core::checkpoint::SNAPSHOT_MAGIC)
        && u16::from_le_bytes([bytes[4], bytes[5]]) == bed_core::checkpoint::SNAPSHOT_VERSION
    {
        Ok(Snapshot::from_bytes(&bytes)?.detector)
    } else {
        Ok(AnyDetector::from_bytes(&bytes)?)
    }
}

fn info(path: &str) -> Result<String, CliError> {
    let det = load(path)?;
    let c = det.queries().config();
    let mut mode = match (c.universe, c.hierarchical) {
        (None, _) => "single-event".to_string(),
        (Some(k), true) => format!("mixed, K={k}, hierarchical"),
        (Some(k), false) => format!("mixed, K={k}, flat"),
    };
    if let AnyDetector::Sharded(s) = &det {
        write!(mode, ", {} shards", s.num_shards()).expect("string write");
    }
    Ok(format!(
        "sketch: {path}\n mode: {mode}\n variant: {:?}\n epsilon/delta: {}/{}\n seed: {}\n arrivals: {}\n summary bytes: {}\n",
        c.variant, c.sketch.epsilon, c.sketch.delta, c.seed,
        det.queries().arrivals(), det.queries().size_bytes()
    ))
}

fn point(
    path: &str,
    event: u32,
    t: u64,
    tau: u64,
    metrics: bool,
    explain: bool,
) -> Result<String, CliError> {
    let tau = BurstSpan::new(tau).map_err(bed_core::BedError::from)?;
    let request = QueryRequest::Point { event: EventId(event), t: Timestamp(t), tau };
    query_command(path, request, metrics, explain, |response| {
        let QueryResponse::Point { burstiness: b, burst_frequency: bf, cumulative: f, tier } =
            response
        else {
            return None;
        };
        let mut out = format!(
            "event {event} at t={t} (tau={}):\n burstiness  {b:.1}\n rate/span   {bf:.1}\n cumulative  {f:.1}\n",
            tau.ticks()
        );
        if let Some(tier) = tier {
            writeln!(out, " served by   retention tier {tier}").expect("string write");
        }
        Some(out)
    })
}

fn times(
    path: &str,
    event: u32,
    theta: f64,
    tau: u64,
    horizon: u64,
    metrics: bool,
    explain: bool,
) -> Result<String, CliError> {
    let tau = BurstSpan::new(tau).map_err(bed_core::BedError::from)?;
    let request = QueryRequest::BurstyTimes {
        event: EventId(event),
        theta,
        tau,
        horizon: Timestamp(horizon),
    };
    query_command(path, request, metrics, explain, |response| {
        let QueryResponse::BurstyTimes(hits) = response else {
            return None;
        };
        let mut out = format!(
            "event {event}, theta={theta}, tau={}: {} bursty instants\n",
            tau.ticks(),
            hits.len()
        );
        for (t, b) in hits {
            writeln!(out, "  t={}\tb={b:.1}", t.ticks()).expect("string write");
        }
        Some(out)
    })
}

fn events(
    path: &str,
    t: u64,
    theta: f64,
    tau: u64,
    scan: bool,
    metrics: bool,
    explain: bool,
) -> Result<String, CliError> {
    let tau = BurstSpan::new(tau).map_err(bed_core::BedError::from)?;
    let strategy = if scan { QueryStrategy::ExactScan } else { QueryStrategy::Pruned };
    let request = QueryRequest::BurstyEvents { t: Timestamp(t), theta, tau, strategy };
    query_command(path, request, metrics, explain, |response| {
        let QueryResponse::BurstyEvents { hits, stats } = response else {
            return None;
        };
        let mut out = format!(
            "t={t}, theta={theta}, tau={}: {} bursty events ({} probes)\n",
            tau.ticks(),
            hits.len(),
            stats.point_queries
        );
        for h in hits {
            writeln!(out, "  event {}\tb={:.1}", h.event.value(), h.burstiness)
                .expect("string write");
        }
        Some(out)
    })
}

fn ranges(path: &str, theta: f64, tau: u64, horizon: u64) -> Result<String, CliError> {
    let det = load(path)?;
    let tau = BurstSpan::new(tau).map_err(bed_core::BedError::from)?;
    let ranges = bursty_time_ranges(&det, theta, tau, Timestamp(horizon))?;
    let mut out = format!("theta={theta}, tau={}: {} bursty ranges\n", tau.ticks(), ranges.len());
    for r in ranges {
        writeln!(out, "  [{}, {}]  ({} ticks)", r.start.ticks(), r.end.ticks(), r.len_ticks())
            .expect("string write");
    }
    Ok(out)
}

fn series(
    path: &str,
    event: u32,
    tau: u64,
    horizon: u64,
    step: u64,
    metrics: bool,
    explain: bool,
) -> Result<String, CliError> {
    let tau = BurstSpan::new(tau).map_err(bed_core::BedError::from)?;
    let range = bed_core::TimeRange { start: Timestamp(0), end: Timestamp(horizon) };
    let request = QueryRequest::Series { event: EventId(event), tau, range, step };
    query_command(path, request, metrics, explain, |response| {
        let QueryResponse::Series(series) = response else {
            return None;
        };
        let mut out = format!("event {event}, tau={}, step={step}:\n", tau.ticks());
        for (t, b) in series {
            writeln!(out, "{}\t{b:.1}", t.ticks()).expect("string write");
        }
        Some(out)
    })
}

/// One blocking HTTP/1.1 GET against a running `bed serve`, returning
/// `(status line, body)`. Std-only on purpose — the container builds
/// offline, and the server always answers `Connection: close`.
fn http_get(addr: &str, path: &str) -> Result<(String, String), CliError> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bed\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let Some(split) = resp.find("\r\n\r\n") else {
        return Err(CliError::BadInput(format!("malformed HTTP response from {addr}")));
    };
    let status = resp.lines().next().unwrap_or("").to_string();
    Ok((status, resp[split + 4..].to_string()))
}

/// `bed trace`: `/trace/recent` (span ring as JSON lines) or
/// `/trace/<id>` (one assembled tree) from a running server.
fn trace(addr: &str, id: Option<&str>) -> Result<String, CliError> {
    let path = match id {
        Some(id) => format!("/trace/{id}"),
        None => "/trace/recent".to_string(),
    };
    let (status, body) = http_get(addr, &path)?;
    if !status.contains(" 200 ") {
        return Err(CliError::BadInput(format!("{addr} {path}: {status}: {}", body.trim())));
    }
    Ok(body)
}

/// `bed profile`: the self-profiler's folded-stack dump from a running
/// server (`bed;<stage> <busy_ns>` per line — flamegraph-ready).
fn profile(addr: &str) -> Result<String, CliError> {
    let (status, body) = http_get(addr, "/profile")?;
    if !status.contains(" 200 ") {
        return Err(CliError::BadInput(format!("{addr} /profile: {status}: {}", body.trim())));
    }
    Ok(body)
}

fn stats(path: &str, format: StatsFormat) -> Result<String, CliError> {
    let det = load(path)?;
    let snap = det.queries().metrics();
    Ok(match format {
        StatsFormat::Json => format!("{}\n", snap.to_json()),
        StatsFormat::Text => snap.to_text(),
        StatsFormat::OpenMetrics => snap.to_openmetrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("bed-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_build_query_pipeline() {
        let tsv = tmp("pipe.tsv");
        let sk = tmp("pipe.bed");
        let out =
            run(["generate", "--dataset", "olympics", "--n", "20000", "--out", &tsv]).unwrap();
        assert!(out.contains("wrote"), "{out}");

        let out = run([
            "build",
            "--input",
            &tsv,
            "--out",
            &sk,
            "--universe",
            "864",
            "--variant",
            "pbe2",
            "--gamma",
            "8",
        ])
        .unwrap();
        assert!(out.contains("ingested"), "{out}");

        let out = run(["info", "--sketch", &sk]).unwrap();
        assert!(out.contains("mixed, K=864, hierarchical"), "{out}");

        let out = run(["point", "--sketch", &sk, "--event", "0", "--t", "1814400"]).unwrap();
        assert!(out.contains("burstiness"), "{out}");

        let out =
            run(["events", "--sketch", &sk, "--t", "1814400", "--theta", "50", "--tau", "86400"])
                .unwrap();
        assert!(out.contains("bursty events"), "{out}");
    }

    #[test]
    fn single_event_pipeline_via_times() {
        let tsv = tmp("single.tsv");
        let sk = tmp("single.bed");
        // hand-written single-event stream with a burst
        let mut text = String::new();
        for t in 0..200u64 {
            text.push_str(&format!("0\t{t}\n"));
            if t >= 150 {
                for _ in 0..5 {
                    text.push_str(&format!("0\t{t}\n"));
                }
            }
        }
        std::fs::write(&tsv, text).unwrap();
        run(["build", "--input", &tsv, "--out", &sk, "--variant", "pbe1", "--eta", "16"]).unwrap();
        let out =
            run(["times", "--sketch", &sk, "--theta", "50", "--tau", "30", "--horizon", "400"])
                .unwrap();
        assert!(out.contains("bursty instants"), "{out}");
        assert!(out.lines().count() > 1, "expected hits, got: {out}");
    }

    #[test]
    fn ranges_and_series_commands() {
        let tsv = tmp("rs.tsv");
        let sk = tmp("rs.bed");
        let mut text = String::new();
        for t in 0..300u64 {
            text.push_str(&format!("0\t{t}\n"));
            if (200..230).contains(&t) {
                for _ in 0..8 {
                    text.push_str(&format!("0\t{t}\n"));
                }
            }
        }
        std::fs::write(&tsv, text).unwrap();
        run(["build", "--input", &tsv, "--out", &sk, "--variant", "pbe2", "--gamma", "2"]).unwrap();

        let out =
            run(["ranges", "--sketch", &sk, "--theta", "100", "--tau", "40", "--horizon", "400"])
                .unwrap();
        assert!(out.contains("bursty ranges"), "{out}");
        assert!(out.contains('['), "expected at least one interval: {out}");

        let out =
            run(["series", "--sketch", &sk, "--tau", "40", "--horizon", "300", "--step", "50"])
                .unwrap();
        assert_eq!(out.lines().count(), 1 + 7, "{out}"); // header + 0..=300 step 50

        // ranges requires a single-event sketch
        let tsv2 = tmp("rs2.tsv");
        let sk2 = tmp("rs2.bed");
        std::fs::write(&tsv2, "0\t1\n1\t2\n").unwrap();
        run(["build", "--input", &tsv2, "--out", &sk2, "--universe", "4"]).unwrap();
        let err =
            run(["ranges", "--sketch", &sk2, "--theta", "1", "--tau", "5", "--horizon", "10"])
                .unwrap_err();
        assert!(err.to_string().contains("mixed"), "{err}");
    }

    #[test]
    fn sharded_build_and_queries() {
        let tsv = tmp("shard.tsv");
        let sk = tmp("shard.beds");
        let sk1 = tmp("shard1.bed");
        let mut text = String::new();
        for t in 0..200u64 {
            text.push_str(&format!("0\t{t}\n3\t{t}\n"));
            if t >= 180 {
                for _ in 0..10 {
                    text.push_str(&format!("5\t{t}\n"));
                }
            }
        }
        std::fs::write(&tsv, text).unwrap();
        let base = ["build", "--input", &tsv, "--universe", "8", "--gamma", "1", "--seed", "3"];
        run(base.iter().chain(["--out", &sk, "--shards", "4"].iter()).copied()).unwrap();
        run(base.iter().chain(["--out", &sk1].iter()).copied()).unwrap();

        let out = run(["info", "--sketch", &sk]).unwrap();
        assert!(out.contains("mixed, K=8, hierarchical, 4 shards"), "{out}");

        // sharding is invisible to point queries: same answer as unsharded
        let args = ["--event", "5", "--t", "199", "--tau", "20"];
        let sharded = run(["point", "--sketch", &sk].iter().chain(&args).copied()).unwrap();
        let plain = run(["point", "--sketch", &sk1].iter().chain(&args).copied()).unwrap();
        assert_eq!(
            sharded.lines().skip(1).collect::<Vec<_>>(),
            plain.lines().skip(1).collect::<Vec<_>>()
        );

        let out =
            run(["events", "--sketch", &sk, "--t", "199", "--theta", "50", "--tau", "20"]).unwrap();
        assert!(out.contains("event 5"), "{out}");

        let out = run([
            "times",
            "--sketch",
            &sk,
            "--event",
            "5",
            "--theta",
            "50",
            "--tau",
            "20",
            "--horizon",
            "300",
        ])
        .unwrap();
        assert!(out.contains("bursty instants"), "{out}");

        let out = run([
            "series",
            "--sketch",
            &sk,
            "--event",
            "5",
            "--tau",
            "20",
            "--horizon",
            "200",
            "--step",
            "50",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 1 + 5, "{out}");

        // interval semantics stay single-event-only
        let err = run(["ranges", "--sketch", &sk, "--theta", "1", "--tau", "5", "--horizon", "10"])
            .unwrap_err();
        assert!(err.to_string().contains("bursty_time_ranges"), "{err}");
    }

    #[test]
    fn stats_and_metrics_flags() {
        let tsv = tmp("stats.tsv");
        let sk = tmp("stats.bed");
        std::fs::write(&tsv, "0\t1\n1\t2\n2\t3\n").unwrap();
        run(["build", "--input", &tsv, "--out", &sk, "--universe", "4"]).unwrap();

        let out = run(["stats", "--sketch", &sk]).unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"ingest.count\""), "{out}");
        assert!(out.contains("\"value\":3"), "decoded sketches seed ingest.count: {out}");
        assert!(out.contains("\"structure.bytes\""), "{out}");
        assert!(out.contains("\"query.point.latency_ns\""), "{out}");

        let out = run(["stats", "--sketch", &sk, "--text"]).unwrap();
        assert!(!out.starts_with('{') && out.contains("ingest.count"), "{out}");

        // --format openmetrics emits exactly what `bed serve` puts on the
        // `/metrics` wire: HELP/TYPE framing, suffix conventions, EOF.
        let out = run(["stats", "--sketch", &sk, "--format", "openmetrics"]).unwrap();
        assert!(out.starts_with("# HELP "), "{out}");
        assert!(out.contains("# TYPE bed_ingest_count counter"), "{out}");
        assert!(out.contains("bed_ingest_count_total 3"), "{out}");
        assert!(out.contains("bed_structure_bytes "), "{out}");
        assert!(out.contains("layer=\"cmpbe\""), "{out}");
        assert!(out.ends_with("# EOF\n"), "{out}");

        let out = run(["point", "--sketch", &sk, "--event", "0", "--t", "3", "--metrics"]).unwrap();
        assert!(out.contains("burstiness"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("query.point.count"), "{out}");

        let out =
            run(["events", "--sketch", &sk, "--t", "3", "--theta", "0.5", "--tau", "2", "--scan"])
                .unwrap();
        assert!(out.contains("bursty events"), "{out}");
    }

    #[test]
    fn ingest_checkpoint_restore_round_trip() {
        let tsv = tmp("dur.tsv");
        let snap = tmp("dur.ckpt");
        let wal = tmp("dur.wal");
        let restored = tmp("dur-restored.bed");
        let golden = tmp("dur-golden.bed");
        let mut text = String::new();
        for t in 0..400u64 {
            text.push_str(&format!("{}\t{t}\n", t % 8));
            if t >= 350 {
                for _ in 0..6 {
                    text.push_str(&format!("2\t{t}\n"));
                }
            }
        }
        std::fs::write(&tsv, text).unwrap();

        let base = ["--universe", "8", "--gamma", "1", "--seed", "5"];
        let out = run(["ingest", "--input", &tsv, "--out", &snap, "--wal", &wal, "--every", "100"]
            .iter()
            .chain(&base)
            .copied())
        .unwrap();
        assert!(out.contains("checkpoints"), "{out}");

        let out = run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &restored]).unwrap();
        assert!(out.contains("restored"), "{out}");

        // the restored sketch answers exactly like a plain build
        run(["build", "--input", &tsv, "--out", &golden].iter().chain(&base).copied()).unwrap();
        let args = ["--event", "2", "--t", "399", "--tau", "30"];
        let a = run(["point", "--sketch", &restored].iter().chain(&args).copied()).unwrap();
        let b = run(["point", "--sketch", &golden].iter().chain(&args).copied()).unwrap();
        assert_eq!(a.lines().skip(1).collect::<Vec<_>>(), b.lines().skip(1).collect::<Vec<_>>());

        // every query command accepts the snapshot file directly
        let out = run(["info", "--sketch", &snap]).unwrap();
        assert!(out.contains("mixed, K=8"), "{out}");

        // checkpoint an existing sketch, restore it without a wal
        let resnap = tmp("dur-re.ckpt");
        let reout = tmp("dur-re.bed");
        let out = run(["checkpoint", "--sketch", &golden, "--out", &resnap]).unwrap();
        assert!(out.contains("watermark"), "{out}");
        let out = run(["restore", "--snapshot", &resnap, "--out", &reout]).unwrap();
        assert!(out.contains("0 replayed of 0"), "{out}");
        assert_eq!(std::fs::read(&reout).unwrap(), std::fs::read(&golden).unwrap());
    }

    #[test]
    fn restore_onto_mismatched_config_diffs() {
        let tsv = tmp("onto.tsv");
        std::fs::write(&tsv, "0\t1\n1\t2\n2\t3\n").unwrap();
        let snap = tmp("onto.ckpt");
        let wal = tmp("onto.wal");
        let other = tmp("onto-other.bed");
        run([
            "ingest",
            "--input",
            &tsv,
            "--out",
            &snap,
            "--wal",
            &wal,
            "--universe",
            "8",
            "--seed",
            "1",
        ])
        .unwrap();
        // different universe AND seed
        run(["build", "--input", &tsv, "--out", &other, "--universe", "16", "--seed", "2"])
            .unwrap();
        let out = tmp("onto-restored.bed");
        let err =
            run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out, "--onto", &other])
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("configuration mismatch"), "{msg}");
        assert!(msg.contains("universe"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
        // matching config is accepted
        let same = tmp("onto-same.bed");
        run(["build", "--input", &tsv, "--out", &same, "--universe", "8", "--seed", "1"]).unwrap();
        run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out, "--onto", &same])
            .unwrap();
    }

    #[test]
    fn restore_onto_retention_mismatch_refuses_with_diff() {
        let tsv = tmp("ret-onto.tsv");
        std::fs::write(&tsv, "0\t1\n1\t2\n2\t3\n").unwrap();
        let snap = tmp("ret-onto.ckpt");
        let wal = tmp("ret-onto.wal");
        run([
            "ingest",
            "--input",
            &tsv,
            "--out",
            &snap,
            "--wal",
            &wal,
            "--universe",
            "8",
            "--retention",
            "100:8:2",
        ])
        .unwrap();
        // target built WITHOUT a policy: the recovered tiered state must not
        // silently masquerade as a full-resolution sketch
        let unbounded = tmp("ret-onto-unbounded.bed");
        run(["build", "--input", &tsv, "--out", &unbounded, "--universe", "8"]).unwrap();
        let out = tmp("ret-onto-restored.bed");
        let err = run([
            "restore",
            "--snapshot",
            &snap,
            "--wal",
            &wal,
            "--out",
            &out,
            "--onto",
            &unbounded,
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("configuration mismatch"), "{msg}");
        assert!(msg.contains("retention"), "{msg}");
        assert!(msg.contains("none"), "{msg}");
        // a different policy is also a refusal, with both specs in the diff
        let coarser = tmp("ret-onto-coarser.bed");
        run([
            "build",
            "--input",
            &tsv,
            "--out",
            &coarser,
            "--universe",
            "8",
            "--retention",
            "200:8:2",
        ])
        .unwrap();
        let msg =
            run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out, "--onto", &coarser])
                .unwrap_err()
                .to_string();
        assert!(msg.contains("retention"), "{msg}");
        assert!(msg.contains("100:8:2") && msg.contains("200:8:2"), "{msg}");
        // the matching policy restores cleanly
        let same = tmp("ret-onto-same.bed");
        run([
            "build",
            "--input",
            &tsv,
            "--out",
            &same,
            "--universe",
            "8",
            "--retention",
            "100:8:2",
        ])
        .unwrap();
        run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out, "--onto", &same])
            .unwrap();
    }

    #[test]
    fn corrupt_snapshot_and_wal_are_reported_not_panics() {
        let tsv = tmp("cor.tsv");
        std::fs::write(&tsv, "0\t1\n1\t2\n2\t3\n3\t4\n").unwrap();
        let snap = tmp("cor.ckpt");
        let wal = tmp("cor.wal");
        run(["ingest", "--input", &tsv, "--out", &snap, "--wal", &wal, "--universe", "4"]).unwrap();

        // bit-flip the snapshot payload: CRC catches it; with no .prev the
        // restore errors out cleanly
        let prev = format!("{snap}.prev");
        let _ = std::fs::remove_file(&prev);
        let good = std::fs::read(&snap).unwrap();
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&snap, &bad).unwrap();
        let out = tmp("cor-out.bed");
        let err = run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out]).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // ...and `info` on the damaged snapshot reports the same, not a panic
        let err = run(["info", "--sketch", &snap]).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // truncated snapshot
        std::fs::write(&snap, &good[..good.len() / 3]).unwrap();
        let err = run(["info", "--sketch", &snap]).unwrap_err();
        assert!(matches!(err, CliError::Codec(_)), "{err}");

        // snapshot version from the future
        let mut future = good.clone();
        future[4] = 0x2A;
        future[5] = 0;
        std::fs::write(&snap, &future).unwrap();
        let err = run(["info", "--sketch", &snap]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // corrupt wal header
        std::fs::write(&snap, &good).unwrap();
        let mut wal_bytes = std::fs::read(&wal).unwrap();
        wal_bytes[8] ^= 0xFF;
        std::fs::write(&wal, &wal_bytes).unwrap();
        let err = run(["restore", "--snapshot", &snap, "--wal", &wal, "--out", &out]).unwrap_err();
        assert!(matches!(err, CliError::Codec(_) | CliError::Recovery(_)), "{err}");
    }

    #[test]
    fn malformed_tsv_is_reported_with_line_number() {
        let tsv = tmp("bad.tsv");
        std::fs::write(&tsv, "0\t1\nnot-a-line\n").unwrap();
        let sk = tmp("bad.bed");
        let err = run(["build", "--input", &tsv, "--out", &sk]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn corrupt_sketch_file_is_reported() {
        let sk = tmp("corrupt.bed");
        std::fs::write(&sk, b"definitely not a sketch").unwrap();
        let err = run(["info", "--sketch", &sk]).unwrap_err();
        assert!(err.to_string().contains("corrupt sketch"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(["info", "--sketch", "/nonexistent/path.bed"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
