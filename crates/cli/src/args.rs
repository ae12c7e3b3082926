//! Hand-rolled argument parsing (the CLI's option surface is small enough
//! that a dependency-free parser is simpler than pulling one in).

use std::collections::BTreeMap;

use crate::CliError;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bed generate` — synthesise a workload.
    Generate {
        /// `olympics` or `politics`.
        dataset: String,
        /// Target element count.
        n: u64,
        /// RNG seed.
        seed: u64,
        /// Output TSV path.
        out: String,
    },
    /// `bed build` — build and persist a sketch.
    Build {
        /// Input TSV path.
        input: String,
        /// Output sketch path.
        out: String,
        /// Detector construction options.
        flags: DetectorFlags,
    },
    /// `bed info` — describe a persisted sketch.
    Info {
        /// Sketch path.
        sketch: String,
    },
    /// `bed point` — point query.
    Point {
        /// Sketch path.
        sketch: String,
        /// Event id.
        event: u32,
        /// Query instant.
        t: u64,
        /// Burst span τ.
        tau: u64,
        /// Append a metrics snapshot to the output.
        metrics: bool,
        /// Append a per-stage EXPLAIN breakdown to the output.
        explain: bool,
    },
    /// `bed times` — bursty-time query.
    Times {
        /// Sketch path.
        sketch: String,
        /// Event id.
        event: u32,
        /// Threshold θ.
        theta: f64,
        /// Burst span τ.
        tau: u64,
        /// Horizon.
        horizon: u64,
        /// Append a metrics snapshot to the output.
        metrics: bool,
        /// Append a per-stage EXPLAIN breakdown to the output.
        explain: bool,
    },
    /// `bed events` — bursty-event query.
    Events {
        /// Sketch path.
        sketch: String,
        /// Query instant.
        t: u64,
        /// Threshold θ.
        theta: f64,
        /// Burst span τ.
        tau: u64,
        /// Exhaustive scan instead of the pruned dyadic search.
        scan: bool,
        /// Append a metrics snapshot to the output.
        metrics: bool,
        /// Append a per-stage EXPLAIN breakdown to the output.
        explain: bool,
    },
    /// `bed ranges` — interval bursty-time query (single-event sketches).
    Ranges {
        /// Sketch path.
        sketch: String,
        /// Threshold θ.
        theta: f64,
        /// Burst span τ.
        tau: u64,
        /// Horizon.
        horizon: u64,
    },
    /// `bed series` — burstiness time series of one event.
    Series {
        /// Sketch path.
        sketch: String,
        /// Event id.
        event: u32,
        /// Burst span τ.
        tau: u64,
        /// Horizon.
        horizon: u64,
        /// Sample step in ticks.
        step: u64,
        /// Append a metrics snapshot to the output.
        metrics: bool,
        /// Append a per-stage EXPLAIN breakdown to the output.
        explain: bool,
    },
    /// `bed stats` — metrics snapshot of a persisted sketch.
    Stats {
        /// Sketch path.
        sketch: String,
        /// Output rendering.
        format: StatsFormat,
    },
    /// `bed serve` — HTTP scrape endpoint over a live ingest.
    Serve {
        /// Input TSV stream drained by the background ingest thread.
        input: String,
        /// Listen address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Detector construction options.
        flags: DetectorFlags,
        /// Trace 1 in N queries (0 disables tracing).
        sample: u64,
        /// Slow-query capture threshold in nanoseconds (0 captures every
        /// traced query).
        slow_threshold_ns: u64,
        /// Publish a query epoch every this many arrivals (`/query`
        /// answers from the latest published epoch).
        publish_every: u64,
        /// Milliseconds between self-profiler samples (0 disables).
        profile_every_ms: u64,
        /// Milliseconds the ingest thread waits before draining (leaves a
        /// pre-genesis window in which `/readyz` reports 503).
        ingest_delay_ms: u64,
        /// Directory `/readyz` probes for writability (omit to skip).
        state_dir: Option<String>,
    },
    /// `bed trace` — fetch recent spans (or one assembled trace) from a
    /// running `bed serve`.
    Trace {
        /// Server address (`host:port`).
        addr: String,
        /// Trace id to assemble (`/trace/<id>`); omit for `/trace/recent`.
        id: Option<String>,
    },
    /// `bed profile` — fetch the self-profiler's folded-stack dump from a
    /// running `bed serve`.
    Profile {
        /// Server address (`host:port`).
        addr: String,
    },
    /// `bed ingest` — durable build: WAL every arrival, checkpoint
    /// periodically, survive a kill at any instant.
    Ingest {
        /// Input TSV path.
        input: String,
        /// Snapshot (checkpoint) path.
        out: String,
        /// Write-ahead-log path.
        wal: String,
        /// Checkpoint every this many arrivals.
        every: u64,
        /// Detector construction options.
        flags: DetectorFlags,
    },
    /// `bed checkpoint` — wrap an existing sketch in a BEDS v2 snapshot.
    Checkpoint {
        /// Sketch (or snapshot) path to read.
        sketch: String,
        /// Snapshot path to write.
        out: String,
    },
    /// `bed restore` — recover a detector from a snapshot + WAL tail.
    Restore {
        /// Snapshot path (the store also consults `<path>.prev`).
        snapshot: String,
        /// Write-ahead-log path to replay past the watermark.
        wal: Option<String>,
        /// Where to write the recovered, finalized sketch.
        out: String,
        /// Existing sketch whose configuration the recovered state must
        /// match (refuses with a config diff otherwise).
        onto: Option<String>,
    },
}

/// Output format for `bed stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// One JSON object (the default).
    Json,
    /// Aligned human-readable text.
    Text,
    /// OpenMetrics text exposition — the exact bytes `bed serve` puts on
    /// the `/metrics` wire, for offline snapshots.
    OpenMetrics,
}

/// Detector-construction options shared by `build`, `ingest`, and `serve`.
/// One parse helper (`detector_flags`) feeds all three, so defaults and
/// validation cannot drift between the commands.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorFlags {
    /// `pbe1` or `pbe2`.
    pub variant: String,
    /// η for pbe1.
    pub eta: usize,
    /// γ for pbe2.
    pub gamma: f64,
    /// Universe size K (omit for single-event mode).
    pub universe: Option<u32>,
    /// Count-Min ε.
    pub epsilon: f64,
    /// Count-Min δ.
    pub delta: f64,
    /// Disable the dyadic hierarchy.
    pub flat: bool,
    /// Hash seed.
    pub seed: u64,
    /// Shard count for parallel ingestion (1 = unsharded).
    pub shards: usize,
    /// Tiered retention policy (`window:budget[:every]`); `None` keeps
    /// the full-resolution history forever.
    pub retention: Option<bed_core::RetentionPolicy>,
}

/// Splits `--key value` pairs after the subcommand.
fn options<I: Iterator<Item = String>>(rest: I) -> Result<BTreeMap<String, String>, CliError> {
    let mut map = BTreeMap::new();
    let mut iter = rest.peekable();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected --option, found '{key}'")));
        };
        // boolean flags take no value
        if matches!(name, "flat" | "metrics" | "scan" | "text" | "explain") {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = iter.next() else {
            return Err(CliError::Usage(format!("--{name} requires a value")));
        };
        if map.insert(name.to_string(), value).is_some() {
            return Err(CliError::Usage(format!("--{name} given twice")));
        }
    }
    Ok(map)
}

struct Opts {
    map: BTreeMap<String, String>,
    command: &'static str,
}

impl Opts {
    fn required(&mut self, name: &str) -> Result<String, CliError> {
        self.map
            .remove(name)
            .ok_or_else(|| CliError::Usage(format!("{}: --{name} is required", self.command)))
    }

    fn optional(&mut self, name: &str) -> Option<String> {
        self.map.remove(name)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, raw: &str) -> Result<T, CliError> {
        raw.parse().map_err(|_| {
            CliError::Usage(format!("{}: --{name} '{raw}' is not a valid number", self.command))
        })
    }

    fn required_num<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, CliError> {
        let raw = self.required(name)?;
        self.parse_num(name, &raw)
    }

    fn optional_num<T: std::str::FromStr>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.optional(name) {
            Some(raw) => self.parse_num(name, &raw),
            None => Ok(default),
        }
    }

    fn finish(self) -> Result<(), CliError> {
        if let Some(extra) = self.map.keys().next() {
            return Err(CliError::Usage(format!("{}: unknown option --{extra}", self.command)));
        }
        Ok(())
    }
}

/// Parses the detector-construction option block shared by `build`,
/// `ingest`, and `serve` (variant/accuracy/universe/seed/shards).
fn detector_flags(o: &mut Opts) -> Result<DetectorFlags, CliError> {
    let variant = o.optional("variant").unwrap_or_else(|| "pbe2".into());
    if variant != "pbe1" && variant != "pbe2" {
        return Err(CliError::Usage(format!(
            "{}: --variant must be 'pbe1' or 'pbe2', got '{variant}'",
            o.command
        )));
    }
    let eta = o.optional_num("eta", 128usize)?;
    let gamma = o.optional_num("gamma", 8.0f64)?;
    let universe = match o.optional("universe") {
        Some(raw) => Some(o.parse_num("universe", &raw)?),
        None => None,
    };
    let epsilon = o.optional_num("epsilon", 0.005f64)?;
    let delta = o.optional_num("delta", 0.02f64)?;
    let flat = o.optional("flat").is_some();
    let seed = o.optional_num("seed", 0xBEDu64)?;
    let shards = o.optional_num("shards", 1usize)?;
    if shards == 0 {
        return Err(CliError::Usage(format!("{}: --shards must be at least 1", o.command)));
    }
    if shards > 1 && universe.is_none() {
        return Err(CliError::Usage(format!(
            "{}: --shards partitions an event universe; add --universe K",
            o.command
        )));
    }
    let retention = match o.optional("retention") {
        Some(raw) => Some(
            bed_core::RetentionPolicy::parse(&raw)
                .map_err(|e| CliError::Usage(format!("{}: --retention '{raw}': {e}", o.command)))?,
        ),
        None => None,
    };
    Ok(DetectorFlags {
        variant,
        eta,
        gamma,
        universe,
        epsilon,
        delta,
        flat,
        seed,
        shards,
        retention,
    })
}

/// Parses a full argument vector (without the program name).
pub fn parse<I, S>(argv: I) -> Result<Command, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut iter = argv.into_iter().map(Into::into);
    let Some(sub) = iter.next() else {
        return Err(CliError::Usage(
            "missing command; try: generate, build, info, point, times, events".into(),
        ));
    };
    let map = options(iter)?;
    match sub.as_str() {
        "generate" => {
            let mut o = Opts { map, command: "generate" };
            let dataset = o.optional("dataset").unwrap_or_else(|| "olympics".into());
            if dataset != "olympics" && dataset != "politics" {
                return Err(CliError::Usage(format!(
                    "generate: --dataset must be 'olympics' or 'politics', got '{dataset}'"
                )));
            }
            let n = o.optional_num("n", 200_000u64)?;
            let seed = o.optional_num("seed", 2016u64)?;
            let out = o.required("out")?;
            o.finish()?;
            Ok(Command::Generate { dataset, n, seed, out })
        }
        "build" => {
            let mut o = Opts { map, command: "build" };
            let input = o.required("input")?;
            let out = o.required("out")?;
            let flags = detector_flags(&mut o)?;
            o.finish()?;
            Ok(Command::Build { input, out, flags })
        }
        "info" => {
            let mut o = Opts { map, command: "info" };
            let sketch = o.required("sketch")?;
            o.finish()?;
            Ok(Command::Info { sketch })
        }
        "point" => {
            let mut o = Opts { map, command: "point" };
            let sketch = o.required("sketch")?;
            let event = o.optional_num("event", 0u32)?;
            let t = o.required_num("t")?;
            let tau = o.optional_num("tau", 86_400u64)?;
            let metrics = o.optional("metrics").is_some();
            let explain = o.optional("explain").is_some();
            o.finish()?;
            Ok(Command::Point { sketch, event, t, tau, metrics, explain })
        }
        "times" => {
            let mut o = Opts { map, command: "times" };
            let sketch = o.required("sketch")?;
            let event = o.optional_num("event", 0u32)?;
            let theta = o.required_num("theta")?;
            let tau = o.optional_num("tau", 86_400u64)?;
            let horizon = o.required_num("horizon")?;
            let metrics = o.optional("metrics").is_some();
            let explain = o.optional("explain").is_some();
            o.finish()?;
            Ok(Command::Times { sketch, event, theta, tau, horizon, metrics, explain })
        }
        "events" => {
            let mut o = Opts { map, command: "events" };
            let sketch = o.required("sketch")?;
            let t = o.required_num("t")?;
            let theta = o.required_num("theta")?;
            let tau = o.optional_num("tau", 86_400u64)?;
            let scan = o.optional("scan").is_some();
            let metrics = o.optional("metrics").is_some();
            let explain = o.optional("explain").is_some();
            o.finish()?;
            Ok(Command::Events { sketch, t, theta, tau, scan, metrics, explain })
        }
        "ranges" => {
            let mut o = Opts { map, command: "ranges" };
            let sketch = o.required("sketch")?;
            let theta = o.required_num("theta")?;
            let tau = o.optional_num("tau", 86_400u64)?;
            let horizon = o.required_num("horizon")?;
            o.finish()?;
            Ok(Command::Ranges { sketch, theta, tau, horizon })
        }
        "series" => {
            let mut o = Opts { map, command: "series" };
            let sketch = o.required("sketch")?;
            let event = o.optional_num("event", 0u32)?;
            let tau = o.optional_num("tau", 86_400u64)?;
            let horizon = o.required_num("horizon")?;
            let step = o.optional_num("step", 86_400u64)?;
            if step == 0 {
                return Err(CliError::Usage("series: --step must be positive".into()));
            }
            let metrics = o.optional("metrics").is_some();
            let explain = o.optional("explain").is_some();
            o.finish()?;
            Ok(Command::Series { sketch, event, tau, horizon, step, metrics, explain })
        }
        "stats" => {
            let mut o = Opts { map, command: "stats" };
            let sketch = o.required("sketch")?;
            let text = o.optional("text").is_some();
            let format = match o.optional("format") {
                None if text => StatsFormat::Text,
                None => StatsFormat::Json,
                Some(_) if text => {
                    return Err(CliError::Usage(
                        "stats: --text conflicts with --format (it is shorthand for --format text)"
                            .into(),
                    ));
                }
                Some(f) => match f.as_str() {
                    "json" => StatsFormat::Json,
                    "text" => StatsFormat::Text,
                    "openmetrics" => StatsFormat::OpenMetrics,
                    other => {
                        return Err(CliError::Usage(format!(
                            "stats: --format must be 'json', 'text', or 'openmetrics', got '{other}'"
                        )));
                    }
                },
            };
            o.finish()?;
            Ok(Command::Stats { sketch, format })
        }
        "serve" => {
            let mut o = Opts { map, command: "serve" };
            let input = o.required("input")?;
            let addr = o.optional("addr").unwrap_or_else(|| "127.0.0.1:9184".into());
            let flags = detector_flags(&mut o)?;
            let sample = o.optional_num("sample", 1u64)?;
            let slow_threshold_ns = o.optional_num("slow-threshold-ns", 10_000_000u64)?;
            let publish_every = o.optional_num("publish-every", 8_192u64)?;
            if publish_every == 0 {
                return Err(CliError::Usage("serve: --publish-every must be positive".into()));
            }
            let profile_every_ms = o.optional_num("profile-every-ms", 200u64)?;
            let ingest_delay_ms = o.optional_num("ingest-delay-ms", 0u64)?;
            let state_dir = o.optional("state-dir");
            o.finish()?;
            Ok(Command::Serve {
                input,
                addr,
                flags,
                sample,
                slow_threshold_ns,
                publish_every,
                profile_every_ms,
                ingest_delay_ms,
                state_dir,
            })
        }
        "trace" => {
            let mut o = Opts { map, command: "trace" };
            let addr = o.required("addr")?;
            let id = o.optional("id");
            o.finish()?;
            Ok(Command::Trace { addr, id })
        }
        "profile" => {
            let mut o = Opts { map, command: "profile" };
            let addr = o.required("addr")?;
            o.finish()?;
            Ok(Command::Profile { addr })
        }
        "ingest" => {
            let mut o = Opts { map, command: "ingest" };
            let input = o.required("input")?;
            let out = o.required("out")?;
            let wal = o.required("wal")?;
            let every = o.optional_num("every", 65_536u64)?;
            if every == 0 {
                return Err(CliError::Usage("ingest: --every must be positive".into()));
            }
            let flags = detector_flags(&mut o)?;
            o.finish()?;
            Ok(Command::Ingest { input, out, wal, every, flags })
        }
        "checkpoint" => {
            let mut o = Opts { map, command: "checkpoint" };
            let sketch = o.required("sketch")?;
            let out = o.required("out")?;
            o.finish()?;
            Ok(Command::Checkpoint { sketch, out })
        }
        "restore" => {
            let mut o = Opts { map, command: "restore" };
            let snapshot = o.required("snapshot")?;
            let wal = o.optional("wal");
            let out = o.required("out")?;
            let onto = o.optional("onto");
            o.finish()?;
            Ok(Command::Restore { snapshot, wal, out, onto })
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; try: generate, build, ingest, info, point, times, events, ranges, series, stats, serve, trace, profile, checkpoint, restore"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(args.iter().copied()).unwrap()
    }

    #[test]
    fn generate_defaults_and_overrides() {
        let c = parse_ok(&["generate", "--out", "x.tsv"]);
        assert_eq!(
            c,
            Command::Generate {
                dataset: "olympics".into(),
                n: 200_000,
                seed: 2016,
                out: "x.tsv".into()
            }
        );
        let c = parse_ok(&[
            "generate",
            "--dataset",
            "politics",
            "--n",
            "5",
            "--seed",
            "1",
            "--out",
            "y",
        ]);
        assert!(matches!(c, Command::Generate { n: 5, seed: 1, .. }));
    }

    #[test]
    fn build_full_surface() {
        let c = parse_ok(&[
            "build",
            "--input",
            "a.tsv",
            "--out",
            "a.bed",
            "--variant",
            "pbe1",
            "--eta",
            "64",
            "--universe",
            "864",
            "--epsilon",
            "0.01",
            "--delta",
            "0.05",
            "--flat",
            "--seed",
            "9",
            "--shards",
            "4",
        ]);
        assert_eq!(
            c,
            Command::Build {
                input: "a.tsv".into(),
                out: "a.bed".into(),
                flags: DetectorFlags {
                    variant: "pbe1".into(),
                    eta: 64,
                    gamma: 8.0,
                    universe: Some(864),
                    epsilon: 0.01,
                    delta: 0.05,
                    flat: true,
                    seed: 9,
                    shards: 4,
                    retention: None,
                },
            }
        );
    }

    #[test]
    fn retention_flag_parses_and_rejects_garbage() {
        let base = ["build", "--input", "a", "--out", "b"];
        let with = |extra: &[&str]| parse(base.iter().chain(extra).copied().collect::<Vec<_>>());
        // absent -> unbounded history
        let Command::Build { flags, .. } = with(&[]).unwrap() else { panic!("expected build") };
        assert_eq!(flags.retention, None);
        // window:budget form (default cadence)
        let Command::Build { flags, .. } = with(&["--retention", "86400:256"]).unwrap() else {
            panic!("expected build")
        };
        let p = flags.retention.expect("policy");
        assert_eq!((p.window, p.budget), (86_400, 256));
        assert_eq!(p.compact_every, bed_core::RetentionPolicy::DEFAULT_COMPACT_EVERY);
        // window:budget:every form
        let Command::Build { flags, .. } = with(&["--retention", "3600:64:1024"]).unwrap() else {
            panic!("expected build")
        };
        assert_eq!(flags.retention, bed_core::RetentionPolicy::new(3600, 64, 1024).ok());
        // malformed specs surface as usage errors naming the flag
        for bad in ["", "86400", "0:4", "10:0", "10:4:0", "x:y"] {
            let e = with(&["--retention", bad]).unwrap_err().to_string();
            assert!(e.contains("--retention"), "{bad}: {e}");
        }
        // the same flag reaches ingest and serve through the shared parser
        let c = parse_ok(&[
            "ingest",
            "--input",
            "a",
            "--out",
            "b",
            "--wal",
            "w",
            "--retention",
            "100:8",
        ]);
        assert!(
            matches!(&c, Command::Ingest { flags: DetectorFlags { retention: Some(_), .. }, .. }),
            "{c:?}"
        );
        let c = parse_ok(&["serve", "--input", "s.tsv", "--retention", "100:8"]);
        assert!(
            matches!(&c, Command::Serve { flags: DetectorFlags { retention: Some(_), .. }, .. }),
            "{c:?}"
        );
    }

    #[test]
    fn malformed_subcommand_is_an_error_not_a_panic() {
        // a typo'd subcommand must surface as Err(CliError::Usage), never abort
        let err = parse(["bui1d", "--input", "a.tsv", "--out", "a.bed"]).unwrap_err();
        assert!(matches!(&err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("unknown command 'bui1d'"), "{err}");
    }

    #[test]
    fn shard_flag_is_validated() {
        let base = ["build", "--input", "a", "--out", "b", "--universe", "8"];
        let with = |extra: &[&str]| parse(base.iter().chain(extra).copied().collect::<Vec<_>>());
        assert!(matches!(
            with(&[]).unwrap(),
            Command::Build { flags: DetectorFlags { shards: 1, .. }, .. }
        ));
        assert!(matches!(
            with(&["--shards", "8"]).unwrap(),
            Command::Build { flags: DetectorFlags { shards: 8, .. }, .. }
        ));
        let e = with(&["--shards", "0"]).unwrap_err().to_string();
        assert!(e.contains("at least 1"), "{e}");
        let e = parse(["build", "--input", "a", "--out", "b", "--shards", "2"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("--universe"), "{e}");
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse(["build", "--out", "x"]).unwrap_err().to_string();
        assert!(e.contains("--input"), "{e}");
        let e = parse(["point", "--sketch", "s", "--t"]).unwrap_err().to_string();
        assert!(e.contains("requires a value"), "{e}");
        let e = parse(["frobnicate"]).unwrap_err().to_string();
        assert!(e.contains("unknown command"), "{e}");
        let e = parse(["info", "--sketch", "a", "--bogus", "1"]).unwrap_err().to_string();
        assert!(e.contains("unknown option"), "{e}");
        let e = parse(["generate", "--out", "x", "--n", "NaNaN"]).unwrap_err().to_string();
        assert!(e.contains("not a valid number"), "{e}");
        let e = parse(["generate", "--out", "x", "--out", "y"]).unwrap_err().to_string();
        assert!(e.contains("twice"), "{e}");
        let e = parse(Vec::<String>::new()).unwrap_err().to_string();
        assert!(e.contains("missing command"), "{e}");
    }

    #[test]
    fn query_commands() {
        let c = parse_ok(&["point", "--sketch", "s.bed", "--event", "3", "--t", "100"]);
        assert_eq!(
            c,
            Command::Point {
                sketch: "s.bed".into(),
                event: 3,
                t: 100,
                tau: 86_400,
                metrics: false,
                explain: false
            }
        );
        let c = parse_ok(&["times", "--sketch", "s", "--theta", "5.5", "--horizon", "99"]);
        assert!(matches!(c, Command::Times { theta, horizon: 99, .. } if theta == 5.5));
        let c = parse_ok(&["events", "--sketch", "s", "--t", "7", "--theta", "2"]);
        assert!(matches!(c, Command::Events { t: 7, scan: false, metrics: false, .. }));
    }

    #[test]
    fn durability_commands() {
        let c = parse_ok(&["ingest", "--input", "a.tsv", "--out", "s.beds", "--wal", "a.wal"]);
        assert!(
            matches!(
                &c,
                Command::Ingest {
                    every: 65_536,
                    flags: DetectorFlags { shards: 1, universe: None, .. },
                    ..
                }
            ),
            "{c:?}"
        );
        let c = parse_ok(&[
            "ingest",
            "--input",
            "a.tsv",
            "--out",
            "s.beds",
            "--wal",
            "a.wal",
            "--every",
            "100",
            "--universe",
            "8",
            "--shards",
            "4",
        ]);
        assert!(
            matches!(
                &c,
                Command::Ingest { every: 100, flags: DetectorFlags { shards: 4, .. }, .. }
            ),
            "{c:?}"
        );
        let e = parse(["ingest", "--input", "a", "--out", "b"]).unwrap_err().to_string();
        assert!(e.contains("--wal"), "{e}");
        let e = parse(["ingest", "--input", "a", "--out", "b", "--wal", "w", "--every", "0"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("positive"), "{e}");
        let e = parse(["ingest", "--input", "a", "--out", "b", "--wal", "w", "--shards", "2"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("--universe"), "{e}");

        let c = parse_ok(&["checkpoint", "--sketch", "s.bed", "--out", "s.beds"]);
        assert_eq!(c, Command::Checkpoint { sketch: "s.bed".into(), out: "s.beds".into() });

        let c = parse_ok(&["restore", "--snapshot", "s.beds", "--out", "r.bed"]);
        assert_eq!(
            c,
            Command::Restore {
                snapshot: "s.beds".into(),
                wal: None,
                out: "r.bed".into(),
                onto: None
            }
        );
        let c = parse_ok(&[
            "restore",
            "--snapshot",
            "s.beds",
            "--wal",
            "a.wal",
            "--out",
            "r.bed",
            "--onto",
            "other.bed",
        ]);
        assert!(matches!(&c, Command::Restore { wal: Some(_), onto: Some(_), .. }), "{c:?}");
        let e = parse(["restore", "--snapshot", "s"]).unwrap_err().to_string();
        assert!(e.contains("--out"), "{e}");
    }

    #[test]
    fn metrics_and_stats_flags() {
        let c = parse_ok(&["point", "--sketch", "s", "--t", "1", "--metrics"]);
        assert!(matches!(c, Command::Point { metrics: true, explain: false, .. }));
        let c = parse_ok(&["point", "--sketch", "s", "--t", "1", "--explain"]);
        assert!(matches!(c, Command::Point { metrics: false, explain: true, .. }));
        let c = parse_ok(&["events", "--sketch", "s", "--t", "1", "--theta", "2", "--scan"]);
        assert!(matches!(c, Command::Events { scan: true, .. }));
        let c = parse_ok(&["events", "--sketch", "s", "--t", "1", "--theta", "2", "--explain"]);
        assert!(matches!(c, Command::Events { explain: true, .. }));
        let c =
            parse_ok(&["series", "--sketch", "s", "--horizon", "9", "--step", "3", "--explain"]);
        assert!(matches!(c, Command::Series { explain: true, .. }));
        let c = parse_ok(&["stats", "--sketch", "s"]);
        assert_eq!(c, Command::Stats { sketch: "s".into(), format: StatsFormat::Json });
        let c = parse_ok(&["stats", "--sketch", "s", "--text"]);
        assert!(matches!(c, Command::Stats { format: StatsFormat::Text, .. }));
        let e = parse(["stats"]).unwrap_err().to_string();
        assert!(e.contains("--sketch"), "{e}");
    }

    #[test]
    fn stats_format_selection() {
        for (raw, want) in [
            ("json", StatsFormat::Json),
            ("text", StatsFormat::Text),
            ("openmetrics", StatsFormat::OpenMetrics),
        ] {
            let c = parse_ok(&["stats", "--sketch", "s", "--format", raw]);
            assert!(matches!(c, Command::Stats { format, .. } if format == want), "{raw}");
        }
        let e = parse(["stats", "--sketch", "s", "--format", "xml"]).unwrap_err().to_string();
        assert!(e.contains("openmetrics"), "{e}");
        let e = parse(["stats", "--sketch", "s", "--text", "--format", "json"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("conflicts"), "{e}");
    }

    #[test]
    fn serve_defaults_and_shared_detector_flags() {
        let c = parse_ok(&["serve", "--input", "s.tsv", "--universe", "8"]);
        let Command::Serve {
            input,
            addr,
            flags,
            sample,
            slow_threshold_ns,
            publish_every,
            profile_every_ms,
            ingest_delay_ms,
            state_dir,
            ..
        } = c
        else {
            panic!("expected serve");
        };
        assert_eq!(input, "s.tsv");
        assert_eq!(addr, "127.0.0.1:9184");
        assert_eq!(flags.universe, Some(8));
        assert_eq!(flags.shards, 1);
        assert_eq!(sample, 1);
        assert_eq!(slow_threshold_ns, 10_000_000);
        assert_eq!(publish_every, 8_192);
        assert_eq!(profile_every_ms, 200);
        assert_eq!(ingest_delay_ms, 0);
        assert_eq!(state_dir, None);

        let c = parse_ok(&[
            "serve",
            "--input",
            "s.tsv",
            "--addr",
            "0.0.0.0:0",
            "--universe",
            "16",
            "--shards",
            "4",
            "--flat",
            "--sample",
            "8",
            "--slow-threshold-ns",
            "0",
            "--publish-every",
            "1024",
        ]);
        let Command::Serve { flags, sample, slow_threshold_ns, publish_every, .. } = c else {
            panic!("expected serve");
        };
        assert!(flags.flat && flags.shards == 4);
        assert_eq!((sample, slow_threshold_ns), (8, 0));
        assert_eq!(publish_every, 1024);

        // serve shares build/ingest's detector-flag validation
        let e = parse(["serve", "--input", "s", "--shards", "2"]).unwrap_err().to_string();
        assert!(e.contains("--universe"), "{e}");
        let e = parse(["serve", "--input", "s", "--variant", "pbe9"]).unwrap_err().to_string();
        assert!(e.contains("pbe1"), "{e}");
        let e = parse(["serve", "--input", "s", "--publish-every", "0"]).unwrap_err().to_string();
        assert!(e.contains("positive"), "{e}");
    }

    #[test]
    fn serve_observability_knobs_parse() {
        let c = parse_ok(&[
            "serve",
            "--input",
            "s.tsv",
            "--profile-every-ms",
            "50",
            "--ingest-delay-ms",
            "250",
            "--state-dir",
            "/tmp/bed",
        ]);
        let Command::Serve { profile_every_ms, ingest_delay_ms, state_dir, .. } = c else {
            panic!("expected serve");
        };
        assert_eq!(profile_every_ms, 50);
        assert_eq!(ingest_delay_ms, 250);
        assert_eq!(state_dir.as_deref(), Some("/tmp/bed"));
    }

    #[test]
    fn trace_and_profile_commands_parse() {
        let c = parse_ok(&["trace", "--addr", "127.0.0.1:9184"]);
        assert_eq!(c, Command::Trace { addr: "127.0.0.1:9184".into(), id: None });
        let c = parse_ok(&["trace", "--addr", "127.0.0.1:9184", "--id", "0000000000abc123"]);
        assert!(matches!(c, Command::Trace { id: Some(ref i), .. } if i == "0000000000abc123"));
        let c = parse_ok(&["profile", "--addr", "127.0.0.1:9184"]);
        assert_eq!(c, Command::Profile { addr: "127.0.0.1:9184".into() });
        let e = parse(["trace"]).unwrap_err().to_string();
        assert!(e.contains("--addr"), "{e}");
        let e = parse(["profile"]).unwrap_err().to_string();
        assert!(e.contains("--addr"), "{e}");
    }
}
