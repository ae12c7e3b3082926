//! Immutable metric snapshots with deterministic text and JSON renderers.

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, LATENCY_BOUNDS_NS};

/// One captured metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// An immutable, name-sorted capture of a component's metric families —
/// the unit that renderers, the CLI, and the bench report consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from `(name, value)` pairs; entries are sorted by
    /// name and later duplicates win (mirrors map semantics).
    pub fn from_entries(entries: impl IntoIterator<Item = (String, MetricValue)>) -> Self {
        let mut entries: Vec<(String, MetricValue)> = entries.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1.clone();
                true
            } else {
                false
            }
        });
        Self { entries }
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics were captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Looks up any metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter total by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading by name (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state by name (`None` if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Merges `other` into `self` by name: counters and histogram buckets
    /// sum, gauges sum (structural gauges aggregate additively across
    /// shards), and names present on one side only pass through. Summing is
    /// the right default for the sharded rollup; keep distinct names for
    /// readings where a sum is meaningless.
    ///
    /// The same name carrying different metric types on the two sides is a
    /// bug in the producing components and debug-asserts. In release builds
    /// the **last writer wins**: the value from `other` replaces the one in
    /// `self`, mirroring the duplicate-name rule of [`Self::from_entries`].
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut merged: Vec<(String, MetricValue)> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() || j < other.entries.len() {
            let take_left = match (self.entries.get(i), other.entries.get(j)) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_left {
                let (name, a) = &self.entries[i];
                if let Some((_, b)) = other.entries.get(j).filter(|(n, _)| n == name) {
                    merged.push((name.clone(), Self::merge_values(a, b)));
                    j += 1;
                } else {
                    merged.push((name.clone(), a.clone()));
                }
                i += 1;
            } else {
                merged.push(other.entries[j].clone());
                j += 1;
            }
        }
        MetricsSnapshot { entries: merged }
    }

    fn merge_values(a: &MetricValue, b: &MetricValue) -> MetricValue {
        match (a, b) {
            (MetricValue::Counter(x), MetricValue::Counter(y)) => MetricValue::Counter(x + y),
            (MetricValue::Gauge(x), MetricValue::Gauge(y)) => MetricValue::Gauge(x + y),
            (MetricValue::Histogram(x), MetricValue::Histogram(y)) => {
                MetricValue::Histogram(x.merge(y))
            }
            // Type clash across sides: a producer bug. Last writer wins
            // (the `other` side), consistent with `from_entries`.
            _ => {
                debug_assert!(
                    false,
                    "MetricsSnapshot::merge: metric type clash ({a:?} vs {b:?}); \
                     last writer wins"
                );
                b.clone()
            }
        }
    }

    /// Renders the snapshot as a deterministic JSON object keyed by metric
    /// name. Counters render as `{"type":"counter","value":N}`, gauges as
    /// `{"type":"gauge","value":X}` (non-finite readings render as `null`),
    /// histograms as `{"type":"histogram","count":N,"sum_ns":N,
    /// "buckets":[[bound_ns,count],...]}` with `null` as the overflow bound.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (idx, (name, value)) in self.entries.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_string(name));
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", json_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"histogram\",\"count\":{},\"sum_ns\":{},\"buckets\":[",
                        h.count, h.sum_ns
                    );
                    for (i, c) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        match LATENCY_BOUNDS_NS.get(i) {
                            Some(bound) => {
                                let _ = write!(out, "[{bound},{c}]");
                            }
                            None => {
                                let _ = write!(out, "[null,{c}]");
                            }
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }

    /// Classifies every metric for rendering. This is the single iteration
    /// path shared by [`Self::to_text`] and [`Self::to_openmetrics`], so the
    /// two surfaces can never disagree about which metrics exist or how a
    /// dotted name maps onto an exposition family and label.
    pub fn render_entries(&self) -> Vec<RenderEntry<'_>> {
        self.entries.iter().map(|(name, value)| RenderEntry::classify(name, value)).collect()
    }

    /// Renders the snapshot as aligned human-readable text, one metric per
    /// line. Histograms summarise as count / mean / p50 / p99 bucket bounds.
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for entry in self.render_entries() {
            let (name, value) = (entry.name, entry.value);
            let _ = write!(out, "{name:<width$}  ");
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{v}");
                }
                MetricValue::Histogram(h) => {
                    if h.count == 0 {
                        let _ = writeln!(out, "count=0");
                    } else {
                        let _ = writeln!(
                            out,
                            "count={} mean={}ns p50<={} p99<={}",
                            h.count,
                            h.mean_ns(),
                            fmt_bound(h.quantile_bound_ns(0.50)),
                            fmt_bound(h.quantile_bound_ns(0.99)),
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot in the OpenMetrics text exposition format
    /// (`application/openmetrics-text`), terminated by `# EOF`.
    ///
    /// Conventions:
    /// - every family is prefixed `bed_` and dots become underscores;
    /// - `shard.<n>.<rest>` collapses into one `bed_shard_<rest>` family
    ///   with a `shard="<n>"` label, `structure.<layer>.<rest>` into
    ///   `bed_structure_<rest>` with a `layer="..."` label;
    /// - counters gain the `_total` sample suffix, histograms render
    ///   cumulative `_bucket{le="..."}` series plus `_sum` / `_count`;
    /// - label values are escaped per the OpenMetrics ABNF (backslash,
    ///   quote, newline).
    pub fn to_openmetrics(&self) -> String {
        let mut entries = self.render_entries();
        // Group label-bearing series (shard.0.x, shard.1.x, ...) into one
        // family block; the tie-break keeps the original name order stable.
        entries.sort_by(|a, b| a.family.cmp(&b.family).then(a.name.cmp(b.name)));
        let mut out = String::new();
        let mut i = 0;
        while i < entries.len() {
            let family = entries[i].family.clone();
            let end = entries[i..]
                .iter()
                .position(|e| e.family != family)
                .map(|p| i + p)
                .unwrap_or(entries.len());
            let kind = match entries[i].value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {family} {}", escape_help(&entries[i].help));
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for entry in &entries[i..end] {
                entry.write_openmetrics_samples(&mut out);
            }
            i = end;
        }
        out.push_str("# EOF\n");
        out
    }
}

/// One metric classified for rendering: the original dotted name plus its
/// OpenMetrics family name and extracted label. Produced by
/// [`MetricsSnapshot::render_entries`] — the iteration helper shared by the
/// text and OpenMetrics renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderEntry<'a> {
    /// Original dotted metric name.
    pub name: &'a str,
    /// OpenMetrics family name (`bed_` prefix, sanitised, label stripped).
    pub family: String,
    /// Dotted name with any label segment replaced by `*` (used as HELP).
    pub help: String,
    /// Label extracted from the name, e.g. `("shard", "3")`.
    pub label: Option<(&'static str, String)>,
    /// The captured value.
    pub value: &'a MetricValue,
}

impl<'a> RenderEntry<'a> {
    fn classify(name: &'a str, value: &'a MetricValue) -> RenderEntry<'a> {
        let mut parts = name.splitn(3, '.');
        let (first, second, rest) = (parts.next(), parts.next(), parts.next());
        let (base, help, label) = match (first, second, rest) {
            (Some("shard"), Some(ix), Some(rest))
                if !ix.is_empty() && ix.bytes().all(|b| b.is_ascii_digit()) =>
            {
                (
                    format!("shard.{rest}"),
                    format!("shard.*.{rest}"),
                    Some(("shard", ix.to_string())),
                )
            }
            (Some("structure"), Some(layer), Some(rest)) => (
                format!("structure.{rest}"),
                format!("structure.*.{rest}"),
                Some(("layer", layer.to_string())),
            ),
            _ => (name.to_string(), name.to_string(), None),
        };
        RenderEntry { name, family: family_name(&base), help, label, value }
    }

    /// Renders this entry's label set, with `extra` (e.g. `le="250"`)
    /// appended. Empty string when there are no labels at all.
    fn label_set(&self, extra: Option<&str>) -> String {
        let mut inner = String::new();
        if let Some((key, value)) = &self.label {
            let _ = write!(inner, "{key}=\"{}\"", escape_label_value(value));
        }
        if let Some(extra) = extra {
            if !inner.is_empty() {
                inner.push(',');
            }
            inner.push_str(extra);
        }
        if inner.is_empty() {
            inner
        } else {
            format!("{{{inner}}}")
        }
    }

    fn write_openmetrics_samples(&self, out: &mut String) {
        let family = &self.family;
        match self.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{family}_total{} {v}", self.label_set(None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{family}{} {}", self.label_set(None), openmetrics_f64(*v));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, c) in h.buckets.iter().enumerate() {
                    cumulative += c;
                    let le = match LATENCY_BOUNDS_NS.get(i) {
                        Some(bound) => format!("le=\"{bound}\""),
                        None => "le=\"+Inf\"".to_string(),
                    };
                    let _ =
                        write!(out, "{family}_bucket{} {cumulative}", self.label_set(Some(&le)));
                    // OpenMetrics exemplar: ` # {trace_id="..."} <value>`.
                    // Buckets without a traced observation render exactly as
                    // before, keeping pre-exemplar goldens byte-stable.
                    if let Some(&(id, ns)) = h.exemplars.get(i) {
                        if id != 0 {
                            let _ = write!(out, " # {{trace_id=\"{id:016x}\"}} {ns}");
                        }
                    }
                    out.push('\n');
                }
                let _ = writeln!(out, "{family}_sum{} {}", self.label_set(None), h.sum_ns);
                let _ = writeln!(out, "{family}_count{} {}", self.label_set(None), h.count);
            }
        }
    }
}

/// Maps a dotted base name onto a valid OpenMetrics family name:
/// `bed_` prefix, dots to underscores, anything outside `[a-zA-Z0-9_:]`
/// replaced by `_`.
fn family_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len() + 4);
    out.push_str("bed_");
    for ch in base.chars() {
        match ch {
            '.' => out.push('_'),
            c if c.is_ascii_alphanumeric() || c == '_' || c == ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Escapes an OpenMetrics label value: backslash, double quote, newline.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes OpenMetrics HELP text: backslash and newline only.
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for OpenMetrics sample lines, which — unlike JSON —
/// spell non-finite readings as `NaN` / `+Inf` / `-Inf`.
fn openmetrics_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

fn fmt_bound(b: Option<u64>) -> String {
    match b {
        Some(u64::MAX) => ">1s".to_owned(),
        Some(ns) => format!("{ns}ns"),
        None => "-".to_owned(),
    }
}

/// Escapes `s` as a JSON string literal. Metric names are ASCII identifiers
/// in practice, but the escaper is complete for control chars and quotes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal. Shared
/// with the trace module's slow-query encoder.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON value: shortest round-trip decimal for finite
/// readings, `null` for NaN/infinities (which JSON cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints integral floats without a decimal point ("3"), which is
        // still a valid JSON number; keep it — brevity beats bikeshedding.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn snap() -> MetricsSnapshot {
        let h = Histogram::new();
        h.record_ns(100);
        h.record_ns(5_000);
        MetricsSnapshot::from_entries([
            ("b.count".to_owned(), MetricValue::Counter(7)),
            ("a.gauge".to_owned(), MetricValue::Gauge(2.5)),
            ("c.lat".to_owned(), MetricValue::Histogram(h.snapshot())),
        ])
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let s = snap();
        let j = s.to_json();
        assert_eq!(j, s.to_json());
        let a = j.find("a.gauge").unwrap();
        let b = j.find("b.count").unwrap();
        let c = j.find("c.lat").unwrap();
        assert!(a < b && b < c);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"a.gauge\":{\"type\":\"gauge\",\"value\":2.5}"));
        assert!(j.contains("\"b.count\":{\"type\":\"counter\",\"value\":7}"));
        assert!(j.contains("\"count\":2,\"sum_ns\":5100"));
        assert!(j.contains("[null,0]"), "overflow bucket rendered as null bound");
    }

    #[test]
    fn text_render_mentions_every_metric() {
        let t = snap().to_text();
        assert!(t.contains("a.gauge"));
        assert!(t.contains("b.count"));
        assert!(t.contains("count=2 mean="));
    }

    #[test]
    fn lookup_helpers() {
        let s = snap();
        assert_eq!(s.counter("b.count"), Some(7));
        assert_eq!(s.gauge("a.gauge"), Some(2.5));
        assert_eq!(s.histogram("c.lat").unwrap().count, 2);
        assert_eq!(s.counter("a.gauge"), None, "type-checked lookup");
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn merge_sums_by_name_and_passes_singletons() {
        let a = MetricsSnapshot::from_entries([
            ("n".to_owned(), MetricValue::Counter(1)),
            ("g".to_owned(), MetricValue::Gauge(0.5)),
            ("only_a".to_owned(), MetricValue::Counter(9)),
        ]);
        let b = MetricsSnapshot::from_entries([
            ("n".to_owned(), MetricValue::Counter(2)),
            ("g".to_owned(), MetricValue::Gauge(1.0)),
            ("only_b".to_owned(), MetricValue::Gauge(4.0)),
        ]);
        let m = a.merge(&b);
        assert_eq!(m.counter("n"), Some(3));
        assert_eq!(m.gauge("g"), Some(1.5));
        assert_eq!(m.counter("only_a"), Some(9));
        assert_eq!(m.gauge("only_b"), Some(4.0));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn non_finite_gauge_renders_null() {
        let s = MetricsSnapshot::from_entries([("g".to_owned(), MetricValue::Gauge(f64::NAN))]);
        assert!(s.to_json().contains("\"value\":null"));
    }

    /// Pins the satellite contract: a type clash in `merge` debug-asserts.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "metric type clash")]
    fn merge_type_clash_debug_asserts() {
        let a = MetricsSnapshot::from_entries([("x".to_owned(), MetricValue::Counter(1))]);
        let b = MetricsSnapshot::from_entries([(
            "x".to_owned(),
            MetricValue::Histogram(Histogram::new().snapshot()),
        )]);
        let _ = a.merge(&b);
    }

    /// Pins the satellite contract: in release builds the clash resolves
    /// last-writer-wins — the value from `other` replaces `self`'s.
    #[cfg(not(debug_assertions))]
    #[test]
    fn merge_type_clash_last_writer_wins() {
        let a = MetricsSnapshot::from_entries([("x".to_owned(), MetricValue::Counter(1))]);
        let b = MetricsSnapshot::from_entries([("x".to_owned(), MetricValue::Gauge(7.0))]);
        let m = a.merge(&b);
        assert_eq!(m.len(), 1);
        assert_eq!(m.gauge("x"), Some(7.0));
        // And symmetric: merging the other way keeps the counter.
        assert_eq!(b.merge(&a).counter("x"), Some(1));
    }

    #[test]
    fn openmetrics_counter_and_framing() {
        let s =
            MetricsSnapshot::from_entries([("ingest.count".to_owned(), MetricValue::Counter(5))]);
        assert_eq!(
            s.to_openmetrics(),
            "# HELP bed_ingest_count ingest.count\n\
             # TYPE bed_ingest_count counter\n\
             bed_ingest_count_total 5\n\
             # EOF\n"
        );
    }

    #[test]
    fn openmetrics_groups_shard_series_under_one_family() {
        let s = MetricsSnapshot::from_entries([
            ("shard.0.arrivals".to_owned(), MetricValue::Gauge(10.0)),
            ("shard.1.arrivals".to_owned(), MetricValue::Gauge(20.0)),
            ("shard.count".to_owned(), MetricValue::Gauge(2.0)),
        ]);
        let om = s.to_openmetrics();
        assert_eq!(om.matches("# TYPE bed_shard_arrivals gauge").count(), 1);
        assert!(om.contains("bed_shard_arrivals{shard=\"0\"} 10\n"));
        assert!(om.contains("bed_shard_arrivals{shard=\"1\"} 20\n"));
        assert!(om.contains("# HELP bed_shard_arrivals shard.*.arrivals\n"));
        assert!(om.contains("bed_shard_count 2\n"), "non-numeric second segment is not a label");
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_layer_label_and_escaping() {
        let s = MetricsSnapshot::from_entries([(
            "structure.we\"ird\\.bytes".to_owned(),
            MetricValue::Gauge(1.0),
        )]);
        let om = s.to_openmetrics();
        assert!(om.contains("bed_structure_bytes{layer=\"we\\\"ird\\\\\"} 1\n"));
    }

    #[test]
    fn openmetrics_histogram_buckets_are_cumulative() {
        let h = Histogram::new();
        h.record_ns(100); // first bucket (<=250)
        h.record_ns(5_000); // fourth bucket (<=16000)
        let s = MetricsSnapshot::from_entries([(
            "query.point.latency_ns".to_owned(),
            MetricValue::Histogram(h.snapshot()),
        )]);
        let om = s.to_openmetrics();
        assert!(om.contains("# TYPE bed_query_point_latency_ns histogram\n"));
        assert!(om.contains("bed_query_point_latency_ns_bucket{le=\"250\"} 1\n"));
        assert!(om.contains("bed_query_point_latency_ns_bucket{le=\"16000\"} 2\n"));
        assert!(om.contains("bed_query_point_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(om.contains("bed_query_point_latency_ns_sum 5100\n"));
        assert!(om.contains("bed_query_point_latency_ns_count 2\n"));
    }

    #[test]
    fn openmetrics_exemplars_render_on_traced_buckets_only() {
        let h = Histogram::new();
        h.record_ns(100); // first bucket, untraced
        h.record_ns_exemplar(5_000, 0xabc); // fourth bucket, traced
        let s = MetricsSnapshot::from_entries([(
            "query.point.latency_ns".to_owned(),
            MetricValue::Histogram(h.snapshot()),
        )]);
        let om = s.to_openmetrics();
        // Untraced bucket renders exactly as before (no exemplar suffix).
        assert!(om.contains("bed_query_point_latency_ns_bucket{le=\"250\"} 1\n"));
        // Traced bucket carries the OpenMetrics exemplar suffix.
        assert!(om.contains(
            "bed_query_point_latency_ns_bucket{le=\"16000\"} 2 \
             # {trace_id=\"0000000000000abc\"} 5000\n"
        ));
        // Cumulative buckets after it do NOT inherit the exemplar.
        assert!(om.contains("bed_query_point_latency_ns_bucket{le=\"64000\"} 2\n"));
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_non_finite_gauges() {
        let s = MetricsSnapshot::from_entries([
            ("a".to_owned(), MetricValue::Gauge(f64::NAN)),
            ("b".to_owned(), MetricValue::Gauge(f64::INFINITY)),
        ]);
        let om = s.to_openmetrics();
        assert!(om.contains("bed_a NaN\n"));
        assert!(om.contains("bed_b +Inf\n"));
    }

    #[test]
    fn render_entries_covers_every_metric_once() {
        let s = snap();
        let entries = s.render_entries();
        assert_eq!(entries.len(), s.len());
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a.gauge", "b.count", "c.lat"]);
    }

    #[test]
    fn duplicate_names_last_wins() {
        let s = MetricsSnapshot::from_entries([
            ("x".to_owned(), MetricValue::Counter(1)),
            ("x".to_owned(), MetricValue::Counter(2)),
        ]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.counter("x"), Some(2));
    }
}
