//! Zero-dependency observability primitives for the xsql stack.
//!
//! The crate provides a thread-safe [`Registry`] of named metrics —
//! monotonic [`Counter`]s, signed [`Gauge`]s and fixed-bucket latency
//! [`Histogram`]s with p50/p95/p99 estimation — plus lightweight span
//! tracing into a bounded ring buffer. Everything is built on
//! `std::sync` atomics; there are no external dependencies, no
//! background threads and no global state: each [`Registry`] instance
//! is independent, so tests and concurrently running services never
//! contaminate each other's numbers.
//!
//! Metric handles are `Arc`s handed out once at registration time and
//! cached by the instrumented component; recording is a single atomic
//! operation with no lock acquisition. The registry lock is taken only
//! when registering a new metric or rendering an exposition.
//!
//! Renderings come in two flavours, selected by [`TelemetryConfig`]
//! (usually via the `XSQL_TELEMETRY_FORMAT` environment variable): a
//! Prometheus-style text exposition of `name{label="v"} value` lines,
//! and a single JSON object. See `docs/OBSERVABILITY.md` for the
//! metric name catalogue.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bucket upper bounds, in microseconds, for latency
/// histograms: a coarse exponential ladder from 1 µs to 10 s.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Capacity of the span ring buffer: older spans are dropped once the
/// buffer is full, so tracing never grows without bound.
pub const SPAN_RING_CAPACITY: usize = 256;

/// Output format for metric expositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitFormat {
    /// Prometheus-style `name{label="v"} value` lines.
    #[default]
    Text,
    /// A single JSON object with `counters`/`gauges`/`histograms`/`spans`.
    Json,
}

/// Runtime telemetry configuration, usually read from the environment.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryConfig {
    /// Master switch for span tracing and per-statement spans
    /// (`XSQL_TELEMETRY=1`). Metric counters are always live — they
    /// are cheap and several invariants are asserted against them —
    /// but spans are only recorded when this is set.
    pub enabled: bool,
    /// Exposition format (`XSQL_TELEMETRY_FORMAT=text|json`).
    pub format: EmitFormat,
}

impl TelemetryConfig {
    /// Reads the configuration from `XSQL_TELEMETRY` and
    /// `XSQL_TELEMETRY_FORMAT`.
    pub fn from_env() -> Self {
        let enabled = std::env::var("XSQL_TELEMETRY")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        let format = match std::env::var("XSQL_TELEMETRY_FORMAT").as_deref() {
            Ok("json") | Ok("JSON") => EmitFormat::Json,
            _ => EmitFormat::Text,
        };
        TelemetryConfig { enabled, format }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge for point-in-time values (queue depths, epochs).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket bounds are upper-inclusive and the
/// final implicit bucket catches everything above the last bound.
/// Quantiles are estimated as the upper bound of the bucket containing
/// the requested rank — exact enough for latency ladders and entirely
/// lock-free to record.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the elapsed time since `start`, in microseconds.
    pub fn observe_since(&self, start: Instant) {
        self.observe(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the observation at that rank (the last finite
    /// bound for overflow observations). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    // Overflow bucket: report the last finite bound.
                    self.bounds.last().copied().unwrap_or(0)
                });
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Cumulative per-bucket counts paired with their upper bounds;
    /// the final entry uses `u64::MAX` as its bound.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, cum));
        }
        out
    }
}

/// One completed span: a named region of code and how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static name of the region (e.g. `"session.execute"`).
    pub name: &'static str,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
}

/// RAII guard returned by [`Registry::span`]; records the span into
/// the registry's ring buffer when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: &'static str,
    start: Instant,
    live: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.live {
            let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.registry.push_span(SpanRecord {
                name: self.name,
                micros,
            });
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Fully qualified metric identity: name plus rendered label pairs.
type Key = (String, Vec<(String, String)>);

/// A thread-safe registry of named metrics plus a span ring buffer.
///
/// Handles are registered once (taking the registry lock) and cached
/// by the caller; after that, recording never locks. Rendering walks
/// the map under the lock but only reads atomics.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
    spans: Mutex<VecDeque<SpanRecord>>,
    config: TelemetryConfig,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_config(TelemetryConfig::default())
    }
}

impl Registry {
    /// Creates a registry with an explicit configuration.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(VecDeque::with_capacity(SPAN_RING_CAPACITY)),
            config,
        }
    }

    /// Creates a registry configured from the environment.
    pub fn from_env() -> Self {
        Registry::with_config(TelemetryConfig::from_env())
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> Key {
        (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`
    /// with the given bucket bounds (ignored if already registered).
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Shorthand for a latency histogram with [`LATENCY_BUCKETS_US`].
    pub fn latency(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(name, labels, LATENCY_BUCKETS_US)
    }

    /// Sum of a counter across every label combination (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, metric)| match metric {
                Metric::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    }

    /// Value of a gauge with no labels (0 if absent).
    pub fn gauge_value(&self, name: &str) -> i64 {
        let m = self.metrics.lock().unwrap();
        match m.get(&Self::key(name, &[])) {
            Some(Metric::Gauge(g)) => g.get(),
            _ => 0,
        }
    }

    /// Starts a span; the returned guard records it on drop. When the
    /// registry is not [`TelemetryConfig::enabled`], the guard is
    /// inert and nothing is recorded.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            name,
            start: Instant::now(),
            live: self.config.enabled,
        }
    }

    fn push_span(&self, rec: SpanRecord) {
        let mut ring = self.spans.lock().unwrap();
        if ring.len() == SPAN_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// The most recent spans, oldest first (bounded by the ring size).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().iter().cloned().collect()
    }

    /// Renders the exposition in the configured format.
    pub fn render(&self) -> String {
        match self.config.format {
            EmitFormat::Text => self.render_text(),
            EmitFormat::Json => self.render_json(),
        }
    }

    /// Prometheus-style text exposition: one `name{label="v"} value`
    /// line per sample, sorted by name then labels. Histograms expand
    /// to `_count`, `_sum`, `_p50`/`_p95`/`_p99` and cumulative
    /// `_bucket{le="..."}` samples.
    pub fn render_text(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::new();
        for ((name, labels), metric) in m.iter() {
            let base = render_labels(labels);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name}{base} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name}{base} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    for (bound, cum) in h.cumulative_buckets() {
                        let le = if bound == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            bound.to_string()
                        };
                        let with_le = render_labels_extra(labels, "le", &le);
                        out.push_str(&format!("{name}_bucket{with_le} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_count{base} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum{base} {}\n", h.sum()));
                    for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        out.push_str(&format!("{name}_{tag}{base} {}\n", h.quantile(q)));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: a single object with `counters`, `gauges`,
    /// `histograms` (count/sum/p50/p95/p99) and `spans`.
    pub fn render_json(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for ((name, labels), metric) in m.iter() {
            let id = json_escape(&format!("{name}{}", render_labels(labels)));
            match metric {
                Metric::Counter(c) => counters.push(format!("\"{id}\": {}", c.get())),
                Metric::Gauge(g) => gauges.push(format!("\"{id}\": {}", g.get())),
                Metric::Histogram(h) => hists.push(format!(
                    "\"{id}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.count(),
                    h.sum(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99)
                )),
            }
        }
        let spans: Vec<String> = self
            .recent_spans()
            .iter()
            .map(|s| format!("{{\"name\": \"{}\", \"micros\": {}}}", s.name, s.micros))
            .collect();
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}, \"spans\": [{}]}}\n",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", "),
            spans.join(", ")
        )
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_extra(labels: &[(String, String)], k: &str, v: &str) -> String {
    let mut inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    inner.push(format!("{k}=\"{v}\""));
    format!("{{{}}}", inner.join(","))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::default();
        let c = r.counter("requests_total", &[("kind", "read")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) returns the same underlying counter.
        r.counter("requests_total", &[("kind", "read")]).inc();
        assert_eq!(c.get(), 6);
        // Different labels are a distinct sample.
        r.counter("requests_total", &[("kind", "write")]).add(10);
        assert_eq!(r.counter_total("requests_total"), 16);

        let g = r.gauge("depth", &[]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        assert_eq!(r.gauge_value("depth"), 4);
        assert_eq!(r.gauge_value("missing"), 0);
    }

    #[test]
    fn histogram_quantiles_hit_bucket_bounds() {
        let r = Registry::default();
        let h = r.histogram("lat", &[], &[10, 100, 1000]);
        for v in [1, 5, 9] {
            h.observe(v); // all land in the <=10 bucket
        }
        h.observe(50); // <=100
        h.observe(5000); // overflow
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 5 + 9 + 50 + 5000);
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.8), 100);
        // Overflow observations report the last finite bound.
        assert_eq!(h.quantile(1.0), 1000);
        // Empty histogram.
        let e = r.histogram("empty", &[], &[10]);
        assert_eq!(e.quantile(0.99), 0);
    }

    #[test]
    fn text_exposition_is_line_parseable() {
        let r = Registry::default();
        r.counter("a_total", &[("x", "1")]).add(3);
        r.gauge("g", &[]).set(-2);
        r.histogram("h_micros", &[], &[10, 100]).observe(7);
        let text = r.render_text();
        for line in text.lines() {
            // Every line must be `name{labels} value` or `name value`.
            let (name, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(!name.is_empty());
            assert!(
                value.parse::<i64>().is_ok() || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
        assert!(text.contains("a_total{x=\"1\"} 3"));
        assert!(text.contains("g -2"));
        assert!(text.contains("h_micros_count 1"));
        assert!(text.contains("h_micros_p50 10"));
        assert!(text.contains("h_micros_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn json_exposition_has_all_sections() {
        let r = Registry::with_config(TelemetryConfig {
            enabled: true,
            format: EmitFormat::Json,
        });
        r.counter("c", &[]).inc();
        r.histogram("h", &[], &[10]).observe(3);
        drop(r.span("region"));
        let json = r.render();
        assert!(json.contains("\"counters\": {\"c\": 1}"), "{json}");
        assert!(json.contains("\"p99\": 10"), "{json}");
        assert!(json.contains("\"name\": \"region\""), "{json}");
    }

    #[test]
    fn span_ring_is_bounded_and_gated() {
        let on = Registry::with_config(TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        });
        for _ in 0..(SPAN_RING_CAPACITY + 10) {
            drop(on.span("s"));
        }
        assert_eq!(on.recent_spans().len(), SPAN_RING_CAPACITY);

        let off = Registry::default();
        drop(off.span("s"));
        assert!(off.recent_spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::default();
        r.counter("m", &[]);
        r.gauge("m", &[]);
    }
}
