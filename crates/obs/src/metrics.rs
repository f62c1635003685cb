//! Live wall-clock metrics: a lock-free registry of counters, gauges, and
//! fixed-bucket histograms with a deterministic exposition snapshot.
//!
//! This module serves the *live* cluster backend (`dde-net`'s TCP runtime),
//! which is the one sanctioned place in the workspace where wall-clock time
//! and thread scheduling exist (DESIGN.md §5g). The metric *values* are
//! therefore nondeterministic by nature — what stays deterministic is the
//! exposition format: [`MetricsSnapshot`] sorts every series by name and
//! renders through the insertion-ordered [`JsonValue`] writer, so two
//! snapshots with the same values are byte-identical and snapshot diffs are
//! structural, not fuzzy.
//!
//! Hot-path updates are wait-free: [`Counter`], [`Gauge`], and [`WallHist`]
//! are plain atomics with `Relaxed` ordering (each series is an independent
//! statistic; no cross-series invariant is read concurrently). The registry
//! itself takes a `Mutex` only on the cold paths — series registration and
//! snapshotting. None of this is reachable from the DES: the simulator
//! crates never link these types, so the byte-identical trace guarantee is
//! unaffected by construction (see DESIGN.md §5i).

use crate::hist::{Histogram, BUCKET_BOUNDS_US, BUCKET_COUNT};
use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic event counter. Updates are wait-free (`Relaxed` atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, readiness flag, heartbeat).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock duration histogram over the same 1–2–5 bucket ladder as the
/// deterministic [`Histogram`] ([`BUCKET_BOUNDS_US`]), recordable from many
/// threads without locking.
#[derive(Debug)]
pub struct WallHist {
    counts: [AtomicU64; BUCKET_COUNT],
    max_us: AtomicU64,
}

impl Default for WallHist {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }
}

impl WallHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_COUNT - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Materialize the current contents as a deterministic [`Histogram`].
    /// Concurrent recorders may land between bucket loads; each bucket read
    /// is individually exact, which is all the percentile read-out needs.
    pub fn snapshot(&self) -> Histogram {
        let counts = std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        Histogram::from_bucket_counts(counts, self.max_us.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    hists: BTreeMap<String, Arc<WallHist>>,
}

/// A named collection of live metric series.
///
/// `counter`/`gauge`/`hist` are get-or-create: callers grab an `Arc` handle
/// once (under the registration lock) and then update it wait-free forever
/// after. [`snapshot`](Self::snapshot) freezes every series into a
/// [`MetricsSnapshot`] sorted by name.
// Registration/snapshot lock only — never taken per event (module docs).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        // A poisoned lock means a holder panicked between map operations;
        // the maps are still structurally sound (BTreeMap ops finished or
        // didn't), and the series data lives in the Arcs — recover it.
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.with_inner(|i| Arc::clone(i.counters.entry(name.to_string()).or_default()))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.with_inner(|i| Arc::clone(i.gauges.entry(name.to_string()).or_default()))
    }

    /// The wall-clock histogram named `name`, created on first use.
    pub fn hist(&self, name: &str) -> Arc<WallHist> {
        self.with_inner(|i| Arc::clone(i.hists.entry(name.to_string()).or_default()))
    }

    /// Freeze every registered series into a sorted, deterministic
    /// snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_inner(|i| MetricsSnapshot {
            counters: i
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: i.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: i
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        })
    }
}

/// A malformed metrics snapshot document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsError {
    /// What was wrong, with the offending key where applicable.
    pub msg: String,
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed metrics snapshot: {}", self.msg)
    }
}

impl std::error::Error for MetricsError {}

fn bad(msg: impl Into<String>) -> MetricsError {
    MetricsError { msg: msg.into() }
}

/// A frozen, name-sorted view of a [`MetricsRegistry`] with a deterministic
/// JSON/text exposition format and a structural diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter series, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge series, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram series, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

fn int_u64(v: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn hist_percentile_us(h: &Histogram, p: f64) -> u64 {
    h.percentile(p).map(|d| d.as_micros()).unwrap_or(0)
}

impl MetricsSnapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Fold another snapshot into this one: counters add, gauges take the
    /// latest (other wins), histograms merge exactly. Used to aggregate
    /// per-node snapshots into a cluster view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self
                .counters
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
            {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                Ok(i) => self.gauges[i].1 = *v,
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
            {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    /// Render as a deterministic JSON value: three insertion-ordered
    /// objects (`counters`, `gauges`, `histograms`) with series sorted by
    /// name. Histograms carry their raw buckets plus derived
    /// `count`/`max_us`/`p50_us`/`p95_us`/`p99_us` fields for human eyes;
    /// [`from_json_value`](Self::from_json_value) revalidates the derived
    /// fields against the buckets.
    pub fn to_json_value(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), int_u64(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Int(*v)))
            .collect();
        let hists = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h.bucket_counts().iter().map(|&c| int_u64(c)).collect();
                (
                    k.clone(),
                    JsonValue::Object(vec![
                        ("count".into(), int_u64(h.count())),
                        ("max_us".into(), int_u64(h.max_us())),
                        ("p50_us".into(), int_u64(hist_percentile_us(h, 50.0))),
                        ("p95_us".into(), int_u64(hist_percentile_us(h, 95.0))),
                        ("p99_us".into(), int_u64(hist_percentile_us(h, 99.0))),
                        ("buckets".into(), JsonValue::Array(buckets)),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("counters".into(), JsonValue::Object(counters)),
            ("gauges".into(), JsonValue::Object(gauges)),
            ("histograms".into(), JsonValue::Object(hists)),
        ])
    }

    /// Parse a snapshot back from its [`to_json_value`](Self::to_json_value)
    /// shape, validating structure: the three sections must be objects,
    /// counters non-negative integers, histogram buckets exactly
    /// [`BUCKET_COUNT`] non-negative integers whose sum equals `count`.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, MetricsError> {
        let JsonValue::Object(_) = v else {
            return Err(bad("document is not an object"));
        };
        let section = |key: &str| -> Result<&[(String, JsonValue)], MetricsError> {
            match v.get(key) {
                Some(JsonValue::Object(pairs)) => Ok(pairs),
                Some(_) => Err(bad(format!("`{key}` is not an object"))),
                None => Err(bad(format!("missing `{key}` section"))),
            }
        };
        let need_u64 = |ctx: &str, val: &JsonValue| -> Result<u64, MetricsError> {
            val.as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| bad(format!("`{ctx}` is not a non-negative integer")))
        };

        let mut counters = Vec::new();
        for (name, val) in section("counters")? {
            counters.push((name.clone(), need_u64(name, val)?));
        }
        let mut gauges = Vec::new();
        for (name, val) in section("gauges")? {
            let i = val
                .as_int()
                .ok_or_else(|| bad(format!("gauge `{name}` is not an integer")))?;
            gauges.push((name.clone(), i));
        }
        let mut histograms = Vec::new();
        for (name, val) in section("histograms")? {
            let Some(JsonValue::Array(raw)) = val.get("buckets") else {
                return Err(bad(format!("histogram `{name}` has no `buckets` array")));
            };
            if raw.len() != BUCKET_COUNT {
                return Err(bad(format!(
                    "histogram `{name}` has {} buckets, expected {BUCKET_COUNT}",
                    raw.len()
                )));
            }
            let mut counts = [0u64; BUCKET_COUNT];
            for (i, b) in raw.iter().enumerate() {
                counts[i] = need_u64(&format!("{name}.buckets[{i}]"), b)?;
            }
            let max_us = need_u64(
                &format!("{name}.max_us"),
                val.get("max_us").unwrap_or(&JsonValue::Null),
            )?;
            let count = need_u64(
                &format!("{name}.count"),
                val.get("count").unwrap_or(&JsonValue::Null),
            )?;
            let h = Histogram::from_bucket_counts(counts, max_us);
            if h.count() != count {
                return Err(bad(format!(
                    "histogram `{name}`: count {} does not match bucket sum {}",
                    count,
                    h.count()
                )));
            }
            histograms.push((name.clone(), h));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }

    /// Parse from JSON text (convenience over [`crate::json::parse`] +
    /// [`from_json_value`](Self::from_json_value)).
    pub fn parse(src: &str) -> Result<Self, MetricsError> {
        let v = crate::json::parse(src).map_err(|e| bad(e.to_string()))?;
        Self::from_json_value(&v)
    }

    /// Render as fixed-layout text, one series per line, sorted by name —
    /// the human-facing exposition format.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist {name} count={} max_us={} p50_us={} p95_us={} p99_us={}\n",
                h.count(),
                h.max_us(),
                hist_percentile_us(h, 50.0),
                hist_percentile_us(h, 95.0),
                hist_percentile_us(h, 99.0),
            ));
        }
        out
    }

    /// Structural diff against `other` (self = before, other = after): one
    /// line per changed/added/removed series, empty when identical.
    pub fn diff(&self, other: &MetricsSnapshot) -> String {
        let mut out = String::new();
        diff_series(
            &mut out,
            "counter",
            &self.counters,
            &other.counters,
            |a, b| {
                let delta = *b as i128 - *a as i128;
                format!("{a} -> {b} ({delta:+})")
            },
            |v| v.to_string(),
        );
        // Gauges.
        diff_series(
            &mut out,
            "gauge",
            &self.gauges,
            &other.gauges,
            |a, b| format!("{a} -> {b} ({:+})", *b as i128 - *a as i128),
            |v| v.to_string(),
        );
        // Histograms: compare count/max/percentiles.
        diff_series(
            &mut out,
            "hist",
            &self.histograms,
            &other.histograms,
            |a, b| {
                format!(
                    "count {} -> {}, p95_us {} -> {}",
                    a.count(),
                    b.count(),
                    hist_percentile_us(a, 95.0),
                    hist_percentile_us(b, 95.0)
                )
            },
            |h| format!("count={}", h.count()),
        );
        out
    }
}

/// Walk two name-sorted series lists and describe changes. `changed`
/// renders an in-place value change, `solo` renders an added/removed value.
fn diff_series<T: PartialEq>(
    out: &mut String,
    kind: &str,
    before: &[(String, T)],
    after: &[(String, T)],
    changed: impl Fn(&T, &T) -> String,
    solo: impl Fn(&T) -> String,
) {
    let mut i = 0;
    let mut j = 0;
    while i < before.len() || j < after.len() {
        match (before.get(i), after.get(j)) {
            (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                if va != vb {
                    out.push_str(&format!("~ {kind} {ka}: {}\n", changed(va, vb)));
                }
                i += 1;
                j += 1;
            }
            (Some((ka, va)), Some((kb, _))) if ka < kb => {
                out.push_str(&format!("- {kind} {ka}: {}\n", solo(va)));
                i += 1;
            }
            (Some(_), Some((kb, vb))) => {
                out.push_str(&format!("+ {kind} {kb}: {}\n", solo(vb)));
                j += 1;
            }
            (Some((ka, va)), None) => {
                out.push_str(&format!("- {kind} {ka}: {}\n", solo(va)));
                i += 1;
            }
            (None, Some((kb, vb))) => {
                out.push_str(&format!("+ {kind} {kb}: {}\n", solo(vb)));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Parse a metrics document that is either a bare snapshot or a per-node
/// collection `{"nodes": [{"node": N, "metrics": {...}}, ...]}` (the shape
/// `cluster_demo` writes). Returns `(node, snapshot)` pairs; a bare
/// snapshot comes back as a single pair with `node = None`.
pub fn parse_snapshot_document(
    v: &JsonValue,
) -> Result<Vec<(Option<u64>, MetricsSnapshot)>, MetricsError> {
    match v.get("nodes") {
        Some(JsonValue::Array(entries)) => {
            let mut out = Vec::new();
            for (i, entry) in entries.iter().enumerate() {
                let node = entry
                    .get("node")
                    .and_then(JsonValue::as_int)
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| bad(format!("nodes[{i}] has no integer `node`")))?;
                let metrics = entry
                    .get("metrics")
                    .ok_or_else(|| bad(format!("nodes[{i}] has no `metrics`")))?;
                out.push((Some(node), MetricsSnapshot::from_json_value(metrics)?));
            }
            Ok(out)
        }
        Some(_) => Err(bad("`nodes` is not an array")),
        None => Ok(vec![(None, MetricsSnapshot::from_json_value(v)?)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("tcp.frames_out").add(3);
        reg.counter("tcp.frames_out").inc();
        reg.gauge("host.queue_depth").set(7);
        reg.gauge("host.queue_depth").add(-2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("tcp.frames_out"), Some(4));
        assert_eq!(snap.gauge("host.queue_depth"), Some(5));

        let parsed = MetricsSnapshot::parse(&snap.to_json_value().to_compact_string()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn hist_snapshot_matches_deterministic_histogram() {
        let reg = MetricsRegistry::new();
        let h = reg.hist("send_us");
        h.record_us(1_500);
        h.record_us(1_500);
        h.record_us(400_000);
        let snap = reg.snapshot();
        let got = snap.histogram("send_us").unwrap();
        assert_eq!(got.count(), 3);
        assert_eq!(got.max_us(), 400_000);
        // Same buckets as the deterministic histogram ladder.
        assert_eq!(hist_percentile_us(got, 50.0), 2_000);
    }

    #[test]
    fn concurrent_updates_all_land() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("c");
                let h = reg.hist("h");
                for i in 0..1_000u64 {
                    c.inc();
                    h.record_us(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(4_000));
        assert_eq!(snap.histogram("h").unwrap().count(), 4_000);
    }

    #[test]
    fn exposition_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        let a = reg.snapshot().to_json_value().to_compact_string();
        let b = reg.snapshot().to_json_value().to_compact_string();
        assert_eq!(a, b);
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        // Not an object.
        assert!(MetricsSnapshot::parse("[1,2]").is_err());
        // Missing sections.
        assert!(MetricsSnapshot::parse("{}").is_err());
        // Negative counter.
        assert!(
            MetricsSnapshot::parse(r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#).is_err()
        );
        // Bucket-count mismatch.
        assert!(MetricsSnapshot::parse(
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"max_us":5,"buckets":[1]}}}"#
        )
        .is_err());
        // count != bucket sum.
        let mut buckets = vec!["0"; BUCKET_COUNT];
        buckets[0] = "2";
        let doc = format!(
            r#"{{"counters":{{}},"gauges":{{}},"histograms":{{"h":{{"count":1,"max_us":5,"buckets":[{}]}}}}}}"#,
            buckets.join(",")
        );
        assert!(MetricsSnapshot::parse(&doc).is_err());
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let a = MetricsRegistry::new();
        a.counter("c").add(2);
        a.hist("h").record_us(1_000);
        let b = MetricsRegistry::new();
        b.counter("c").add(3);
        b.counter("only_b").inc();
        b.hist("h").record_us(900_000);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.counter("only_b"), Some(1));
        assert_eq!(snap.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn diff_reports_changes_additions_removals() {
        let a = MetricsRegistry::new();
        a.counter("stays").add(1);
        a.counter("gone").add(9);
        let b = MetricsRegistry::new();
        b.counter("stays").add(4);
        b.counter("new").add(2);
        let d = a.snapshot().diff(&b.snapshot());
        assert!(d.contains("~ counter stays: 1 -> 4 (+3)"), "{d}");
        assert!(d.contains("- counter gone: 9"), "{d}");
        assert!(d.contains("+ counter new: 2"), "{d}");
        let same = a.snapshot().diff(&a.snapshot());
        assert!(same.is_empty(), "{same}");
    }

    #[test]
    fn snapshot_document_accepts_both_shapes() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        let bare = reg.snapshot().to_json_value();
        let got = parse_snapshot_document(&bare).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, None);

        let doc = JsonValue::Object(vec![(
            "nodes".into(),
            JsonValue::Array(vec![JsonValue::Object(vec![
                ("node".into(), JsonValue::Int(2)),
                ("metrics".into(), bare),
            ])]),
        )]);
        let got = parse_snapshot_document(&doc).unwrap();
        assert_eq!(got[0].0, Some(2));
        assert_eq!(got[0].1.counter("c"), Some(1));

        let bad_doc = JsonValue::Object(vec![("nodes".into(), JsonValue::Int(1))]);
        assert!(parse_snapshot_document(&bad_doc).is_err());
    }
}
