//! Process-wide observability primitives for the qoz stack.
//!
//! Everything here is built on `std` atomics — no external deps, so any
//! crate in the workspace (including the lowest layers) can record into
//! it without creating a dependency cycle. The design splits into three
//! pieces:
//!
//! * **Instruments** — [`Counter`], [`Gauge`], and fixed-bucket
//!   [`Histogram`]s. All values are `u64` (latencies in nanoseconds,
//!   sizes in bytes) so snapshots serialize as varints and render
//!   exactly — no floats, no rounding drift.
//! * **Registries** — a [`Registry`] maps `(name, labels)` to shared
//!   instrument handles. Registration takes a lock; the hot path holds
//!   an `Arc` and only touches atomics. [`global()`] is the process-wide
//!   default (stage timers, archive counters, client retries); servers
//!   that need per-instance counters own their own `Registry`.
//! * **Stage spans** — [`StageTimer`]/[`StageSpan`] time the fixed
//!   compression stages (tune, predict+quantize, encode, entropy) with
//!   two relaxed atomic adds per span. A runtime kill switch
//!   ([`set_enabled`]) turns `start()` into a single relaxed load.
//!
//! A [`Snapshot`] is a point-in-time copy of a registry. It has a
//! varint wire encoding (carried inside the daemon's extended `Stats`
//! response) and a Prometheus-style text exposition
//! ([`Snapshot::render_text`]) with stable ordering, label escaping,
//! and cumulative histogram buckets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
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

/// A value that can move both ways (queue depth, resident workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` (saturating at zero is the caller's job; wrapping is
    /// fine for a metric that is read advisorily).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds` are strictly increasing upper bounds; an observation lands
/// in the first bucket whose bound is `>=` the value, or in the implicit
/// overflow (`+Inf`) bucket past the last bound. Buckets store *raw*
/// (non-cumulative) counts; the text exposition renders them cumulative
/// per the Prometheus convention.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (last = overflow / +Inf)
    sum: AtomicU64,
    count: AtomicU64,
}

/// Default latency bounds in nanoseconds: 100µs … 10s, decades.
pub const LATENCY_BOUNDS_NS: &[u64] = &[
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Default payload-size bounds in bytes: 1 KiB … 256 MiB.
pub const SIZE_BOUNDS_BYTES: &[u64] = &[1 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20];

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// `(name, sorted labels)` — the identity of one time series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric family name (`qoz_requests_total`).
    pub name: String,
    /// Label pairs, kept sorted so equal label sets compare equal.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted for a canonical identity.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// A set of named instruments. Cheap to snapshot, safe to share.
///
/// Lookup-or-register takes a mutex; do it once at setup and keep the
/// returned `Arc` for the hot path.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter for `(name, labels)`, registering it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        Arc::clone(inner.counters.entry(key).or_default())
    }

    /// The gauge for `(name, labels)`, registering it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        Arc::clone(inner.gauges.entry(key).or_default())
    }

    /// The histogram for `(name, labels)`, registering it with `bounds`
    /// on first use (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        Arc::clone(
            inner
                .histograms
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry lock poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide default registry. Layer-level metrics (archive I/O,
/// client retries, worker state rebuilds) record here; daemons merge it
/// into their exposition alongside their per-instance registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Stage spans
// ---------------------------------------------------------------------------

static SPANS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime kill switch for stage spans. When off, [`StageTimer::start`]
/// is a single relaxed load and records nothing.
pub fn set_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether stage spans currently record.
pub fn enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Accumulated wall time and call count for one named pipeline stage.
#[derive(Debug)]
pub struct StageTimer {
    name: &'static str,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl StageTimer {
    /// A zeroed timer for `name`.
    pub const fn new(name: &'static str) -> Self {
        StageTimer {
            name,
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The stage name this timer accumulates.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Begin a span; the elapsed time records when the guard drops.
    #[inline]
    pub fn start(&self) -> StageSpan<'_> {
        StageSpan {
            live: if enabled() {
                Some((self, Instant::now()))
            } else {
                None
            },
        }
    }

    /// Record a span measured externally.
    pub fn record_ns(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds accumulated.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Zero the accumulator (callers measuring deltas).
    pub fn reset(&self) {
        self.sum_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Drop guard returned by [`StageTimer::start`].
#[must_use = "a span records when dropped; binding to _ drops immediately"]
pub struct StageSpan<'a> {
    live: Option<(&'a StageTimer, Instant)>,
}

impl Drop for StageSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((timer, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.record_ns(ns);
        }
    }
}

/// The fixed compression-stage timers, in pipeline order.
///
/// `predict_quantize` is one timer because SZ3-style compression fuses
/// prediction and quantization into a single data pass — there is no
/// boundary to time separately without slowing the pass down.
#[derive(Debug)]
pub struct Stages {
    /// Plan construction: sampling, parameter sweep, spec selection.
    pub tune: StageTimer,
    /// The fused predict+quantize sweep over the data.
    pub predict_quantize: StageTimer,
    /// Huffman encoding of the quantizer bins.
    pub encode: StageTimer,
    /// Lossless (LZSS) compression of unpredictables and anchors.
    pub entropy: StageTimer,
}

static STAGES: Stages = Stages {
    tune: StageTimer::new("tune"),
    predict_quantize: StageTimer::new("predict_quantize"),
    encode: StageTimer::new("encode"),
    entropy: StageTimer::new("entropy"),
};

/// The process-wide stage timers.
pub fn stages() -> &'static Stages {
    &STAGES
}

impl Stages {
    /// All four timers, pipeline order.
    pub fn all(&self) -> [&StageTimer; 4] {
        [
            &self.tune,
            &self.predict_quantize,
            &self.encode,
            &self.entropy,
        ]
    }

    /// Zero every timer.
    pub fn reset(&self) {
        for t in self.all() {
            t.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot: wire encoding + text exposition
// ---------------------------------------------------------------------------

/// A point-in-time copy of a [`Registry`] (plus, optionally, the stage
/// timers appended as counters). Orderable, serializable, diffable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values, sorted by key.
    pub gauges: Vec<(MetricKey, u64)>,
    /// Histogram states, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

/// Frozen histogram state: raw (non-cumulative) bucket counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Raw per-bucket counts; `bounds.len() + 1` entries (last = +Inf).
    pub buckets: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
    /// Count of observations.
    pub count: u64,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn err(msg: &str) -> SnapshotError {
    SnapshotError(msg.to_string())
}

const WIRE_VERSION: u8 = 1;
/// Hard cap on decoded collection sizes — a lied-about length must not
/// translate into a proportional allocation.
const MAX_SERIES: u64 = 1 << 20;
const MAX_STR: u64 = 4096;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*pos).ok_or_else(|| err("truncated varint"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(err("varint too long"))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(data: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    let len = get_varint(data, pos)?;
    if len > MAX_STR {
        return Err(err("string too long"));
    }
    let len = len as usize;
    let end = pos.checked_add(len).ok_or_else(|| err("length overflow"))?;
    let bytes = data.get(*pos..end).ok_or_else(|| err("truncated string"))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| err("string not utf-8"))
}

fn put_key(out: &mut Vec<u8>, key: &MetricKey) {
    put_str(out, &key.name);
    put_varint(out, key.labels.len() as u64);
    for (k, v) in &key.labels {
        put_str(out, k);
        put_str(out, v);
    }
}

fn get_key(data: &[u8], pos: &mut usize) -> Result<MetricKey, SnapshotError> {
    let name = get_str(data, pos)?;
    let n = get_varint(data, pos)?;
    if n > 64 {
        return Err(err("too many labels"));
    }
    let mut labels = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let k = get_str(data, pos)?;
        let v = get_str(data, pos)?;
        labels.push((k, v));
    }
    Ok(MetricKey { name, labels })
}

impl Snapshot {
    /// Serialize for the wire (the daemon's extended `Stats` payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(WIRE_VERSION);
        put_varint(&mut out, self.counters.len() as u64);
        for (key, v) in &self.counters {
            put_key(&mut out, key);
            put_varint(&mut out, *v);
        }
        put_varint(&mut out, self.gauges.len() as u64);
        for (key, v) in &self.gauges {
            put_key(&mut out, key);
            put_varint(&mut out, *v);
        }
        put_varint(&mut out, self.histograms.len() as u64);
        for (key, h) in &self.histograms {
            put_key(&mut out, key);
            put_varint(&mut out, h.bounds.len() as u64);
            for b in &h.bounds {
                put_varint(&mut out, *b);
            }
            for b in &h.buckets {
                put_varint(&mut out, *b);
            }
            put_varint(&mut out, h.sum);
            put_varint(&mut out, h.count);
        }
        out
    }

    /// Decode a blob produced by [`Snapshot::encode`]. Rejects unknown
    /// versions and trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut pos = 0usize;
        let version = *data.get(pos).ok_or_else(|| err("empty blob"))?;
        pos += 1;
        if version != WIRE_VERSION {
            return Err(err("unknown snapshot version"));
        }
        let mut snap = Snapshot::default();
        let n = get_varint(data, &mut pos)?;
        if n > MAX_SERIES {
            return Err(err("too many counters"));
        }
        for _ in 0..n {
            let key = get_key(data, &mut pos)?;
            let v = get_varint(data, &mut pos)?;
            snap.counters.push((key, v));
        }
        let n = get_varint(data, &mut pos)?;
        if n > MAX_SERIES {
            return Err(err("too many gauges"));
        }
        for _ in 0..n {
            let key = get_key(data, &mut pos)?;
            let v = get_varint(data, &mut pos)?;
            snap.gauges.push((key, v));
        }
        let n = get_varint(data, &mut pos)?;
        if n > MAX_SERIES {
            return Err(err("too many histograms"));
        }
        for _ in 0..n {
            let key = get_key(data, &mut pos)?;
            let nb = get_varint(data, &mut pos)?;
            if nb > 256 {
                return Err(err("too many buckets"));
            }
            let mut bounds = Vec::with_capacity(nb as usize);
            for _ in 0..nb {
                bounds.push(get_varint(data, &mut pos)?);
            }
            let mut buckets = Vec::with_capacity(nb as usize + 1);
            for _ in 0..=nb {
                buckets.push(get_varint(data, &mut pos)?);
            }
            let sum = get_varint(data, &mut pos)?;
            let count = get_varint(data, &mut pos)?;
            snap.histograms.push((
                key,
                HistogramSnapshot {
                    bounds,
                    buckets,
                    sum,
                    count,
                },
            ));
        }
        if pos != data.len() {
            return Err(err("trailing bytes"));
        }
        Ok(snap)
    }

    /// Append another snapshot's series (a daemon merging [`global()`]
    /// into its per-instance registry). Re-sorts to keep rendering
    /// stable; duplicate keys are kept as-is (callers use disjoint
    /// metric names per registry).
    pub fn merge(&mut self, other: &Snapshot) {
        self.counters.extend(other.counters.iter().cloned());
        self.gauges.extend(other.gauges.iter().cloned());
        self.histograms.extend(other.histograms.iter().cloned());
        self.counters.sort();
        self.gauges.sort();
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Append the process-wide [`stages()`] timers as two counter
    /// families: `qoz_stage_ns_total{stage=...}` and
    /// `qoz_stage_ops_total{stage=...}`.
    pub fn append_stages(&mut self) {
        for t in stages().all() {
            self.counters.push((
                MetricKey::new("qoz_stage_ns_total", &[("stage", t.name())]),
                t.sum_ns(),
            ));
            self.counters.push((
                MetricKey::new("qoz_stage_ops_total", &[("stage", t.name())]),
                t.count(),
            ));
        }
        self.counters.sort();
    }

    /// Value of the counter `(name, labels)`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// The histogram for `(name, labels)`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// Render the Prometheus text exposition format.
    ///
    /// Ordering is deterministic: counters, then gauges, then
    /// histograms, each sorted by `(name, labels)`; one `# TYPE` line
    /// precedes each metric family. Label values escape `\`, `"`, and
    /// newline. Histogram buckets render cumulative with a final
    /// `le="+Inf"` bucket equal to `_count`.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut last_family = String::new();
        let type_line = |out: &mut String, name: &str, kind: &str, last: &mut String| {
            if *last != name {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                *last = name.to_string();
            }
        };
        for (key, v) in &self.counters {
            type_line(&mut out, &key.name, "counter", &mut last_family);
            render_sample(&mut out, &key.name, &key.labels, None, *v);
        }
        for (key, v) in &self.gauges {
            type_line(&mut out, &key.name, "gauge", &mut last_family);
            render_sample(&mut out, &key.name, &key.labels, None, *v);
        }
        for (key, h) in &self.histograms {
            type_line(&mut out, &key.name, "histogram", &mut last_family);
            let bucket_name = format!("{}_bucket", key.name);
            let mut cum = 0u64;
            for (i, raw) in h.buckets.iter().enumerate() {
                cum += raw;
                let le = match h.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                render_sample(&mut out, &bucket_name, &key.labels, Some(&le), cum);
            }
            render_sample(
                &mut out,
                &format!("{}_sum", key.name),
                &key.labels,
                None,
                h.sum,
            );
            render_sample(
                &mut out,
                &format!("{}_count", key.name),
                &key.labels,
                None,
                h.count,
            );
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: u64,
) {
    out.push_str(name);
    let has_labels = !labels.is_empty() || le.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("hits", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key returns the same instrument.
        assert_eq!(reg.counter("hits", &[]).get(), 5);

        let g = reg.gauge("depth", &[]);
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);

        let h = reg.histogram("lat", &[], &[10, 100]);
        h.observe(5); // bucket 0
        h.observe(10); // bucket 0 (le is inclusive)
        h.observe(50); // bucket 1
        h.observe(1000); // overflow
        let snap = reg.snapshot();
        let hs = snap.histogram("lat", &[]).unwrap();
        assert_eq!(hs.buckets, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 5 + 10 + 50 + 1000);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        reg.counter("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.counter("c", &[("a", "1"), ("b", "2")]).get(), 1);
    }

    #[test]
    fn stage_timer_records_and_resets() {
        let t = StageTimer::new("test_stage");
        t.record_ns(100);
        {
            let _span = t.start();
        }
        assert_eq!(t.count(), 2);
        assert!(t.sum_ns() >= 100);
        t.reset();
        assert_eq!(t.count(), 0);
        assert_eq!(t.sum_ns(), 0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let t = StageTimer::new("gated");
        set_enabled(false);
        {
            let _span = t.start();
        }
        set_enabled(true);
        assert_eq!(t.count(), 0);
    }

    fn populated_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("qoz_requests_total", &[("kind", "compress")])
            .add(7);
        reg.counter("qoz_requests_total", &[("kind", "ping")])
            .add(2);
        reg.counter("qoz_errors_total", &[("code", "overloaded")])
            .add(3);
        reg.gauge("qoz_queue_depth", &[]).set(4);
        let h = reg.histogram(
            "qoz_request_latency_ns",
            &[("kind", "compress")],
            &[1000, 1_000_000],
        );
        h.observe(500);
        h.observe(500);
        h.observe(2000);
        h.observe(5_000_000);
        // A label value exercising every escape.
        reg.counter("qoz_odd", &[("path", "a\\b\"c\nd")]).add(1);
        reg.snapshot()
    }

    #[test]
    fn golden_text_rendering() {
        let text = populated_snapshot().render_text();
        let want = concat!(
            "# TYPE qoz_errors_total counter\n",
            "qoz_errors_total{code=\"overloaded\"} 3\n",
            "# TYPE qoz_odd counter\n",
            "qoz_odd{path=\"a\\\\b\\\"c\\nd\"} 1\n",
            "# TYPE qoz_requests_total counter\n",
            "qoz_requests_total{kind=\"compress\"} 7\n",
            "qoz_requests_total{kind=\"ping\"} 2\n",
            "# TYPE qoz_queue_depth gauge\n",
            "qoz_queue_depth 4\n",
            "# TYPE qoz_request_latency_ns histogram\n",
            "qoz_request_latency_ns_bucket{kind=\"compress\",le=\"1000\"} 2\n",
            "qoz_request_latency_ns_bucket{kind=\"compress\",le=\"1000000\"} 3\n",
            "qoz_request_latency_ns_bucket{kind=\"compress\",le=\"+Inf\"} 4\n",
            "qoz_request_latency_ns_sum{kind=\"compress\"} 5003000\n",
            "qoz_request_latency_ns_count{kind=\"compress\"} 4\n",
        );
        assert_eq!(text, want);
    }

    #[test]
    fn wire_round_trips() {
        let snap = populated_snapshot();
        let decoded = Snapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn wire_rejects_damage() {
        let blob = populated_snapshot().encode();
        assert!(Snapshot::decode(&[]).is_err(), "empty");
        assert!(
            Snapshot::decode(&blob[..blob.len() - 1]).is_err(),
            "truncated"
        );
        let mut versioned = blob.clone();
        versioned[0] = 99;
        assert!(Snapshot::decode(&versioned).is_err(), "unknown version");
        let mut trailing = blob;
        trailing.push(0);
        assert!(Snapshot::decode(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn merge_and_lookup_helpers() {
        let a = Registry::new();
        a.counter("x_total", &[("k", "1")]).add(2);
        let b = Registry::new();
        b.counter("y_total", &[]).add(5);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x_total", &[("k", "1")]), Some(2));
        assert_eq!(snap.counter("y_total", &[]), Some(5));
        assert_eq!(snap.counter("absent", &[]), None);
    }

    #[test]
    fn stages_append_into_snapshot() {
        // Stage timers are process-global; use record_ns so the values
        // are at least what we wrote even if other tests also record.
        stages().tune.record_ns(10);
        let mut snap = Snapshot::default();
        snap.append_stages();
        assert!(
            snap.counter("qoz_stage_ns_total", &[("stage", "tune")])
                .unwrap()
                >= 10
        );
        assert!(
            snap.counter("qoz_stage_ops_total", &[("stage", "tune")])
                .unwrap()
                >= 1
        );
        assert!(snap
            .counter("qoz_stage_ns_total", &[("stage", "predict_quantize")])
            .is_some());
    }
}
