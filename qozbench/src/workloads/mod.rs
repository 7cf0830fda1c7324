//! The four workloads and the harness pieces they share: repeated
//! set-up, the closed measuring loop, per-operation failure capture and
//! the reduction of a traced run to per-layer metrics.

pub mod daemon_mixed;
pub mod field_dump;
pub mod region_reads;
pub mod series_chain;

use crate::calib::{slowness, Reference, Sample};
use crate::trace::Trace;
use qoz_tensor::{NdArray, Scalar};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["field-dump", "series-chain", "region-reads", "daemon-mixed"];

/// How many times set-up runs per process; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Time spent on the reference job after each operation, as a share of
/// the operation's time.
pub const REF_SHARE: f64 = 0.2;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs and schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the smoke tests.
    pub quick: bool,
}

/// One measured operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRecord {
    /// Wall time of the operation (checks excluded; 0 when it failed).
    pub ms: f64,
    /// Uncompressed bytes the operation handled.
    pub raw_bytes: u64,
    /// Whether it completed and its output checked out.
    pub ok: bool,
    /// How fast the reference job ran right after the operation.
    pub speed: Sample,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every set-up repetition.
    pub setup_s: Vec<SetupRep>,
    /// Every measured operation, in completion order.
    pub ops: Vec<OpRecord>,
    /// Operations per round: one pass over every input, or one block of
    /// the request mix. The measured window ends on a round boundary.
    pub round: usize,
    /// Wall time of the measured window.
    pub wall_s: f64,
    /// Raw bytes / stored bytes of the data the workload writes or reads.
    pub compression_ratio: f64,
    /// Mean PSNR of that data as decoded.
    pub psnr_db: f64,
    /// Number of items behind `compression_ratio` and `psnr_db`.
    pub quality_n: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The recorded spans (traced runs only).
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Run `setup` [`SETUP_REPS`] times (fewer in quick mode), keep the last
/// result and return it with the time of every repetition. Earlier
/// results are dropped before the next repetition starts. After each
/// repetition every kernel of the reference job runs for a share of its
/// time, as after an operation.
pub fn repeat_setup<S>(
    cfg: &Config,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<SetupRep>), String> {
    let reps = if cfg.quick { 1 } else { SETUP_REPS };
    let mut reference = Reference::new();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        let wall_s = t.elapsed().as_secs_f64();
        let share = REF_SHARE * wall_s * 1e3 / crate::calib::KERNELS.len() as f64;
        let samples: Vec<Sample> = crate::calib::KERNELS
            .iter()
            .map(|_| reference.sample(share))
            .collect();
        times.push(SetupRep {
            wall_s,
            slowness: slowness(samples),
        });
    }
    Ok((last.expect("at least one repetition"), times))
}

/// One repetition of a workload's set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupRep {
    /// Its wall time.
    pub wall_s: f64,
    /// The machine's slowness right after it.
    pub slowness: f64,
}

/// Run one operation, turning a panic into an error so a broken
/// operation is counted instead of ending the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Run `op(i)` for i = 0, 1, … until `seconds` have passed, always
/// finishing the current round of `round` operations so that every
/// input is measured equally often; returns the records and the
/// window's wall time. `op` does its own timing so that output checks
/// stay off the clock. After each operation the reference job runs for
/// [`REF_SHARE`] of the operation's time and its speed is recorded.
pub fn closed_loop(
    seconds: f64,
    round: usize,
    mut op: impl FnMut(usize) -> OpRecord,
) -> (Vec<OpRecord>, f64) {
    let mut reference = Reference::new();
    let t = Instant::now();
    let mut ops = Vec::new();
    while ops.is_empty() || ops.len() % round != 0 || t.elapsed().as_secs_f64() < seconds {
        let mut r = op(ops.len());
        r.speed = reference.sample(REF_SHARE * r.ms);
        ops.push(r);
    }
    (ops, t.elapsed().as_secs_f64())
}

/// Time `f` in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Log a failed operation to stderr (stdout carries the results).
pub fn report_failure(workload: &str, i: usize, err: &str) {
    eprintln!("qozbench: {workload}: operation {i} failed: {err}");
}

/// FNV-1a over an array's values, bit-exact: two arrays hash equal only
/// if every value has the same bits (up to hash collisions).
pub fn hash_values<T: Scalar>(a: &NdArray<T>) -> u64 {
    // Widening to f64 is exact, so equal bits in f64 mean equal values.
    a.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_f64().to_bits()).wrapping_mul(0x100_0000_01b3)
    }) ^ a.len() as u64
}

/// FNV-1a over bytes.
pub fn hash_bytes(b: &[u8]) -> u64 {
    qoz_archive::fnv1a(b)
}

/// The independent bound check: every point of `recon` within `abs` of
/// `orig` per `qoz_metrics::verify_error_bound`.
pub fn check_bound<T: Scalar>(
    orig: &NdArray<T>,
    recon: &NdArray<T>,
    abs: f64,
) -> Result<(), String> {
    if orig.shape() != recon.shape() {
        return Err(format!(
            "decoded shape {:?} != input shape {:?}",
            recon.shape().dims(),
            orig.shape().dims()
        ));
    }
    match qoz_metrics::verify_error_bound(orig, recon, abs) {
        None => Ok(()),
        Some(i) => Err(format!(
            "point {i} off by {:e} > bound {abs:e}",
            (orig.as_slice()[i].to_f64() - recon.as_slice()[i].to_f64()).abs()
        )),
    }
}

/// The bound check for temporal chain members: `abs` plus the rounding
/// of forming and adding the residual in `T`, which `qoz_temporal`
/// documents as "a few ULPs" on top of the bound (4 ulps of the value
/// here).
pub fn check_chain_bound<T: Scalar>(
    orig: &NdArray<T>,
    recon: &NdArray<T>,
    abs: f64,
) -> Result<(), String> {
    let eps = if T::BYTES == 4 {
        f64::from(f32::EPSILON)
    } else {
        f64::EPSILON
    };
    if orig.shape() != recon.shape() {
        return Err("decoded shape differs from the input shape".into());
    }
    let bad = orig
        .as_slice()
        .iter()
        .zip(recon.as_slice())
        .position(|(a, b)| {
            let (a, b) = (a.to_f64(), b.to_f64());
            a.is_finite() && b.is_finite() && (a - b).abs() > abs + 4.0 * eps * a.abs().max(b.abs())
        });
    match bad {
        None => Ok(()),
        Some(i) => Err(format!(
            "chain point {i} off by {:e} > bound {abs:e} + 4 ulp",
            (orig.as_slice()[i].to_f64() - recon.as_slice()[i].to_f64()).abs()
        )),
    }
}

/// The seeded variant of a fixed input: `±x + k/8 · range`, the sign and
/// `k` in `0..8` drawn from the seed.
///
/// The workloads' fields are fixed and the seed picks their variant and
/// the schedule. QoZ's predictors and quantizer are invariant under sign
/// and shift, so every variant costs the same work and compresses to the
/// same ratio and PSNR (up to the rounding of the shifted values), while
/// the bytes in and out differ from seed to seed. A seeded choice of
/// fields instead moved the compression ratio by 1–3% between seeds and
/// the PSNR-target search by ±10% (it verifies with one full pass or
/// two, depending on the field), more than the bounds allow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// `1.0` or `-1.0`.
    pub sign: f64,
    /// The shift in eighths of the value range.
    pub eighths: u8,
}

impl Variant {
    /// Draw a variant.
    pub fn draw(rng: &mut Rng) -> Variant {
        Variant {
            sign: if rng.below(2) == 0 { 1.0 } else { -1.0 },
            eighths: rng.below(8) as u8,
        }
    }

    /// The variant of `a`.
    pub fn apply<T: Scalar>(&self, a: &NdArray<T>) -> NdArray<T> {
        let shift = f64::from(self.eighths) / 8.0 * a.value_range();
        let v = a
            .as_slice()
            .iter()
            .map(|&x| T::from_f64(self.sign * x.to_f64() + shift))
            .collect();
        NdArray::from_vec(a.shape(), v)
    }
}

/// SplitMix64: the benchmark's deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Blocks of `kinds` in a fresh random order each: every block holds
    /// each kind exactly as often as `kinds` lists it, so any run that
    /// ends on a block boundary has exactly the intended mix.
    pub fn shuffled_blocks<K: Copy>(&mut self, kinds: &[K], blocks: usize) -> Vec<K> {
        let mut out = Vec::with_capacity(kinds.len() * blocks);
        for _ in 0..blocks {
            let mut block = kinds.to_vec();
            for i in (1..block.len()).rev() {
                block.swap(i, self.below(i + 1));
            }
            out.extend(block);
        }
        out
    }
}

/// A private directory under `.qozbench-work/` in the current directory
/// for files a workload needs; removed when dropped.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Create a fresh directory named after the workload and process.
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(".qozbench-work").join(format!(
            "{workload}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory, as a string.
    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".qozbench-work");
    }
}

/// Reduce a traced run to the per-layer metrics.
///
/// Time metrics are shares (%) of the time spent inside operation roots
/// (`api.*` spans, one per replaced facade call): a layer's self time
/// over the total. `facade_ms` is the untraced facade time of the same
/// operations per direction (`compress`, `decode`), which the coverage
/// and tracing-overhead metrics compare against.
pub fn layer_metrics(
    trace: &Trace,
    facade_ms: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    // Per direction: root time, and the part of it the layer spans cover.
    let mut root = BTreeMap::<&str, u64>::new();
    let mut covered = BTreeMap::<&str, u64>::new();
    let mut glue = 0u64;
    for (s, own) in trace.spans.iter().zip(trace.self_ns()) {
        if s.parent.is_none() {
            let dir = direction(s.name);
            *root.entry(dir).or_default() += s.dur_ns();
            *covered.entry(dir).or_default() += s.dur_ns() - own;
            glue += own;
        }
    }
    let root_ns: u64 = root.values().sum();
    let (self_by, total_by) = (trace.self_by_name(), trace.total_by_name());
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pct = |ns: u64| 100.0 * ratio(ns as f64, root_ns as f64);
    let self_pct = |names: &[&str]| pct(names.iter().filter_map(|n| self_by.get(n)).sum());
    let c = |name: &str| trace.count_of(name);
    let facade = |dir: &str| facade_ms.get(dir).copied().unwrap_or(0.0) * 1e6;
    let coverage =
        |dir: &str| 100.0 * ratio(covered.get(dir).copied().unwrap_or(0) as f64, facade(dir));
    let all_facade = facade("compress") + facade("decode");
    let mut m = BTreeMap::new();
    m.insert("core.tune_pct", self_pct(&["core.tune"]));
    m.insert(
        "core.target_search_pct",
        self_pct(&["core.target_estimate", "core.target_verify"]),
    );
    m.insert(
        "core.target_passes",
        ratio(c("core.target_passes"), c("core.target_compresses")),
    );
    m.insert(
        "core.warm_plan_frac",
        ratio(c("core.warm_plans"), c("core.plans")),
    );
    m.insert(
        "sz3.predict_quantize_pct",
        self_pct(&["sz3.predict_quantize"]),
    );
    m.insert("sz3.reconstruct_pct", self_pct(&["sz3.reconstruct"]));
    m.insert(
        "sz3.stream_pct",
        self_pct(&["sz3.write_stream", "sz3.read_stream"]),
    );
    m.insert("sz3.unpred_frac", ratio(c("sz3.unpred"), c("sz3.points")));
    m.insert(
        "codec.huffman_encode_pct",
        self_pct(&["codec.huffman_encode"]),
    );
    m.insert("codec.lzss_encode_pct", self_pct(&["codec.lzss_encode"]));
    m.insert(
        "codec.huffman_decode_pct",
        self_pct(&["codec.huffman_decode"]),
    );
    m.insert("codec.lzss_decode_pct", self_pct(&["codec.lzss_decode"]));
    m.insert(
        "codec.lzss_gain",
        ratio(c("codec.huffman_bytes"), c("codec.lzss_bytes")),
    );
    m.insert(
        "temporal.encode_extra_pct",
        self_pct(&["temporal.compress_next"]),
    );
    m.insert(
        "temporal.decode_extra_pct",
        self_pct(&["temporal.decompress_next", "temporal.accumulate"]),
    );
    m.insert(
        "temporal.redecode_pct",
        pct(total_by.get("temporal.redecode").copied().unwrap_or(0)),
    );
    m.insert(
        "temporal.delta_frac",
        ratio(c("temporal.deltas"), c("temporal.snapshots")),
    );
    m.insert("archive.fetch_pct", self_pct(&["archive.fetch"]));
    m.insert("archive.stitch_pct", self_pct(&["archive.stitch"]));
    m.insert(
        "archive.chunks_per_read",
        ratio(c("archive.chunks"), c("archive.reads")),
    );
    m.insert(
        "archive.read_amplification",
        ratio(c("archive.bytes_fetched"), c("archive.bytes_served")),
    );
    m.insert("pario.decode_pct", self_pct(&["pario.decompress_chunks"]));
    m.insert(
        "pario.decode_efficiency",
        ratio(c("pario.serial_decode_ns"), c("pario.capacity_ns")),
    );
    m.insert("api.glue_pct", pct(glue));
    m.insert(
        "api.grow_events",
        ratio(c("api.grow_events"), c("api.warm_calls")),
    );
    m.insert(
        "serve.service_pct",
        100.0 * ratio(c("serve.service_ns"), c("serve.roundtrip_ns")),
    );
    m.insert(
        "serve.overhead_pct",
        100.0
            * ratio(
                c("serve.roundtrip_ns") - c("serve.local_ns"),
                c("serve.roundtrip_ns"),
            ),
    );
    m.insert("trace.compress_coverage_pct", coverage("compress"));
    m.insert("trace.decode_coverage_pct", coverage("decode"));
    m.insert(
        "trace.overhead_pct",
        if all_facade > 0.0 {
            100.0 * (root_ns as f64 / all_facade - 1.0)
        } else {
            0.0
        },
    );
    m
}

/// Which side of the codec an operation root is on.
pub fn direction(root: &str) -> &'static str {
    match root {
        "api.compress" | "api.target_compress" | "api.compress_next" => "compress",
        _ => "decode",
    }
}

/// Every per-layer metric, with its unit and direction, in output order.
pub const LAYER_METRICS: [(&str, &str, &str); 30] = [
    ("core.tune_pct", "%", "lower"),
    ("core.target_search_pct", "%", "lower"),
    ("core.target_passes", "count", "lower"),
    ("core.warm_plan_frac", "frac", "higher"),
    ("sz3.predict_quantize_pct", "%", "lower"),
    ("sz3.reconstruct_pct", "%", "lower"),
    ("sz3.stream_pct", "%", "lower"),
    ("sz3.unpred_frac", "frac", "lower"),
    ("codec.huffman_encode_pct", "%", "lower"),
    ("codec.lzss_encode_pct", "%", "lower"),
    ("codec.huffman_decode_pct", "%", "lower"),
    ("codec.lzss_decode_pct", "%", "lower"),
    ("codec.lzss_gain", "ratio", "higher"),
    ("temporal.encode_extra_pct", "%", "lower"),
    ("temporal.decode_extra_pct", "%", "lower"),
    ("temporal.redecode_pct", "%", "lower"),
    ("temporal.delta_frac", "frac", "higher"),
    ("archive.fetch_pct", "%", "lower"),
    ("archive.stitch_pct", "%", "lower"),
    ("archive.chunks_per_read", "count", "lower"),
    ("archive.read_amplification", "ratio", "lower"),
    ("pario.decode_pct", "%", "lower"),
    ("pario.decode_efficiency", "frac", "higher"),
    ("api.glue_pct", "%", "lower"),
    ("api.grow_events", "count", "lower"),
    ("serve.service_pct", "%", "lower"),
    ("serve.overhead_pct", "%", "lower"),
    ("trace.compress_coverage_pct", "%", "higher"),
    ("trace.decode_coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
];
