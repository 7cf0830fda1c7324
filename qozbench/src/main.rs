//! `qozbench` — seeded end-to-end and per-layer benchmark of qoz-suite.
//!
//! ```text
//! qozbench --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! qozbench compare [--bench BENCHMARK.json] A.json... -- B.json...
//! ```
//!
//! A run prints a header, one line per metric with its unit and sample
//! count, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//! Failed operations are counted, never fatal; the exit code is non-zero
//! only when the harness itself breaks. See README.md.

mod calib;
mod compare;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use json::Obj;
use std::collections::BTreeMap;
use workloads::{Config, Outcome};

/// Every end-to-end metric: name, unit, better direction.
pub const E2E_METRICS: [(&str, &str, &str); 7] = [
    ("throughput_mbps", "MB/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("compression_ratio", "ratio", "higher"),
    ("psnr_db", "dB", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

const USAGE: &str = "usage:
  qozbench --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR] [--quick]
  qozbench compare [--bench BENCHMARK.json] A.json... -- B.json...
workloads: field-dump series-chain region-reads daemon-mixed";

/// Parsed run arguments.
#[derive(Debug)]
struct RunArgs {
    workload: String,
    cfg: Config,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    if !(seconds >= 0.0 && f64::is_finite(seconds)) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(RunArgs {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            quick,
        },
        out,
    })
}

/// Run one workload.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "field-dump" => workloads::field_dump::run(cfg),
        "series-chain" => workloads::series_chain::run(cfg),
        "region-reads" => workloads::region_reads::run(cfg),
        "daemon-mixed" => workloads::daemon_mixed::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A run's timings: the throughput of each round, the latency of each
/// successful operation and the time of each set-up repetition.
pub struct Timings {
    /// Raw bytes of a round's successful operations over the time spent
    /// inside them, so the benchmark's own output checks do not dilute
    /// it; MB/s.
    pub round_mbps: Vec<f64>,
    /// Latency of every successful operation, ms.
    pub op_ms: Vec<f64>,
    /// Time of every set-up repetition, s.
    pub setup_s: Vec<f64>,
}

/// The run's timings, either as wall time or `normalised`: divided by
/// the machine's slowness, measured by the reference job around each
/// round of operations and after each set-up repetition, which gives
/// the time at the reference job's nominal speed (see `calib`).
pub fn timings(o: &Outcome, normalised: bool) -> Timings {
    let mut t = Timings {
        round_mbps: Vec::new(),
        op_ms: Vec::new(),
        setup_s: Vec::new(),
    };
    for round in o.ops.chunks(o.round.max(1)) {
        let slow = if normalised {
            calib::slowness(round.iter().map(|r| r.speed))
        } else {
            1.0
        };
        let ok: Vec<_> = round.iter().filter(|r| r.ok).collect();
        let bytes: u64 = ok.iter().map(|r| r.raw_bytes).sum();
        let ms: f64 = ok.iter().map(|r| r.ms / slow).sum();
        if ms > 0.0 {
            t.round_mbps.push(bytes as f64 / 1e3 / ms);
        }
        t.op_ms.extend(ok.iter().map(|r| r.ms / slow));
    }
    t.setup_s = o
        .setup_s
        .iter()
        .map(|r| r.wall_s / if normalised { r.slowness } else { 1.0 })
        .collect();
    t
}

/// `(name, value, unit, samples)` of every end-to-end metric, from the
/// normalised timings. Throughput is the median over rounds, so that a
/// burst of interference from outside moves it less than a mean would.
pub fn e2e_metrics(o: &Outcome) -> Vec<(&'static str, f64, &'static str, usize)> {
    let t = timings(o, true);
    let values = [
        (stats::median(&t.round_mbps), t.round_mbps.len()),
        (stats::percentile(&t.op_ms, 50.0), t.op_ms.len()),
        (stats::percentile(&t.op_ms, 90.0), t.op_ms.len()),
        (o.compression_ratio, o.quality_n),
        (o.psnr_db, o.quality_n),
        (peak_rss_mb(), 1),
        (stats::median(&t.setup_s), t.setup_s.len()),
    ];
    E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (v, n))| (name, v, unit, n))
        .collect()
}

/// `(name, value, unit, samples)` of every per-layer metric.
pub fn layer_metrics(o: &Outcome) -> Vec<(&'static str, f64, &'static str, usize)> {
    let n = o.ops.len();
    workloads::LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| (name, o.layers.get(name).copied().unwrap_or(0.0), unit, n))
        .collect()
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome, metrics: &[(&str, f64, &str, usize)]) -> String {
    let m = metrics
        .iter()
        .fold(Obj::new(), |obj, &(name, v, unit, _)| {
            obj.raw(name, &Obj::new().num("value", v).str("unit", unit).finish())
        })
        .finish();
    Obj::new()
        .bool("correct", o.failed() == 0)
        .raw("attempted", &o.ops.len().to_string())
        .raw("failed", &o.failed().to_string())
        .raw("metrics", &m)
        .finish()
}

fn header(workload: &str, cfg: &Config) -> BTreeMap<&'static str, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    BTreeMap::from([
        ("workload", workload.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_features", qoz_codec::simd::cpu_features()),
        (
            "kernel_path",
            qoz_codec::simd::selected().name().to_string(),
        ),
    ])
}

/// Put the allocator in the state a long-running process reaches: glibc
/// raises its mmap threshold to the size of the largest mapped block
/// freed so far (up to 32 MiB), so whether the codec's per-call buffers
/// come from reused heap memory or from freshly faulted mappings
/// depends on the process's allocation history. Left to chance, that
/// history moved `field-dump` by up to 1.7× between runs; freeing one
/// large block first makes every run start from the same state. A
/// short-lived process that never frees a large block pays more: the
/// README gives the measured cost.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; (32 << 20) - (8 << 10)]));
}

fn run(args: RunArgs) -> Result<(), String> {
    let RunArgs { workload, cfg, out } = args;
    settle_allocator();
    let head = header(&workload, &cfg);
    let line: Vec<String> = head.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# qozbench {}", line.join(" "));
    let outcome = run_workload(&workload, &cfg)?;
    let metrics = if cfg.trace {
        layer_metrics(&outcome)
    } else {
        e2e_metrics(&outcome)
    };
    for &(name, v, unit, n) in &metrics {
        println!("{workload} {name} {v:.6} {unit} (n={n})");
    }
    if !cfg.trace {
        let wall = timings(&outcome, false);
        let slow: Vec<f64> = outcome
            .ops
            .chunks(outcome.round.max(1))
            .map(|r| calib::slowness(r.iter().map(|o| o.speed)))
            .collect();
        println!(
            "{workload} wall clock: throughput_mbps {:.6} op_p50_ms {:.6} op_p90_ms {:.6} setup_s {:.6}; machine slowness {:.4} (median over rounds)",
            stats::median(&wall.round_mbps),
            stats::percentile(&wall.op_ms, 50.0),
            stats::percentile(&wall.op_ms, 90.0),
            stats::median(&wall.setup_s),
            stats::median(&slow),
        );
    }
    println!(
        "{workload} ops {} failed {} over {:.3} s",
        outcome.ops.len(),
        outcome.failed(),
        outcome.wall_s
    );
    let result = result_json(&outcome, &metrics);
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        let head = head
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.str(k, v))
            .finish();
        let doc = Obj::new()
            .str("workload", &workload)
            .raw("seed", &cfg.seed.to_string())
            .bool("trace", cfg.trace)
            .raw("header", &head)
            .raw("result", &result)
            .finish();
        let suffix = if cfg.trace { "-trace" } else { "" };
        let path = format!("{dir}/{workload}-seed{}{suffix}.json", cfg.seed);
        std::fs::write(&path, doc + "\n").map_err(|e| format!("write {path}: {e}"))?;
        if let Some(t) = &outcome.trace {
            let path = format!("{dir}/trace-{workload}.json");
            std::fs::write(&path, t.to_json() + "\n").map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    println!("{result}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => match parse_run(&args) {
            Ok(a) => run(a).map(|()| 0),
            Err(e) => {
                eprintln!("qozbench: {e}\n{USAGE}");
                std::process::exit(2);
            }
        },
    };
    match status {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("qozbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &json::Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let b = bench_json();
        let strs = |m: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            m.iter()
                .map(|&(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(listed(&b, "end_to_end"), strs(&E2E_METRICS));
        assert_eq!(listed(&b, "per_layer"), strs(&workloads::LAYER_METRICS));
        let names: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn run_arguments_parse_as_benchmark_json_passes_them() {
        let args: Vec<String> = "--workload region-reads --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_run(&args).unwrap();
        assert_eq!(a.workload, "region-reads");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload field-dump",
            "--workload field-dump --seed 1 --trace 2",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_run(&v).is_err(), "{bad}");
        }
    }

    /// Tiny-size smoke of every workload, untraced and traced: no
    /// operation fails (so every traced operation reproduced the
    /// facade's bytes and values), and the output names every metric.
    #[test]
    fn quick_smoke_of_all_workloads() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let cfg = Config {
                    seed: 1,
                    seconds: 0.2,
                    trace,
                    quick: true,
                };
                let o = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!o.ops.is_empty(), "{name}");
                assert_eq!(o.failed(), 0, "{name} trace={trace}");
                let metrics = if trace {
                    layer_metrics(&o)
                } else {
                    e2e_metrics(&o)
                };
                let v = json::parse(&result_json(&o, &metrics)).unwrap();
                let emitted = v.get("metrics").unwrap();
                let want: Vec<&str> = if trace {
                    workloads::LAYER_METRICS.iter().map(|m| m.0).collect()
                } else {
                    E2E_METRICS.iter().map(|m| m.0).collect()
                };
                for m in want {
                    let value = emitted
                        .get(m)
                        .and_then(|x| x.get("value"))
                        .and_then(json::Value::as_f64);
                    assert!(value.is_some(), "{name}: {m} missing or not finite");
                }
                if !trace {
                    for (m, val, _, _) in e2e_metrics(&o) {
                        assert!(val > 0.0, "{name}: {m} = {val}");
                    }
                }
            }
        }
    }
}
