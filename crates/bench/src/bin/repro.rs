//! `repro` — regenerate every table and figure of the QoZ paper.
//!
//! ```text
//! repro <experiment> [--size tiny|small|medium] [--out DIR]
//!       [--bench-json PATH]
//!
//! experiments:
//!   table3   Compression ratio @ same error bound (Table III)
//!   table4   Compression/decompression speeds (Table IV)
//!   fig7     Compression error distributions (Fig. 7)
//!   fig8     Rate-PSNR curves (Fig. 8)
//!   fig9     Rate-SSIM curves (Fig. 9)
//!   fig10    Rate-autocorrelation curves (Fig. 10)
//!   fig11    Same-CR visual comparison + PSNR (Fig. 11)
//!   fig12    Component ablation study (Fig. 12)
//!   fig13    Fixed (alpha,beta) vs auto-tuning (Fig. 13)
//!   fig14    Parallel dump/load model (Fig. 14)
//!   bench    Throughput baseline: timed compress/decompress for every
//!            backend x dataset x bound, written as BENCH json
//!   all      Everything above (except bench)
//! ```
//!
//! Each experiment prints a paper-shaped table and writes a CSV under
//! `--out` (default `results/`). `bench` (or passing `--bench-json
//! PATH` explicitly) writes the machine-readable throughput baseline
//! that perf PRs are judged against.

use qoz_api::{Codec, Session};
use qoz_bench::{evaluate, paper_set, write_csv, write_pgm};
use qoz_codec::stream::{Compressor as _, ErrorBound};
use qoz_core::ablation::AblationVariant;
use qoz_core::{Qoz, QozConfig};
use qoz_datagen::{Dataset, SizeClass};
use qoz_metrics::QualityMetric;
use qoz_pario::IoModel;
use qoz_tensor::{NdArray, Region};

struct Opts {
    size: SizeClass,
    out: String,
    bench_json: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <table3|table4|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|bench|all> [--size tiny|small|medium] [--out DIR] [--bench-json PATH]");
        std::process::exit(2);
    }
    let mut size = SizeClass::Small;
    let mut out = "results".to_string();
    let mut bench_json: Option<String> = None;
    let mut exp = String::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                i += 1;
                size = match args.get(i).map(String::as_str) {
                    Some("tiny") => SizeClass::Tiny,
                    Some("small") => SizeClass::Small,
                    Some("medium") => SizeClass::Medium,
                    other => {
                        eprintln!("bad --size {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or(out);
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => bench_json = Some(p.clone()),
                    None => {
                        eprintln!("--bench-json needs a path");
                        std::process::exit(2);
                    }
                }
            }
            e if exp.is_empty() => exp = e.to_string(),
            e => {
                eprintln!("unexpected argument {e}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // `--bench-json PATH` with no experiment implies the bench mode.
    if exp.is_empty() && bench_json.is_some() {
        exp = "bench".to_string();
    }
    let opts = Opts {
        size,
        out,
        bench_json,
    };

    match exp.as_str() {
        "table3" => table3(&opts),
        "table4" => table4(&opts),
        "fig7" => fig7(&opts),
        "fig8" => rate_curves(&opts, QualityMetric::Psnr, "fig8"),
        "fig9" => rate_curves(&opts, QualityMetric::Ssim, "fig9"),
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "fig13" => fig13(&opts),
        "fig14" => fig14(&opts),
        "bench" => bench_throughput(&opts),
        "all" => {
            table3(&opts);
            table4(&opts);
            fig7(&opts);
            rate_curves(&opts, QualityMetric::Psnr, "fig8");
            rate_curves(&opts, QualityMetric::Ssim, "fig9");
            fig10(&opts);
            fig11(&opts);
            fig12(&opts);
            fig13(&opts);
            fig14(&opts);
        }
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(2);
        }
    }
    // An explicit --bench-json always emits the baseline, even when it
    // rides along with another experiment.
    if opts.bench_json.is_some() && exp != "bench" {
        bench_throughput(&opts);
    }
}

/// `bench`: the measured-throughput baseline every perf PR is judged
/// against. Times one compress/decompress cycle per backend x dataset x
/// bound and writes a machine-readable `BENCH_throughput.json`
/// (per-entry MB/s of raw data and compression ratio).
fn bench_throughput(o: &Opts) {
    let path = o
        .bench_json
        .clone()
        .unwrap_or_else(|| format!("{}/BENCH_throughput.json", o.out));
    println!("\n=== bench: compression throughput baseline ===");
    println!(
        "{:<12} {:<8} {:>6}  {:>8} {:>10} {:>12}",
        "Dataset", "codec", "eps", "CR", "comp MB/s", "decomp MB/s"
    );
    let bounds = [1e-2, 1e-3];
    let mut entries = Vec::new();
    for ds in Dataset::ALL {
        let data = ds.generate(o.size, 0);
        for c in paper_set::<f32>(QualityMetric::Psnr) {
            for eps in bounds {
                let r = evaluate(&*c, &data, ErrorBound::Rel(eps));
                println!(
                    "{:<12} {:<8} {:>6.0e}  {:>8.1} {:>10.1} {:>12.1}",
                    ds.name(),
                    c.name(),
                    eps,
                    r.cr,
                    r.comp_mbps,
                    r.decomp_mbps
                );
                entries.push(format!(
                    concat!(
                        "    {{\"backend\": \"{}\", \"dataset\": \"{}\", ",
                        "\"points\": {}, \"eps_rel\": {:e}, \"cr\": {:.4}, ",
                        "\"comp_mbps\": {:.3}, \"decomp_mbps\": {:.3}}}"
                    ),
                    c.name(),
                    ds.name(),
                    data.len(),
                    eps,
                    r.cr,
                    r.comp_mbps,
                    r.decomp_mbps
                ));
            }
        }
    }
    let random_access = bench_random_access(o);
    let timeseries = bench_timeseries(o);
    let decompress = bench_decompress(o);
    let stage_breakdown = bench_stage_breakdown(o);
    let json = format!(
        concat!(
            "{{\n  \"schema\": \"qoz-suite/bench-throughput/v8\",\n",
            "  \"size_class\": \"{:?}\",\n",
            "  \"cpu_features\": \"{}\",\n",
            "  \"unit\": \"MB/s of raw f32 data\",\n",
            "  \"entries\": [\n{}\n  ],\n",
            "  \"random_access\": [\n{}\n  ],\n",
            "  \"timeseries\": [\n{}\n  ],\n",
            "  \"decompress\": [\n{}\n  ],\n",
            "  \"stage_breakdown\": [\n{}\n  ]\n}}\n"
        ),
        o.size,
        qoz_codec::simd::cpu_features(),
        entries.join(",\n"),
        random_access.join(",\n"),
        timeseries.join(",\n"),
        decompress.join(",\n"),
        stage_breakdown.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&path, json).unwrap();
    println!("-> {path}");
}

/// The random-access axis of the `bench` baseline: archive one dataset
/// per backend, query a ~1% region, and report how few bytes the
/// indexed container actually reads versus decompressing everything.
fn bench_random_access(o: &Opts) -> Vec<String> {
    use qoz_archive::{ArchiveReader, ArchiveWriter};

    println!("\n--- random access: ~1% region query vs full decompress (Miranda) ---");
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>10} {:>9}",
        "codec", "arch bytes", "bytes read", "read %", "query ms", "speedup"
    );
    let data = Dataset::Miranda.generate(o.size, 0);
    let shape = data.shape();
    // A centered box of ~1/5 of each extent: (1/5)^3 ~ 0.8% of points.
    let origin: Vec<usize> = shape.dims().iter().map(|&d| 2 * d / 5).collect();
    let size: Vec<usize> = shape.dims().iter().map(|&d| (d / 5).max(1)).collect();
    let region = Region::new(&origin, &size);
    // Scale the chunk grid to the dataset so even the tiny smoke size
    // has a multi-chunk grid for the region to select from.
    let chunk_side = shape
        .dims()
        .iter()
        .min()
        .map_or(32, |&d| (d / 4).clamp(4, 32));

    let mut rows = Vec::new();
    for c in paper_set::<f32>(QualityMetric::Psnr) {
        let mut w = ArchiveWriter::new().with_chunk_side(chunk_side);
        w.add_variable("v", &data, &*c, ErrorBound::Rel(1e-3))
            .unwrap();
        let bytes = w.finish();

        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let t0 = std::time::Instant::now();
        let slab = r.read_region::<f32>("v", &region).unwrap();
        let t_region = t0.elapsed().as_secs_f64();
        let read = r.bytes_read();

        let rf = ArchiveReader::from_bytes(&bytes).unwrap();
        let t0 = std::time::Instant::now();
        let full = rf.read_full::<f32>("v").unwrap();
        let t_full = t0.elapsed().as_secs_f64();
        assert_eq!(
            slab.as_slice(),
            full.extract_region(&region).as_slice(),
            "{}: region query diverged from full decompress",
            c.name()
        );

        let frac = read as f64 / bytes.len() as f64;
        let speedup = t_full / t_region.max(1e-9);
        println!(
            "{:<8} {:>10} {:>12} {:>9.2}% {:>10.2} {:>8.1}x",
            c.name(),
            bytes.len(),
            read,
            frac * 100.0,
            t_region * 1e3,
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"backend\": \"{}\", \"dataset\": \"{}\", \"points\": {}, ",
                "\"eps_rel\": 1e-3, \"region_points\": {}, \"archive_bytes\": {}, ",
                "\"region_bytes_read\": {}, \"read_fraction\": {:.5}, ",
                "\"region_ms\": {:.3}, \"full_ms\": {:.3}, \"speedup\": {:.2}}}"
            ),
            c.name(),
            Dataset::Miranda.name(),
            data.len(),
            region.len(),
            bytes.len(),
            read,
            frac,
            t_region * 1e3,
            t_full * 1e3,
            speedup
        ));
    }
    rows
}

/// The time-series axis of the `bench` baseline: N consecutive snapshots
/// of one evolving field, compressed cold (a fresh tune per snapshot,
/// the pre-pipeline behaviour) versus warm (one `Session::pipeline`
/// reusing the cached tuning plan and scratch arena). Reports MB/s for
/// both, the steady-state warm rate (first/cold call excluded), and the
/// plan-cache counters; verifies every warm stream against its error
/// bound and checks warm-vs-cold byte equality on a repeated snapshot.
///
/// Schema v6 adds temporal rows on top: the same chains compressed
/// independently versus delta-coded with `Pipeline::compress_next` at an
/// equal bound. Asserts in-bench that the chain-decode max error stays
/// within the bound on every snapshot and that temporal CR on the
/// checkpoint-like series is at least 1.5x the independent CR.
fn bench_timeseries(o: &Opts) -> Vec<String> {
    use qoz_api::BackendId;

    const SNAPSHOTS: usize = 6;
    let base = Dataset::Miranda.shape(o.size);
    let shape4 = qoz_tensor::Shape::new(&[SNAPSHOTS, base.dim(0), base.dim(1), base.dim(2)]);
    let field = qoz_datagen::time_series_like(shape4, 0xC0FFEE);
    let step = base.len();
    let snapshots: Vec<NdArray<f32>> = (0..SNAPSHOTS)
        .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
        .collect();
    let eps = 1e-3;
    let raw_mb = (step * 4 * SNAPSHOTS) as f64 / 1e6;

    println!("\n--- time series: {SNAPSHOTS} snapshots, cold vs warm pipeline (Miranda-like) ---");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>8} {:>6} {:>8}",
        "codec", "cold MB/s", "warm MB/s", "steady MB/s", "speedup", "warm", "retunes"
    );

    let mut rows = Vec::new();
    for id in [BackendId::Qoz, BackendId::Sz3] {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(eps))
            .build()
            .expect("bound is valid");

        // Cold: every snapshot pays full tuning + fresh allocations.
        let t0 = std::time::Instant::now();
        let cold_blobs: Vec<Vec<u8>> = snapshots
            .iter()
            .map(|s| session.compress(s).expect("cold compress").blob)
            .collect();
        let t_cold = t0.elapsed().as_secs_f64();

        // Warm: one pipeline across the series.
        let mut pipe = session.pipeline::<f32>();
        let t0 = std::time::Instant::now();
        let first = pipe.compress(&snapshots[0]).expect("warm compress").blob;
        let t_first = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let mut warm_blobs = vec![first];
        for s in &snapshots[1..] {
            warm_blobs.push(pipe.compress(s).expect("warm compress").blob);
        }
        let t_steady = t0.elapsed().as_secs_f64();
        let t_warm = t_first + t_steady;

        // Warm streams must honor the per-snapshot bound, and repeating
        // an unchanged snapshot must reproduce the cold bytes exactly.
        for (s, blob) in snapshots.iter().zip(&warm_blobs) {
            let recon: NdArray<f32> = session.decompress(blob).expect("warm blob decodes");
            let abs = ErrorBound::Rel(eps).absolute(s);
            assert!(
                s.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
                "{}: warm stream violated the bound",
                id.name()
            );
        }
        let mut repeat_pipe = session.pipeline::<f32>();
        repeat_pipe.compress(&snapshots[0]).expect("repeat cold");
        let repeat = repeat_pipe
            .compress(&snapshots[0])
            .expect("repeat warm")
            .blob;
        let bytes_equal = repeat == cold_blobs[0];
        assert!(
            bytes_equal,
            "{}: warm repeat of an unchanged snapshot diverged from the cold stream",
            id.name()
        );

        let stats = pipe.stats();
        let cold_mbps = raw_mb / t_cold.max(1e-12);
        let warm_mbps = raw_mb / t_warm.max(1e-12);
        let steady_mbps =
            (raw_mb * (SNAPSHOTS - 1) as f64 / SNAPSHOTS as f64) / t_steady.max(1e-12);
        let speedup = t_cold / t_warm.max(1e-12);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>12.1} {:>7.2}x {:>6} {:>8}",
            id.name(),
            cold_mbps,
            warm_mbps,
            steady_mbps,
            speedup,
            stats.warm(),
            stats.retunes
        );
        rows.push(format!(
            concat!(
                "    {{\"backend\": \"{}\", \"dataset\": \"Miranda-TS\", ",
                "\"snapshots\": {}, \"points\": {}, \"eps_rel\": {:e}, ",
                "\"cold_mbps\": {:.3}, \"warm_mbps\": {:.3}, ",
                "\"warm_steady_mbps\": {:.3}, \"speedup\": {:.3}, ",
                "\"warm_hits\": {}, \"warm_rescales\": {}, \"retunes\": {}, ",
                "\"bytes_equal_on_repeat\": {}}}"
            ),
            id.name(),
            SNAPSHOTS,
            step,
            eps,
            cold_mbps,
            warm_mbps,
            steady_mbps,
            speedup,
            stats.warm_hits,
            stats.warm_rescales,
            stats.retunes,
            bytes_equal
        ));
    }

    // Temporal delta coding (schema v6): the same evolving fields coded
    // independently versus residual-coded against each prior
    // reconstruction at an equal bound. The checkpoint-like series must
    // show at least a 1.5x CR gain; the advecting series is reported too
    // so the win is measured on motion, not just amplitude decay.
    const CHAIN: usize = 12;
    println!("\n--- time series: independent vs temporal delta coding, eps {eps:.0e} ---");
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>6} {:>11} {:>12}",
        "dataset", "snaps", "ind CR", "temp CR", "gain", "key/dlt/fb", "chain MB/s"
    );
    type SeriesGen = fn(qoz_tensor::Shape, u64) -> NdArray<f32>;
    let series: [(&str, SeriesGen); 2] = [
        ("TS-checkpoint", qoz_datagen::time_series_like),
        ("TS-advect", qoz_datagen::time_series_advect),
    ];
    for (name, generate) in series {
        let shape4 = qoz_tensor::Shape::new(&[CHAIN, base.dim(0), base.dim(1), base.dim(2)]);
        let field = generate(shape4, 0xC0FFEE);
        let chain: Vec<NdArray<f32>> = (0..CHAIN)
            .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
            .collect();
        let session = Session::builder()
            .backend(BackendId::Qoz)
            .bound(ErrorBound::Rel(eps))
            .build()
            .expect("bound is valid");

        let mut ind_pipe = session.pipeline::<f32>();
        let ind_bytes: usize = chain
            .iter()
            .map(|s| {
                ind_pipe
                    .compress(s)
                    .expect("independent compress")
                    .blob
                    .len()
            })
            .sum();

        let mut enc = session.pipeline::<f32>();
        let blobs: Vec<Vec<u8>> = chain
            .iter()
            .map(|s| enc.compress_next(s).expect("temporal compress").1.blob)
            .collect();
        let temporal_bytes: usize = blobs.iter().map(Vec::len).sum();
        let stats = enc.stats();

        // Error contract first: every snapshot of the decoded chain must
        // honor the bound against its own raw input.
        let mut check = session.pipeline::<f32>();
        for (s, blob) in chain.iter().zip(&blobs) {
            let recon = check.decompress_next(blob).expect("chain decode");
            let abs = ErrorBound::Rel(eps).absolute(s);
            // The f32 accumulate (prev reconstruction + residual) can
            // round by a couple of ULPs on top of the coded bound.
            let slack = abs * (1.0 + 1e-9) + 4.0 * f32::EPSILON as f64;
            assert!(
                s.max_abs_diff(recon) <= slack,
                "{name}: chain decode violated the bound"
            );
        }
        // Then a clean timing pass over the whole chain decode.
        let mut dec = session.pipeline::<f32>();
        let t0 = std::time::Instant::now();
        for blob in &blobs {
            dec.decompress_next(blob).expect("chain decode");
        }
        let t_chain = t0.elapsed().as_secs_f64();

        let raw = (step * 4 * CHAIN) as f64;
        let independent_cr = raw / ind_bytes as f64;
        let temporal_cr = raw / temporal_bytes as f64;
        let gain = temporal_cr / independent_cr;
        let chain_mbps = raw / 1e6 / t_chain.max(1e-12);
        println!(
            "{:<14} {:>6} {:>8.2} {:>8.2} {:>5.2}x {:>5}/{}/{} {:>12.1}",
            name,
            CHAIN,
            independent_cr,
            temporal_cr,
            gain,
            stats.chain_keyframes,
            stats.chain_deltas,
            stats.chain_fallbacks,
            chain_mbps
        );
        if name == "TS-checkpoint" {
            assert!(
                gain >= 1.5,
                "{name}: temporal CR gain {gain:.3}x fell below the 1.5x floor \
                 (independent {independent_cr:.2}, temporal {temporal_cr:.2})"
            );
        }
        rows.push(format!(
            concat!(
                "    {{\"backend\": \"qoz\", \"dataset\": \"{}\", ",
                "\"snapshots\": {}, \"points\": {}, \"eps_rel\": {:e}, ",
                "\"independent_cr\": {:.4}, \"temporal_cr\": {:.4}, ",
                "\"temporal_gain\": {:.4}, \"chain_decode_mbps\": {:.3}, ",
                "\"keyframes\": {}, \"deltas\": {}, \"fallbacks\": {}}}"
            ),
            name,
            CHAIN,
            step,
            eps,
            independent_cr,
            temporal_cr,
            gain,
            chain_mbps,
            stats.chain_keyframes,
            stats.chain_deltas,
            stats.chain_fallbacks
        ));
    }
    rows
}

/// The decompress axis of the `bench` baseline: repeated decodes of one
/// stream per backend, cold (a fresh allocating `Session::decompress`
/// per pass) versus warm (one `Pipeline::decompress_into` reusing the
/// scratch arena and the destination array). Asserts value identity
/// between the two paths and that warm passes allocate no stage
/// buffers, then reports both rates.
fn bench_decompress(o: &Opts) -> Vec<String> {
    use qoz_api::BackendId;

    const PASSES: usize = 8;
    let data = Dataset::Miranda.generate(o.size, 0);
    let eps = 1e-3;
    let raw_mb = (data.len() * 4) as f64 / 1e6;

    println!("\n--- decompress: cold allocating vs warm scratch-arena decode (Miranda) ---");
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>10}",
        "codec", "cold MB/s", "warm MB/s", "speedup", "warm grows"
    );

    let mut rows = Vec::new();
    for id in [
        BackendId::Qoz,
        BackendId::Sz3,
        BackendId::Sz2,
        BackendId::Zfp,
        BackendId::Mgard,
    ] {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(eps))
            .build()
            .expect("bound is valid");
        let blob = session.compress(&data).expect("compress").blob;

        // Cold: every pass allocates its output and stage buffers anew.
        let t0 = std::time::Instant::now();
        let mut cold_out: NdArray<f32> = session.decompress(&blob).expect("cold decode");
        for _ in 1..PASSES {
            cold_out = session.decompress(&blob).expect("cold decode");
        }
        let t_cold = t0.elapsed().as_secs_f64();

        // Warm: one pipeline, one destination; the first pass grows the
        // arena, the timed steady-state passes must not.
        let mut pipe = session.pipeline::<f32>();
        let mut warm_out = NdArray::<f32>::zeros(qoz_tensor::Shape::d1(1));
        pipe.decompress_into(&blob, &mut warm_out)
            .expect("warm decode");
        let grows_before = pipe.stats().decode_grow_events;
        let t0 = std::time::Instant::now();
        for _ in 0..PASSES {
            pipe.decompress_into(&blob, &mut warm_out)
                .expect("warm decode");
        }
        let t_warm = t0.elapsed().as_secs_f64();
        let warm_grows = pipe.stats().decode_grow_events - grows_before;
        assert_eq!(
            cold_out.as_slice(),
            warm_out.as_slice(),
            "{}: scratch decode diverged from allocating decode",
            id.name()
        );
        assert_eq!(
            warm_grows,
            0,
            "{}: warm decode passes allocated stage buffers",
            id.name()
        );

        let cold_mbps = raw_mb * PASSES as f64 / t_cold.max(1e-12);
        let warm_mbps = raw_mb * PASSES as f64 / t_warm.max(1e-12);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>7.2}x {:>10}",
            id.name(),
            cold_mbps,
            warm_mbps,
            warm_mbps / cold_mbps.max(1e-12),
            warm_grows
        );
        rows.push(format!(
            concat!(
                "    {{\"backend\": \"{}\", \"dataset\": \"{}\", ",
                "\"points\": {}, \"eps_rel\": {:e}, \"passes\": {}, ",
                "\"decomp_cold_mbps\": {:.3}, \"decomp_warm_mbps\": {:.3}, ",
                "\"warm_grow_events\": {}}}"
            ),
            id.name(),
            Dataset::Miranda.name(),
            data.len(),
            eps,
            PASSES,
            cold_mbps,
            warm_mbps,
            warm_grows
        ));
    }
    rows
}

/// The stage-breakdown axis (new in schema v5): where compression time
/// goes, from the `qoz_telemetry` stage timers. Per backend, one cold
/// compress on a fresh pipeline (pays tuning) and a warm steady-state
/// loop are measured separately, each reporting per-stage millisecond
/// sums next to the wall time; the steady phase asserts the
/// instrumented stages account for the bulk of the wall. A final
/// best-of-N comparison of the warm loop with spans enabled versus
/// disabled bounds the telemetry overhead at 2% (plus a 2 ms floor so
/// the smoke sizes aren't judged by timer jitter).
fn bench_stage_breakdown(o: &Opts) -> Vec<String> {
    use qoz_api::BackendId;

    const SNAPSHOTS: usize = 6;
    const TRIALS: usize = 3;
    let base = Dataset::Miranda.shape(o.size);
    let shape4 = qoz_tensor::Shape::new(&[SNAPSHOTS, base.dim(0), base.dim(1), base.dim(2)]);
    let field = qoz_datagen::time_series_like(shape4, 0xC0FFEE);
    let step = base.len();
    let snapshots: Vec<NdArray<f32>> = (0..SNAPSHOTS)
        .map(|t| NdArray::from_vec(base, field.as_slice()[t * step..(t + 1) * step].to_vec()))
        .collect();
    let eps = 1e-3;
    let stages = qoz_telemetry::stages();

    println!("\n--- stage breakdown: per-stage time via telemetry spans (Miranda-TS) ---");
    println!(
        "{:<8} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "codec", "phase", "tune ms", "predq ms", "enc ms", "entr ms", "wall ms", "covered", "ovh %"
    );

    // One warm steady-state loop: tune once off the clock, then time
    // the remaining snapshots on the warmed pipeline.
    let steady_secs = |session: &Session| -> f64 {
        let mut pipe = session.pipeline::<f32>();
        pipe.compress(&snapshots[0]).expect("warm-up compress");
        let t0 = std::time::Instant::now();
        for s in &snapshots[1..] {
            pipe.compress(s).expect("steady compress");
        }
        t0.elapsed().as_secs_f64()
    };
    let stage_ms = |stages: &qoz_telemetry::Stages| -> [(String, f64, u64); 4] {
        stages
            .all()
            .map(|t| (t.name().to_string(), t.sum_ns() as f64 / 1e6, t.count()))
    };

    let mut rows = Vec::new();
    for id in [BackendId::Qoz, BackendId::Sz3] {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(eps))
            .build()
            .expect("bound is valid");
        qoz_telemetry::set_enabled(true);

        // Cold phase: the first compress on a fresh pipeline, tuning
        // included. Reported, not asserted — backends tune differently.
        let mut pipe = session.pipeline::<f32>();
        stages.reset();
        let t0 = std::time::Instant::now();
        pipe.compress(&snapshots[0]).expect("cold compress");
        let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cold = stage_ms(stages);

        // Steady phase: warm repeats of the now-tuned snapshot, the
        // daemon's plan-cache-hit path. No tuning happens here (warm
        // hits never re-plan, so nothing nests inside the tune span),
        // and the remaining spans (predict+quantize, encode, entropy)
        // cover the whole compress path except stream assembly — their
        // sum has to land close to the measured wall time. The evolving
        // series is deliberately NOT used for this assertion: a retune
        // mid-series runs engine passes inside the tune span and the
        // sums would double-count.
        stages.reset();
        let t0 = std::time::Instant::now();
        for _ in 1..SNAPSHOTS {
            pipe.compress(&snapshots[0]).expect("steady compress");
        }
        let steady_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let steady = stage_ms(stages);
        assert_eq!(
            steady[0].2,
            0,
            "{}: a warm repeat of an unchanged snapshot re-tuned",
            id.name()
        );
        let steady_sum_ms: f64 = steady.iter().map(|(_, ms, _)| ms).sum();
        let coverage = steady_sum_ms / steady_wall_ms.max(1e-9);
        assert!(
            coverage <= 1.02,
            "{}: stage sums exceed wall time ({steady_sum_ms:.2}ms of {steady_wall_ms:.2}ms)",
            id.name()
        );
        assert!(
            coverage >= 0.75,
            "{}: stage spans cover only {:.0}% of steady-state wall time — \
             a compression stage lost its span",
            id.name(),
            coverage * 100.0
        );

        // Overhead: the same steady loop, best-of-N with spans enabled
        // vs disabled. Enabled may cost at most 2% (plus a 2 ms jitter
        // floor for the smoke sizes).
        let mut best_on = f64::INFINITY;
        let mut best_off = f64::INFINITY;
        for _ in 0..TRIALS {
            qoz_telemetry::set_enabled(true);
            best_on = best_on.min(steady_secs(&session));
            qoz_telemetry::set_enabled(false);
            best_off = best_off.min(steady_secs(&session));
        }
        qoz_telemetry::set_enabled(true);
        let overhead_pct = (best_on / best_off.max(1e-12) - 1.0) * 100.0;
        assert!(
            best_on <= best_off * 1.02 + 0.002,
            "{}: telemetry spans cost {overhead_pct:.2}% on the warm steady-state loop \
             (enabled {best_on:.4}s vs disabled {best_off:.4}s)",
            id.name()
        );

        for (phase, wall_ms, by_stage) in [
            ("cold", cold_wall_ms, &cold),
            ("steady", steady_wall_ms, &steady),
        ] {
            println!(
                "{:<8} {:<7} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.0}% {:>7.2}",
                id.name(),
                phase,
                by_stage[0].1,
                by_stage[1].1,
                by_stage[2].1,
                by_stage[3].1,
                wall_ms,
                by_stage.iter().map(|(_, ms, _)| ms).sum::<f64>() / wall_ms.max(1e-9) * 100.0,
                overhead_pct
            );
        }
        let stage_json = |by_stage: &[(String, f64, u64); 4]| -> String {
            by_stage
                .iter()
                .map(|(name, ms, spans)| {
                    format!("\"{name}_ms\": {ms:.3}, \"{name}_spans\": {spans}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        rows.push(format!(
            concat!(
                "    {{\"backend\": \"{}\", \"dataset\": \"Miranda-TS\", ",
                "\"snapshots\": {}, \"points\": {}, \"eps_rel\": {:e}, ",
                "\"cold\": {{\"wall_ms\": {:.3}, {}}}, ",
                "\"steady\": {{\"wall_ms\": {:.3}, {}, \"stage_coverage\": {:.4}}}, ",
                "\"telemetry_overhead_pct\": {:.3}}}"
            ),
            id.name(),
            SNAPSHOTS,
            step,
            eps,
            cold_wall_ms,
            stage_json(&cold),
            steady_wall_ms,
            stage_json(&steady),
            coverage,
            overhead_pct
        ));
    }
    rows
}

/// Table III: compression ratios under the same error bound; QoZ in
/// "maximize compression ratio" mode.
fn table3(o: &Opts) {
    println!("\n=== Table III: compression ratio @ same value-range error bound ===");
    println!(
        "{:<12} {:>6}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>9}",
        "Dataset", "eps", "SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ", "improve%"
    );
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let data = ds.generate(o.size, 0);
        for eps in [1e-2, 1e-3, 1e-4] {
            let set = paper_set::<f32>(QualityMetric::CompressionRatio);
            let crs: Vec<f64> = set
                .iter()
                .map(|c| evaluate(&**c, &data, ErrorBound::Rel(eps)).cr)
                .collect();
            let qoz = crs[4];
            let second = crs[..4].iter().cloned().fold(f64::MIN, f64::max);
            let improve = (qoz / second - 1.0) * 100.0;
            println!(
                "{:<12} {:>6.0e}  {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}  {:>8.1}%",
                ds.name(),
                eps,
                crs[0],
                crs[1],
                crs[2],
                crs[3],
                qoz,
                improve
            );
            rows.push(format!(
                "{},{:e},{},{},{},{},{},{:.2}",
                ds.name(),
                eps,
                crs[0],
                crs[1],
                crs[2],
                crs[3],
                qoz,
                improve
            ));
        }
    }
    let path = format!("{}/table3_cr.csv", o.out);
    write_csv(
        &path,
        "dataset,eps,sz2,sz3,zfp,mgard,qoz,improve_pct",
        &rows,
    )
    .unwrap();
    println!("-> {path}");
}

/// Table IV: compression/decompression speeds at eps = 1e-3, QoZ in
/// PSNR-preferred mode.
fn table4(o: &Opts) {
    println!("\n=== Table IV: compression/decompression speed (MB/s), eps=1e-3 ===");
    println!(
        "{:<12}  {:>7} {:>7} {:>7} {:>7} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7}",
        "Dataset",
        "SZ2.1c",
        "SZ3c",
        "ZFPc",
        "MGDc",
        "QoZc",
        "SZ2.1d",
        "SZ3d",
        "ZFPd",
        "MGDd",
        "QoZd"
    );
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let data = ds.generate(o.size, 0);
        let set = paper_set::<f32>(QualityMetric::Psnr);
        let res: Vec<_> = set
            .iter()
            .map(|c| evaluate(&**c, &data, ErrorBound::Rel(1e-3)))
            .collect();
        println!(
            "{:<12}  {:>7.0} {:>7.0} {:>7.0} {:>7.0} {:>7.0}   {:>7.0} {:>7.0} {:>7.0} {:>7.0} {:>7.0}",
            ds.name(),
            res[0].comp_mbps,
            res[1].comp_mbps,
            res[2].comp_mbps,
            res[3].comp_mbps,
            res[4].comp_mbps,
            res[0].decomp_mbps,
            res[1].decomp_mbps,
            res[2].decomp_mbps,
            res[3].decomp_mbps,
            res[4].decomp_mbps,
        );
        rows.push(format!(
            "{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}",
            ds.name(),
            res[0].comp_mbps,
            res[1].comp_mbps,
            res[2].comp_mbps,
            res[3].comp_mbps,
            res[4].comp_mbps,
            res[0].decomp_mbps,
            res[1].decomp_mbps,
            res[2].decomp_mbps,
            res[3].decomp_mbps,
            res[4].decomp_mbps,
        ));
    }
    let path = format!("{}/table4_speed.csv", o.out);
    write_csv(
        &path,
        "dataset,sz2_c,sz3_c,zfp_c,mgard_c,qoz_c,sz2_d,sz3_d,zfp_d,mgard_d,qoz_d",
        &rows,
    )
    .unwrap();
    println!("-> {path}");
}

/// Fig. 7: distribution of compression errors vs the bound (CESM + NYX).
fn fig7(o: &Opts) {
    println!("\n=== Fig. 7: compression error distribution (QoZ) ===");
    let bins = 21usize;
    let mut rows = Vec::new();
    for ds in [Dataset::CesmAtm, Dataset::Nyx] {
        let data = ds.generate(o.size, 0);
        for eps in [1e-3, 1e-4] {
            let bound = ErrorBound::Rel(eps);
            let abs = bound.absolute(&data);
            let qoz = Qoz::default();
            let blob = qoz.compress(&data, bound);
            let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
            let hist = qoz_metrics::error_histogram(&data, &recon, abs, bins);
            let maxerr = data.max_abs_diff(&recon);
            println!(
                "{} eps={eps:.0e} (abs e={abs:.3e}): max|err|={maxerr:.3e}  within bound: {}",
                ds.name(),
                maxerr <= abs
            );
            let total: u64 = hist.iter().sum();
            for (k, &h) in hist.iter().enumerate() {
                let center = -1.0 + (k as f64 + 0.5) * 2.0 / bins as f64;
                rows.push(format!(
                    "{},{:e},{:.3},{}",
                    ds.name(),
                    eps,
                    center,
                    h as f64 / total as f64
                ));
            }
        }
    }
    let path = format!("{}/fig7_error_dist.csv", o.out);
    write_csv(&path, "dataset,eps,err_over_bound,fraction", &rows).unwrap();
    println!("-> {path}");
}

/// The shared rate-distortion sweep for Fig. 8 (PSNR) and Fig. 9 (SSIM).
fn rate_curves(o: &Opts, metric: QualityMetric, tag: &str) {
    println!("\n=== {}: rate-{} curves ===", tag, metric.name());
    let sweeps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4];
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let data = ds.generate(o.size, 0);
        println!("{}:", ds.name());
        println!(
            "  {:<8} {:>9} {:>9} {:>9}",
            "comp", "bitrate", "PSNR", "SSIM"
        );
        for c in paper_set::<f32>(metric) {
            for eps in sweeps {
                let r = evaluate(&*c, &data, ErrorBound::Rel(eps));
                rows.push(format!(
                    "{},{},{:e},{:.4},{:.2},{:.4},{:.4}",
                    ds.name(),
                    c.name(),
                    eps,
                    r.bitrate,
                    r.psnr,
                    r.ssim,
                    r.ac
                ));
                if eps == 1e-3 {
                    println!(
                        "  {:<8} {:>9.4} {:>9.2} {:>9.4}",
                        c.name(),
                        r.bitrate,
                        r.psnr,
                        r.ssim
                    );
                }
            }
        }
    }
    let path = format!(
        "{}/{}_rate_{}.csv",
        o.out,
        tag,
        metric.name().to_lowercase()
    );
    write_csv(&path, "dataset,compressor,eps,bitrate,psnr,ssim,ac", &rows).unwrap();
    println!("-> {path}");
}

/// Fig. 10: rate-autocorrelation for SZ3, QoZ(PSNR), QoZ(AC).
fn fig10(o: &Opts) {
    println!("\n=== Fig. 10: rate vs |lag-1 autocorrelation| of errors ===");
    let sweeps = [3e-2, 1e-2, 3e-3, 1e-3, 3e-4];
    let variants: Vec<(&str, Box<dyn Codec<f32>>)> = vec![
        ("SZ3", Box::new(qoz_sz3::Sz3::default())),
        (
            "QoZ_PSNRPreferred",
            Box::new(Qoz::for_metric(QualityMetric::Psnr)),
        ),
        (
            "QoZ_ACPreferred",
            Box::new(Qoz::for_metric(QualityMetric::AutoCorrelation)),
        ),
    ];
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let data = ds.generate(o.size, 0);
        println!("{} (at eps=1e-3):", ds.name());
        for (label, c) in &variants {
            for eps in sweeps {
                let r = evaluate(&**c, &data, ErrorBound::Rel(eps));
                rows.push(format!(
                    "{},{},{:e},{:.4},{:.4}",
                    ds.name(),
                    label,
                    eps,
                    r.bitrate,
                    r.ac
                ));
                if eps == 1e-3 {
                    println!("  {:<18} bitrate={:.4}  |AC|={:.4}", label, r.bitrate, r.ac);
                }
            }
        }
    }
    let path = format!("{}/fig10_rate_ac.csv", o.out);
    write_csv(&path, "dataset,variant,eps,bitrate,abs_ac", &rows).unwrap();
    println!("-> {path}");
}

/// Fig. 11: visual quality at a fixed compression ratio (Scale-LETKF).
fn fig11(o: &Opts) {
    println!("\n=== Fig. 11: reconstruction quality at CR=65 (Scale-LETKF) ===");
    let data3 = Dataset::ScaleLetkf.generate(o.size, 0);
    // Work on the middle 2D slice like the paper's visualization.
    let mid = data3.shape().dim(0) / 2;
    let slice = data3.extract_region(&Region::new(
        &[mid, 0, 0],
        &[1, data3.shape().dim(1), data3.shape().dim(2)],
    ));
    let data = NdArray::from_vec(
        qoz_tensor::Shape::d2(data3.shape().dim(1), data3.shape().dim(2)),
        slice.into_vec(),
    );
    let target_cr = 65.0;
    write_pgm(&format!("{}/fig11_original.pgm", o.out), &data).unwrap();
    let mut rows = Vec::new();
    for id in qoz_api::BackendRegistry::ALL {
        // Quality-first session: ask each backend for the target ratio
        // directly and let the facade find the bound.
        let session = Session::builder()
            .backend(id)
            .metric(QualityMetric::Psnr)
            .ratio(target_cr)
            .build()
            .expect("ratio target is valid");
        let out = session.compress(&data).expect("session compression");
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        let cr = out.achieved.expect("ratio sessions report achieved CR");
        let psnr = qoz_metrics::psnr(&data, &recon);
        println!("  {:<8} CR={:>6.1}  PSNR={:>6.2} dB", id.name(), cr, psnr);
        write_pgm(
            &format!("{}/fig11_{}.pgm", o.out, id.name().replace('.', "_")),
            &recon,
        )
        .unwrap();
        rows.push(format!("{},{:.2},{:.3}", id.name(), cr, psnr));
    }
    let path = format!("{}/fig11_visual.csv", o.out);
    write_csv(&path, "compressor,cr,psnr", &rows).unwrap();
    println!("-> {path} (+ PGM images)");
}

/// Fig. 12: component ablation (CESM + Miranda), rate-PSNR at several
/// bounds per variant.
fn fig12(o: &Opts) {
    println!("\n=== Fig. 12: ablation study (rate-PSNR) ===");
    let sweeps = [1e-2, 3e-3, 1e-3, 3e-4];
    let mut rows = Vec::new();
    for ds in [Dataset::CesmAtm, Dataset::Miranda] {
        let data = ds.generate(o.size, 0);
        println!("{} (at eps=1e-3):", ds.name());
        for v in AblationVariant::ALL {
            let comp: Box<dyn Codec<f32>> = match v {
                AblationVariant::Sz3Baseline => Box::new(qoz_sz3::Sz3::default()),
                other => Box::new(other.compressor(QualityMetric::Psnr)),
            };
            for eps in sweeps {
                let r = evaluate(&*comp, &data, ErrorBound::Rel(eps));
                rows.push(format!(
                    "{},{},{:e},{:.4},{:.2}",
                    ds.name(),
                    v.name(),
                    eps,
                    r.bitrate,
                    r.psnr
                ));
                if eps == 1e-3 {
                    println!(
                        "  {:<14} bitrate={:.4}  PSNR={:.2}",
                        v.name(),
                        r.bitrate,
                        r.psnr
                    );
                }
            }
        }
    }
    let path = format!("{}/fig12_ablation.csv", o.out);
    write_csv(&path, "dataset,variant,eps,bitrate,psnr", &rows).unwrap();
    println!("-> {path}");
}

/// Fig. 13: fixed (alpha, beta) settings vs auto-tuning (CESM + NYX).
fn fig13(o: &Opts) {
    println!("\n=== Fig. 13: fixed (alpha,beta) vs auto-tuning (rate-PSNR) ===");
    let sweeps = [3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4];
    let fixed = [(1.0, 1.0), (1.5, 3.0), (2.0, 4.0)];
    let mut rows = Vec::new();
    for ds in [Dataset::CesmAtm, Dataset::Nyx] {
        let data = ds.generate(o.size, 0);
        println!("{} (at eps=1e-3):", ds.name());
        for (a, b) in fixed {
            let qoz = Qoz::new(QozConfig {
                metric: QualityMetric::Psnr,
                param_autotuning: false,
                fixed_params: Some((a, b)),
                ..Default::default()
            });
            for eps in sweeps {
                let r = evaluate(&qoz, &data, ErrorBound::Rel(eps));
                rows.push(format!(
                    "{},a={} b={},{:e},{:.4},{:.2}",
                    ds.name(),
                    a,
                    b,
                    eps,
                    r.bitrate,
                    r.psnr
                ));
                if eps == 1e-3 {
                    println!(
                        "  a={a} b={b}: bitrate={:.4}  PSNR={:.2}",
                        r.bitrate, r.psnr
                    );
                }
            }
        }
        let auto = Qoz::for_metric(QualityMetric::Psnr);
        for eps in sweeps {
            let r = evaluate(&auto, &data, ErrorBound::Rel(eps));
            rows.push(format!(
                "{},autotuning,{:e},{:.4},{:.2}",
                ds.name(),
                eps,
                r.bitrate,
                r.psnr
            ));
            if eps == 1e-3 {
                println!("  autotuning: bitrate={:.4}  PSNR={:.2}", r.bitrate, r.psnr);
            }
        }
    }
    let path = format!("{}/fig13_param_tuning.csv", o.out);
    write_csv(&path, "dataset,setting,eps,bitrate,psnr", &rows).unwrap();
    println!("-> {path}");
}

/// Fig. 14: parallel dump/load times from measured kernel throughputs
/// and CRs plugged into the shared-bandwidth model.
fn fig14(o: &Opts) {
    println!("\n=== Fig. 14: parallel dump/load performance (Hurricane) ===");
    let data = Dataset::Hurricane.generate(o.size, 0);
    let bound = ErrorBound::Rel(1e-3);
    // Measure each codec once.
    let mut rows = Vec::new();
    println!(
        "{:<8} {:>8} {:>8} {:>8}   dump/load seconds at 1K/2K/4K/8K ranks",
        "codec", "CR", "comp", "decomp"
    );
    let mut measured: Vec<(String, f64, f64, f64)> = vec![("raw".into(), 1.0, 0.0, 0.0)];
    for c in paper_set::<f32>(QualityMetric::CompressionRatio) {
        let r = evaluate(&*c, &data, bound);
        measured.push((
            c.name().to_string(),
            r.cr,
            r.comp_mbps * 1e6,
            r.decomp_mbps * 1e6,
        ));
    }
    for (name, cr, comp, decomp) in &measured {
        let mut line = format!(
            "{:<8} {:>8.1} {:>8.0} {:>8.0}  ",
            name,
            cr,
            comp / 1e6,
            decomp / 1e6
        );
        for ranks in [1024usize, 2048, 4096, 8192] {
            let m = IoModel {
                ranks,
                ..Default::default()
            };
            let t = if *cr <= 1.0 {
                m.raw()
            } else {
                m.with_codec(*cr, *comp, *decomp)
            };
            line.push_str(&format!(" {:>6.1}/{:<6.1}", t.dump_s(), t.load_s()));
            rows.push(format!(
                "{},{},{:.2},{:.2},{:.2}",
                name,
                ranks,
                cr,
                t.dump_s(),
                t.load_s()
            ));
        }
        println!("{line}");
    }
    let path = format!("{}/fig14_pario.csv", o.out);
    write_csv(&path, "codec,ranks,cr,dump_s,load_s", &rows).unwrap();
    println!("-> {path}");
}
