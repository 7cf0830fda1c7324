//! `repro` — regenerate every table and figure of the QoZ paper.
//!
//! ```text
//! repro <experiment> [--size tiny|small|medium] [--out DIR]
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
//!   all      Everything above
//! ```
//!
//! Each experiment prints a paper-shaped table and writes a CSV under
//! `--out` (default `results/`). The speeds in Table IV and Fig. 14 come
//! from single timed runs; the seeded, paired throughput benchmark is
//! `qozbench/`.

use qoz_api::Session;
use qoz_bench::{evaluate, paper_set, write_csv, write_pgm};
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_core::ablation::AblationVariant;
use qoz_core::{Qoz, QozConfig};
use qoz_datagen::{Dataset, SizeClass};
use qoz_metrics::QualityMetric;
use qoz_pario::IoModel;
use qoz_tensor::{NdArray, Region};

struct Opts {
    size: SizeClass,
    out: String,
}

const USAGE: &str = "usage: repro <table3|table4|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all> [--size tiny|small|medium] [--out DIR]";

/// The experiment named in `args` and its options, or the message to
/// exit 2 with.
fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    let mut size = SizeClass::Small;
    let mut out = "results".to_string();
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
                    other => return Err(format!("bad --size {other:?}")),
                };
            }
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| format!("--out needs a directory\n{USAGE}"))?;
            }
            e if e.starts_with("--") => return Err(format!("unknown option {e}")),
            e if exp.is_empty() => exp = e.to_string(),
            e => return Err(format!("unexpected argument {e}")),
        }
        i += 1;
    }
    Ok((exp, Opts { size, out }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (exp, opts) = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
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
    let variants: Vec<(&str, Box<dyn Compressor<f32>>)> = vec![
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
            let comp: Box<dyn Compressor<f32>> = match v {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Opts), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn out_without_a_directory_is_a_usage_error() {
        let err = parse(&["table3", "--out"])
            .err()
            .expect("--out needs a value");
        assert!(err.contains("--out needs a directory"), "{err}");
        assert!(err.contains(USAGE), "{err}");
        let (exp, opts) = parse(&["table3", "--size", "tiny", "--out", "dir"]).unwrap();
        assert_eq!((exp.as_str(), opts.out.as_str()), ("table3", "dir"));
        assert!(matches!(opts.size, SizeClass::Tiny));
        assert_eq!(parse(&["fig8"]).unwrap().1.out, "results");
        assert!(parse(&["table3", "--size"]).is_err());
        assert_eq!(parse(&[]).err().as_deref(), Some(USAGE));
    }
}
