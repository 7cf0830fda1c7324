//! Shared harness utilities for reproducing the paper's tables and
//! figures.
//!
//! Backend dispatch goes through [`qoz_api::BackendRegistry`] —
//! [`paper_set`] returns the five evaluated codecs in table order;
//! [`evaluate`] runs one timed compress/decompress cycle and collects
//! every metric the paper reports (compression ratio, bit-rate, PSNR,
//! SSIM, lag-1 error autocorrelation, throughput, max error). The
//! experiment drivers in `src/bin/repro.rs` are thin loops over these
//! helpers; results go to stdout as aligned tables and to `results/*.csv`.

use qoz_api::BackendRegistry;
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_metrics::QualityMetric;
use qoz_tensor::{NdArray, Scalar};
use std::io::Write as _;
use std::time::Instant;

/// The paper's comparison set (SZ2.1, SZ3, ZFP, MGARD+, QoZ), QoZ in
/// the given tuning mode — a thin veneer over
/// [`BackendRegistry::paper_set`].
pub fn paper_set<T: Scalar>(metric: QualityMetric) -> Vec<Box<dyn Compressor<T>>> {
    BackendRegistry::with_metric(metric).paper_set::<T>()
}

/// All metrics collected from one compress/decompress cycle.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Compression ratio (raw bytes / compressed bytes).
    pub cr: f64,
    /// Bits per data point.
    pub bitrate: f64,
    /// PSNR in dB.
    pub psnr: f64,
    /// Mean windowed SSIM.
    pub ssim: f64,
    /// |lag-1 autocorrelation| of errors.
    pub ac: f64,
    /// Maximum absolute error.
    pub max_err: f64,
    /// Compression throughput, MB/s of raw input.
    pub comp_mbps: f64,
    /// Decompression throughput, MB/s of raw output.
    pub decomp_mbps: f64,
}

/// Run one timed cycle and measure everything.
pub fn evaluate<T: Scalar>(
    c: &dyn Compressor<T>,
    data: &NdArray<T>,
    bound: ErrorBound,
) -> RunResult {
    let raw_bytes = (data.len() * T::BYTES) as f64;
    let bits_per_elem = (T::BYTES * 8) as f64;
    let t0 = Instant::now();
    let blob = c.compress(data, bound);
    let t_comp = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let recon = c.decompress(&blob).expect("self-produced blob must decode");
    let t_dec = t0.elapsed().as_secs_f64();

    RunResult {
        cr: raw_bytes / blob.len() as f64,
        bitrate: blob.len() as f64 * bits_per_elem / raw_bytes,
        psnr: qoz_metrics::psnr(data, &recon),
        ssim: qoz_metrics::ssim(data, &recon),
        ac: qoz_metrics::error_autocorrelation(data, &recon, 1).abs(),
        max_err: data.max_abs_diff(&recon),
        comp_mbps: raw_bytes / 1e6 / t_comp.max(1e-12),
        decomp_mbps: raw_bytes / 1e6 / t_dec.max(1e-12),
    }
}

/// Write rows to a CSV file under `results/`.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

/// Write a 2D f32 slice as a binary PGM image (min-max normalized),
/// for the Fig. 11 visual comparison.
pub fn write_pgm(path: &str, data: &NdArray<f32>) -> std::io::Result<()> {
    assert_eq!(data.shape().ndim(), 2, "PGM output needs a 2D slice");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let (h, w) = (data.shape().dim(0), data.shape().dim(1));
    let (lo, hi) = data.finite_min_max().unwrap_or((0.0, 1.0));
    let range = (hi - lo).max(f32::MIN_POSITIVE);
    let mut out = Vec::with_capacity(h * w + 32);
    out.extend_from_slice(format!("P5\n{w} {h}\n255\n").as_bytes());
    for &v in data.as_slice() {
        let t = ((v - lo) / range).clamp(0.0, 1.0);
        out.push((t * 255.0) as u8);
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let r = evaluate(&qoz_sz3::Sz3::default(), &data, ErrorBound::Rel(1e-3));
        assert!(r.cr > 1.0);
        assert!((r.bitrate - 32.0 / r.cr).abs() < 1e-9);
        assert!(r.psnr > 20.0);
        assert!(r.ssim > 0.3 && r.ssim <= 1.0 + 1e-12);
        assert!(r.max_err <= ErrorBound::Rel(1e-3).absolute(&data) * (1.0 + 1e-9));
    }

    #[test]
    fn paper_set_has_five_compressors() {
        let set = paper_set::<f32>(QualityMetric::Psnr);
        let names: Vec<_> = set.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ"]);
    }

    #[test]
    fn target_cr_search_converges() {
        use qoz_codec::Compressor as _;
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let c = qoz_sz3::Sz3::default();
        let r = qoz_core::compress_codec_to_ratio(&c, &data, 30.0, 12);
        let blob = c.compress(&data, ErrorBound::Rel(r.rel_bound));
        let cr = (data.len() * 4) as f64 / blob.len() as f64;
        assert!((cr - 30.0).abs() / 30.0 < 0.5, "cr {cr} target 30");
    }

    #[test]
    fn pgm_writer_emits_valid_header() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let path = std::env::temp_dir().join("qoz_test.pgm");
        write_pgm(path.to_str().unwrap(), &data).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n128 64\n255\n"));
        assert_eq!(bytes.len(), 14 + 64 * 128);
        let _ = std::fs::remove_file(path);
    }
}
