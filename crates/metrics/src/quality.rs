//! The user-facing quality-metric selector and its comparison semantics.
//!
//! QoZ's tuner needs two things from a metric: a way to *evaluate* it on
//! (original, reconstruction) pairs, and an *orientation* — whether larger
//! or smaller values are better. Compression ratio is folded in as a
//! pseudo-metric whose evaluation is constant (the tuner then reduces to
//! pure bit-rate minimization), matching the paper's
//! "incline to minimize bit-rate" mode.

use crate::autocorr::error_autocorrelation;
use crate::error_stats::psnr;
use crate::ssim::ssim;
use qoz_tensor::{NdArray, Scalar};

/// The quality metric a compression run should optimize (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QualityMetric {
    /// Maximize compression ratio (minimize bit-rate) — the paper's
    /// "maximizing compression ratio" tuning mode.
    #[default]
    CompressionRatio,
    /// Optimize rate-PSNR (Eq. 1). Higher is better.
    Psnr,
    /// Optimize rate-SSIM (Eq. 2–3). Higher is better.
    Ssim,
    /// Minimize |lag-1 autocorrelation| of errors (Eq. 4). Lower is better.
    AutoCorrelation,
}

impl QualityMetric {
    /// Short display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            QualityMetric::CompressionRatio => "CR",
            QualityMetric::Psnr => "PSNR",
            QualityMetric::Ssim => "SSIM",
            QualityMetric::AutoCorrelation => "AC",
        }
    }
}

/// Evaluate `metric` for a reconstruction, returned in an orientation
/// where **larger is always better** (AC is negated-absolute; CR returns
/// 0 so that only bit-rate drives its comparisons).
pub fn evaluate_metric<T: Scalar>(
    metric: QualityMetric,
    original: &NdArray<T>,
    recon: &NdArray<T>,
) -> f64 {
    match metric {
        QualityMetric::CompressionRatio => 0.0,
        QualityMetric::Psnr => psnr(original, recon),
        QualityMetric::Ssim => ssim(original, recon),
        QualityMetric::AutoCorrelation => -error_autocorrelation(original, recon, 1).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::Shape;

    fn noisy(a: &NdArray<f64>, amp: f64) -> NdArray<f64> {
        let mut b = a.clone();
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { amp } else { -amp };
        }
        b
    }

    #[test]
    fn psnr_orientation() {
        let a = NdArray::from_fn(Shape::d2(32, 32), |i| {
            (i[0] as f64 * 0.3).sin() + i[1] as f64 * 0.01
        });
        let good = noisy(&a, 1e-6);
        let bad = noisy(&a, 1e-2);
        assert!(
            evaluate_metric(QualityMetric::Psnr, &a, &good)
                > evaluate_metric(QualityMetric::Psnr, &a, &bad)
        );
    }

    #[test]
    fn ssim_orientation() {
        let a = NdArray::from_fn(Shape::d2(32, 32), |i| {
            (i[0] as f64 * 0.3).sin() + i[1] as f64 * 0.01
        });
        let good = noisy(&a, 1e-6);
        let bad = noisy(&a, 1e-1);
        assert!(
            evaluate_metric(QualityMetric::Ssim, &a, &good)
                > evaluate_metric(QualityMetric::Ssim, &a, &bad)
        );
    }

    #[test]
    fn ac_orientation_prefers_white_errors() {
        let a = NdArray::from_fn(Shape::d1(4000), |i| (i[0] as f64 * 0.05).sin());
        // Smooth error = bad; alternating error has |AC| ~ 1 too; use a
        // pseudo-random error for the "good" case.
        let mut smooth = a.clone();
        for (i, v) in smooth.as_mut_slice().iter_mut().enumerate() {
            *v += 0.01 * (i as f64 * 0.02).cos();
        }
        let mut white = a.clone();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for v in white.as_mut_slice() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v += 0.01 * ((x as f64 / u64::MAX as f64) - 0.5);
        }
        assert!(
            evaluate_metric(QualityMetric::AutoCorrelation, &a, &white)
                > evaluate_metric(QualityMetric::AutoCorrelation, &a, &smooth)
        );
    }

    #[test]
    fn cr_metric_constant() {
        let a = NdArray::from_fn(Shape::d1(64), |i| i[0] as f64);
        let b = noisy(&a, 0.5);
        assert_eq!(
            evaluate_metric(QualityMetric::CompressionRatio, &a, &b),
            0.0
        );
    }

    #[test]
    fn metric_names() {
        assert_eq!(QualityMetric::Psnr.name(), "PSNR");
        assert_eq!(QualityMetric::default().name(), "CR");
    }
}
