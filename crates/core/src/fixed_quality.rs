//! Fixed-quality compression: hit a *quality target* instead of an error
//! bound.
//!
//! The paper's related work (Tao et al., CLUSTER'18) supports compressing
//! to a fixed PSNR; QoZ's sampling machinery makes the generalization
//! natural: estimate the quality-vs-bound curve on the sampled blocks,
//! geometric-bisect the bound, then run the normal metric-tuned
//! compression and verify the target on the full reconstruction,
//! tightening if the sampled estimate was optimistic.
//!
//! The result still carries QoZ's hard error-bound guarantee at the bound
//! the search settles on.

use crate::{write_plan_stream, Qoz, QozPlan};
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_codec::{Result, Scratch};
use qoz_metrics::{psnr, ssim};
use qoz_sz3::{compress_with_spec_into, InterpSpec};
use qoz_tensor::{sample_blocks, NdArray, SamplePlan, Scalar};

/// A quality target for [`Qoz::compress_to_quality`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityTarget {
    /// Minimum PSNR in dB.
    Psnr(f64),
    /// Minimum mean windowed SSIM in `[0, 1]`.
    Ssim(f64),
}

impl QualityTarget {
    fn satisfied(&self, achieved: f64) -> bool {
        match self {
            QualityTarget::Psnr(t) | QualityTarget::Ssim(t) => achieved >= *t,
        }
    }
}

/// Outcome of driving an arbitrary backend to a quality or ratio target
/// ([`compress_codec_to_quality`] / [`compress_codec_to_ratio`]).
#[derive(Debug, Clone)]
pub struct TargetOutcome {
    /// The compressed stream.
    pub blob: Vec<u8>,
    /// The relative error bound the search settled on.
    pub rel_bound: f64,
    /// The metric achieved at that bound: PSNR/SSIM measured on the full
    /// reconstruction, or the actual compression ratio for ratio targets.
    pub achieved: f64,
}

/// Drive *any* backend to a minimum quality target by geometric
/// bisection on the relative error bound.
///
/// Unlike [`Qoz::compress_to_quality`] there is no sampled fast path to
/// exploit for arbitrary backends, so every probe runs the full
/// compress + decompress pipeline and measures the target metric on the
/// complete reconstruction — `O(iterations)` full passes. The returned
/// stream *meets or exceeds* the target whenever any bound in the
/// searched range `[1e-8, 1e-1]` does; an unreachable target converges
/// to the tightest searched bound (inspect `achieved` to detect this).
pub fn compress_codec_to_quality<T, C>(
    codec: &C,
    data: &NdArray<T>,
    target: QualityTarget,
) -> Result<TargetOutcome>
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    let measure = |blob: &[u8]| -> Result<(NdArray<T>, f64)> {
        let recon = codec.decompress(blob)?;
        let achieved = match target {
            QualityTarget::Psnr(_) => psnr(data, &recon),
            QualityTarget::Ssim(_) => ssim(data, &recon),
        };
        Ok((recon, achieved))
    };

    // Geometric bisection: lo is the largest bound *known* to satisfy
    // the target, hi the smallest known to miss it.
    let mut lo = 1e-8f64;
    let mut hi = 1e-1f64;
    let mut best: Option<TargetOutcome> = None;
    for _ in 0..12 {
        let mid = (lo * hi).sqrt();
        let blob = codec.compress(data, ErrorBound::Rel(mid));
        let (_, achieved) = measure(&blob)?;
        if target.satisfied(achieved) {
            lo = mid;
            best = Some(TargetOutcome {
                blob,
                rel_bound: mid,
                achieved,
            });
        } else {
            hi = mid;
        }
    }
    match best {
        Some(outcome) => Ok(outcome),
        None => {
            // Nothing in the range satisfied the target: fall back to the
            // tightest bound and report what it achieves.
            let blob = codec.compress(data, ErrorBound::Rel(lo));
            let (_, achieved) = measure(&blob)?;
            Ok(TargetOutcome {
                blob,
                rel_bound: lo,
                achieved,
            })
        }
    }
}

/// Drive *any* backend toward a target compression ratio by geometric
/// bisection on the relative error bound (the Fig. 11 same-CR search).
///
/// Returns the probe whose ratio lands closest to the request (in log
/// space). With 12+ iterations the achieved ratio is typically within a
/// few percent of the target on smooth fields, but ratio is a step
/// function of the bound for some backends — consumers should tolerate
/// up to ~±50% on hostile data.
pub fn compress_codec_to_ratio<T, C>(
    codec: &C,
    data: &NdArray<T>,
    target_cr: f64,
    iterations: usize,
) -> TargetOutcome
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    let raw = (data.len() * T::BYTES) as f64;
    let mut lo = 1e-7f64;
    let mut hi = 0.3f64;
    let mut best: Option<(f64, TargetOutcome)> = None;
    for _ in 0..iterations.max(1) {
        let mid = (lo * hi).sqrt();
        let blob = codec.compress(data, ErrorBound::Rel(mid));
        let cr = raw / blob.len().max(1) as f64;
        let dist = (cr / target_cr).ln().abs();
        if best.as_ref().map_or(true, |(d, _)| dist < *d) {
            best = Some((
                dist,
                TargetOutcome {
                    blob,
                    rel_bound: mid,
                    achieved: cr,
                },
            ));
        }
        if cr < target_cr {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best.expect("iterations >= 1 always records a probe").1
}

/// Outcome of a fixed-quality compression.
#[derive(Debug, Clone)]
pub struct FixedQualityResult {
    /// The compressed stream.
    pub blob: Vec<u8>,
    /// The relative error bound the search settled on.
    pub rel_bound: f64,
    /// Quality achieved on the full reconstruction.
    pub achieved: f64,
    /// The plan used for the final pass.
    pub plan: QozPlan,
}

impl Qoz {
    /// Estimate the quality at a relative bound from the sampled blocks,
    /// staging every block's pass in `scratch`.
    fn sampled_quality<T: Scalar>(
        &self,
        blocks: &[NdArray<T>],
        range: f64,
        eps: f64,
        target: QualityTarget,
        scratch: &mut Scratch<T>,
    ) -> f64 {
        let abs = eps * range;
        let spec = InterpSpec::anchored(16, abs, Default::default());
        let mut se = 0.0f64;
        let mut ssim_acc = 0.0f64;
        let mut n = 0usize;
        for b in blocks {
            compress_with_spec_into(b, &spec, scratch);
            let recon = NdArray::from_vec(b.shape(), std::mem::take(&mut scratch.work));
            match target {
                QualityTarget::Psnr(_) => {
                    se += qoz_metrics::mse(b, &recon) * b.len() as f64;
                }
                QualityTarget::Ssim(_) => {
                    ssim_acc += ssim(b, &recon) * b.len() as f64;
                }
            }
            scratch.work = recon.into_vec();
            n += b.len();
        }
        match target {
            QualityTarget::Psnr(_) => {
                let mse = se / n.max(1) as f64;
                if mse == 0.0 {
                    f64::INFINITY
                } else {
                    20.0 * (range / mse.sqrt()).log10()
                }
            }
            QualityTarget::Ssim(_) => ssim_acc / n.max(1) as f64,
        }
    }

    /// Compress to a minimum quality target, maximizing compression ratio
    /// subject to it.
    ///
    /// Each full pass measures the quality on the engine's own
    /// reconstruction, which is the one the stream decodes to, so only
    /// the pass returned is entropy-coded. An unreachable target (e.g.
    /// SSIM 1.0 on noisy data) converges to the tightest searched bound.
    pub fn compress_to_quality<T: Scalar>(
        &self,
        data: &NdArray<T>,
        target: QualityTarget,
    ) -> FixedQualityResult {
        let range = data.value_range();
        let plan_cfg = SamplePlan::from_rate(
            data.shape(),
            self.config.effective_sample_block(data.shape()),
            self.config.effective_sample_rate(data.shape()),
        );
        let blocks = sample_blocks(data, &plan_cfg);

        // Geometric bisection on the relative bound.
        let mut lo = 1e-8f64; // quality too high (wasteful)
        let mut hi = 1e-1f64; // quality too low
        let mut scratch = Scratch::new();
        for _ in 0..14 {
            let mid = (lo * hi).sqrt();
            let q = self.sampled_quality(&blocks, range, mid, target, &mut scratch);
            if target.satisfied(q) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut eps = lo;

        // Full passes with the real tuner, tightening the bound while
        // the sampled estimate was optimistic: four verified passes,
        // then one at the tightest bound tried.
        for attempt in 0..5 {
            let plan = self.plan(data, ErrorBound::Rel(eps));
            compress_with_spec_into(data, &plan.spec, &mut scratch);
            let recon = NdArray::from_vec(data.shape(), std::mem::take(&mut scratch.work));
            let achieved = match target {
                QualityTarget::Psnr(_) => psnr(data, &recon),
                QualityTarget::Ssim(_) => ssim(data, &recon),
            };
            scratch.work = recon.into_vec();
            if target.satisfied(achieved) || eps <= 2e-8 || attempt == 4 {
                return FixedQualityResult {
                    blob: write_plan_stream(data.shape(), &plan, &mut scratch),
                    rel_bound: eps,
                    achieved,
                    plan,
                };
            }
            eps /= 2.0;
        }
        unreachable!("the last pass returns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};

    #[test]
    fn hits_psnr_target() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        for target_db in [50.0, 70.0] {
            let r = qoz.compress_to_quality(&data, QualityTarget::Psnr(target_db));
            assert!(
                r.achieved >= target_db,
                "target {target_db} dB, achieved {:.2}",
                r.achieved
            );
            // Should not wildly overshoot (within ~20 dB of the target).
            assert!(
                r.achieved <= target_db + 25.0,
                "overshoot: target {target_db}, achieved {:.2}",
                r.achieved
            );
        }
    }

    #[test]
    fn higher_target_costs_more_bits() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let a = qoz.compress_to_quality(&data, QualityTarget::Psnr(45.0));
        let b = qoz.compress_to_quality(&data, QualityTarget::Psnr(80.0));
        assert!(b.blob.len() > a.blob.len());
        assert!(b.rel_bound < a.rel_bound);
    }

    #[test]
    fn hits_ssim_target() {
        let data = Dataset::Hurricane.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let r = qoz.compress_to_quality(&data, QualityTarget::Ssim(0.95));
        assert!(r.achieved >= 0.95, "achieved {:.4}", r.achieved);
        let recon: NdArray<f32> = qoz.decompress(&r.blob).unwrap();
        assert_eq!(ssim(&data, &recon), r.achieved);
    }

    #[test]
    fn generic_driver_hits_psnr_on_non_qoz_backend() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let sz3 = qoz_sz3::Sz3::default();
        let r = compress_codec_to_quality(&sz3, &data, QualityTarget::Psnr(55.0)).unwrap();
        let recon: NdArray<f32> = sz3.decompress(&r.blob).unwrap();
        assert!(r.achieved >= 55.0, "achieved {:.2}", r.achieved);
        assert!((psnr(&data, &recon) - r.achieved).abs() < 1e-9);
        // The search must not collapse to the floor bound when the target
        // is comfortably reachable.
        assert!(r.rel_bound > 1e-8);
    }

    #[test]
    fn generic_driver_reports_unreachable_targets() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
        // SSIM of exactly 1.0 is unreachable for a lossy codec; the
        // driver must converge to its tightest bound and say so.
        let r =
            compress_codec_to_quality(&qoz_sz3::Sz3::default(), &data, QualityTarget::Ssim(1.0))
                .unwrap();
        assert!(r.achieved < 1.0);
        assert!(r.rel_bound <= 2e-8, "bound {:.3e}", r.rel_bound);
    }

    #[test]
    fn ratio_driver_lands_near_target() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let sz3 = qoz_sz3::Sz3::default();
        let r = compress_codec_to_ratio(&sz3, &data, 30.0, 14);
        assert!(
            (r.achieved / 30.0).ln().abs() < 0.5_f64.ln_1p(),
            "cr {:.1} target 30",
            r.achieved
        );
        let cr = (data.len() * 4) as f64 / r.blob.len() as f64;
        assert!((cr - r.achieved).abs() < 1e-9);
    }

    #[test]
    fn stream_remains_decodable_and_bounded() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 1);
        let qoz = Qoz::default();
        let r = qoz.compress_to_quality(&data, QualityTarget::Psnr(60.0));
        let recon: qoz_tensor::NdArray<f32> = qoz.decompress(&r.blob).unwrap();
        let abs = r.rel_bound * data.value_range();
        assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
        // Measured on the engine's reconstruction, `achieved` is the
        // decoded stream's quality exactly.
        assert_eq!(psnr(&data, &recon), r.achieved);
    }
}
