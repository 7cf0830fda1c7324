//! QoZ: dynamic quality-metric-oriented error-bounded lossy compression.
//!
//! This crate is the paper's primary contribution (Liu et al., SC'22).
//! QoZ extends the SZ3 interpolation compression model with four
//! mechanisms, all implemented here on top of the shared engine in
//! `qoz-sz3`:
//!
//! 1. **Anchor points** (§V-B1) — a lossless grid every
//!    [`QozConfig::effective_anchor_stride`] points bounds the
//!    interpolation span and stops long-range error propagation.
//! 2. **Level-adapted interpolators** (§V-B2, Algorithm 1) — each level
//!    picks its own (kernel, dimension-order) pair by sampled trial
//!    compression ([`tuning::select_level_interps`]).
//! 3. **Level-wise error bounds** (Eq. 5) — `e_l = e / min(α^(l-1), β)`
//!    tightens bounds on the sparse high levels whose errors propagate.
//! 4. **Quality-metric-driven auto-tuning** (§VI-C, Table I) — `(α, β)`
//!    are chosen online to optimize the user's metric: compression
//!    ratio, PSNR, SSIM, or error autocorrelation
//!    ([`tuning::autotune_params`]).
//!
//! # Quick start
//! ```
//! use qoz_core::Qoz;
//! use qoz_codec::{Compressor, ErrorBound};
//! use qoz_metrics::QualityMetric;
//! use qoz_tensor::{NdArray, Shape};
//!
//! let data = NdArray::from_fn(Shape::d2(128, 128), |i| {
//!     ((i[0] as f32) * 0.08).sin() * ((i[1] as f32) * 0.05).cos()
//! });
//! // Optimize rate-PSNR under a value-range-relative bound of 1e-3.
//! let qoz = Qoz::for_metric(QualityMetric::Psnr);
//! let blob = qoz.compress(&data, ErrorBound::Rel(1e-3));
//! let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
//! let abs = ErrorBound::Rel(1e-3).absolute(&data);
//! assert!(data.max_abs_diff(&recon) <= abs);
//! ```

pub mod ablation;
pub mod config;
pub mod fixed_quality;
pub mod pipeline;
pub mod tuning;

pub use config::{level_error_bounds, KernelSelect, QozConfig};
pub use fixed_quality::{
    compress_codec_to_quality, compress_codec_to_ratio, FixedQualityResult, QualityTarget,
    TargetOutcome,
};
pub use pipeline::{
    decode_snapshots, encode_snapshots, PlanCache, PlanOutcome, PlanSnapshot, PLAN_FILE_MAGIC,
    PLAN_FILE_VERSION,
};

use qoz_codec::stream::{Compressor, CompressorId, ErrorBound, Header};
use qoz_codec::{ByteReader, LinearQuantizer, Result, Scratch};
use qoz_metrics::QualityMetric;
use qoz_predict::LevelConfig;
use qoz_sz3::{select_global_interp, InterpSpec};
use qoz_tensor::{sample_blocks, NdArray, SamplePlan, Scalar, Shape};

/// The tuned plan a compression run settled on — exposed for inspection,
/// benchmarking (Fig. 12/13) and reproducibility.
#[derive(Debug, Clone, PartialEq)]
pub struct QozPlan {
    /// Resolved absolute error bound.
    pub abs_eb: f64,
    /// Chosen `(alpha, beta)`.
    pub alpha: f64,
    /// See `alpha`.
    pub beta: f64,
    /// The full engine spec (anchor stride, per-level configs/bounds).
    pub spec: InterpSpec,
}

/// The QoZ compressor.
#[derive(Debug, Clone, Default)]
pub struct Qoz {
    /// Tuning configuration.
    pub config: QozConfig,
}

impl Qoz {
    /// Create with an explicit configuration.
    pub fn new(config: QozConfig) -> Self {
        Qoz { config }
    }

    /// Create with defaults tuned for `metric`.
    pub fn for_metric(metric: QualityMetric) -> Self {
        Qoz {
            config: QozConfig::for_metric(metric),
        }
    }

    /// Run the online tuning stage only, returning the plan that
    /// [`Qoz::compress`] would execute.
    pub fn plan<T: Scalar>(&self, data: &NdArray<T>, bound: ErrorBound) -> QozPlan {
        let _span = qoz_telemetry::stages().tune.start();
        let abs_eb = bound.absolute(data);
        let shape = data.shape();
        let cfg = &self.config;
        let anchor = cfg.effective_anchor_stride(shape);
        let total_levels = anchor.trailing_zeros().max(1);

        let block = cfg.effective_sample_block(shape);
        let rate = cfg.effective_sample_rate(shape);
        let plan = SamplePlan::from_rate(shape, block, rate);
        let blocks = sample_blocks(data, &plan);

        // Algorithm-1 selectable levels: log2(min(sample block, anchor)).
        let sel_levels = (block.min(anchor as usize) as u32)
            .next_power_of_two()
            .trailing_zeros()
            .min(total_levels)
            .max(1);

        let level_configs: Vec<LevelConfig> = if cfg.sampled_selection && cfg.level_interp_selection
        {
            tuning::select_level_interps(&blocks, abs_eb, sel_levels, total_levels)
        } else if cfg.sampled_selection {
            vec![select_global_interp(data, abs_eb); total_levels as usize]
        } else {
            vec![LevelConfig::default(); total_levels as usize]
        };

        let (alpha, beta) = if cfg.param_autotuning {
            let cands = cfg.param_candidates();
            tuning::autotune_params(
                &blocks,
                abs_eb,
                &level_configs,
                sel_levels,
                cfg.metric,
                data.value_range(),
                &cands,
            )
        } else {
            cfg.fixed_params.unwrap_or((1.0, 1.0))
        };

        let level_ebs = level_error_bounds(abs_eb, alpha, beta, total_levels);
        let spec = InterpSpec {
            anchor_stride: Some(anchor),
            max_level: total_levels,
            level_configs,
            level_ebs,
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        };
        QozPlan {
            abs_eb,
            alpha,
            beta,
            spec,
        }
    }

    /// Compress with a pre-computed plan, staging buffers in a reusable
    /// arena. This is the warm path of a [`pipeline::PlanCache`]-driven
    /// caller: with the tuning already done and the stage buffers
    /// already grown, a repeated same-shape snapshot costs one
    /// prediction pass plus entropy coding.
    pub fn compress_with_plan_scratched<T: Scalar>(
        &self,
        data: &NdArray<T>,
        plan: &QozPlan,
        scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        qoz_sz3::compress_with_spec_into(data, &plan.spec, scratch);
        write_plan_stream(data.shape(), plan, scratch)
    }
}

/// The QoZ stream of a `shape`d array whose engine pass with `plan` is
/// staged in `scratch`.
fn write_plan_stream<T: Scalar>(shape: Shape, plan: &QozPlan, scratch: &mut Scratch<T>) -> Vec<u8> {
    qoz_sz3::engine::write_stream(
        &Header {
            compressor: CompressorId::Qoz,
            scalar_tag: T::TYPE_TAG,
            shape,
            abs_eb: plan.abs_eb,
            temporal: None,
        },
        &plan.spec,
        scratch,
    )
}

impl<T: Scalar> Compressor<T> for Qoz {
    fn id(&self) -> CompressorId {
        CompressorId::Qoz
    }

    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        let plan = self.plan(data, bound);
        self.compress_with_plan_scratched(data, &plan, scratch)
    }

    fn decompress_into(
        &self,
        blob: &[u8],
        scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> Result<()> {
        let mut r = ByteReader::new(blob);
        let header = qoz_sz3::engine::check_stream_header::<T>(
            &mut r,
            CompressorId::Qoz,
            "not a QoZ stream",
        )?;
        qoz_sz3::engine::read_stream_into(&mut r, &header, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_metrics::verify_error_bound;
    use qoz_tensor::Shape;

    #[test]
    fn roundtrip_respects_bound_all_datasets_all_metrics() {
        for ds in [Dataset::CesmAtm, Dataset::Miranda, Dataset::Nyx] {
            let data = ds.generate(SizeClass::Tiny, 0);
            for metric in [
                QualityMetric::CompressionRatio,
                QualityMetric::Psnr,
                QualityMetric::Ssim,
                QualityMetric::AutoCorrelation,
            ] {
                let qoz = Qoz::for_metric(metric);
                let bound = ErrorBound::Rel(1e-3);
                let abs = bound.absolute(&data);
                let blob = qoz.compress(&data, bound);
                let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
                assert_eq!(
                    verify_error_bound(&data, &recon, abs),
                    None,
                    "{} metric {:?}",
                    ds.name(),
                    metric
                );
            }
        }
    }

    #[test]
    fn plan_satisfies_eq5_policy() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let plan = Qoz::for_metric(QualityMetric::Psnr).plan(&data, ErrorBound::Rel(1e-3));
        let ebs = &plan.spec.level_ebs;
        assert!((ebs[0] - plan.abs_eb).abs() < 1e-18, "e_1 must equal e");
        for w in ebs.windows(2) {
            assert!(w[1] <= w[0] + 1e-18);
        }
        assert!(plan.alpha >= 1.0 && plan.beta >= 1.0);
    }

    #[test]
    fn qoz_beats_or_matches_sz3_on_smooth_data() {
        // The headline claim at a coarse bound: QoZ's anchors + tuning
        // should not lose to SZ3 on smooth turbulence-like data.
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 1);
        let bound = ErrorBound::Rel(1e-2);
        let qoz_blob = Qoz::default().compress(&data, bound);
        let sz3_blob = qoz_sz3::Sz3::default().compress(&data, bound);
        let qoz_cr = (data.len() * 4) as f64 / qoz_blob.len() as f64;
        let sz3_cr = (data.len() * 4) as f64 / sz3_blob.len() as f64;
        assert!(
            qoz_cr > sz3_cr * 0.85,
            "QoZ CR {qoz_cr:.1} should be competitive with SZ3 CR {sz3_cr:.1}"
        );
    }

    #[test]
    fn ac_mode_reduces_autocorrelation_vs_cr_mode() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 2);
        let bound = ErrorBound::Rel(1e-3);
        let ac_of = |metric| {
            let qoz = Qoz::for_metric(metric);
            let blob = qoz.compress(&data, bound);
            let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
            qoz_metrics::error_autocorrelation(&data, &recon, 1).abs()
        };
        let ac_pref = ac_of(QualityMetric::AutoCorrelation);
        let cr_pref = ac_of(QualityMetric::CompressionRatio);
        assert!(
            ac_pref <= cr_pref + 0.1,
            "AC mode {ac_pref} should not be much worse than CR mode {cr_pref}"
        );
    }

    #[test]
    fn fixed_params_bypass_tuning() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
        let cfg = QozConfig {
            param_autotuning: false,
            fixed_params: Some((2.0, 4.0)),
            ..Default::default()
        };
        let plan = Qoz::new(cfg).plan(&data, ErrorBound::Rel(1e-3));
        assert_eq!((plan.alpha, plan.beta), (2.0, 4.0));
        let expect = level_error_bounds(plan.abs_eb, 2.0, 4.0, plan.spec.max_level);
        assert_eq!(plan.spec.level_ebs, expect);
    }

    #[test]
    fn anchors_survive_roundtrip_losslessly() {
        let data = Dataset::Hurricane.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let plan = qoz.plan(&data, ErrorBound::Rel(1e-2));
        let blob = qoz.compress_with_plan_scratched(&data, &plan, &mut Scratch::new());
        let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
        let stride = plan.spec.anchor_stride.unwrap() as usize;
        qoz_predict::for_each_base_point(data.shape(), stride, |off| {
            assert_eq!(recon.as_slice()[off], data.as_slice()[off]);
        });
    }

    #[test]
    fn wrong_stream_type_rejected() {
        let data = NdArray::from_fn(Shape::d2(32, 32), |i| (i[0] + i[1]) as f32);
        let sz3_blob = qoz_sz3::Sz3::default().compress(&data, ErrorBound::Abs(1e-3));
        assert!(Compressor::<f32>::decompress(&Qoz::default(), &sz3_blob).is_err());
    }

    #[test]
    fn small_array_roundtrip() {
        let data = NdArray::from_fn(Shape::d3(5, 4, 3), |i| (i[0] * 12 + i[1] * 3 + i[2]) as f64);
        let blob = Qoz::default().compress(&data, ErrorBound::Abs(1e-4));
        let recon: NdArray<f64> = Qoz::default().decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-4);
    }
}
