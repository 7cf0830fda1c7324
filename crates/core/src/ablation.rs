//! Ablation variants for the paper's Fig. 12 study.
//!
//! Fig. 12 builds QoZ from SZ3 one component at a time:
//!
//! | Variant            | AP | S  | LIS | PA |
//! |--------------------|----|----|-----|----|
//! | `Sz3Baseline`      |    |    |     |    |
//! | `Sz3Ap`            | ✓  |    |     |    |
//! | `Sz3ApS`           | ✓  | ✓  |     |    |
//! | `Sz3ApSLis`        | ✓  | ✓  | ✓   |    |
//! | `QozFull`          | ✓  | ✓  | ✓   | ✓  |
//!
//! AP = anchor points, S = sampled interpolator selection, LIS =
//! level-wise interpolator selection, PA = parameter auto-tuning. Each
//! variant maps onto a real configuration of the shared engine, so the
//! study measures genuine code paths rather than simulated deltas.

use crate::config::QozConfig;
use crate::Qoz;
use qoz_metrics::QualityMetric;

/// One step of the Fig. 12 component ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// Plain SZ3 (handled by `qoz-sz3`, listed for completeness).
    Sz3Baseline,
    /// SZ3 + anchor points.
    Sz3Ap,
    /// SZ3 + anchors + sampled global interpolator selection.
    Sz3ApS,
    /// SZ3 + anchors + sampling + level-wise interpolator selection.
    Sz3ApSLis,
    /// Full QoZ (adds parameter auto-tuning).
    QozFull,
}

impl AblationVariant {
    /// All variants in ladder order.
    pub const ALL: [AblationVariant; 5] = [
        AblationVariant::Sz3Baseline,
        AblationVariant::Sz3Ap,
        AblationVariant::Sz3ApS,
        AblationVariant::Sz3ApSLis,
        AblationVariant::QozFull,
    ];

    /// Label used in the Fig. 12 plots.
    pub fn name(self) -> &'static str {
        match self {
            AblationVariant::Sz3Baseline => "SZ3",
            AblationVariant::Sz3Ap => "SZ3+AP",
            AblationVariant::Sz3ApS => "SZ3+AP+S",
            AblationVariant::Sz3ApSLis => "SZ3+AP+S+LIS",
            AblationVariant::QozFull => "QoZ",
        }
    }

    /// Build the QoZ configuration for this variant (not meaningful for
    /// [`AblationVariant::Sz3Baseline`], which uses the `qoz-sz3` crate).
    pub fn qoz_config(self, metric: QualityMetric) -> QozConfig {
        let mut cfg = QozConfig::for_metric(metric);
        match self {
            AblationVariant::Sz3Baseline | AblationVariant::Sz3Ap => {
                cfg.sampled_selection = false;
                cfg.level_interp_selection = false;
                cfg.param_autotuning = false;
            }
            AblationVariant::Sz3ApS => {
                cfg.sampled_selection = true;
                cfg.level_interp_selection = false;
                cfg.param_autotuning = false;
            }
            AblationVariant::Sz3ApSLis => {
                cfg.sampled_selection = true;
                cfg.level_interp_selection = true;
                cfg.param_autotuning = false;
            }
            AblationVariant::QozFull => {
                cfg.sampled_selection = true;
                cfg.level_interp_selection = true;
                cfg.param_autotuning = true;
            }
        }
        cfg
    }

    /// Instantiate the compressor for this variant.
    pub fn compressor(self, metric: QualityMetric) -> Qoz {
        Qoz::new(self.qoz_config(metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_codec::{Compressor, ErrorBound};
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_tensor::NdArray;

    #[test]
    fn ladder_monotonically_enables_features() {
        let m = QualityMetric::Psnr;
        let cfgs: Vec<QozConfig> = AblationVariant::ALL[1..]
            .iter()
            .map(|v| v.qoz_config(m))
            .collect();
        let as_bits = |c: &QozConfig| {
            (
                c.sampled_selection as u8,
                c.level_interp_selection as u8,
                c.param_autotuning as u8,
            )
        };
        let bits: Vec<_> = cfgs.iter().map(as_bits).collect();
        assert_eq!(bits, vec![(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]);
    }

    #[test]
    fn all_variants_respect_error_bound() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 1);
        let bound = ErrorBound::Rel(1e-3);
        let abs = bound.absolute(&data);
        for v in &AblationVariant::ALL[1..] {
            let c = v.compressor(QualityMetric::Psnr);
            let blob = c.compress(&data, bound);
            let recon: NdArray<f32> = c.decompress(&blob).unwrap();
            assert!(
                data.max_abs_diff(&recon) <= abs * (1.0 + 1e-12),
                "{} violates bound",
                v.name()
            );
        }
    }

    #[test]
    fn names_are_paper_labels() {
        let names: Vec<_> = AblationVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec!["SZ3", "SZ3+AP", "SZ3+AP+S", "SZ3+AP+S+LIS", "QoZ"]
        );
    }
}
