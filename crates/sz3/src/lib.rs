//! SZ3-style error-bounded lossy compressor (baseline) and the shared
//! interpolation codec engine.
//!
//! SZ3 (Zhao et al., ICDE'21; Liang et al. 2021) predicts every point with
//! multi-level spline interpolation over the *global* array, quantizes the
//! residuals with a linear-scale quantizer and entropy-codes the bins.
//! Its three structural choices — no anchor points (unbounded
//! interpolation span), one interpolator for every level, and a single
//! fixed error bound across levels — are exactly what QoZ relaxes, so this
//! crate hosts the parameterized engine ([`engine`]) that both compressors
//! share: SZ3 is the engine run with a fixed configuration, QoZ (in
//! `qoz-core`) is the engine run with anchors, per-level interpolators and
//! per-level error bounds chosen online. The ablation study of the paper
//! (Fig. 12) toggles these exact code paths.

pub mod engine;
pub mod select;
pub mod spec;

pub use engine::{
    compress_with_spec, compress_with_spec_into, decompress_with_spec_into, CompressOutput,
    EngineStats,
};
pub use select::select_global_interp;
pub use spec::InterpSpec;

use qoz_codec::stream::{Compressor, CompressorId, ErrorBound, Header};
use qoz_codec::{ByteReader, Result, Scratch};
use qoz_tensor::{NdArray, Scalar};

/// The SZ3 baseline compressor.
///
/// # Example
/// ```
/// use qoz_sz3::Sz3;
/// use qoz_codec::{Compressor, ErrorBound};
/// use qoz_tensor::{NdArray, Shape};
///
/// let data = NdArray::from_fn(Shape::d2(64, 64), |i| {
///     ((i[0] as f32) * 0.1).sin() + ((i[1] as f32) * 0.07).cos()
/// });
/// let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-3));
/// let recon: NdArray<f32> = Sz3::default().decompress(&blob).unwrap();
/// assert!(data.max_abs_diff(&recon) <= 1e-3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sz3 {
    /// Override the auto-selected interpolator (mainly for tests and the
    /// ablation study); `None` = select by sampling as SZ3 does.
    pub fixed_interp: Option<qoz_predict::LevelConfig>,
}

impl<T: Scalar> Compressor<T> for Sz3 {
    fn id(&self) -> CompressorId {
        CompressorId::Sz3
    }

    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        let abs_eb = bound.absolute(data);
        let shape = data.shape();
        let cfg = self
            .fixed_interp
            .unwrap_or_else(|| select_global_interp(data, abs_eb));
        let spec = InterpSpec::sz3(shape, abs_eb, cfg);
        engine::compress_with_spec_into(data, &spec, scratch);
        engine::write_stream(
            &Header {
                compressor: CompressorId::Sz3,
                scalar_tag: T::TYPE_TAG,
                shape,
                abs_eb,
                temporal: None,
            },
            &spec,
            scratch,
        )
    }

    fn decompress_into(
        &self,
        blob: &[u8],
        scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> Result<()> {
        let mut r = ByteReader::new(blob);
        let header =
            engine::check_stream_header::<T>(&mut r, CompressorId::Sz3, "not an SZ3 stream")?;
        engine::read_stream_into(&mut r, &header, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_metrics::verify_error_bound;
    use qoz_tensor::Shape;

    #[test]
    fn roundtrip_respects_bound_all_datasets() {
        for ds in Dataset::ALL {
            let data = ds.generate(SizeClass::Tiny, 0);
            for eb in [1e-2, 1e-3] {
                let bound = ErrorBound::Rel(eb);
                let abs = bound.absolute(&data);
                let blob = Sz3::default().compress(&data, bound);
                let recon: NdArray<f32> = Sz3::default().decompress(&blob).unwrap();
                assert_eq!(recon.shape(), data.shape());
                assert_eq!(
                    verify_error_bound(&data, &recon, abs),
                    None,
                    "{} eb {eb}",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let blob = Sz3::default().compress(&data, ErrorBound::Rel(1e-3));
        let raw = data.len() * 4;
        let cr = raw as f64 / blob.len() as f64;
        assert!(cr > 5.0, "expected meaningful compression, got CR {cr:.2}");
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::from_fn(Shape::d3(20, 20, 20), |i| {
            ((i[0] + i[1]) as f64 * 0.21).sin() * (i[2] as f64 * 0.13).cos()
        });
        let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-6));
        let recon: NdArray<f64> = Sz3::default().decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-6);
    }

    #[test]
    fn wrong_scalar_type_rejected() {
        let data = NdArray::from_fn(Shape::d1(100), |i| i[0] as f32);
        let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-3));
        assert!(Compressor::<f64>::decompress(&Sz3::default(), &blob).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = NdArray::from_fn(Shape::d2(32, 32), |i| (i[0] * i[1]) as f32);
        let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-2));
        for cut in [5, blob.len() / 2, blob.len() - 1] {
            assert!(Compressor::<f32>::decompress(&Sz3::default(), &blob[..cut]).is_err());
        }
    }

    #[test]
    fn tiny_arrays_roundtrip() {
        for dims in [
            vec![1usize],
            vec![2],
            vec![3, 1],
            vec![1, 1, 1],
            vec![2, 2, 2],
        ] {
            let shape = Shape::new(&dims);
            let data = NdArray::from_fn(shape, |i| (i[0] + 1) as f32 * 1.5);
            let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-4));
            let recon: NdArray<f32> = Sz3::default().decompress(&blob).unwrap();
            assert!(data.max_abs_diff(&recon) <= 1e-4, "dims {dims:?}");
        }
    }

    #[test]
    fn handles_nan_inputs_without_panicking() {
        let mut data = NdArray::from_fn(Shape::d1(64), |i| i[0] as f32);
        data.as_mut_slice()[10] = f32::NAN;
        data.as_mut_slice()[20] = f32::INFINITY;
        let blob = Sz3::default().compress(&data, ErrorBound::Abs(1e-3));
        let recon: NdArray<f32> = Sz3::default().decompress(&blob).unwrap();
        assert!(recon.as_slice()[10].is_nan());
        assert_eq!(recon.as_slice()[20], f32::INFINITY);
        // Finite points still bounded.
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            if a.is_finite() {
                assert!((a - b).abs() <= 1e-3);
            }
        }
    }
}
