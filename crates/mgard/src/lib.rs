//! MGARD+-style multilevel error-bounded lossy compressor (baseline).
//!
//! MGARD (Ainsworth et al.) decomposes the array over a hierarchy of
//! nested grids with piecewise-(multi)linear interpolation and quantizes
//! the multilevel coefficients against a norm-split error budget; MGARD+
//! (Liang et al., IEEE TC 2021) is its performance-optimized successor.
//!
//! This reimplementation keeps the structural essence — a *linear*
//! multilevel hierarchy with a conservatively split error budget — on top
//! of the workspace's shared interpolation engine (documented
//! substitution, `DESIGN.md` §3):
//!
//! * prediction is piecewise-linear only (MGARD's basis), never cubic;
//! * every level works at half the user bound, mirroring how MGARD's
//!   norm-based budget split leaves actual errors well under the L∞
//!   target (and costing compression ratio relative to SZ3/QoZ, exactly
//!   the relative standing Table III reports);
//! * the coefficient streams reuse the shared Huffman+LZSS backend, as
//!   MGARD+ uses Huffman+zstd.

use qoz_codec::stream::{self, Compressor, CompressorId, ErrorBound, Header};
use qoz_codec::{ByteReader, ByteWriter, LinearQuantizer, Result, Scratch};
use qoz_predict::{DimOrder, InterpKind, LevelConfig};
use qoz_sz3::{compress_with_spec_into, decompress_with_spec_into, InterpSpec};
use qoz_tensor::{NdArray, Scalar, Shape};

/// Fraction of the user bound each level actually uses (budget split).
const BUDGET_FRACTION: f64 = 0.5;

/// The MGARD+-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Mgard;

/// Build the fixed multilevel spec for a shape/bound.
fn mgard_spec(shape: Shape, abs_eb: f64) -> InterpSpec {
    let cfg = LevelConfig {
        kind: InterpKind::Linear,
        order: DimOrder::Ascending,
    };
    let mut spec = InterpSpec::sz3(shape, abs_eb, cfg);
    for eb in spec.level_ebs.iter_mut() {
        *eb = abs_eb * BUDGET_FRACTION;
    }
    spec.quant_radius = LinearQuantizer::DEFAULT_RADIUS;
    spec
}

impl<T: Scalar> Compressor<T> for Mgard {
    fn id(&self) -> CompressorId {
        CompressorId::Mgard
    }

    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        let abs_eb = bound.absolute(data);
        let shape = data.shape();
        let spec = mgard_spec(shape, abs_eb);
        compress_with_spec_into(data, &spec, scratch);

        let mut w = ByteWriter::with_capacity(data.len() / 4 + 64);
        stream::write_header(
            &mut w,
            &Header {
                compressor: CompressorId::Mgard,
                scalar_tag: T::TYPE_TAG,
                shape,
                abs_eb,
                temporal: None,
            },
        );
        qoz_codec::encode_bins_with(&scratch.bins, &mut scratch.entropy, &mut scratch.section);
        w.put_len_prefixed(&scratch.section);
        qoz_codec::lossless_compress_with(
            &scratch.unpred,
            &mut scratch.entropy,
            &mut scratch.section,
        );
        w.put_len_prefixed(&scratch.section);
        w.finish()
    }

    fn decompress_into(
        &self,
        blob: &[u8],
        scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> Result<()> {
        let mut r = ByteReader::new(blob);
        let header =
            stream::check_stream_header::<T>(&mut r, CompressorId::Mgard, "not an MGARD stream")?;
        // The spec is fully determined by (shape, abs_eb): nothing to
        // store per stream.
        let spec = mgard_spec(header.shape, header.abs_eb);
        qoz_codec::decode_bins_with(
            r.get_len_prefixed()?,
            &mut scratch.entropy,
            &mut scratch.bins,
        )?;
        qoz_codec::lossless_decompress_with(
            r.get_len_prefixed()?,
            &mut scratch.entropy,
            &mut scratch.unpred,
        )?;
        decompress_with_spec_into(
            header.shape,
            &spec,
            &scratch.bins,
            &scratch.unpred,
            &[],
            out,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_metrics::verify_error_bound;

    #[test]
    fn roundtrip_respects_bound_all_datasets() {
        for ds in Dataset::ALL {
            let data = ds.generate(SizeClass::Tiny, 0);
            let bound = ErrorBound::Rel(1e-3);
            let abs = bound.absolute(&data);
            let blob = Mgard.compress(&data, bound);
            let recon: NdArray<f32> = Mgard.decompress(&blob).unwrap();
            assert_eq!(
                verify_error_bound(&data, &recon, abs),
                None,
                "{}",
                ds.name()
            );
        }
    }

    #[test]
    fn budget_split_keeps_errors_below_half_bound_mostly() {
        // MGARD's conservatism: max error should stay at or below half
        // the nominal bound (each level quantizes at e/2).
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let bound = ErrorBound::Rel(1e-2);
        let abs = bound.absolute(&data);
        let blob = Mgard.compress(&data, bound);
        let recon: NdArray<f32> = Mgard.decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= abs * BUDGET_FRACTION * (1.0 + 1e-9));
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::from_fn(Shape::d3(15, 16, 17), |i| {
            (i[0] as f64 - i[1] as f64) * 0.1 + (i[2] as f64 * 0.4).sin()
        });
        let blob = Mgard.compress(&data, ErrorBound::Abs(1e-5));
        let recon: NdArray<f64> = Mgard.decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-5);
    }

    #[test]
    fn compresses_worse_than_sz3_on_smooth_data() {
        // Linear basis + budget split should cost CR vs SZ3, mirroring
        // the paper's Table III ordering.
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let bound = ErrorBound::Rel(1e-3);
        let m = Mgard.compress(&data, bound).len();
        let s = qoz_sz3::Sz3::default().compress(&data, bound).len();
        assert!(m >= s, "MGARD {m} should not beat SZ3 {s} here");
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = NdArray::from_fn(Shape::d2(20, 20), |i| (i[0] + i[1]) as f32);
        let blob = Mgard.compress(&data, ErrorBound::Abs(1e-3));
        for cut in [3, blob.len() / 2, blob.len() - 1] {
            assert!(Compressor::<f32>::decompress(&Mgard, &blob[..cut]).is_err());
        }
    }
}
