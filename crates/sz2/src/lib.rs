//! SZ2.1-style error-bounded lossy compressor (baseline).
//!
//! SZ2 (Liang et al., IEEE Big Data'18) splits the array into small
//! blocks and, per block, selects among three predictors:
//!
//! * the **first-order Lorenzo** extrapolator (causal neighbour stencil),
//! * the **second-order Lorenzo** stencil (adds curvature/cross terms),
//! * a **block-wise linear regression** model whose quantized
//!   coefficients ship with the stream.
//!
//! Residuals are quantized with the shared linear-scale quantizer and
//! entropy-coded with the shared Huffman+LZSS backend, so the comparison
//! against SZ3/QoZ isolates the *prediction* model exactly as the paper's
//! evaluation does. Unlike the interpolation compressors, SZ2 always
//! predicts from immediate neighbours, which is why its errors show fewer
//! long-range artifacts (paper Fig. 4) at the cost of lower compression
//! ratios on smooth data.

use qoz_codec::stream::{self, Compressor, CompressorId, ErrorBound, Header};
use qoz_codec::{ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, Scratch};
use qoz_predict::{lorenzo2_predict, lorenzo_predict, RegressionModel};
use qoz_tensor::{NdArray, Region, Scalar, Shape};

/// Per-rank default block side (SZ2 uses small blocks: 6³ in 3D).
fn default_block_side(ndim: usize) -> usize {
    match ndim {
        1 => 32,
        2 => 12,
        _ => 6,
    }
}

/// Coefficient quantization step relative to the error bound. SZ2 stores
/// regression coefficients with precision proportional to the bound so
/// the model itself never consumes more accuracy than the data budget.
fn coef_step(abs_eb: f64, block_side: usize) -> f64 {
    abs_eb / block_side as f64
}

/// Predictor selected for one block.
///
/// SZ2.1's hybrid model: first-order Lorenzo for noisy regions,
/// second-order Lorenzo for smooth regions with curvature, block-wise
/// linear regression where the field is locally affine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockPredictor {
    Lorenzo,
    Lorenzo2,
    Regression,
}

impl BlockPredictor {
    fn code(self) -> u32 {
        match self {
            BlockPredictor::Lorenzo => 0,
            BlockPredictor::Lorenzo2 => 1,
            BlockPredictor::Regression => 2,
        }
    }

    fn from_code(c: u32) -> Result<Self> {
        Ok(match c {
            0 => BlockPredictor::Lorenzo,
            1 => BlockPredictor::Lorenzo2,
            2 => BlockPredictor::Regression,
            _ => return Err(CodecError::Corrupt("bad block predictor code")),
        })
    }
}

/// The SZ2.1 baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Sz2 {
    /// Block side override (`None` = rank default).
    pub block_side: Option<usize>,
}

impl<T: Scalar> Compressor<T> for Sz2 {
    fn id(&self) -> CompressorId {
        CompressorId::Sz2
    }

    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        _scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        let abs_eb = bound.absolute(data);
        let shape = data.shape();
        let side = self.block_side.unwrap_or(default_block_side(shape.ndim()));
        let blocks = Region::tile(shape, side);
        let quant = LinearQuantizer::new(abs_eb);
        let step = coef_step(abs_eb, side);

        let mut work = data.clone();
        let mut bins: Vec<u32> = Vec::with_capacity(data.len());
        let mut unpred = ByteWriter::new();
        let mut selector_codes: Vec<u32> = Vec::with_capacity(blocks.len());
        let mut coef_codes: Vec<i64> = Vec::new();

        for region in &blocks {
            // Decide the predictor on the ORIGINAL block (both sides see
            // the same choice because it is stored explicitly).
            let block = data.extract_region(region);
            let (model, codes) = {
                let fitted = RegressionModel::fit(&block);
                fitted.quantize(step)
            };
            let choice = select_predictor(data, region, &model, abs_eb);
            selector_codes.push(choice.code());
            if choice == BlockPredictor::Regression {
                coef_codes.extend_from_slice(&codes);
            }

            // Quantize the block in row-major order against the chosen
            // predictor, writing reconstructions into `work`.
            let nd = shape.ndim();
            let sub = Shape::new(region.size());
            for local in sub.indices() {
                let mut gidx = [0usize; qoz_tensor::MAX_NDIM];
                for d in 0..nd {
                    gidx[d] = region.origin()[d] + local[d];
                }
                let off = shape.offset(&gidx[..nd]);
                let pred = match choice {
                    BlockPredictor::Regression => model.predict(&local[..nd]),
                    BlockPredictor::Lorenzo => lorenzo_predict(work.as_slice(), shape, &gidx[..nd]),
                    BlockPredictor::Lorenzo2 => {
                        lorenzo2_predict(work.as_slice(), shape, &gidx[..nd])
                    }
                };
                let v = work.as_slice()[off];
                let qz = quant.quantize(v, pred);
                if qz.code == 0 {
                    unpred.put_bytes(v.le_bytes().as_ref());
                }
                bins.push(qz.code);
                work.as_mut_slice()[off] = qz.reconstructed;
            }
        }

        // Serialize: header, block side, selector bitmap, coefficients,
        // bins, unpredictables.
        let mut w = ByteWriter::with_capacity(data.len() / 4 + 64);
        stream::write_header(
            &mut w,
            &Header {
                compressor: CompressorId::Sz2,
                scalar_tag: T::TYPE_TAG,
                shape,
                abs_eb,
                temporal: None,
            },
        );
        w.put_varint(side as u64);
        w.put_len_prefixed(&qoz_codec::encode_bins(&selector_codes));
        let mut coefs = ByteWriter::new();
        for &c in &coef_codes {
            coefs.put_varint(zigzag(c));
        }
        w.put_len_prefixed(&qoz_codec::lossless_compress(&coefs.finish()));
        w.put_len_prefixed(&qoz_codec::encode_bins(&bins));
        w.put_len_prefixed(&qoz_codec::lossless_compress(&unpred.finish()));
        w.finish()
    }

    fn decompress_into(
        &self,
        blob: &[u8],
        _scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> Result<()> {
        let mut r = ByteReader::new(blob);
        let header =
            stream::check_stream_header::<T>(&mut r, CompressorId::Sz2, "not an SZ2 stream")?;
        let shape = header.shape;
        let side = r.get_varint()? as usize;
        if side == 0 || side > 1 << 20 {
            return Err(CodecError::Corrupt("bad block side"));
        }
        let selector_codes = qoz_codec::decode_bins(r.get_len_prefixed()?)?;
        let coef_bytes = qoz_codec::lossless_decompress(r.get_len_prefixed()?)?;
        let bins = qoz_codec::decode_bins(r.get_len_prefixed()?)?;
        let unpred = qoz_codec::lossless_decompress(r.get_len_prefixed()?)?;

        if bins.len() != shape.len() {
            return Err(CodecError::Corrupt("bin count mismatch"));
        }
        if selector_codes.len() != Region::tile_count(shape, side) {
            return Err(CodecError::Corrupt("selector count mismatch"));
        }
        let blocks = Region::tile(shape, side);
        let mut coef_reader = ByteReader::new(&coef_bytes);
        let mut unpred_reader = ByteReader::new(&unpred);
        let quant = LinearQuantizer::new(header.abs_eb);
        let step = coef_step(header.abs_eb, side);
        let nd = shape.ndim();
        let n_coefs = nd + 1;

        out.reset_zeros(shape);
        let work = out;
        let mut bin_pos = 0usize;
        for (region, &sel) in blocks.iter().zip(&selector_codes) {
            let choice = BlockPredictor::from_code(sel)?;
            let model = if choice == BlockPredictor::Regression {
                let mut codes = Vec::with_capacity(n_coefs);
                for _ in 0..n_coefs {
                    codes.push(unzigzag(coef_reader.get_varint()?));
                }
                Some(RegressionModel::from_codes(&codes, step))
            } else {
                None
            };
            let sub = Shape::new(region.size());
            for local in sub.indices() {
                let mut gidx = [0usize; qoz_tensor::MAX_NDIM];
                for d in 0..nd {
                    gidx[d] = region.origin()[d] + local[d];
                }
                let off = shape.offset(&gidx[..nd]);
                let pred = match (&model, choice) {
                    (Some(m), _) => m.predict(&local[..nd]),
                    (None, BlockPredictor::Lorenzo2) => {
                        lorenzo2_predict(work.as_slice(), shape, &gidx[..nd])
                    }
                    (None, _) => lorenzo_predict(work.as_slice(), shape, &gidx[..nd]),
                };
                let code = bins[bin_pos];
                bin_pos += 1;
                if code == 0 {
                    let b = unpred_reader.get_bytes(T::BYTES)?;
                    work.as_mut_slice()[off] = T::from_le_slice(b);
                } else if code >= quant.num_codes() {
                    return Err(CodecError::Corrupt("bin code out of range"));
                } else {
                    work.as_mut_slice()[off] = quant.reconstruct(code, pred);
                }
            }
        }
        Ok(())
    }
}

/// Estimate which predictor fits a block better by probing a subset of
/// points on the original data (SZ2's sampling-based selection).
fn select_predictor<T: Scalar>(
    data: &NdArray<T>,
    region: &Region,
    model: &RegressionModel,
    abs_eb: f64,
) -> BlockPredictor {
    let shape = data.shape();
    let nd = shape.ndim();
    let sub = Shape::new(region.size());
    let mut l1_err = 0.0f64;
    let mut l2_err = 0.0f64;
    let mut reg_err = 0.0f64;
    // Probe every 3rd point for speed; the Lorenzo variants are
    // approximated on the original values (as SZ2 does during its
    // selection phase).
    for (k, local) in sub.indices().enumerate() {
        if k % 3 != 0 {
            continue;
        }
        let mut gidx = [0usize; qoz_tensor::MAX_NDIM];
        for d in 0..nd {
            gidx[d] = region.origin()[d] + local[d];
        }
        let v = data.get(&gidx[..nd]).to_f64();
        l1_err += (v - lorenzo_predict(data.as_slice(), shape, &gidx[..nd])).abs();
        l2_err += (v - lorenzo2_predict(data.as_slice(), shape, &gidx[..nd])).abs();
        reg_err += (v - model.predict(&local[..nd])).abs();
    }
    // The probes above run on noise-free ORIGINAL values, but execution
    // predicts from reconstructed neighbours carrying up to `abs_eb` of
    // quantization noise, which the stencils amplify by the RMS of their
    // coefficients: sqrt(2^d - 1) for first-order Lorenzo, sqrt(6^d - 1)
    // for second-order. Without this term the second-order stencil looks
    // deceptively good at coarse bounds and destroys the compression
    // ratio (its coefficient mass is ~6x larger).
    let noise = 0.5 * abs_eb;
    let amp1 = ((2f64.powi(nd as i32)) - 1.0).sqrt();
    let amp2 = ((6f64.powi(nd as i32)) - 1.0).sqrt();
    let probes = (sub.len() / 3).max(1) as f64;
    let l1 = l1_err + noise * amp1 * probes;
    let l2 = l2_err + noise * amp2 * probes;
    let rg = reg_err + noise * probes; // quantized-coefficient noise ~ eb
    if rg <= l1 && rg <= l2 {
        BlockPredictor::Regression
    } else if l2 < l1 {
        BlockPredictor::Lorenzo2
    } else {
        BlockPredictor::Lorenzo
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_metrics::verify_error_bound;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn roundtrip_respects_bound_all_datasets() {
        for ds in Dataset::ALL {
            let data = ds.generate(SizeClass::Tiny, 0);
            let bound = ErrorBound::Rel(1e-3);
            let abs = bound.absolute(&data);
            let blob = Sz2::default().compress(&data, bound);
            let recon: NdArray<f32> = Sz2::default().decompress(&blob).unwrap();
            assert_eq!(
                verify_error_bound(&data, &recon, abs),
                None,
                "{}",
                ds.name()
            );
        }
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::from_fn(Shape::d2(40, 40), |i| {
            (i[0] as f64 * 0.17).sin() + i[1] as f64 * 0.03
        });
        let blob = Sz2::default().compress(&data, ErrorBound::Abs(1e-5));
        let recon: NdArray<f64> = Sz2::default().decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-5);
    }

    #[test]
    fn regression_chosen_for_gradient_blocks() {
        // A pure gradient is exactly affine: regression should dominate
        // and the whole stream should compress extremely well.
        let data = NdArray::from_fn(Shape::d2(48, 48), |i| {
            (i[0] as f32) * 0.5 - (i[1] as f32) * 0.25
        });
        let blob = Sz2::default().compress(&data, ErrorBound::Abs(1e-4));
        let recon: NdArray<f32> = Sz2::default().decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-4);
        let cr = (data.len() * 4) as f64 / blob.len() as f64;
        assert!(cr > 8.0, "gradient should compress well, CR {cr:.1}");
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let data = NdArray::from_fn(Shape::d1(1000), |i| ((i[0] as f32) * 0.02).sin());
        let blob = Sz2::default().compress(&data, ErrorBound::Abs(1e-3));
        let recon: NdArray<f32> = Sz2::default().decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-3);
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = NdArray::from_fn(Shape::d2(30, 30), |i| (i[0] * i[1]) as f32);
        let blob = Sz2::default().compress(&data, ErrorBound::Abs(1e-2));
        for cut in [5, blob.len() / 3, blob.len() - 1] {
            assert!(Compressor::<f32>::decompress(&Sz2::default(), &blob[..cut]).is_err());
        }
    }

    #[test]
    fn custom_block_side_roundtrip() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 1);
        let sz2 = Sz2 {
            block_side: Some(9),
        };
        let blob = sz2.compress(&data, ErrorBound::Rel(1e-3));
        let recon: NdArray<f32> = sz2.decompress(&blob).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&data);
        assert!(data.max_abs_diff(&recon) <= abs);
    }

    #[test]
    fn odd_shapes_roundtrip() {
        for dims in [vec![7usize, 13], vec![5, 5, 5], vec![1, 17], vec![19]] {
            let shape = Shape::new(&dims);
            let data = NdArray::from_fn(shape, |i| (i[0] as f32 + 0.5).ln());
            let blob = Sz2::default().compress(&data, ErrorBound::Abs(1e-3));
            let recon: NdArray<f32> = Sz2::default().decompress(&blob).unwrap();
            assert!(data.max_abs_diff(&recon) <= 1e-3, "dims {dims:?}");
        }
    }
}
