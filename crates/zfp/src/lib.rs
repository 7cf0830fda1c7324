//! ZFP-style transform-based error-bounded lossy compressor (baseline).
//!
//! ZFP (Lindstrom, TVCG 2014) compresses d-dimensional arrays in 4^d
//! blocks: block-floating-point exponent alignment, a decorrelating
//! integer transform, total-degree coefficient reordering and embedded
//! bitplane coding, truncated where the accuracy target is met. This
//! reimplementation follows that pipeline with one documented
//! substitution (`DESIGN.md` §3): the decorrelating transform is a
//! two-level *reversible integer S-transform* (integer Haar) rather than
//! ZFP's non-orthogonal lifting. Exact reversibility lets the encoder
//! verify the error bound by decoding its own block and adding bitplanes
//! until the bound holds — a guarantee ZFP's fixed-accuracy mode provides
//! analytically.
//!
//! Like ZFP, this codec is transform-based: its compression ratio is
//! largely insensitive to prediction smoothness, it is fast, and it
//! underperforms prediction-based codecs at matched error bounds on the
//! paper's datasets (Table III).

pub mod embedded;
pub mod reorder;
pub mod transform;

use qoz_codec::stream::{self, Compressor, CompressorId, ErrorBound, Header};
use qoz_codec::{BitReader, BitWriter, ByteReader, ByteWriter, CodecError, Result, Scratch};
use qoz_tensor::{NdArray, Region, Scalar, Shape, MAX_NDIM};

/// Block side length (fixed at 4, as in ZFP).
pub const BLOCK_SIDE: usize = 4;

/// Fixed-point precision: value bits kept when aligning to the block
/// exponent. 30 bits comfortably exceeds f32 mantissa precision while
/// leaving i64 headroom for the transform's dynamic-range growth.
const PRECISION: i32 = 30;
/// Extra precision for f64 inputs.
const PRECISION_F64: i32 = 52;

/// Per-block stream tags.
const BLOCK_ZERO: u8 = 0;
const BLOCK_CODED: u8 = 1;
const BLOCK_RAW: u8 = 2;

/// The ZFP-style compressor.
#[derive(Debug, Clone, Default)]
pub struct Zfp;

impl Zfp {
    fn precision<T: Scalar>() -> i32 {
        if T::BYTES == 4 {
            PRECISION
        } else {
            PRECISION_F64
        }
    }
}

impl<T: Scalar> Compressor<T> for Zfp {
    fn id(&self) -> CompressorId {
        CompressorId::Zfp
    }

    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        _scratch: &mut Scratch<T>,
    ) -> Vec<u8> {
        let abs_eb = bound.absolute(data);
        let shape = data.shape();
        let nd = shape.ndim();
        let n = BLOCK_SIDE.pow(nd as u32);
        let perm = reorder::degree_permutation(nd);
        let prec = Self::precision::<T>();

        let blocks = Region::tile(shape, BLOCK_SIDE);
        let mut tags = ByteWriter::new();
        let mut raw = ByteWriter::new();
        let mut bits = BitWriter::new();

        let mut vals = vec![0f64; n];
        let mut ints = vec![0i64; n];
        for region in &blocks {
            gather_padded(data, region, &mut vals);
            if vals.iter().any(|v| !v.is_finite()) {
                tags.put_u8(BLOCK_RAW);
                write_raw(data, region, &mut raw);
                continue;
            }
            let maxabs = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if maxabs == 0.0 {
                tags.put_u8(BLOCK_ZERO);
                continue;
            }
            // Block-floating-point alignment.
            let e = maxabs.log2().floor() as i32;
            let scale = 2f64.powi(prec - e);
            for (i, &v) in vals.iter().enumerate() {
                ints[i] = (v * scale).round() as i64;
            }
            transform::forward(&mut ints, nd);
            let coeffs: Vec<i64> = perm.iter().map(|&p| ints[p]).collect();

            // Error budget in integer units; start from an analytic
            // estimate of the needed bitplanes, then verify by decoding.
            let eb_int = abs_eb * scale;
            let nb = coeffs
                .iter()
                .map(|&c| 64 - c.unsigned_abs().leading_zeros())
                .max()
                .unwrap_or(0) as i32;
            if nb > max_planes(prec, nd) as i32 {
                // Cannot happen for finite aligned inputs (the transform
                // grows magnitudes by at most 2 bits per dimension), but
                // guard anyway: store raw rather than risk overflow.
                tags.put_u8(BLOCK_RAW);
                write_raw(data, region, &mut raw);
                continue;
            }
            // Start from the *optimistic* estimate (truncation step equal
            // to the integer budget) and let the decode-verify loop walk
            // down as needed; typical blocks settle within 1-2 probes,
            // and this saves several bitplanes per block over the
            // worst-case analytic bound. The stream keeps planes
            // `[k+1, nb)`, so verification models truncation at `k+1` —
            // exactly what the decoder reconstructs. `k = -1` keeps every
            // plane (lossless in the integer domain); if even that fails
            // (float->int rounding exceeds the bound) the block is raw.
            let mut k = (eb_int.log2().floor() as i32).clamp(-1, nb);
            loop {
                let keep_low = (k + 1).max(0) as u32;
                if verify_block::<T>(
                    &coeffs, keep_low, nb as u32, &perm, nd, &vals, scale, abs_eb,
                ) {
                    break;
                }
                if k < 0 {
                    k = i32::MIN;
                    break;
                }
                k -= 1;
            }
            if k == i32::MIN {
                tags.put_u8(BLOCK_RAW);
                write_raw(data, region, &mut raw);
                continue;
            }

            tags.put_u8(BLOCK_CODED);
            // Block header inside the bitstream: exponent (16b), kept-low
            // plane k+1 as unsigned (6b), plane count nb (7b).
            bits.put_bits((e + 0x8000) as u64, 16);
            bits.put_bits((k + 1) as u64, 6);
            bits.put_bits(nb as u64, 7);
            embedded::encode_planes(&coeffs, (k + 1).max(0) as u32, nb as u32, &mut bits);
        }

        let mut w = ByteWriter::with_capacity(data.len() / 4 + 64);
        stream::write_header(
            &mut w,
            &Header {
                compressor: CompressorId::Zfp,
                scalar_tag: T::TYPE_TAG,
                shape,
                abs_eb,
                temporal: None,
            },
        );
        w.put_len_prefixed(&qoz_codec::lossless_compress(&tags.finish()));
        w.put_len_prefixed(&raw.finish());
        w.put_len_prefixed(&bits.finish());
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
            stream::check_stream_header::<T>(&mut r, CompressorId::Zfp, "not a ZFP stream")?;
        let shape = header.shape;
        let nd = shape.ndim();
        let n = BLOCK_SIDE.pow(nd as u32);
        let perm = reorder::degree_permutation(nd);
        let prec = Self::precision::<T>();

        let tags = qoz_codec::lossless_decompress(r.get_len_prefixed()?)?;
        let raw = r.get_len_prefixed()?;
        let planes = r.get_len_prefixed()?;
        let mut raw_r = ByteReader::new(raw);
        let mut bits = BitReader::new(planes);

        if tags.len() < Region::tile_count(shape, BLOCK_SIDE) {
            return Err(CodecError::UnexpectedEof);
        }
        let blocks = Region::tile(shape, BLOCK_SIDE);
        out.reset_zeros(shape);
        let mut ints = vec![0i64; n];
        for (region, &tag) in blocks.iter().zip(tags.iter()) {
            match tag {
                BLOCK_ZERO => { /* already zeros */ }
                BLOCK_RAW => read_raw(out, region, &mut raw_r)?,
                BLOCK_CODED => {
                    let e = bits.get_bits(16)? as i32 - 0x8000;
                    let k1 = bits.get_bits(6)? as u32;
                    let nb = bits.get_bits(7)? as u32;
                    // `k1 == nb + 1` is legal: a loose bound can drop every
                    // plane (the block decodes to all-zero coefficients).
                    // The plane count is capped at what a legitimate
                    // encoder can produce so corrupted headers cannot
                    // drive the inverse transform into i64 overflow.
                    if nb > max_planes(prec, nd) || k1 > nb + 1 {
                        return Err(CodecError::Corrupt("bad block plane header"));
                    }
                    let coeffs = embedded::decode_planes(n, k1, nb, &mut bits)?;
                    for (i, &p) in perm.iter().enumerate() {
                        ints[p] = coeffs[i];
                    }
                    transform::inverse(&mut ints, nd);
                    let scale = 2f64.powi(prec - e);
                    scatter_block(out, region, &ints, scale);
                }
                _ => return Err(CodecError::Corrupt("bad block tag")),
            }
        }
        Ok(())
    }
}

/// Largest bitplane count a legitimate block can produce: aligned values
/// occupy `prec + 1` bits and each of the `2 * nd` S-transform levels can
/// grow magnitudes by one bit.
fn max_planes(prec: i32, nd: usize) -> u32 {
    (prec + 2 * nd as i32 + 2) as u32
}

/// Encode-side verification: decode the truncated coefficients exactly
/// as the decompressor will — including the final rounding into `T` —
/// and check every sample meets the bound.
#[allow(clippy::too_many_arguments)]
fn verify_block<T: Scalar>(
    coeffs: &[i64],
    keep_low: u32,
    nb: u32,
    perm: &[usize],
    nd: usize,
    vals: &[f64],
    scale: f64,
    abs_eb: f64,
) -> bool {
    let mask = if keep_low >= 63 {
        0
    } else {
        !((1i64 << keep_low) - 1)
    };
    let _ = nb;
    let mut ints = vec![0i64; coeffs.len()];
    for (i, &p) in perm.iter().enumerate() {
        let c = coeffs[i];
        // Truncation matches the embedded coder: magnitude bits below
        // `keep_low` are dropped, sign preserved.
        ints[p] = c.signum() * (c.abs() & mask);
    }
    transform::inverse(&mut ints, nd);
    ints.iter().zip(vals).all(|(&i, &v)| {
        let recon = T::from_f64(i as f64 / scale);
        (recon.to_f64() - v).abs() <= abs_eb
    })
}

/// Gather a (possibly partial) block, padding by edge replication.
fn gather_padded<T: Scalar>(data: &NdArray<T>, region: &Region, out: &mut [f64]) {
    let nd = region.ndim();
    let full = Shape::new(&vec![BLOCK_SIDE; nd]);
    for (i, idx) in full.indices().enumerate() {
        let mut g = [0usize; MAX_NDIM];
        for d in 0..nd {
            let clipped = idx[d].min(region.size()[d] - 1);
            g[d] = region.origin()[d] + clipped;
        }
        out[i] = data.get(&g[..nd]).to_f64();
    }
}

/// Write the exact bytes of a block region (non-finite or incompressible
/// blocks).
fn write_raw<T: Scalar>(data: &NdArray<T>, region: &Region, w: &mut ByteWriter) {
    let nd = region.ndim();
    let sub = Shape::new(region.size());
    for idx in sub.indices() {
        let mut g = [0usize; MAX_NDIM];
        for d in 0..nd {
            g[d] = region.origin()[d] + idx[d];
        }
        w.put_bytes(data.get(&g[..nd]).le_bytes().as_ref());
    }
}

/// Mirror of [`write_raw`].
fn read_raw<T: Scalar>(out: &mut NdArray<T>, region: &Region, r: &mut ByteReader) -> Result<()> {
    let nd = region.ndim();
    let sub = Shape::new(region.size());
    for idx in sub.indices() {
        let mut g = [0usize; MAX_NDIM];
        for d in 0..nd {
            g[d] = region.origin()[d] + idx[d];
        }
        let v = T::from_le_slice(r.get_bytes(T::BYTES)?);
        out.set(&g[..nd], v);
    }
    Ok(())
}

/// Write reconstructed integers back to the valid region of a block.
fn scatter_block<T: Scalar>(out: &mut NdArray<T>, region: &Region, ints: &[i64], scale: f64) {
    let nd = region.ndim();
    let full = Shape::new(&vec![BLOCK_SIDE; nd]);
    for (i, idx) in full.indices().enumerate() {
        if (0..nd).any(|d| idx[d] >= region.size()[d]) {
            continue; // padding
        }
        let mut g = [0usize; MAX_NDIM];
        for d in 0..nd {
            g[d] = region.origin()[d] + idx[d];
        }
        out.set(&g[..nd], T::from_f64(ints[i] as f64 / scale));
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
            for eps in [1e-2, 1e-4] {
                let bound = ErrorBound::Rel(eps);
                let abs = bound.absolute(&data);
                let blob = Zfp.compress(&data, bound);
                let recon: NdArray<f32> = Zfp.decompress(&blob).unwrap();
                assert_eq!(
                    verify_error_bound(&data, &recon, abs),
                    None,
                    "{} eps {eps}",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn f64_tight_bound_roundtrip() {
        let data = NdArray::from_fn(Shape::d3(17, 18, 19), |i| {
            (i[0] as f64 * 0.3).sin() * (i[1] as f64 * 0.2).cos() + i[2] as f64 * 1e-3
        });
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-9));
        let recon: NdArray<f64> = Zfp.decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-9);
    }

    #[test]
    fn zero_blocks_cost_almost_nothing() {
        let data = NdArray::<f32>::zeros(Shape::d2(64, 64));
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-3));
        assert!(
            blob.len() < 200,
            "all-zero input should be tiny: {}",
            blob.len()
        );
        let recon: NdArray<f32> = Zfp.decompress(&blob).unwrap();
        assert!(recon.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_finite_blocks_stored_raw() {
        let mut data = NdArray::from_fn(Shape::d2(8, 8), |i| (i[0] + i[1]) as f32);
        data.as_mut_slice()[5] = f32::NAN;
        data.as_mut_slice()[37] = f32::NEG_INFINITY;
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-3));
        let recon: NdArray<f32> = Zfp.decompress(&blob).unwrap();
        assert!(recon.as_slice()[5].is_nan());
        assert_eq!(recon.as_slice()[37], f32::NEG_INFINITY);
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            if a.is_finite() {
                assert!((a - b).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn partial_edge_blocks_roundtrip() {
        let data = NdArray::from_fn(Shape::d2(9, 11), |i| (i[0] * 11 + i[1]) as f32 * 0.37);
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-2));
        let recon: NdArray<f32> = Zfp.decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-2);
    }

    #[test]
    fn loose_bound_compresses_better_than_tight() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let loose = Zfp.compress(&data, ErrorBound::Rel(1e-2)).len();
        let tight = Zfp.compress(&data, ErrorBound::Rel(1e-5)).len();
        assert!(loose < tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = NdArray::from_fn(Shape::d1(64), |i| (i[0] as f32).sqrt());
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-3));
        for cut in [4, blob.len() / 2] {
            assert!(Compressor::<f32>::decompress(&Zfp, &blob[..cut]).is_err());
        }
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let data = NdArray::from_fn(Shape::d1(101), |i| ((i[0] as f32) * 0.11).sin());
        let blob = Zfp.compress(&data, ErrorBound::Abs(1e-4));
        let recon: NdArray<f32> = Zfp.decompress(&blob).unwrap();
        assert!(data.max_abs_diff(&recon) <= 1e-4);
    }
}
