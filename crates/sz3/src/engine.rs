//! The shared interpolation compression engine.
//!
//! Both SZ3 (fixed spec) and QoZ (tuned spec) run the same two-phase
//! procedure over an [`InterpSpec`]:
//!
//! 1. **Base grid** — anchored specs store every anchor-grid point
//!    losslessly (QoZ §V-B1); unanchored specs quantize the sparse corner
//!    grid against a zero prediction (SZ3's long-range start).
//! 2. **Level sweep** — levels `max_level .. 1` are traversed with the
//!    per-level interpolator; each predicted point is quantized with the
//!    per-level error bound and immediately overwritten with its
//!    reconstruction so later predictions see decompressor-identical
//!    values.
//!
//! [`compress_with_spec`] additionally returns the full reconstruction
//! and the mean absolute prediction error — the two quantities QoZ's
//! online tuner needs — so trial compressions cost a single pass.

use crate::spec::InterpSpec;
use qoz_codec::simd::KernelPath;
use qoz_codec::stream::{self, Header};
use qoz_codec::{ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, Scratch};
use qoz_predict::{
    base_point_count, base_stride, for_each_base_point, level_point_count, traverse_level,
};
use qoz_tensor::{NdArray, Scalar, Shape};

/// Everything produced by one compression pass.
#[derive(Debug, Clone)]
pub struct CompressOutput<T: Scalar> {
    /// Quantization codes in traversal order (0 = unpredictable).
    pub bins: Vec<u32>,
    /// Exact little-endian values for unpredictable points, in order.
    pub unpred: Vec<u8>,
    /// Exact little-endian anchor values (empty when unanchored).
    pub anchors: Vec<u8>,
    /// The reconstruction the decompressor will produce (bit-identical).
    pub recon: NdArray<T>,
    /// Sum of `|value - prediction|` over all interpolated points.
    pub sum_abs_pred_err: f64,
    /// Number of interpolated points (for mean error computation).
    pub pred_count: u64,
}

impl<T: Scalar> CompressOutput<T> {
    /// Mean absolute prediction error (the selection criterion of
    /// Algorithm 1).
    pub fn mean_abs_pred_err(&self) -> f64 {
        if self.pred_count == 0 {
            0.0
        } else {
            self.sum_abs_pred_err / self.pred_count as f64
        }
    }
}

/// Per-pass statistics returned by the scratch-based engine entry point
/// (the owned-buffer fields of [`CompressOutput`] live in the arena).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Sum of `|value - prediction|` over all interpolated points.
    pub sum_abs_pred_err: f64,
    /// Number of interpolated points.
    pub pred_count: u64,
}

impl EngineStats {
    /// Mean absolute prediction error (the selection criterion of
    /// Algorithm 1).
    pub fn mean_abs_pred_err(&self) -> f64 {
        if self.pred_count == 0 {
            0.0
        } else {
            self.sum_abs_pred_err / self.pred_count as f64
        }
    }
}

/// Compress `data` according to `spec`.
pub fn compress_with_spec<T: Scalar>(data: &NdArray<T>, spec: &InterpSpec) -> CompressOutput<T> {
    let mut s = Scratch::new();
    let stats = compress_with_spec_into(data, spec, &mut s);
    CompressOutput {
        bins: s.bins,
        unpred: s.unpred,
        anchors: s.anchors,
        recon: NdArray::from_vec(data.shape(), s.work),
        sum_abs_pred_err: stats.sum_abs_pred_err,
        pred_count: stats.pred_count,
    }
}

/// Scratch-based core of [`compress_with_spec`]: stages the pass in a
/// reusable arena instead of allocating fresh buffers.
///
/// On return, `scratch.bins`/`scratch.unpred`/`scratch.anchors` hold the
/// three engine streams and `scratch.work` holds the
/// decompressor-identical reconstruction. The contents are exactly those
/// [`compress_with_spec`] would produce (it is a thin wrapper over this
/// function); buffers re-grow safely when `data` is larger or shaped
/// differently than the previous call.
pub fn compress_with_spec_into<T: Scalar>(
    data: &NdArray<T>,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
) -> EngineStats {
    let _span = qoz_telemetry::stages().predict_quantize.start();
    let shape = data.shape();
    scratch.clear();
    scratch.load_work(data.as_slice());
    // Every bin is written by index into a buffer sized up front, so the
    // per-point loop keeps its cursor in a register instead of a `Vec`
    // length it must load and store around a possible reallocation.
    let n_bins = bin_count(shape, spec);
    scratch.bins.resize(n_bins, 0);
    let bins = &mut scratch.bins[..];
    let mut next_bin = 0usize;
    let mut unpred = ByteWriter::from_vec(std::mem::take(&mut scratch.unpred));
    let mut anchors = ByteWriter::from_vec(std::mem::take(&mut scratch.anchors));
    let mut stats = EngineStats::default();

    match spec.anchor_stride {
        Some(a) => {
            // Anchors are stored losslessly and left untouched in `work`.
            let buf = &scratch.work[..];
            for_each_base_point(shape, a as usize, |off| {
                anchors.put_bytes(buf[off].le_bytes().as_ref());
            });
        }
        None => {
            // Sparse corner grid, quantized against a zero prediction with
            // the tightest bound so no level's contract is violated.
            let q = LinearQuantizer::with_radius(spec.tightest_eb(), spec.quant_radius);
            let stride = base_stride(spec.max_level);
            let buf = &mut scratch.work[..];
            for_each_base_point(shape, stride, |off| {
                let v = buf[off];
                let qz = q.quantize(v, 0.0);
                if qz.code == 0 {
                    unpred.put_bytes(v.le_bytes().as_ref());
                }
                bins[next_bin] = qz.code;
                next_bin += 1;
                buf[off] = qz.reconstructed;
            });
        }
    }

    for level in (1..=spec.max_level).rev() {
        let q = LinearQuantizer::with_radius(spec.eb_of(level), spec.quant_radius);
        let cfg = spec.config_of(level);
        traverse_level(
            &mut scratch.work[..],
            shape,
            level,
            cfg,
            &mut |buf, off, pred| {
                let v = buf[off];
                let err = v.to_f64() - pred;
                if err.is_finite() {
                    stats.sum_abs_pred_err += err.abs();
                }
                stats.pred_count += 1;
                let qz = q.quantize(v, pred);
                if qz.code == 0 {
                    unpred.put_bytes(v.le_bytes().as_ref());
                }
                bins[next_bin] = qz.code;
                next_bin += 1;
                buf[off] = qz.reconstructed;
            },
        );
    }
    assert_eq!(next_bin, n_bins, "the traversal visits every counted point");

    scratch.unpred = unpred.into_vec();
    scratch.anchors = anchors.into_vec();
    stats
}

/// [`compress_with_spec_into`]; `_path` is ignored. Kept because
/// `qozbench`'s traced split path calls it.
pub fn compress_with_spec_path<T: Scalar>(
    data: &NdArray<T>,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
    _path: KernelPath,
) -> EngineStats {
    compress_with_spec_into(data, spec, scratch)
}

/// Assemble a full self-describing stream from engine output staged in
/// `scratch` (written there by [`compress_with_spec_into`]): common
/// header, serialized spec, then the entropy-coded bins and the two
/// packed side streams. Shared by the SZ3 and QoZ compressors so the
/// framing exists exactly once.
pub fn write_stream<T: Scalar>(
    header: &Header,
    spec: &InterpSpec,
    scratch: &mut Scratch<T>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(scratch.bins.len() / 4 + 64);
    stream::write_header(&mut w, header);
    spec.write(&mut w);
    {
        let _span = qoz_telemetry::stages().encode.start();
        qoz_codec::encode_bins_with(&scratch.bins, &mut scratch.entropy, &mut scratch.section);
    }
    w.put_len_prefixed(&scratch.section);
    {
        let _span = qoz_telemetry::stages().entropy.start();
        qoz_codec::lossless_compress_with(
            &scratch.unpred,
            &mut scratch.entropy,
            &mut scratch.section,
        );
        w.put_len_prefixed(&scratch.section);
        qoz_codec::lossless_compress_with(
            &scratch.anchors,
            &mut scratch.entropy,
            &mut scratch.section,
        );
    }
    w.put_len_prefixed(&scratch.section);
    w.finish()
}

/// Every decoder's header check, re-exported beside the engine's stream
/// framing for the engine-backed decoders and `qozbench`'s split path.
pub use qoz_codec::stream::check_stream_header;

/// Decode the body of a stream assembled by [`write_stream`] — spec,
/// entropy-coded bins, packed side streams — staging every section in
/// `scratch`, then rebuild the array into `out` (reshaped in place).
/// The read-side mirror of [`compress_with_spec_into`] +
/// [`write_stream`].
pub fn read_stream_into<T: Scalar>(
    r: &mut ByteReader,
    header: &Header,
    scratch: &mut Scratch<T>,
    out: &mut NdArray<T>,
) -> Result<()> {
    let spec = InterpSpec::read(r, header.shape)?;
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
    qoz_codec::lossless_decompress_with(
        r.get_len_prefixed()?,
        &mut scratch.entropy,
        &mut scratch.anchors,
    )?;
    decompress_with_spec_into(
        header.shape,
        &spec,
        &scratch.bins,
        &scratch.unpred,
        &scratch.anchors,
        out,
    )?;
    Ok(())
}

/// Number of bins [`compress_with_spec_into`] emits for `shape` under
/// `spec`: the quantized corner grid of an unanchored spec plus every
/// point each level predicts.
fn bin_count(shape: Shape, spec: &InterpSpec) -> usize {
    let base_bins = match spec.anchor_stride {
        Some(_) => 0,
        None => base_point_count(shape, base_stride(spec.max_level)),
    };
    let level_bins: usize = (1..=spec.max_level)
        .map(|level| level_point_count(shape, level, spec.config_of(level)))
        .sum();
    base_bins + level_bins
}

/// Check that `bins` and `anchors` hold exactly what
/// [`compress_with_spec_into`] emits for `shape` under `spec`, so a
/// header declaring a shape its payload cannot fill is an error before
/// anything is sized from it.
fn check_sections<T: Scalar>(
    shape: Shape,
    spec: &InterpSpec,
    bins: &[u32],
    anchors: &[u8],
) -> Result<()> {
    let anchor_bytes = match spec.anchor_stride {
        Some(a) => base_point_count(shape, a as usize) * T::BYTES,
        None => 0,
    };
    if bins.len() != bin_count(shape, spec) {
        return Err(CodecError::Corrupt("bin count disagrees with shape"));
    }
    if anchors.len() != anchor_bytes {
        return Err(CodecError::Corrupt("anchor section disagrees with shape"));
    }
    Ok(())
}

/// Mirror of [`compress_with_spec_into`]: rebuild the array from the
/// three engine streams into a caller-provided array. `out` is reshaped
/// to `shape` (reusing its allocation when capacity allows, zero-filled
/// first) and rebuilt in place. Returns `true` when `out`'s backing
/// buffer had to grow, so a caller that owns the destination can tell
/// a reused one from a fresh one.
///
/// The section lengths are checked against `shape` before `out` is
/// touched.
pub fn decompress_with_spec_into<T: Scalar>(
    shape: Shape,
    spec: &InterpSpec,
    bins: &[u32],
    unpred: &[u8],
    anchors: &[u8],
    out: &mut NdArray<T>,
) -> Result<bool> {
    check_sections::<T>(shape, spec, bins, anchors)?;
    let grew = out.reset_zeros(shape);
    let work = out;
    let mut bin_pos = 0usize;
    let mut unpred_r = ByteReader::new(unpred);
    let mut failed: Option<CodecError> = None;

    match spec.anchor_stride {
        Some(a) => {
            let mut ar = ByteReader::new(anchors);
            let buf = work.as_mut_slice();
            for_each_base_point(shape, a as usize, |off| {
                if failed.is_some() {
                    return;
                }
                match ar.get_bytes(T::BYTES) {
                    Ok(b) => buf[off] = T::from_le_slice(b),
                    Err(e) => failed = Some(e),
                }
            });
        }
        None => {
            let q = LinearQuantizer::with_radius(spec.tightest_eb(), spec.quant_radius);
            let stride = base_stride(spec.max_level);
            let buf = work.as_mut_slice();
            for_each_base_point(shape, stride, |off| {
                if failed.is_some() {
                    return;
                }
                let code = match bins.get(bin_pos) {
                    Some(&c) => c,
                    None => {
                        failed = Some(CodecError::UnexpectedEof);
                        return;
                    }
                };
                bin_pos += 1;
                if code == 0 {
                    match unpred_r.get_bytes(T::BYTES) {
                        Ok(b) => buf[off] = T::from_le_slice(b),
                        Err(e) => failed = Some(e),
                    }
                } else if code >= q.num_codes() {
                    failed = Some(CodecError::Corrupt("bin code out of range"));
                } else {
                    buf[off] = q.reconstruct(code, 0.0);
                }
            });
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }

    for level in (1..=spec.max_level).rev() {
        let q = LinearQuantizer::with_radius(spec.eb_of(level), spec.quant_radius);
        let cfg = spec.config_of(level);
        traverse_level(
            work.as_mut_slice(),
            shape,
            level,
            cfg,
            &mut |buf, off, pred| {
                if failed.is_some() {
                    return;
                }
                let code = match bins.get(bin_pos) {
                    Some(&c) => c,
                    None => {
                        failed = Some(CodecError::UnexpectedEof);
                        return;
                    }
                };
                bin_pos += 1;
                if code == 0 {
                    match unpred_r.get_bytes(T::BYTES) {
                        Ok(b) => buf[off] = T::from_le_slice(b),
                        Err(e) => failed = Some(e),
                    }
                } else if code >= q.num_codes() {
                    failed = Some(CodecError::Corrupt("bin code out of range"));
                } else {
                    buf[off] = q.reconstruct(code, pred);
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
    }

    if bin_pos != bins.len() {
        return Err(CodecError::Corrupt("trailing quantization bins"));
    }
    Ok(grew)
}

/// [`decompress_with_spec_into`]; `_path` is ignored. Kept because
/// `qozbench`'s traced split path calls it.
pub fn decompress_with_spec_path<T: Scalar>(
    shape: Shape,
    spec: &InterpSpec,
    bins: &[u32],
    unpred: &[u8],
    anchors: &[u8],
    out: &mut NdArray<T>,
    _path: KernelPath,
) -> Result<bool> {
    decompress_with_spec_into(shape, spec, bins, unpred, anchors, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_predict::LevelConfig;

    fn smooth_3d(n: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            (i[0] as f64 * 0.2).sin() + (i[1] as f64 * 0.15).cos() + i[2] as f64 * 0.01
        })
    }

    /// [`decompress_with_spec_into`] into an empty array.
    fn decode(
        shape: Shape,
        spec: &InterpSpec,
        bins: &[u32],
        unpred: &[u8],
        anchors: &[u8],
    ) -> Result<NdArray<f64>> {
        let mut out = NdArray::zeros(Shape::d1(1));
        decompress_with_spec_into(shape, spec, bins, unpred, anchors, &mut out)?;
        Ok(out)
    }

    #[test]
    fn destination_growth_is_reported_only_when_out_grows() {
        let small = smooth_3d(9);
        let big = smooth_3d(13);
        let spec_of = |d: &NdArray<f64>| InterpSpec::sz3(d.shape(), 1e-3, LevelConfig::default());
        let (small_spec, big_spec) = (spec_of(&small), spec_of(&big));
        let (s, b) = (
            compress_with_spec(&small, &small_spec),
            compress_with_spec(&big, &big_spec),
        );
        let mut out = NdArray::<f64>::zeros(Shape::d1(1));
        let mut run = |shape, spec, c: &CompressOutput<f64>| {
            let grew =
                decompress_with_spec_into(shape, spec, &c.bins, &c.unpred, &c.anchors, &mut out)
                    .unwrap();
            assert_eq!(out.as_slice(), c.recon.as_slice());
            grew
        };
        assert!(run(small.shape(), &small_spec, &s), "fresh destination");
        assert!(!run(small.shape(), &small_spec, &s), "same-shape repeat");
        assert!(run(big.shape(), &big_spec, &b), "larger shape");
    }

    #[test]
    fn recon_matches_decompressor_bit_exactly() {
        let data = smooth_3d(17);
        for spec in [
            InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default()),
            InterpSpec::anchored(8, 1e-3, LevelConfig::default()),
        ] {
            let out = compress_with_spec(&data, &spec);
            let recon = decode(data.shape(), &spec, &out.bins, &out.unpred, &out.anchors).unwrap();
            assert_eq!(out.recon.as_slice(), recon.as_slice(), "spec {spec:?}");
        }
    }

    #[test]
    fn bound_respected_per_level_spec() {
        let data = smooth_3d(20);
        let mut spec = InterpSpec::anchored(16, 1e-2, LevelConfig::default());
        // Tighter bounds on higher levels, like QoZ's alpha/beta scheme.
        spec.level_ebs = vec![1e-2, 5e-3, 2.5e-3, 1.25e-3];
        let out = compress_with_spec(&data, &spec);
        // The global contract is the loosest (level-1) bound.
        assert!(data.max_abs_diff(&out.recon) <= 1e-2 + 1e-14);
    }

    #[test]
    fn anchors_are_lossless() {
        let data = smooth_3d(16);
        let spec = InterpSpec::anchored(4, 1e-1, LevelConfig::default());
        let out = compress_with_spec(&data, &spec);
        for_each_base_point(data.shape(), 4, |off| {
            assert_eq!(out.recon.as_slice()[off], data.as_slice()[off]);
        });
    }

    #[test]
    fn bin_count_matches_point_count() {
        let data = smooth_3d(10);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let out = compress_with_spec(&data, &spec);
        assert_eq!(out.bins.len(), data.len());

        let anchored = InterpSpec::anchored(4, 1e-3, LevelConfig::default());
        let out2 = compress_with_spec(&data, &anchored);
        let n_anchors = qoz_predict::traverse::base_point_count(data.shape(), 4);
        assert_eq!(out2.bins.len(), data.len() - n_anchors);
        assert_eq!(out2.anchors.len(), n_anchors * 8);
    }

    #[test]
    fn missing_bins_detected() {
        let data = smooth_3d(8);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let out = compress_with_spec(&data, &spec);
        let short = &out.bins[..out.bins.len() - 1];
        assert!(decode(data.shape(), &spec, short, &out.unpred, &out.anchors).is_err());
    }

    #[test]
    fn trailing_bins_detected() {
        let data = smooth_3d(8);
        let spec = InterpSpec::sz3(data.shape(), 1e-3, LevelConfig::default());
        let out = compress_with_spec(&data, &spec);
        let mut long = out.bins.clone();
        long.push(32768);
        assert!(decode(data.shape(), &spec, &long, &out.unpred, &out.anchors).is_err());
    }

    #[test]
    fn truncated_unpred_detected() {
        // Use random-ish incompressible data to force unpredictables.
        let data = NdArray::from_fn(Shape::d1(200), |i| {
            let x = qoz_datagen::noise::splitmix64(i[0] as u64);
            (x as f64 / u64::MAX as f64) * 1e6
        });
        let spec = InterpSpec::sz3(data.shape(), 1e-12, LevelConfig::default());
        let out = compress_with_spec(&data, &spec);
        assert!(!out.unpred.is_empty(), "test needs unpredictable points");
        assert!(decode(
            data.shape(),
            &spec,
            &out.bins,
            &out.unpred[..out.unpred.len() - 1],
            &out.anchors
        )
        .is_err());
    }

    #[test]
    fn prediction_error_lower_for_cubic_on_smooth_data() {
        let data = NdArray::from_fn(Shape::d2(65, 65), |i| {
            ((i[0] as f64) * 0.07).sin() * ((i[1] as f64) * 0.05).cos()
        });
        let mk = |kind| {
            let cfg = LevelConfig {
                kind,
                order: qoz_predict::DimOrder::Ascending,
            };
            let spec = InterpSpec::anchored(32, 1e-4, cfg);
            compress_with_spec(&data, &spec).mean_abs_pred_err()
        };
        let linear = mk(qoz_predict::InterpKind::Linear);
        let cubic = mk(qoz_predict::InterpKind::Cubic);
        assert!(cubic < linear, "cubic {cubic} vs linear {linear}");
    }
}
