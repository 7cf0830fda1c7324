//! Residual delta coding across snapshot chains.
//!
//! Scientific simulations dump the same variable every timestep, and
//! consecutive snapshots are usually far closer to each other than to
//! zero. This crate extends the workspace's spatial compressors along
//! the time axis: instead of coding snapshot `x_t` independently, a
//! [`TemporalSession`] codes the **residual against the previous
//! reconstruction**,
//!
//! ```text
//! r_t = x_t - x̂_{t-1}
//! ```
//!
//! routes that residual field through the ordinary predictor →
//! quantizer → entropy engine, and reconstructs
//!
//! ```text
//! x̂_t = x̂_{t-1} + r̂_t .
//! ```
//!
//! # The composed-bound contract
//!
//! The residual is always formed against the prior **reconstruction**
//! `x̂_{t-1}`, never the prior raw data. That single choice is what keeps
//! the pointwise error bound exact across a chain of any length: the
//! inner codec guarantees `|r̂_t - r_t| <= e`, and
//!
//! ```text
//! |x̂_t - x_t| = |(x̂_{t-1} + r̂_t) - (x̂_{t-1} + r_t)| = |r̂_t - r_t| <= e ,
//! ```
//!
//! so error **never accumulates** — every snapshot in the chain honors
//! the same per-point bound an independent encode would, regardless of
//! how many deltas precede it. (Had the residual been formed against the
//! raw `x_{t-1}`, each step would add up to `e` of drift.) Relative
//! bounds are resolved against each *snapshot* (`x_t`), not against the
//! residual field, whose value range would yield a much looser absolute
//! bound. The only slack on top of `e` is floating-point rounding of the
//! subtraction/addition themselves — a few ULPs, orders of magnitude
//! below any practical bound.
//!
//! # Keyframe policy
//!
//! Delta coding only pays off while the residual field is *cheaper to
//! code* than the snapshot itself. Before each snapshot the session runs
//! a cheap sampled estimate ([`TemporalSession::residual_beats_spatial`])
//! comparing the local variation of the residual against that of the raw
//! data; when the residual is the denser signal (first snapshot, shape
//! change, regime change, fast motion) the session falls back to an
//! independent **keyframe**. A predecessor reconstruction holding NaN or
//! ±Inf always forces a keyframe: the residual against it is non-finite
//! at that point, so a delta would hand the non-finite value on to
//! every later snapshot. The decision is recorded per snapshot in
//! the stream header ([`TemporalMode`], format
//! [`qoz_codec::stream::VERSION_TEMPORAL`]) so decode is fully
//! self-describing — no out-of-band chain metadata.
//!
//! The session is engine-agnostic: encode/decode of the inner plain
//! streams is delegated to caller closures, so `qoz_api::Pipeline` can
//! route chain members through its plan-cached warm path and this crate
//! stays below the facade in the dependency order.

use qoz_codec::stream::{read_header, unwrap_temporal, wrap_temporal, ErrorBound};
use qoz_codec::{ByteReader, CodecError, Result};
use qoz_tensor::{NdArray, Scalar, Shape};

pub use qoz_codec::TemporalMode;

/// Target number of sampled probe pairs for the keyframe decision.
const PROBE_PAIRS: usize = 1024;

/// What [`TemporalSession::compress_next`] did for one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalOutcome {
    /// Independent coding was forced: chain start, or the snapshot's
    /// shape/scalar changed so no usable predecessor existed.
    Keyframe,
    /// The residual against the prior reconstruction was coded.
    Delta,
    /// A predecessor existed but the sampled estimate judged the
    /// residual denser than the spatial stream, so the snapshot was
    /// coded independently. Stored as a keyframe in the stream.
    Fallback,
}

impl TemporalOutcome {
    /// The mode recorded in the stream header (fallbacks *are*
    /// keyframes as far as any decoder is concerned).
    pub fn mode(self) -> TemporalMode {
        match self {
            TemporalOutcome::Delta => TemporalMode::Delta,
            _ => TemporalMode::Keyframe,
        }
    }

    /// Stable lowercase name (telemetry label / CLI tag).
    pub fn name(self) -> &'static str {
        match self {
            TemporalOutcome::Keyframe => "keyframe",
            TemporalOutcome::Delta => "delta",
            TemporalOutcome::Fallback => "fallback",
        }
    }
}

fn record_outcome(outcome: TemporalOutcome) {
    qoz_telemetry::global()
        .counter("qoz_temporal_outcomes_total", &[("mode", outcome.name())])
        .inc();
}

/// Stateful temporal coder for one snapshot chain.
///
/// Holds the reconstruction of the previous chain member (the encoder
/// keeps exactly what a decoder of its own output holds, so encoder and
/// decoder state are bit-identical) and a recycled residual arena.
///
/// One session per chain (per variable of one simulation). Feed
/// snapshots in order; [`TemporalSession::reset`] starts a new chain.
#[derive(Debug)]
pub struct TemporalSession<T: Scalar> {
    /// Reconstruction of the last chain member, `None` before the first
    /// snapshot (and after `reset`).
    prev: Option<NdArray<T>>,
    /// Recycled residual arena (encode side only).
    residual: NdArray<T>,
    /// Chain members coded so far (diagnostics only).
    coded: u64,
}

impl<T: Scalar> Default for TemporalSession<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> TemporalSession<T> {
    /// A fresh session: the next snapshot starts a chain with a keyframe.
    pub fn new() -> Self {
        TemporalSession {
            prev: None,
            residual: NdArray::zeros(Shape::d1(1)),
            coded: 0,
        }
    }

    /// Forget the chain: the next snapshot is coded as a keyframe.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// The reconstruction of the last chain member, if any.
    pub fn prev(&self) -> Option<&NdArray<T>> {
        self.prev.as_ref()
    }

    /// Chain members coded (encode) or decoded so far.
    pub fn coded(&self) -> u64 {
        self.coded
    }

    /// The sampled keyframe-vs-delta estimate: `true` when the residual
    /// field looks cheaper to code than the snapshot itself.
    ///
    /// A predecessor holding any NaN or ±Inf always loses: `x - prev`
    /// is non-finite there whatever `x` is, so a delta would carry the
    /// non-finite value into every later reconstruction of that point.
    /// That check reads all of `prev`; the estimate proper walks ~1K
    /// strided pairs of adjacent points and compares the mean local
    /// variation of the residual `x - prev` against that of `x`. Local
    /// variation is what the interpolation predictor leaves for the
    /// quantizer, so it is a cheap, allocation-free proxy for the
    /// entropy of the quantized stream.
    pub fn residual_beats_spatial(data: &NdArray<T>, prev: &NdArray<T>) -> bool {
        debug_assert_eq!(data.shape(), prev.shape());
        let x = data.as_slice();
        let p = prev.as_slice();
        if !p.iter().all(|v| v.is_finite()) {
            return false;
        }
        if x.len() < 2 {
            // A single point has no variation either way; the residual
            // (usually near zero) is the safer stream.
            return true;
        }
        let stride = (x.len() / PROBE_PAIRS).max(1);
        let mut dr_sum = 0.0f64;
        let mut dx_sum = 0.0f64;
        let mut i = 1;
        while i < x.len() {
            let r_here = x[i].to_f64() - p[i].to_f64();
            let r_left = x[i - 1].to_f64() - p[i - 1].to_f64();
            dr_sum += (r_here - r_left).abs();
            dx_sum += (x[i].to_f64() - x[i - 1].to_f64()).abs();
            i += stride;
        }
        dr_sum <= dx_sum
    }

    /// Code one snapshot as the next chain member.
    ///
    /// Decides keyframe vs delta, hands the field to code (snapshot or
    /// residual) to `encode` together with the bound it must honor, and
    /// wraps the returned plain stream as a self-describing temporal
    /// frame. `decode` is called once, on `encode`'s own output, and
    /// must return exactly what decoding it yields — the session keeps
    /// that as the prior-*reconstruction* state on the encode side. An
    /// engine that already holds the reconstruction (the SZ-family
    /// engines predict from reconstructed values, so their working
    /// buffer *is* the decoder's output) may hand it over instead of
    /// decoding.
    ///
    /// Bound handling per the composed-error contract: keyframes are
    /// coded at the caller's bound unchanged (their inner stream is
    /// byte-identical to an independent encode of the snapshot); deltas
    /// are coded at `ErrorBound::Abs` of the bound resolved against the
    /// *snapshot*, never against the residual field.
    pub fn compress_next(
        &mut self,
        data: &NdArray<T>,
        bound: ErrorBound,
        encode: impl FnOnce(&NdArray<T>, ErrorBound) -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<NdArray<T>>,
    ) -> Result<(TemporalOutcome, Vec<u8>)> {
        if !bound.is_valid() {
            return Err(CodecError::Corrupt("invalid error bound"));
        }
        let outcome = match &self.prev {
            Some(p) if p.shape() == data.shape() => {
                if Self::residual_beats_spatial(data, p) {
                    TemporalOutcome::Delta
                } else {
                    TemporalOutcome::Fallback
                }
            }
            _ => TemporalOutcome::Keyframe,
        };
        let frame = match outcome {
            TemporalOutcome::Keyframe | TemporalOutcome::Fallback => {
                let inner = encode(data, bound);
                self.prev = Some(decode(&inner)?);
                wrap_temporal(TemporalMode::Keyframe, &inner)?
            }
            TemporalOutcome::Delta => {
                let p = self.prev.as_ref().expect("delta implies a predecessor");
                // Resolve the bound against the snapshot, not the
                // residual: a relative bound on the residual's (small)
                // value range would silently loosen the contract.
                let abs = bound.absolute(data);
                form_residual(&mut self.residual, data, p)?;
                let inner = encode(&self.residual, ErrorBound::Abs(abs));
                let rhat = decode(&inner)?;
                let p = self.prev.as_mut().expect("delta implies a predecessor");
                accumulate_residual(p, &rhat)?;
                wrap_temporal(TemporalMode::Delta, &inner)?
            }
        };
        self.coded += 1;
        record_outcome(outcome);
        Ok((outcome, frame))
    }

    /// Decode the next chain member and return the reconstruction.
    ///
    /// Fully self-describing: the header says whether `blob` is a
    /// keyframe (decoded standalone, chain state replaced), a delta
    /// (requires the predecessor this session holds), or a plain
    /// pre-temporal stream (treated as a chain reset, so mixed archives
    /// decode seamlessly). `decode` is called once, on the inner plain
    /// stream.
    ///
    /// Errors with [`CodecError::Corrupt`] when a delta arrives without
    /// a usable predecessor (fresh session, after `reset`, or after a
    /// shape/scalar change) — decoding a chain must start at its
    /// keyframe.
    pub fn decompress_next(
        &mut self,
        blob: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<NdArray<T>>,
    ) -> Result<&NdArray<T>> {
        let mut r = ByteReader::new(blob);
        let header = read_header(&mut r)?;
        match header.temporal {
            None => {
                self.prev = Some(decode(blob)?);
            }
            Some(TemporalMode::Keyframe) => {
                let (_, inner) = unwrap_temporal(blob)?;
                self.prev = Some(decode(inner)?);
            }
            Some(TemporalMode::Delta) => {
                let (header, inner) = unwrap_temporal(blob)?;
                let prev = self.prev.as_mut().ok_or(CodecError::Corrupt(
                    "delta chain member without a predecessor",
                ))?;
                if prev.shape() != header.shape {
                    return Err(CodecError::Corrupt(
                        "delta shape does not match chain predecessor",
                    ));
                }
                let rhat = decode(inner)?;
                accumulate_residual(prev, &rhat)?;
            }
        }
        self.coded += 1;
        Ok(self.prev.as_ref().expect("just set"))
    }
}

/// Form the residual `out[i] = data[i] - prev[i]` with the arithmetic
/// widened to `f64` (the exact subtraction [`accumulate_residual`]
/// inverts). `out` is recycled via [`NdArray::reset_zeros`].
///
/// Shared by [`TemporalSession`] and the archive's chained-snapshot
/// writer so both paths round identically.
pub fn form_residual<T: Scalar>(
    out: &mut NdArray<T>,
    data: &NdArray<T>,
    prev: &NdArray<T>,
) -> Result<()> {
    if data.shape() != prev.shape() {
        return Err(CodecError::Corrupt("residual shape mismatch"));
    }
    out.reset_zeros(data.shape());
    for ((r, &x), &p) in out
        .as_mut_slice()
        .iter_mut()
        .zip(data.as_slice())
        .zip(prev.as_slice())
    {
        *r = T::from_f64(x.to_f64() - p.to_f64());
    }
    Ok(())
}

/// `acc += add`, element-wise, with the arithmetic widened to `f64` so
/// encoder and decoder reconstructions round identically. This is the
/// one reconstruction step of the chain decode — exposed so the archive
/// reader can resolve delta snapshots with the same rounding behavior
/// as [`TemporalSession::decompress_next`].
pub fn accumulate_residual<T: Scalar>(acc: &mut NdArray<T>, add: &NdArray<T>) -> Result<()> {
    if acc.shape() != add.shape() {
        return Err(CodecError::Corrupt("residual shape mismatch"));
    }
    for (a, &d) in acc.as_mut_slice().iter_mut().zip(add.as_slice()) {
        *a = T::from_f64(a.to_f64() + d.to_f64());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_codec::Compressor;
    use qoz_sz3::Sz3;
    use qoz_tensor::Shape;

    fn series(snapshots: usize, n: usize, step: f64) -> Vec<NdArray<f64>> {
        (0..snapshots)
            .map(|t| {
                NdArray::from_fn(Shape::d2(n, n), |i| {
                    ((i[0] as f64 * 0.31) + t as f64 * step).sin()
                        * ((i[1] as f64 * 0.17) - t as f64 * step).cos()
                })
            })
            .collect()
    }

    fn roundtrip_chain(snaps: &[NdArray<f64>], bound: ErrorBound) -> Vec<TemporalOutcome> {
        let codec = Sz3::default();
        let mut enc = TemporalSession::<f64>::new();
        let mut outcomes = Vec::new();
        let mut frames = Vec::new();
        for s in snaps {
            let (outcome, frame) = enc
                .compress_next(
                    s,
                    bound,
                    |d, b| codec.compress(d, b),
                    |b| codec.decompress(b),
                )
                .unwrap();
            outcomes.push(outcome);
            frames.push(frame);
        }
        let mut dec = TemporalSession::<f64>::new();
        for (s, frame) in snaps.iter().zip(&frames) {
            let abs = bound.absolute(s);
            let recon = dec.decompress_next(frame, |b| codec.decompress(b)).unwrap();
            assert!(
                s.max_abs_diff(recon) <= abs * (1.0 + 1e-9),
                "chain member violated the composed bound"
            );
            // Encoder state tracked the decoder exactly.
        }
        assert_eq!(dec.coded(), snaps.len() as u64);
        outcomes
    }

    #[test]
    fn slow_series_goes_keyframe_then_deltas() {
        let snaps = series(6, 24, 0.02);
        let outcomes = roundtrip_chain(&snaps, ErrorBound::Abs(1e-4));
        assert_eq!(outcomes[0], TemporalOutcome::Keyframe);
        assert!(
            outcomes[1..].iter().all(|&o| o == TemporalOutcome::Delta),
            "slowly evolving snapshots should delta-code: {outcomes:?}"
        );
    }

    #[test]
    fn regime_change_falls_back_to_keyframe() {
        let mut snaps = series(3, 24, 0.02);
        // An unrelated field mid-chain: residual variation explodes, the
        // estimator must prefer independent coding.
        snaps.push(NdArray::from_fn(Shape::d2(24, 24), |i| {
            ((i[0] * 7919 + i[1] * 104729) % 97) as f64
        }));
        let codec = Sz3::default();
        let mut enc = TemporalSession::<f64>::new();
        let mut last = TemporalOutcome::Keyframe;
        for s in &snaps {
            let (o, _) = enc
                .compress_next(
                    s,
                    ErrorBound::Abs(1e-3),
                    |d, b| codec.compress(d, b),
                    |b| codec.decompress(b),
                )
                .unwrap();
            last = o;
        }
        assert_eq!(last, TemporalOutcome::Fallback);
    }

    #[test]
    fn shape_change_forces_keyframe_and_reset_restarts() {
        let codec = Sz3::default();
        let a = NdArray::from_fn(Shape::d2(16, 16), |i| (i[0] + i[1]) as f64 * 0.1);
        let b = NdArray::from_fn(Shape::d2(8, 8), |i| (i[0] + i[1]) as f64 * 0.1);
        let mut s = TemporalSession::<f64>::new();
        let bound = ErrorBound::Abs(1e-4);
        let enc = |d: &NdArray<f64>, b: ErrorBound| codec.compress(d, b);
        let dec = |b: &[u8]| codec.decompress(b);
        let (o, _) = s.compress_next(&a, bound, enc, dec).unwrap();
        assert_eq!(o, TemporalOutcome::Keyframe);
        let (o, _) = s.compress_next(&b, bound, enc, dec).unwrap();
        assert_eq!(
            o,
            TemporalOutcome::Keyframe,
            "shape change breaks the chain"
        );
        s.reset();
        let (o, _) = s.compress_next(&b, bound, enc, dec).unwrap();
        assert_eq!(
            o,
            TemporalOutcome::Keyframe,
            "reset forgets the predecessor"
        );
    }

    #[test]
    fn delta_without_predecessor_is_rejected() {
        let codec = Sz3::default();
        let snaps = series(2, 16, 0.01);
        let mut enc = TemporalSession::<f64>::new();
        let mut frames = Vec::new();
        for s in &snaps {
            let (_, f) = enc
                .compress_next(
                    s,
                    ErrorBound::Abs(1e-4),
                    |d, b| codec.compress(d, b),
                    |b| codec.decompress(b),
                )
                .unwrap();
            frames.push(f);
        }
        // Decoding the delta with no keyframe first must error cleanly.
        let mut dec = TemporalSession::<f64>::new();
        let err = dec
            .decompress_next(&frames[1], |b| codec.decompress(b))
            .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn plain_stream_resets_the_chain() {
        let codec = Sz3::default();
        let snaps = series(3, 16, 0.01);
        let bound = ErrorBound::Abs(1e-4);
        let mut enc = TemporalSession::<f64>::new();
        let frames: Vec<_> = snaps
            .iter()
            .map(|s| {
                enc.compress_next(
                    s,
                    bound,
                    |d, b| codec.compress(d, b),
                    |b| codec.decompress(b),
                )
                .unwrap()
                .1
            })
            .collect();
        // A pre-temporal plain stream interleaves fine: it resets state.
        let plain = codec.compress(&snaps[0], bound);
        let mut dec = TemporalSession::<f64>::new();
        dec.decompress_next(&frames[0], |b| codec.decompress(b))
            .unwrap();
        dec.decompress_next(&plain, |b| codec.decompress(b))
            .unwrap();
        // frames[1] is a delta against frames[0]'s reconstruction, which
        // equals the plain stream's reconstruction (same bytes inside),
        // so the chain continues correctly.
        let recon = dec
            .decompress_next(&frames[1], |b| codec.decompress(b))
            .unwrap();
        assert!(snaps[1].max_abs_diff(recon) <= 1e-4 * (1.0 + 1e-9));
    }

    #[test]
    fn relative_bound_resolves_against_snapshot_not_residual() {
        // Nearly identical snapshots: the residual's value range is ~1e3x
        // smaller than the data's. If the delta were coded at
        // Rel(eps)-of-residual, its absolute bound would shrink by that
        // factor; resolved against the snapshot it must match the
        // independent encode's bound.
        let codec = Sz3::default();
        let base = NdArray::from_fn(Shape::d2(32, 32), |i| {
            (i[0] as f64 * 0.2).sin() * 50.0 + (i[1] as f64 * 0.3).cos() * 50.0
        });
        let next = NdArray::from_vec(
            base.shape(),
            base.as_slice().iter().map(|v| v + 1e-2).collect(),
        );
        let bound = ErrorBound::Rel(1e-3);
        let mut s = TemporalSession::<f64>::new();
        s.compress_next(
            &base,
            bound,
            |d, b| codec.compress(d, b),
            |b| codec.decompress(b),
        )
        .unwrap();
        let (outcome, frame) = s
            .compress_next(
                &next,
                bound,
                |d, b| codec.compress(d, b),
                |b| codec.decompress(b),
            )
            .unwrap();
        assert_eq!(outcome, TemporalOutcome::Delta);
        let (header, _) = unwrap_temporal(&frame).unwrap();
        let expect = bound.absolute(&next);
        assert!(
            (header.abs_eb - expect).abs() <= expect * 1e-12,
            "delta bound {} must resolve against the snapshot ({expect})",
            header.abs_eb
        );
    }

    #[test]
    fn f32_chain_honors_bound() {
        let codec = Sz3::default();
        let snaps: Vec<NdArray<f32>> = (0..5)
            .map(|t| {
                NdArray::from_fn(Shape::d2(24, 24), |i| {
                    (((i[0] as f64 * 0.31) + t as f64 * 0.02).sin()
                        * ((i[1] as f64 * 0.17) - t as f64 * 0.02).cos()) as f32
                })
            })
            .collect();
        let bound = ErrorBound::Abs(1e-3);
        let mut enc = TemporalSession::<f32>::new();
        let mut dec = TemporalSession::<f32>::new();
        for s in &snaps {
            let (_, frame) = enc
                .compress_next(
                    s,
                    bound,
                    |d, b| codec.compress(d, b),
                    |b| codec.decompress(b),
                )
                .unwrap();
            let recon = dec
                .decompress_next(&frame, |b| codec.decompress(b))
                .unwrap();
            // f32 chains may add a few ULPs of rounding on top of the
            // codec bound (see the crate docs).
            let slack = 1e-3 * (1.0 + 1e-9) + 4.0 * f32::EPSILON as f64;
            assert!(s.max_abs_diff(recon) <= slack);
        }
    }

    #[test]
    fn invalid_bound_rejected() {
        let codec = Sz3::default();
        let d = NdArray::from_vec(Shape::d1(4), vec![1.0f64, 2.0, 3.0, 4.0]);
        let mut s = TemporalSession::<f64>::new();
        let err = s
            .compress_next(
                &d,
                ErrorBound::Abs(0.0),
                |d, b| codec.compress(d, b),
                |b| codec.decompress(b),
            )
            .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)));
    }
}
