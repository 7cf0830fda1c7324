//! Builder sessions: validated, reusable compression configurations.

use crate::registry::BackendRegistry;
use crate::{ApiError, BackendId, Result};
use qoz_codec::{CodecError, CompressStats, Compressor, ErrorBound};
use qoz_core::{compress_codec_to_quality, compress_codec_to_ratio, QualityTarget};
use qoz_metrics::QualityMetric;
use qoz_tensor::{NdArray, Scalar};

/// What a compression session is asked to achieve — the quality-first
/// request at the center of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Classic error-bounded compression: every point within `bound`.
    Bound(ErrorBound),
    /// Minimum PSNR in dB, found by bound search and verified on the
    /// full reconstruction.
    Psnr(f64),
    /// Minimum mean windowed SSIM in `(0, 1]`, likewise verified.
    Ssim(f64),
    /// Target compression ratio (raw bytes / compressed bytes), > 1.
    Ratio(f64),
}

impl Target {
    /// The tuning metric a target naturally implies when the caller does
    /// not pick one explicitly.
    fn implied_metric(self) -> QualityMetric {
        match self {
            Target::Bound(_) | Target::Ratio(_) => QualityMetric::CompressionRatio,
            Target::Psnr(_) => QualityMetric::Psnr,
            Target::Ssim(_) => QualityMetric::Ssim,
        }
    }

    /// Central validation: every session target is checked here, once,
    /// instead of ad hoc at each call site.
    fn validate(self) -> Result<()> {
        match self {
            Target::Bound(b) if !b.is_valid() => Err(ApiError::InvalidBound(b)),
            Target::Psnr(db) if !(db.is_finite() && db > 0.0) => Err(ApiError::InvalidTarget(
                "PSNR target must be finite and > 0 dB",
            )),
            Target::Ssim(s) if !(s.is_finite() && s > 0.0 && s <= 1.0) => {
                Err(ApiError::InvalidTarget("SSIM target must lie in (0, 1]"))
            }
            Target::Ratio(r) if !(r.is_finite() && r > 1.0) => Err(ApiError::InvalidTarget(
                "compression-ratio target must be finite and > 1",
            )),
            _ => Ok(()),
        }
    }
}

/// Builds a [`Session`]. Obtained from [`Session::builder`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    backend: Option<BackendId>,
    metric: Option<QualityMetric>,
    target: Option<Target>,
    drift_tolerance: Option<f64>,
}

impl SessionBuilder {
    /// Select the compression backend (default: QoZ).
    pub fn backend(mut self, id: BackendId) -> Self {
        self.backend = Some(id);
        self
    }

    /// Pick the QoZ tuning metric explicitly. When omitted, the metric
    /// is inferred from the target (`Psnr` target → PSNR-preferred
    /// tuning, `Ssim` → SSIM, everything else → compression ratio).
    pub fn metric(mut self, metric: QualityMetric) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Set the session target.
    pub fn target(mut self, target: Target) -> Self {
        self.target = Some(target);
        self
    }

    /// Shorthand for `.target(Target::Bound(bound))`.
    pub fn bound(self, bound: ErrorBound) -> Self {
        self.target(Target::Bound(bound))
    }

    /// Shorthand for `.target(Target::Psnr(db))`.
    pub fn psnr(self, db: f64) -> Self {
        self.target(Target::Psnr(db))
    }

    /// Shorthand for `.target(Target::Ssim(s))`.
    pub fn ssim(self, s: f64) -> Self {
        self.target(Target::Ssim(s))
    }

    /// Shorthand for `.target(Target::Ratio(cr))`.
    pub fn ratio(self, cr: f64) -> Self {
        self.target(Target::Ratio(cr))
    }

    /// Drift tolerance of the session's [`Pipeline`](crate::Pipeline)
    /// plan cache: the relative departure of the sampled
    /// prediction-error estimate (or of the resolved absolute bound)
    /// beyond which a cached tuning plan is thrown away and the
    /// pipeline re-tunes. `0.0` reuses plans only for statistically
    /// indistinguishable snapshots; the default
    /// ([`qoz_core::pipeline::DEFAULT_DRIFT_TOLERANCE`]) tolerates the
    /// gentle evolution of consecutive simulation timesteps.
    pub fn drift_tolerance(mut self, tolerance: f64) -> Self {
        self.drift_tolerance = Some(tolerance);
        self
    }

    /// Validate the configuration and build the session.
    ///
    /// This is the single place bounds and targets are checked: NaN,
    /// non-finite and non-positive bounds are rejected with
    /// [`ApiError::InvalidBound`], out-of-range quality targets with
    /// [`ApiError::InvalidTarget`]. A session that builds will not panic
    /// later on bound arithmetic.
    pub fn build(self) -> Result<Session> {
        let target = self.target.ok_or(ApiError::InvalidTarget(
            "no target set: call .bound()/.psnr()/.ssim()/.ratio() before build()",
        ))?;
        target.validate()?;
        let drift_tolerance = self
            .drift_tolerance
            .unwrap_or(qoz_core::pipeline::DEFAULT_DRIFT_TOLERANCE);
        if !(drift_tolerance.is_finite() && drift_tolerance >= 0.0) {
            return Err(ApiError::InvalidTarget(
                "drift tolerance must be finite and >= 0",
            ));
        }
        let metric = self.metric.unwrap_or_else(|| target.implied_metric());
        Ok(Session {
            backend: self.backend.unwrap_or(BackendId::Qoz),
            target,
            registry: BackendRegistry::with_metric(metric),
            drift_tolerance,
        })
    }
}

/// The result of one [`Session::compress`] call.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The self-describing compressed stream.
    pub blob: Vec<u8>,
    /// Byte accounting for the run.
    pub stats: CompressStats,
    /// For quality/ratio targets: the relative error bound the search
    /// settled on. `None` for [`Target::Bound`] sessions.
    pub rel_bound: Option<f64>,
    /// For quality/ratio targets: the metric value actually achieved
    /// (PSNR dB, SSIM, or compression ratio). `None` for
    /// [`Target::Bound`] sessions.
    pub achieved: Option<f64>,
}

/// A validated, reusable compression configuration: one backend, one
/// [`Target`], any number of arrays.
///
/// Sessions are cheap (`Clone + Copy`-sized configuration, codecs are
/// constructed per call) and element-type generic: the same session
/// compresses `f32` and `f64` arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    backend: BackendId,
    target: Target,
    registry: BackendRegistry,
    drift_tolerance: f64,
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The drift tolerance a [`Pipeline`](crate::Pipeline) spawned from
    /// this session will use for its plan cache.
    pub fn drift_tolerance(&self) -> f64 {
        self.drift_tolerance
    }

    /// Spawn a stateful [`Pipeline`](crate::Pipeline) handle: the same
    /// session configuration plus a cached tuning plan and a reusable
    /// scratch arena, for serving repeated (time-series) compression
    /// fast. See the crate docs' time-series quick start.
    pub fn pipeline<T: Scalar>(&self) -> crate::Pipeline<T> {
        crate::Pipeline::new(*self)
    }

    /// The backend this session compresses with.
    pub fn backend(&self) -> BackendId {
        self.backend
    }

    /// The target this session drives toward.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The registry (and with it the QoZ tuning metric) in effect.
    pub fn registry(&self) -> BackendRegistry {
        self.registry
    }

    /// The session's backend as a standalone codec, for plumbing that
    /// wants a `Compressor` directly (`qoz_archive::ArchiveWriter`,
    /// `qoz_pario::compress_chunks`).
    pub fn codec<T: Scalar>(&self) -> Box<dyn Compressor<T>> {
        self.registry.codec::<T>(self.backend)
    }

    /// Compress `data` toward the session target.
    ///
    /// For [`Target::Bound`] this is a single pass; quality and ratio
    /// targets run the `qoz_core::fixed_quality` search (QoZ gets the
    /// sampled fast path, other backends the generic full-pipeline
    /// bisection). See the crate docs for the per-target tolerances.
    pub fn compress<T: Scalar>(&self, data: &NdArray<T>) -> Result<Compressed> {
        let raw_bytes = (data.len() * T::BYTES) as u64;
        let wrap = |blob: Vec<u8>, rel_bound: Option<f64>, achieved: Option<f64>| Compressed {
            stats: CompressStats {
                raw_bytes,
                compressed_bytes: blob.len() as u64,
            },
            blob,
            rel_bound,
            achieved,
        };
        match self.target {
            Target::Bound(bound) => {
                let blob = self.codec::<T>().compress(data, bound);
                Ok(wrap(blob, None, None))
            }
            Target::Psnr(db) => self
                .quality(data, QualityTarget::Psnr(db))
                .map(|(blob, eb, got)| wrap(blob, Some(eb), Some(got))),
            Target::Ssim(s) => self
                .quality(data, QualityTarget::Ssim(s))
                .map(|(blob, eb, got)| wrap(blob, Some(eb), Some(got))),
            Target::Ratio(cr) => {
                let out = compress_codec_to_ratio(&*self.codec::<T>(), data, cr, 12);
                Ok(wrap(out.blob, Some(out.rel_bound), Some(out.achieved)))
            }
        }
    }

    fn quality<T: Scalar>(
        &self,
        data: &NdArray<T>,
        target: QualityTarget,
    ) -> Result<(Vec<u8>, f64, f64)> {
        if self.backend == BackendId::Qoz {
            // QoZ's sampling machinery estimates the quality-vs-bound
            // curve on sampled blocks before the full verified pass.
            let r = self.registry.qoz().compress_to_quality(data, target);
            Ok((r.blob, r.rel_bound, r.achieved))
        } else {
            let out = compress_codec_to_quality(&*self.codec::<T>(), data, target)?;
            Ok((out.blob, out.rel_bound, out.achieved))
        }
    }

    /// Compress `data` straight into a byte sink: the stream of
    /// [`Session::compress`], byte for byte, written to `sink`.
    pub fn compress_into<T: Scalar>(
        &self,
        data: &NdArray<T>,
        sink: &mut dyn std::io::Write,
    ) -> Result<CompressStats> {
        let out = self.compress(data)?;
        sink.write_all(&out.blob).map_err(CodecError::from)?;
        Ok(out.stats)
    }

    /// Decompress any workspace stream (not only this session's
    /// backend — dispatch is header-driven through the registry).
    pub fn decompress<T: Scalar>(&self, blob: &[u8]) -> Result<NdArray<T>> {
        Ok(self.registry.decompress(blob)?)
    }

    /// Streaming counterpart of [`Session::decompress`]: reads `src` to
    /// its end and decodes the buffered stream.
    pub fn decompress_from<T: Scalar>(&self, src: &mut dyn std::io::Read) -> Result<NdArray<T>> {
        let mut blob = Vec::new();
        src.read_to_end(&mut blob).map_err(CodecError::from)?;
        self.decompress(&blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_datagen::{Dataset, SizeClass};

    #[test]
    fn builder_defaults_and_accessors() {
        let s = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        assert_eq!(s.backend(), BackendId::Qoz);
        assert_eq!(s.target(), Target::Bound(ErrorBound::Rel(1e-3)));
        assert_eq!(s.registry().metric(), QualityMetric::CompressionRatio);

        // Metric inference from the target.
        let s = Session::builder().psnr(60.0).build().unwrap();
        assert_eq!(s.registry().metric(), QualityMetric::Psnr);
        let s = Session::builder().ssim(0.9).build().unwrap();
        assert_eq!(s.registry().metric(), QualityMetric::Ssim);
        // An explicit metric wins.
        let s = Session::builder()
            .psnr(60.0)
            .metric(QualityMetric::AutoCorrelation)
            .build()
            .unwrap();
        assert_eq!(s.registry().metric(), QualityMetric::AutoCorrelation);
    }

    #[test]
    fn builder_rejects_invalid_bounds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            for bound in [ErrorBound::Abs(bad), ErrorBound::Rel(bad)] {
                let err = Session::builder().bound(bound).build().unwrap_err();
                // NaN breaks PartialEq comparison of the payload; match
                // on the variant instead.
                assert!(
                    matches!(err, ApiError::InvalidBound(_)),
                    "accepted {bound:?}: {err:?}"
                );
                // The message names the bound kind and the rule.
                let msg = err.to_string();
                assert!(msg.contains("finite") && msg.contains("bound"), "{msg}");
            }
        }
    }

    #[test]
    fn builder_rejects_invalid_targets() {
        let cases = [
            Target::Psnr(f64::NAN),
            Target::Psnr(-3.0),
            Target::Psnr(f64::INFINITY),
            Target::Ssim(0.0),
            Target::Ssim(-0.5),
            Target::Ssim(1.5),
            Target::Ssim(f64::NAN),
            Target::Ratio(1.0),
            Target::Ratio(0.5),
            Target::Ratio(f64::INFINITY),
        ];
        for t in cases {
            assert!(
                matches!(
                    Session::builder().target(t).build(),
                    Err(ApiError::InvalidTarget(_))
                ),
                "accepted {t:?}"
            );
        }
        // No target at all is also a configuration error.
        assert!(matches!(
            Session::builder().backend(BackendId::Sz3).build(),
            Err(ApiError::InvalidTarget(_))
        ));
    }

    #[test]
    fn bound_session_roundtrips_and_reports_stats() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let s = Session::builder()
            .backend(BackendId::Sz3)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let out = s.compress(&data).unwrap();
        assert_eq!(out.stats.raw_bytes, (data.len() * 4) as u64);
        assert_eq!(out.stats.compressed_bytes, out.blob.len() as u64);
        assert!(out.stats.ratio() > 1.0);
        assert_eq!(out.rel_bound, None);
        assert_eq!(out.achieved, None);
        let recon: NdArray<f32> = s.decompress(&out.blob).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&data);
        assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    }
}
