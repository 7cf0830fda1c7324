//! The single backend registry: every `BackendId -> codec` dispatch in
//! the workspace goes through here.
//!
//! Before the facade existed this mapping was re-implemented three
//! times (`qoz_archive::dispatch::compressor_for`,
//! `qoz_bench::AnyCompressor`, the CLI's `make_codec`); all three were
//! replaced by [`BackendRegistry`] and have since been deleted.

use crate::{ApiError, BackendId};
use qoz_codec::stream::{read_header, unwrap_temporal, TemporalMode};
use qoz_codec::{ByteReader, CodecError, Compressor, Header, Scratch};
use qoz_metrics::QualityMetric;
use qoz_tensor::{NdArray, Scalar};

/// Maps a [`BackendId`] to a ready-to-use codec, generic over the
/// element type.
///
/// The registry is `Copy` and configuration-light: the only knob is the
/// [`QualityMetric`] handed to QoZ's online tuner (the baselines are
/// metric-agnostic). Decompression is driven entirely by stream
/// headers, so a default registry decodes *any* workspace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendRegistry {
    metric: QualityMetric,
}

impl BackendRegistry {
    /// Every registered backend, in the paper's table order.
    pub const ALL: [BackendId; 5] = [
        BackendId::Sz2,
        BackendId::Sz3,
        BackendId::Zfp,
        BackendId::Mgard,
        BackendId::Qoz,
    ];

    /// Registry with the default (compression-ratio) tuning metric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry whose QoZ instances tune for `metric`.
    pub fn with_metric(metric: QualityMetric) -> Self {
        BackendRegistry { metric }
    }

    /// The QoZ tuning metric this registry configures.
    pub fn metric(&self) -> QualityMetric {
        self.metric
    }

    /// Construct the backend for `id` (configuration only affects
    /// compression; decompression is driven by the stream).
    pub fn codec<T: Scalar>(&self, id: BackendId) -> Box<dyn Compressor<T>> {
        match id {
            BackendId::Qoz => Box::new(self.qoz()),
            BackendId::Sz3 => Box::new(qoz_sz3::Sz3::default()),
            BackendId::Sz2 => Box::new(qoz_sz2::Sz2::default()),
            BackendId::Zfp => Box::new(qoz_zfp::Zfp),
            BackendId::Mgard => Box::new(qoz_mgard::Mgard),
        }
    }

    /// The concrete QoZ instance this registry configures — the one
    /// place QoZ construction lives, shared by [`BackendRegistry::codec`]
    /// and the quality-target fast path (which needs the concrete type
    /// for `Qoz::compress_to_quality`).
    pub fn qoz(&self) -> qoz_core::Qoz {
        qoz_core::Qoz::for_metric(self.metric)
    }

    /// The paper's five-compressor comparison set, in table order.
    pub fn paper_set<T: Scalar>(&self) -> Vec<Box<dyn Compressor<T>>> {
        Self::ALL.iter().map(|&id| self.codec::<T>(id)).collect()
    }

    /// Parse a user-facing backend name (as accepted by the CLI's
    /// `--codec` flag and the paper's tables).
    pub fn parse(name: &str) -> crate::Result<BackendId> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "qoz" => BackendId::Qoz,
            "sz3" => BackendId::Sz3,
            "sz2" | "sz2.1" => BackendId::Sz2,
            "zfp" => BackendId::Zfp,
            "mgard" | "mgard+" => BackendId::Mgard,
            other => return Err(ApiError::UnknownBackend(other.to_string())),
        })
    }

    /// Decompress any workspace stream, dispatching on the header's
    /// compressor id.
    ///
    /// Temporal *keyframes* decode here too — their payload is a
    /// complete independent stream, so the frame is stripped
    /// transparently. Temporal *deltas* are meaningless without their
    /// chain predecessor and are rejected with a clear error; decode
    /// them through [`crate::Pipeline::decompress_next`].
    pub fn decompress<T: Scalar>(&self, blob: &[u8]) -> qoz_codec::Result<NdArray<T>> {
        let (header, payload) = standalone_payload(blob)?;
        self.codec::<T>(header.compressor).decompress(payload)
    }

    /// [`BackendRegistry::decompress`] into a caller-provided array,
    /// reshaped in place, staging every stage buffer in `scratch` — with
    /// a warm arena the zero-allocation decode path, whatever backend
    /// produced the stream.
    pub fn decompress_into<T: Scalar>(
        &self,
        blob: &[u8],
        scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> qoz_codec::Result<()> {
        let (header, payload) = standalone_payload(blob)?;
        self.codec::<T>(header.compressor)
            .decompress_into(payload, scratch, out)
    }
}

/// Parse just the common stream header of a blob.
pub fn peek_header(blob: &[u8]) -> qoz_codec::Result<Header> {
    let mut r = ByteReader::new(blob);
    read_header(&mut r)
}

/// Resolve a blob to the plain stream a standalone decode can consume:
/// plain streams pass through, temporal keyframes are unwrapped to
/// their (complete, independent) payload, temporal deltas are rejected
/// — they need the chain decode in [`crate::Pipeline::decompress_next`].
fn standalone_payload(blob: &[u8]) -> qoz_codec::Result<(Header, &[u8])> {
    let header = peek_header(blob)?;
    match header.temporal {
        None => Ok((header, blob)),
        Some(TemporalMode::Keyframe) => {
            let (header, inner) = unwrap_temporal(blob)?;
            Ok((header, inner))
        }
        Some(TemporalMode::Delta) => Err(CodecError::Corrupt(
            "delta chain member requires chain decode (Pipeline::decompress_next)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_codec::ErrorBound;
    use qoz_tensor::Shape;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d2(16, 16), |i| {
            (i[0] as f32 * 0.3).sin() + i[1] as f32 * 0.05
        })
    }

    #[test]
    fn registry_dispatches_every_backend() {
        let data = field();
        let bound = ErrorBound::Abs(1e-3);
        let reg = BackendRegistry::new();
        for id in BackendRegistry::ALL {
            let codec = reg.codec::<f32>(id);
            assert_eq!(codec.id(), id);
            let blob = codec.compress(&data, bound);
            assert_eq!(peek_header(&blob).unwrap().compressor, id);
            // Header-driven dispatch decodes without being told the id.
            let recon: NdArray<f32> = reg.decompress(&blob).unwrap();
            assert_eq!(recon.shape(), data.shape());
            assert!(data.max_abs_diff(&recon) <= 1e-3 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn registry_is_scalar_generic() {
        let data = NdArray::from_fn(Shape::d2(16, 16), |i| (i[0] as f64 * 0.3).sin());
        let reg = BackendRegistry::new();
        for id in BackendRegistry::ALL {
            let blob = reg.codec::<f64>(id).compress(&data, ErrorBound::Abs(1e-4));
            let recon: NdArray<f64> = reg.decompress(&blob).unwrap();
            assert!(
                data.max_abs_diff(&recon) <= 1e-4 * (1.0 + 1e-9),
                "{id:?} f64 roundtrip violated the bound"
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        let reg = BackendRegistry::new();
        assert!(reg.decompress::<f32>(b"junk").is_err());
        assert!(reg.decompress::<f32>(&[]).is_err());
    }

    #[test]
    fn names_parse_like_the_cli() {
        for (name, id) in [
            ("qoz", BackendId::Qoz),
            ("SZ3", BackendId::Sz3),
            ("sz2", BackendId::Sz2),
            ("sz2.1", BackendId::Sz2),
            ("zfp", BackendId::Zfp),
            ("mgard", BackendId::Mgard),
            ("MGARD+", BackendId::Mgard),
        ] {
            assert_eq!(BackendRegistry::parse(name).unwrap(), id);
        }
        assert!(matches!(
            BackendRegistry::parse("zstd"),
            Err(ApiError::UnknownBackend(_))
        ));
    }

    #[test]
    fn paper_set_matches_table_order() {
        let names: Vec<&str> = BackendRegistry::new()
            .paper_set::<f32>()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, vec!["SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ"]);
    }
}
