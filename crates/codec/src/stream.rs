//! Common compressed-stream framing and the [`Compressor`] trait.
//!
//! Every compressor in the workspace emits a self-describing stream with
//! the same header (magic, format version, compressor id, scalar tag,
//! shape, error bound) so that tools like the parallel-I/O harness can
//! dispatch on compressed blobs without out-of-band metadata.

use crate::byteio::{ByteReader, ByteWriter};
use crate::scratch::Scratch;
use crate::{CodecError, Result};
use qoz_tensor::{NdArray, Scalar, Shape};

/// 4-byte stream magic: "QZWS" (QoZ workspace).
pub const MAGIC: [u8; 4] = *b"QZWS";
/// Stream format version of plain (temporally independent) streams.
///
/// Deliberately unchanged by the temporal extension: a stream whose
/// header carries no [`TemporalMode`] is emitted byte-for-byte as
/// before, so pre-temporal readers and golden bitstreams are
/// unaffected.
pub const VERSION: u8 = 1;
/// Stream format version of temporal chain members. A version-2 header
/// carries one extra [`TemporalMode`] byte right after the version, and
/// its payload is a complete version-1 stream (the independent snapshot
/// for a keyframe, the residual field for a delta).
pub const VERSION_TEMPORAL: u8 = 2;

/// How a temporal chain member relates to its predecessor.
///
/// Recorded in the stream header (version [`VERSION_TEMPORAL`]) so a
/// decoder needs no out-of-band metadata to tell whether a chain member
/// is self-contained: the encoder's per-snapshot keyframe/delta decision
/// travels with the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TemporalMode {
    /// Independently coded snapshot: the payload reconstructs the field
    /// on its own. Chains start with (and fall back to) keyframes.
    Keyframe = 1,
    /// Residual-coded snapshot: the payload reconstructs `x_t - x̂_{t-1}`
    /// (the difference against the *reconstruction* of the previous
    /// chain member), so decoding requires the predecessor.
    Delta = 2,
}

impl TemporalMode {
    /// Parse from the header byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => TemporalMode::Keyframe,
            2 => TemporalMode::Delta,
            _ => return Err(CodecError::Corrupt("unknown temporal mode")),
        })
    }

    /// Stable lowercase name (telemetry label / CLI tag).
    pub fn name(self) -> &'static str {
        match self {
            TemporalMode::Keyframe => "keyframe",
            TemporalMode::Delta => "delta",
        }
    }
}

/// Identifies which compressor produced a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CompressorId {
    /// SZ2.1-style block Lorenzo/regression.
    Sz2 = 1,
    /// SZ3-style global spline interpolation.
    Sz3 = 2,
    /// ZFP-style block transform.
    Zfp = 3,
    /// MGARD+-style multilevel.
    Mgard = 4,
    /// QoZ (this paper).
    Qoz = 5,
}

impl CompressorId {
    /// Parse from the header byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => CompressorId::Sz2,
            2 => CompressorId::Sz3,
            3 => CompressorId::Zfp,
            4 => CompressorId::Mgard,
            5 => CompressorId::Qoz,
            _ => return Err(CodecError::Corrupt("unknown compressor id")),
        })
    }

    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            CompressorId::Sz2 => "SZ2.1",
            CompressorId::Sz3 => "SZ3",
            CompressorId::Zfp => "ZFP",
            CompressorId::Mgard => "MGARD+",
            CompressorId::Qoz => "QoZ",
        }
    }
}

/// User-facing error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound `e`: every point satisfies `|x - x'| <= e`.
    Abs(f64),
    /// Value-range-relative bound `ε`: `e = ε * (max - min)`. This is the
    /// mode used throughout the paper's evaluation.
    Rel(f64),
}

impl ErrorBound {
    /// The raw bound value (absolute or relative).
    pub fn value(self) -> f64 {
        match self {
            ErrorBound::Abs(e) | ErrorBound::Rel(e) => e,
        }
    }

    /// A bound is usable iff it is finite and strictly positive; NaN,
    /// infinities, zero and negative values are rejected.
    /// [`ErrorBound::absolute`] panics on invalid bounds — consumers that
    /// must fail softly (the `qoz_api` session builder, CLI parsing)
    /// check this first.
    pub fn is_valid(self) -> bool {
        let v = self.value();
        v.is_finite() && v > 0.0
    }

    /// Resolve to an absolute bound for a concrete array.
    ///
    /// Constant arrays (range 0) under a relative bound resolve to a tiny
    /// positive epsilon — every residual is 0 there anyway.
    pub fn absolute<T: Scalar>(self, data: &NdArray<T>) -> f64 {
        match self {
            ErrorBound::Abs(e) => {
                assert!(e > 0.0 && e.is_finite(), "invalid absolute bound {e}");
                e
            }
            ErrorBound::Rel(eps) => {
                assert!(eps > 0.0 && eps.is_finite(), "invalid relative bound {eps}");
                let r = data.value_range();
                if r > 0.0 {
                    eps * r
                } else {
                    f64::MIN_POSITIVE.max(1e-30)
                }
            }
        }
    }
}

/// Parsed stream header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Producing compressor.
    pub compressor: CompressorId,
    /// Scalar type tag ([`Scalar::TYPE_TAG`]).
    pub scalar_tag: u8,
    /// Array shape.
    pub shape: Shape,
    /// Absolute error bound the stream was produced with.
    pub abs_eb: f64,
    /// Temporal chain role, when the stream is a chain member. `None`
    /// for plain streams — which are emitted as format [`VERSION`],
    /// byte-identical to pre-temporal builds.
    pub temporal: Option<TemporalMode>,
}

/// Write the common stream header.
///
/// Headers without a temporal role serialize exactly as before the
/// temporal extension (version [`VERSION`]); a `Some` role upgrades the
/// header to [`VERSION_TEMPORAL`] and inserts the mode byte after the
/// version.
pub fn write_header(w: &mut ByteWriter, h: &Header) {
    w.put_bytes(&MAGIC);
    match h.temporal {
        None => w.put_u8(VERSION),
        Some(mode) => {
            w.put_u8(VERSION_TEMPORAL);
            w.put_u8(mode as u8);
        }
    }
    w.put_u8(h.compressor as u8);
    w.put_u8(h.scalar_tag);
    w.put_u8(h.shape.ndim() as u8);
    for &d in h.shape.dims() {
        w.put_varint(d as u64);
    }
    w.put_f64(h.abs_eb);
}

/// Read and validate the common stream header.
pub fn read_header(r: &mut ByteReader) -> Result<Header> {
    let magic = r.get_bytes(4)?;
    if magic != MAGIC {
        return Err(CodecError::Corrupt("bad magic"));
    }
    let version = r.get_u8()?;
    let temporal = match version {
        VERSION => None,
        VERSION_TEMPORAL => Some(TemporalMode::from_u8(r.get_u8()?)?),
        _ => {
            return Err(CodecError::BadVersion {
                found: version,
                supported: VERSION_TEMPORAL,
            })
        }
    };
    let compressor = CompressorId::from_u8(r.get_u8()?)?;
    let scalar_tag = r.get_u8()?;
    let ndim = r.get_u8()? as usize;
    if ndim == 0 || ndim > qoz_tensor::MAX_NDIM {
        return Err(CodecError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let d = r.get_varint()? as usize;
        if d == 0 || d > (1 << 32) {
            return Err(CodecError::Corrupt("bad dimension"));
        }
        dims.push(d);
    }
    // Decoders size their output from this shape: cap what it declares.
    let shape = Shape::try_new(&dims).ok_or(CodecError::Corrupt("implausible shape"))?;
    let abs_eb = r.get_f64()?;
    if abs_eb.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !abs_eb.is_finite() {
        return Err(CodecError::Corrupt("bad error bound"));
    }
    Ok(Header {
        compressor,
        scalar_tag,
        shape,
        abs_eb,
        temporal,
    })
}

/// Wrap a complete plain (version-1) stream as a temporal chain member.
///
/// The outer [`VERSION_TEMPORAL`] header mirrors the inner stream's
/// header fields and adds `mode`; the inner stream rides along intact as
/// the payload, so [`unwrap_temporal`] hands back exactly the bytes any
/// pre-temporal decoder understands. For a [`TemporalMode::Delta`]
/// member the inner stream codes the residual field — same shape and
/// scalar type as the snapshot, compressed at the *snapshot's* absolute
/// bound (the composed-bound contract; see `qoz_temporal`).
pub fn wrap_temporal(mode: TemporalMode, inner: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(inner);
    let inner_header = read_header(&mut r)?;
    if inner_header.temporal.is_some() {
        return Err(CodecError::Corrupt("temporal frame cannot nest"));
    }
    let outer = Header {
        temporal: Some(mode),
        ..inner_header
    };
    let mut w = ByteWriter::with_capacity(inner.len() + 32);
    write_header(&mut w, &outer);
    w.put_bytes(inner);
    Ok(w.finish())
}

/// Split a temporal chain member produced by [`wrap_temporal`] into its
/// header (with `temporal` set) and the inner plain stream. Rejects
/// plain streams — callers branch on [`Header::temporal`] via
/// `read_header` first when both kinds are possible.
pub fn unwrap_temporal(blob: &[u8]) -> Result<(Header, &[u8])> {
    let mut r = ByteReader::new(blob);
    let header = read_header(&mut r)?;
    if header.temporal.is_none() {
        return Err(CodecError::Corrupt("not a temporal chain member"));
    }
    let inner = &blob[blob.len() - r.remaining()..];
    Ok((header, inner))
}

/// Byte accounting returned by the streaming compression entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressStats {
    /// Size of the uncompressed input (`len * size_of::<T>()`).
    pub raw_bytes: u64,
    /// Size of the emitted stream.
    pub compressed_bytes: u64,
}

impl CompressStats {
    /// Compression ratio (raw / compressed).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// Read and validate a stream header against the expected compressor id
/// and element type — the shared front half of every decoder (they
/// differ only in `expect` and the `wrong_kind` message).
pub fn check_stream_header<T: Scalar>(
    r: &mut ByteReader,
    expect: CompressorId,
    wrong_kind: &'static str,
) -> Result<Header> {
    let header = read_header(r)?;
    if header.temporal.is_some() {
        // A temporal chain member's payload is a nested stream, not a
        // backend body — only chain-aware decoders (qoz_temporal,
        // qoz_api::Pipeline) may unwrap it.
        return Err(CodecError::Corrupt(
            "temporal chain member needs chain decode",
        ));
    }
    if header.compressor != expect {
        return Err(CodecError::Corrupt(wrong_kind));
    }
    if header.scalar_tag != T::TYPE_TAG {
        return Err(CodecError::Corrupt("scalar type mismatch"));
    }
    Ok(header)
}

/// The interface every compressor in the workspace implements: one
/// scratch-taking method per direction.
///
/// Long-lived callers (pipeline handles, parallel chunk workers, daemon
/// workers) keep one [`Scratch`] arena per logical worker and amortize
/// stage-buffer allocations across calls; the arena changes where bytes
/// are staged, never which bytes are produced or decoded. `Send + Sync`
/// so a boxed codec can be shared by worker threads and moved with the
/// handle that owns it.
pub trait Compressor<T: Scalar>: Send + Sync {
    /// Stable identifier (also stored in stream headers).
    fn id(&self) -> CompressorId;

    /// Compress `data` under `bound` into a self-describing blob,
    /// staging intermediate buffers in `scratch`.
    fn compress_with_scratch(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        scratch: &mut Scratch<T>,
    ) -> Vec<u8>;

    /// Decode a blob into `out`, reshaped to the stream's shape and
    /// reusing its allocation when capacity allows. `out` grows only
    /// once the payload agrees with the shape its header declares, so
    /// callers start from an empty array (`NdArray::zeros(Shape::d1(1))`)
    /// rather than preallocating from an untrusted header. With a warm
    /// arena and a previously-seen shape this is the zero-allocation
    /// decode path.
    fn decompress_into(
        &self,
        blob: &[u8],
        scratch: &mut Scratch<T>,
        out: &mut NdArray<T>,
    ) -> Result<()>;

    /// [`Compressor::compress_with_scratch`] on a fresh arena.
    fn compress(&self, data: &NdArray<T>, bound: ErrorBound) -> Vec<u8> {
        self.compress_with_scratch(data, bound, &mut Scratch::new())
    }

    /// [`Compressor::decompress_into`] on a fresh arena and array.
    fn decompress(&self, blob: &[u8]) -> Result<NdArray<T>> {
        let mut out = NdArray::zeros(Shape::d1(1));
        self.decompress_into(blob, &mut Scratch::new(), &mut out)?;
        Ok(out)
    }

    /// Display name.
    fn name(&self) -> &'static str {
        self.id().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            compressor: CompressorId::Qoz,
            scalar_tag: f32::TYPE_TAG,
            shape: Shape::d3(10, 20, 30),
            abs_eb: 1e-3,
            temporal: None,
        };
        let mut w = ByteWriter::new();
        write_header(&mut w, &h);
        let buf = w.finish();
        // Plain headers keep the pre-temporal layout: version byte 1,
        // compressor id immediately after.
        assert_eq!(buf[4], VERSION);
        assert_eq!(buf[5], CompressorId::Qoz as u8);
        let mut r = ByteReader::new(&buf);
        assert_eq!(read_header(&mut r).unwrap(), h);
    }

    #[test]
    fn temporal_header_roundtrip() {
        for mode in [TemporalMode::Keyframe, TemporalMode::Delta] {
            let h = Header {
                compressor: CompressorId::Sz3,
                scalar_tag: f64::TYPE_TAG,
                shape: Shape::d2(6, 9),
                abs_eb: 2e-4,
                temporal: Some(mode),
            };
            let mut w = ByteWriter::new();
            write_header(&mut w, &h);
            let buf = w.finish();
            assert_eq!(buf[4], VERSION_TEMPORAL);
            assert_eq!(buf[5], mode as u8);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_header(&mut r).unwrap(), h);
        }
        // A bad mode byte is corruption, not a version problem.
        let mut w = ByteWriter::new();
        write_header(
            &mut w,
            &Header {
                compressor: CompressorId::Qoz,
                scalar_tag: f32::TYPE_TAG,
                shape: Shape::d1(4),
                abs_eb: 1e-3,
                temporal: Some(TemporalMode::Delta),
            },
        );
        let mut buf = w.finish();
        buf[5] = 77;
        let mut r = ByteReader::new(&buf);
        assert_eq!(
            read_header(&mut r),
            Err(CodecError::Corrupt("unknown temporal mode"))
        );
    }

    #[test]
    fn wrap_unwrap_temporal_preserves_inner_bytes() {
        let data = NdArray::from_vec(Shape::d1(6), vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // A realistic inner stream, built by hand: header + opaque
        // payload.
        let inner_header = Header {
            compressor: CompressorId::Sz3,
            scalar_tag: f32::TYPE_TAG,
            shape: data.shape(),
            abs_eb: 1e-2,
            temporal: None,
        };
        let mut w = ByteWriter::new();
        write_header(&mut w, &inner_header);
        w.put_bytes(&[0xAB, 0xCD, 0xEF]);
        let inner = w.finish();

        for mode in [TemporalMode::Keyframe, TemporalMode::Delta] {
            let frame = wrap_temporal(mode, &inner).unwrap();
            let (header, payload) = unwrap_temporal(&frame).unwrap();
            assert_eq!(header.temporal, Some(mode));
            assert_eq!(header.compressor, inner_header.compressor);
            assert_eq!(header.shape, inner_header.shape);
            assert_eq!(header.abs_eb, inner_header.abs_eb);
            assert_eq!(payload, &inner[..], "inner stream must ride along intact");
            // Frames never nest, and plain streams never unwrap.
            assert!(wrap_temporal(mode, &frame).is_err());
        }
        assert_eq!(
            unwrap_temporal(&inner),
            Err(CodecError::Corrupt("not a temporal chain member"))
        );
        assert!(unwrap_temporal(b"junk").is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"NOPE");
        w.put_u8(VERSION);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(read_header(&mut r).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let h = Header {
            compressor: CompressorId::Sz3,
            scalar_tag: f64::TYPE_TAG,
            shape: Shape::d1(5),
            abs_eb: 0.5,
            temporal: None,
        };
        let mut w = ByteWriter::new();
        write_header(&mut w, &h);
        let mut buf = w.finish();
        buf[4] = 99; // version byte
        let mut r = ByteReader::new(&buf);
        assert_eq!(
            read_header(&mut r),
            Err(CodecError::BadVersion {
                found: 99,
                supported: VERSION_TEMPORAL
            })
        );
    }

    #[test]
    fn newer_version_distinguished_from_corruption() {
        let h = Header {
            compressor: CompressorId::Qoz,
            scalar_tag: f32::TYPE_TAG,
            shape: Shape::d1(8),
            abs_eb: 1e-2,
            temporal: None,
        };
        let mut w = ByteWriter::new();
        write_header(&mut w, &h);
        let mut buf = w.finish();
        // A future format version must read as "newer", not "corrupt".
        // (Version 2 is the valid temporal format, so "future" starts
        // one past VERSION_TEMPORAL.)
        buf[4] = VERSION_TEMPORAL + 1;
        let mut r = ByteReader::new(&buf);
        let err = read_header(&mut r).unwrap_err();
        assert!(err.is_newer_format(), "{err}");
        // An older (impossible) version 0 is a mismatch but NOT newer.
        buf[4] = 0;
        let mut r = ByteReader::new(&buf);
        let err = read_header(&mut r).unwrap_err();
        assert!(matches!(err, CodecError::BadVersion { .. }));
        assert!(!err.is_newer_format());
        // Plain corruption never reports as a version problem.
        assert!(!CodecError::Corrupt("x").is_newer_format());
        assert!(!CodecError::UnexpectedEof.is_newer_format());
    }

    #[test]
    fn relative_bound_resolves_via_range() {
        let a = NdArray::from_vec(Shape::d1(3), vec![0.0f64, 5.0, 10.0]);
        assert_eq!(ErrorBound::Rel(1e-2).absolute(&a), 0.1);
        assert_eq!(ErrorBound::Abs(0.25).absolute(&a), 0.25);
    }

    #[test]
    fn relative_bound_on_constant_data_positive() {
        let a = NdArray::from_vec(Shape::d1(4), vec![3.0f32; 4]);
        assert!(ErrorBound::Rel(1e-3).absolute(&a) > 0.0);
    }

    #[test]
    fn bound_validity() {
        assert!(ErrorBound::Abs(1e-3).is_valid());
        assert!(ErrorBound::Rel(0.1).is_valid());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-3] {
            assert!(!ErrorBound::Abs(bad).is_valid(), "Abs({bad}) accepted");
            assert!(!ErrorBound::Rel(bad).is_valid(), "Rel({bad}) accepted");
        }
        assert_eq!(ErrorBound::Abs(0.25).value(), 0.25);
        assert_eq!(ErrorBound::Rel(1e-2).value(), 1e-2);
    }

    #[test]
    fn compress_stats_ratio() {
        let s = CompressStats {
            raw_bytes: 4000,
            compressed_bytes: 100,
        };
        assert_eq!(s.ratio(), 40.0);
        // A (pathological) empty stream must not divide by zero.
        let z = CompressStats {
            raw_bytes: 8,
            compressed_bytes: 0,
        };
        assert!(z.ratio().is_finite());
    }

    #[test]
    fn compressor_ids_roundtrip() {
        for id in [
            CompressorId::Sz2,
            CompressorId::Sz3,
            CompressorId::Zfp,
            CompressorId::Mgard,
            CompressorId::Qoz,
        ] {
            assert_eq!(CompressorId::from_u8(id as u8).unwrap(), id);
        }
        assert!(CompressorId::from_u8(0).is_err());
    }
}
