//! Lossless coding substrate shared by every compressor in the workspace.
//!
//! The SZ-family pipeline ends with *linear-scale quantization* of
//! prediction residuals followed by entropy coding (Huffman) and a
//! dictionary coder (zstd in the reference implementations). This crate
//! provides from-scratch implementations of each stage:
//!
//! * [`bits`] — MSB-first bit-level writer/reader,
//! * [`byteio`] — framed little-endian byte writer/reader with varints,
//! * [`quantizer`] — the error-bounded linear-scale quantizer (SZ §III),
//! * [`huffman`] — canonical Huffman coding over `u32` symbols,
//! * [`lz`] — an LZSS dictionary coder standing in for zstd,
//! * [`backend`] — the composed `bins → Huffman → LZSS` lossless backend,
//! * [`scratch`] — reusable per-pipeline stage buffers; every stage above
//!   has a `*_with` variant that stages its work in a recycled arena and
//!   produces byte-identical output,
//! * [`claim`] — claim-scheduled parallel work items and the process-wide
//!   helper-thread budget, shared by chunk workers and the tuner.
//!
//! All decoders return [`CodecError`] on malformed input instead of
//! panicking; corrupted streams must never crash a consumer.

pub mod backend;
pub mod bits;
pub mod byteio;
pub mod claim;
pub mod huffman;
pub mod lz;
pub mod quantizer;
pub mod scratch;
pub mod simd;
pub mod stream;

pub use backend::{
    decode_bins, decode_bins_with, encode_bins, encode_bins_with, lossless_compress,
    lossless_compress_with, lossless_decompress, lossless_decompress_with,
};
pub use bits::{BitReader, BitWriter};
pub use byteio::{ByteReader, ByteWriter};
pub use claim::{claim_each, Claims, HelperLease};
pub use huffman::{HuffmanDecoder, HuffmanEncoder};
pub use quantizer::{LinearQuantizer, Quantized};
pub use scratch::{EntropyScratch, GrowCounter, Scratch};
pub use stream::{CompressStats, Compressor, CompressorId, ErrorBound, Header, TemporalMode};

/// Errors produced while decoding compressed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the decoder finished.
    UnexpectedEof,
    /// A header/field contained an invalid value.
    Corrupt(&'static str),
    /// An underlying reader/writer failed while streaming a blob to a
    /// sink or from a source.
    Io(String),
    /// The stream was produced by an incompatible format version.
    ///
    /// Carries both the version found in the stream and the highest
    /// version this build supports, so consumers (e.g. the archive
    /// reader) can tell "written by a newer release" apart from plain
    /// corruption.
    BadVersion {
        /// Version byte found in the stream.
        found: u8,
        /// Highest version this build can decode.
        supported: u8,
    },
}

impl CodecError {
    /// `true` when the error is a version mismatch against a *newer*
    /// format than this build supports — i.e. the stream is probably
    /// valid, just unreadable here. Upgrade, don't assume corruption.
    pub fn is_newer_format(&self) -> bool {
        matches!(self, CodecError::BadVersion { found, supported } if found > supported)
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e.to_string())
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
            CodecError::Io(what) => write!(f, "stream I/O error: {what}"),
            CodecError::BadVersion { found, supported } => write!(
                f,
                "unsupported stream version {found} (this build reads <= {supported})"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, CodecError>;
