//! `qoz_archive` — an indexed multi-variable container with random-access
//! and region-of-interest decompression.
//!
//! The paper's parallel dump/load scenario compresses huge snapshots
//! once and reads them many times; a monolithic stream forces every
//! consumer to decompress a whole field to look at one slab. This crate
//! defines the QZAR container: a superblock, a per-variable table of
//! contents, and a block index mapping a `Region::tile` chunk grid to
//! `(offset, len, checksum)` entries, with every chunk stored as an
//! *independent* `qoz_codec::stream` blob.
//!
//! * [`ArchiveWriter`] compresses chunks in parallel (through
//!   `qoz_pario`'s chunk-claiming workers) with any [`Compressor`](qoz_codec::Compressor)
//!   backend and emits the container;
//! * [`ArchiveReader`] answers `read_region` queries by fetching and
//!   decompressing only the chunks that intersect the request, stitches
//!   them into the requested slab, and verifies every chunk checksum on
//!   read. Every read method takes `&self`, so one open reader serves
//!   concurrent queries from many threads (pair with
//!   [`ArchiveReader::read_region_with`] to give each thread its own
//!   scratch arena). All reads share one temporal-chain walk, one
//!   member read and one checksum-verifying chunk fetch, which
//!   [`ArchiveReader::verify`] uses too;
//! * [`ArchiveAppender`] grows an existing archive in place: new
//!   variables — or new timesteps via the [`snapshot_name`]
//!   multi-snapshot convention — land behind the existing payload,
//!   which is kept byte-for-byte while only the superblock and TOC are
//!   rewritten. It rebuilds a chain predecessor through the reader's
//!   own chain walk;
//! * [`ByteSource`] abstracts the byte store (file or in-memory) and
//!   counts bytes fetched, making the I/O saving of partial reads
//!   observable.
//!
//! Both writers emit the same container head, and both `write_to`s
//! write a temp file and rename it over the target, so a write that
//! fails or is killed part-way never leaves a torn archive at the
//! target path.
//!
//! ```
//! use qoz_api::{BackendId, BackendRegistry};
//! use qoz_archive::{ArchiveReader, ArchiveWriter};
//! use qoz_codec::stream::ErrorBound;
//! use qoz_tensor::{NdArray, Region, Shape};
//!
//! let data = NdArray::from_fn(Shape::d3(20, 20, 20), |i| {
//!     (i[0] as f32 * 0.2).sin() + (i[1] as f32 * 0.1).cos() + i[2] as f32 * 0.01
//! });
//! let codec = BackendRegistry::new().codec::<f32>(BackendId::Sz3);
//! let mut w = ArchiveWriter::new().with_chunk_side(8);
//! w.add_variable("t", &data, &*codec, ErrorBound::Abs(1e-3))
//!     .unwrap();
//! let bytes = w.finish();
//!
//! let r = ArchiveReader::from_bytes(&bytes).unwrap();
//! let roi = Region::new(&[5, 5, 5], &[6, 6, 6]);
//! let slab: NdArray<f32> = r.read_region("t", &roi).unwrap();
//! assert_eq!(slab.shape().dims(), &[6, 6, 6]);
//! assert!(slab.max_abs_diff(&data.extract_region(&roi)) <= 2e-3);
//! // Far fewer bytes touched than the whole archive holds.
//! assert!(r.bytes_read() < bytes.len() as u64);
//! ```

pub mod appender;
pub mod format;
pub mod reader;
pub mod source;
pub mod writer;

pub use appender::ArchiveAppender;
pub use format::{
    fnv1a, parse_snapshot_name, snapshot_name, ChunkEntry, TemporalKind, Toc, VarMeta, MAGIC,
    VERSION, VERSION_TEMPORAL,
};
pub use reader::{ArchiveReader, ChunkFault, FaultKind, VerifyReport};
pub use source::{ByteSource, FileSource, SliceSource};
pub use writer::ArchiveWriter;

use qoz_codec::CodecError;

/// Errors produced while building or reading archives.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchiveError {
    /// Underlying file I/O failed.
    Io(String),
    /// A read extended past the end of the archive.
    Truncated,
    /// The superblock magic is wrong — not a QZAR archive.
    BadMagic,
    /// The container was written by a newer format version.
    NewerFormat {
        /// Version found in the superblock.
        found: u8,
        /// Highest version this build reads.
        supported: u8,
    },
    /// A structural invariant of the TOC or index is violated.
    Corrupt(&'static str),
    /// A chunk's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// Variable the chunk belongs to.
        var: String,
        /// Chunk index within the variable's grid.
        chunk: usize,
    },
    /// The requested variable does not exist.
    UnknownVariable(String),
    /// A variable was added twice under the same name.
    DuplicateVariable(String),
    /// The stored scalar type does not match the requested one.
    TypeMismatch {
        /// Tag recorded in the archive.
        stored: u8,
        /// Tag of the requested element type.
        requested: u8,
    },
    /// The query region does not fit inside the variable's shape.
    RegionOutOfBounds,
    /// A chunk stream failed to decode.
    Codec(CodecError),
}

impl ArchiveError {
    /// `true` when the failure means "written by a newer release" —
    /// either the container superblock or an embedded chunk stream —
    /// rather than corruption.
    pub fn is_newer_format(&self) -> bool {
        match self {
            ArchiveError::NewerFormat { found, supported } => found > supported,
            ArchiveError::Codec(e) => e.is_newer_format(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(msg) => write!(f, "archive I/O error: {msg}"),
            ArchiveError::Truncated => write!(f, "archive is truncated"),
            ArchiveError::BadMagic => write!(f, "not a QZAR archive (bad magic)"),
            ArchiveError::NewerFormat { found, supported } => write!(
                f,
                "archive format version {found} is newer than supported ({supported}); upgrade to read it"
            ),
            ArchiveError::Corrupt(what) => write!(f, "corrupt archive: {what}"),
            ArchiveError::ChecksumMismatch { var, chunk } => {
                write!(f, "checksum mismatch in variable '{var}', chunk {chunk}")
            }
            ArchiveError::UnknownVariable(name) => write!(f, "no variable named '{name}'"),
            ArchiveError::DuplicateVariable(name) => {
                write!(f, "variable '{name}' already exists in the archive")
            }
            ArchiveError::TypeMismatch { stored, requested } => write!(
                f,
                "scalar type mismatch: archive stores tag {stored:#x}, caller requested {requested:#x}"
            ),
            ArchiveError::RegionOutOfBounds => {
                write!(f, "query region exceeds the variable's shape")
            }
            ArchiveError::Codec(e) => write!(f, "chunk stream error: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<CodecError> for ArchiveError {
    fn from(e: CodecError) -> Self {
        ArchiveError::Codec(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ArchiveError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_format_detection_spans_container_and_chunks() {
        let container = ArchiveError::NewerFormat {
            found: 2,
            supported: 1,
        };
        assert!(container.is_newer_format());
        let chunk = ArchiveError::Codec(CodecError::BadVersion {
            found: 9,
            supported: 1,
        });
        assert!(chunk.is_newer_format());
        assert!(!ArchiveError::Truncated.is_newer_format());
        assert!(!ArchiveError::Corrupt("x").is_newer_format());
    }

    #[test]
    fn errors_display_distinctly() {
        let msgs = [
            ArchiveError::BadMagic.to_string(),
            ArchiveError::Truncated.to_string(),
            ArchiveError::NewerFormat {
                found: 3,
                supported: 1,
            }
            .to_string(),
            ArchiveError::ChecksumMismatch {
                var: "v".into(),
                chunk: 7,
            }
            .to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
