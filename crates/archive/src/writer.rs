//! Building QZAR archives.

use crate::format::{fnv1a, sink_error, write_head, ChunkEntry, TemporalKind, Toc, VarMeta};
use crate::{ArchiveError, Result};
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_tensor::{NdArray, Scalar};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Default chunk grid side (elements). 32³ f32 chunks are 128 KiB raw —
/// small enough that a region query touches little excess data, large
/// enough that per-chunk stream overhead stays negligible.
pub const DEFAULT_CHUNK_SIDE: usize = 32;

/// Builds an archive: add variables one at a time, then [`finish`].
///
/// Each variable is split into a `Region::tile` chunk grid; chunks are
/// compressed *independently* (so readers can fetch any subset) and in
/// parallel via `qoz_pario`'s chunk-claiming workers, one per core. A
/// relative error bound is resolved against the **whole** variable
/// once, so every chunk honors the same absolute bound the monolithic
/// stream would — chunking never changes the error contract.
///
/// [`finish`]: ArchiveWriter::finish
#[derive(Debug)]
pub struct ArchiveWriter {
    chunk_side: usize,
    toc: Toc,
    payload: Vec<u8>,
}

impl Default for ArchiveWriter {
    fn default() -> Self {
        ArchiveWriter {
            chunk_side: DEFAULT_CHUNK_SIDE,
            toc: Toc::default(),
            payload: Vec::new(),
        }
    }
}

impl ArchiveWriter {
    /// Create a writer with the default chunk side.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the chunk grid side (elements per dimension).
    ///
    /// # Panics
    /// Panics if `side` is 0.
    pub fn with_chunk_side(mut self, side: usize) -> Self {
        assert!(side > 0, "chunk side must be positive");
        self.chunk_side = side;
        self
    }

    /// Variables added so far.
    pub fn toc(&self) -> &Toc {
        &self.toc
    }

    /// The staged payload (chunk blobs, back to back) — the appender
    /// splices this behind an existing archive's payload.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Compress `data` under `bound` with `compressor` and add it as a
    /// variable named `name`.
    pub fn add_variable<T, C>(
        &mut self,
        name: &str,
        data: &NdArray<T>,
        compressor: &C,
        bound: ErrorBound,
    ) -> Result<()>
    where
        T: Scalar,
        C: Compressor<T> + ?Sized,
    {
        if name.is_empty() {
            return Err(ArchiveError::Corrupt("empty variable name"));
        }
        if self.toc.vars.iter().any(|v| v.name == name) {
            return Err(ArchiveError::DuplicateVariable(name.to_string()));
        }
        // Resolve a relative bound against the full variable so every
        // chunk gets the same absolute bound.
        let abs_eb = bound.absolute(data);
        let regions = qoz_tensor::Region::tile(data.shape(), self.chunk_side);
        let chunks: Vec<NdArray<T>> = regions.iter().map(|r| data.extract_region(r)).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let blobs =
            qoz_pario::compress_chunks(compressor, &chunks, ErrorBound::Abs(abs_eb), threads);
        let mut entries = Vec::with_capacity(blobs.len());
        for blob in blobs {
            entries.push(ChunkEntry {
                offset: self.payload.len() as u64,
                len: blob.len() as u64,
                checksum: fnv1a(&blob),
            });
            self.payload.extend_from_slice(&blob);
        }
        self.toc.vars.push(VarMeta {
            name: name.to_string(),
            scalar_tag: T::TYPE_TAG,
            shape: data.shape(),
            abs_eb,
            compressor: compressor.id(),
            chunk_side: self.chunk_side,
            chunks: entries,
            temporal: TemporalKind::Independent,
        });
        Ok(())
    }

    /// [`ArchiveWriter::add_variable`] with an explicit temporal-chain
    /// role — the appender's chained-snapshot path stages keyframes and
    /// residual (delta) variables through this. For deltas, `data` is
    /// the residual field and `bound` must already be the absolute bound
    /// resolved against the *snapshot* (never the residual's own range).
    pub(crate) fn add_variable_kind<T, C>(
        &mut self,
        name: &str,
        data: &NdArray<T>,
        compressor: &C,
        bound: ErrorBound,
        kind: TemporalKind,
    ) -> Result<()>
    where
        T: Scalar,
        C: Compressor<T> + ?Sized,
    {
        self.add_variable(name, data, compressor, bound)?;
        self.toc
            .vars
            .last_mut()
            .expect("add_variable just pushed")
            .temporal = kind;
        Ok(())
    }

    /// Serialize the archive into any byte sink — superblock, TOC +
    /// checksum, payload — without materializing one contiguous buffer.
    /// Returns the bytes written.
    pub fn write_into(&self, sink: &mut dyn Write) -> Result<u64> {
        let head = write_head(&self.toc, sink)?;
        sink.write_all(&self.payload).map_err(sink_error)?;
        Ok(head + self.payload.len() as u64)
    }

    /// Serialize the archive: superblock, TOC + checksum, payload.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Stream the archive to `path` through [`write_atomically`];
    /// returns bytes written. Unlike [`ArchiveWriter::finish`] this
    /// never holds a second full copy of the archive in memory.
    pub fn write_to(self, path: &str) -> Result<u64> {
        write_atomically(path, |sink| self.write_into(sink))
    }
}

/// Stream `write`'s output into a temp file next to `path` and rename it
/// over `path`, durably. A write that fails or is killed part-way never
/// leaves a torn file at `path`, and `path` may be a file the writer is
/// still reading from (an appender's old payload).
///
/// The temp name carries the process id, so two processes writing the
/// same target never share a temp file. The file is synced before the
/// rename and its directory after it: once this returns, a crash leaves
/// the new file whole. On failure the temp file is removed and the
/// target is left as it was. Returns what `write` returned; I/O errors
/// reach the caller's error type through its `From<std::io::Error>`.
pub fn write_atomically<R, E: From<std::io::Error>>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut dyn Write) -> std::result::Result<R, E>,
) -> std::result::Result<R, E> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.qztmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let io_err = |e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
    };
    let result = (|| {
        let mut sink = BufWriter::new(File::create(&tmp).map_err(io_err)?);
        let result = write(&mut sink)?;
        let file = sink.into_inner().map_err(|e| io_err(e.into_error()))?;
        file.sync_all().map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)?;
        Ok(result)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::Shape;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(12, 10, 8), |i| {
            (i[0] as f32 * 0.4).sin() * (i[1] as f32 * 0.25).cos() + i[2] as f32 * 0.02
        })
    }

    #[test]
    fn writer_records_grid_sized_index() {
        let data = field();
        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable("v", &data, &qoz_sz3::Sz3::default(), ErrorBound::Abs(1e-3))
            .unwrap();
        let var = &w.toc().vars[0];
        assert_eq!(var.chunks.len(), 3 * 3 * 2);
        assert_eq!(var.chunk_side, 4);
        assert_eq!(var.compressor, qoz_codec::CompressorId::Sz3);
        // Entries tile the payload contiguously.
        let mut expect_off = 0u64;
        for c in &var.chunks {
            assert_eq!(c.offset, expect_off);
            assert!(c.len > 0);
            expect_off += c.len;
        }
    }

    #[test]
    fn duplicate_variable_rejected() {
        let data = field();
        let mut w = ArchiveWriter::new();
        let c = qoz_sz3::Sz3::default();
        w.add_variable("v", &data, &c, ErrorBound::Abs(1e-3))
            .unwrap();
        assert_eq!(
            w.add_variable("v", &data, &c, ErrorBound::Abs(1e-3)),
            Err(ArchiveError::DuplicateVariable("v".into()))
        );
        assert!(w
            .add_variable("", &data, &c, ErrorBound::Abs(1e-3))
            .is_err());
    }

    #[test]
    fn write_into_matches_finish_bytes() {
        let data = field();
        let c = qoz_sz3::Sz3::default();
        let mut a = ArchiveWriter::new().with_chunk_side(4);
        a.add_variable("v", &data, &c, ErrorBound::Abs(1e-3))
            .unwrap();
        let mut streamed = Vec::new();
        let written = a.write_into(&mut streamed).unwrap();
        assert_eq!(written, streamed.len() as u64);
        assert_eq!(streamed, a.finish(), "streaming must not change bytes");
    }

    #[test]
    fn write_to_replaces_the_target_whole_or_not_at_all() {
        let path = std::env::temp_dir()
            .join(format!("qoz_writer_atomic_{}.qza", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let tmp = format!("{path}.{}.qztmp", std::process::id());
        std::fs::write(&path, b"old archive").unwrap();
        // A write that fails part-way leaves the target as it was and
        // no temp file behind.
        let failed: Result<()> = write_atomically(&path, |sink| {
            sink.write_all(b"half").map_err(sink_error)?;
            Err(ArchiveError::Truncated)
        });
        assert_eq!(failed, Err(ArchiveError::Truncated));
        assert_eq!(std::fs::read(&path).unwrap(), b"old archive");
        assert!(!std::path::Path::new(&tmp).exists());

        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable(
            "v",
            &field(),
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        let mut want = Vec::new();
        w.write_into(&mut want).unwrap();
        assert_eq!(w.write_to(&path).unwrap(), want.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relative_bound_resolved_against_full_variable() {
        // A chunk-local relative resolution would give chunk 1 (range
        // ~0.08) a far tighter bound than the global range (~8) implies;
        // recording abs_eb from the full variable is the contract.
        let data = NdArray::from_fn(Shape::d1(64), |i| {
            if i[0] < 32 {
                i[0] as f32 * 0.25
            } else {
                i[0] as f32 * 0.0025
            }
        });
        let mut w = ArchiveWriter::new().with_chunk_side(32);
        w.add_variable("v", &data, &qoz_sz3::Sz3::default(), ErrorBound::Rel(1e-2))
            .unwrap();
        let expect = ErrorBound::Rel(1e-2).absolute(&data);
        assert_eq!(w.toc().vars[0].abs_eb, expect);
    }
}
