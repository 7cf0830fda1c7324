//! Building QZAR archives.

use crate::format::{fnv1a, ChunkEntry, TemporalKind, Toc, VarMeta, MAGIC};
use crate::{ArchiveError, Result};
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_codec::ByteWriter;
use qoz_tensor::{NdArray, Scalar};

/// Default chunk grid side (elements). 32³ f32 chunks are 128 KiB raw —
/// small enough that a region query touches little excess data, large
/// enough that per-chunk stream overhead stays negligible.
pub const DEFAULT_CHUNK_SIDE: usize = 32;

/// Builds an archive: add variables one at a time, then [`finish`].
///
/// Each variable is split into a `Region::tile` chunk grid; chunks are
/// compressed *independently* (so readers can fetch any subset) and in
/// parallel via `qoz_pario`'s chunk-claiming workers. A relative error
/// bound is resolved against the **whole** variable once, so every
/// chunk honors the same absolute bound the monolithic stream would —
/// chunking never changes the error contract.
///
/// [`finish`]: ArchiveWriter::finish
#[derive(Debug)]
pub struct ArchiveWriter {
    chunk_side: usize,
    threads: usize,
    toc: Toc,
    payload: Vec<u8>,
}

impl Default for ArchiveWriter {
    fn default() -> Self {
        ArchiveWriter {
            chunk_side: DEFAULT_CHUNK_SIDE,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            toc: Toc::default(),
            payload: Vec::new(),
        }
    }
}

impl ArchiveWriter {
    /// Create a writer with the default chunk side and thread count.
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

    /// Override the number of compression worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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
        // Chunk blobs stream straight into the payload in chunk order;
        // the returned lengths delimit them for the index.
        let mut offset = self.payload.len() as u64;
        let lens = qoz_pario::compress_chunks_into(
            compressor,
            &chunks,
            ErrorBound::Abs(abs_eb),
            self.threads,
            &mut self.payload,
        )?;
        let mut entries = Vec::with_capacity(lens.len());
        for len in lens {
            let blob = &self.payload[offset as usize..(offset + len) as usize];
            entries.push(ChunkEntry {
                offset,
                len,
                checksum: fnv1a(blob),
            });
            offset += len;
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
    pub fn write_into(&self, sink: &mut dyn std::io::Write) -> Result<u64> {
        self.write_into_with_toc(&self.toc.encode(), sink)
    }

    fn write_into_with_toc(&self, toc_bytes: &[u8], sink: &mut dyn std::io::Write) -> Result<u64> {
        let io_err = |e: std::io::Error| ArchiveError::Io(format!("archive sink: {e}"));
        let mut sb = ByteWriter::with_capacity(crate::format::SUPERBLOCK_LEN);
        sb.put_bytes(&MAGIC);
        sb.put_u8(self.toc.version());
        sb.put_u8(0); // flags, reserved
        sb.put_u64(toc_bytes.len() as u64);
        let sb = sb.finish();
        sink.write_all(&sb).map_err(io_err)?;
        sink.write_all(toc_bytes).map_err(io_err)?;
        sink.write_all(&fnv1a(toc_bytes).to_le_bytes())
            .map_err(io_err)?;
        sink.write_all(&self.payload).map_err(io_err)?;
        Ok((sb.len() + toc_bytes.len() + 8 + self.payload.len()) as u64)
    }

    /// Serialize the archive: superblock, TOC + checksum, payload.
    pub fn finish(self) -> Vec<u8> {
        let toc_bytes = self.toc.encode();
        let mut out = Vec::with_capacity(
            crate::format::SUPERBLOCK_LEN + toc_bytes.len() + 8 + self.payload.len(),
        );
        self.write_into_with_toc(&toc_bytes, &mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Stream the archive to `path`; returns bytes written. Unlike
    /// [`ArchiveWriter::finish`] this never holds a second full copy of
    /// the archive in memory.
    pub fn write_to(self, path: &str) -> Result<u64> {
        let file = std::fs::File::create(path)
            .map_err(|e| ArchiveError::Io(format!("cannot write {path}: {e}")))?;
        let mut sink = std::io::BufWriter::new(file);
        let written = self.write_into(&mut sink)?;
        std::io::Write::flush(&mut sink)
            .map_err(|e| ArchiveError::Io(format!("cannot write {path}: {e}")))?;
        Ok(written)
    }
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
    fn thread_count_does_not_change_bytes() {
        let data = field();
        let c = qoz_sz3::Sz3::default();
        let mut a = ArchiveWriter::new().with_chunk_side(4).with_threads(1);
        a.add_variable("v", &data, &c, ErrorBound::Abs(1e-3))
            .unwrap();
        let mut b = ArchiveWriter::new().with_chunk_side(4).with_threads(7);
        b.add_variable("v", &data, &c, ErrorBound::Abs(1e-3))
            .unwrap();
        assert_eq!(a.finish(), b.finish(), "archives must be deterministic");
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
