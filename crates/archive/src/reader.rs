//! Reading QZAR archives: full variables, region queries, verification.
//!
//! All read methods take `&self`: an [`ArchiveReader`] over a `Sync`
//! [`ByteSource`] is itself shareable, so many threads can serve
//! region queries from **one** open archive handle concurrently — each
//! caller brings its own [`Scratch`] arena via
//! [`ArchiveReader::read_region_with`], or uses the internally-parallel
//! [`ArchiveReader::read_region`].

use crate::format::{
    fnv1a, TemporalKind, Toc, VarMeta, MAGIC, SUPERBLOCK_LEN, VERSION, VERSION_TEMPORAL,
};
use crate::source::{ByteSource, FileSource, SliceSource};
use crate::{ArchiveError, Result};
use qoz_codec::Scratch;
use qoz_tensor::{NdArray, Region, Scalar, Shape};

/// Read-path counters on the process-wide telemetry registry. Resolved
/// once — the per-chunk hot path only touches atomics.
struct ReadMetrics {
    chunk_fetches: std::sync::Arc<qoz_telemetry::Counter>,
    chunks_decoded: std::sync::Arc<qoz_telemetry::Counter>,
    bytes_read: std::sync::Arc<qoz_telemetry::Counter>,
    bytes_served: std::sync::Arc<qoz_telemetry::Counter>,
    faults_truncated: std::sync::Arc<qoz_telemetry::Counter>,
    faults_bit_flip: std::sync::Arc<qoz_telemetry::Counter>,
    tolerant_zero_fills: std::sync::Arc<qoz_telemetry::Counter>,
}

fn read_metrics() -> &'static ReadMetrics {
    static METRICS: std::sync::OnceLock<ReadMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qoz_telemetry::global();
        ReadMetrics {
            chunk_fetches: reg.counter("qoz_archive_chunk_fetches_total", &[]),
            chunks_decoded: reg.counter("qoz_archive_chunks_decoded_total", &[]),
            bytes_read: reg.counter("qoz_archive_bytes_read_total", &[]),
            bytes_served: reg.counter("qoz_archive_bytes_served_total", &[]),
            faults_truncated: reg.counter("qoz_archive_faults_total", &[("kind", "truncated")]),
            faults_bit_flip: reg.counter("qoz_archive_faults_total", &[("kind", "bit_flip")]),
            tolerant_zero_fills: reg.counter("qoz_archive_tolerant_zero_fills_total", &[]),
        }
    })
}

/// How a stored chunk failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The chunk's bytes could not be fetched — its indexed range runs
    /// past the bytes the source can actually produce (a torn write or
    /// a file truncated underneath an open reader).
    Truncated,
    /// All bytes are present but hash to the wrong checksum (includes
    /// the pathological case of a checksum-colliding blob that then
    /// fails to decode).
    BitFlip,
}

/// One damaged chunk, located precisely enough to route reads around
/// it: a degraded server keeps serving every region that does not touch
/// `(var, chunk)` and zero-fills the slab parts that do (see
/// [`ArchiveReader::read_region_tolerant`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Variable the chunk belongs to.
    pub var: String,
    /// Chunk index within the variable's grid.
    pub chunk: usize,
    /// What kind of damage was detected.
    pub kind: FaultKind,
}

impl ChunkFault {
    /// The fault of chunk `chunk` of `var` whose read failed with `e`:
    /// bytes that hash wrong or will not decode are a bit-flip, bytes
    /// that cannot be read a truncation.
    fn new(var: &VarMeta, chunk: usize, e: &ArchiveError) -> Self {
        let kind = match e {
            ArchiveError::ChecksumMismatch { .. }
            | ArchiveError::Codec(_)
            | ArchiveError::Corrupt(_) => FaultKind::BitFlip,
            _ => FaultKind::Truncated,
        };
        ChunkFault {
            var: var.name.clone(),
            chunk,
            kind,
        }
    }
}

/// Full damage report returned by [`ArchiveReader::verify`].
///
/// Verification scans **every** chunk of every variable — it never
/// stops at the first fault — so one pass yields the complete map of
/// what is still servable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Variables checked.
    pub vars: usize,
    /// Chunks whose checksums were verified (clean or not).
    pub chunks: usize,
    /// Payload bytes covered.
    pub payload_bytes: u64,
    /// Every damaged chunk found, in (variable, chunk) scan order.
    pub faults: Vec<ChunkFault>,
}

impl VerifyReport {
    /// `true` when every chunk verified clean.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Random-access reader over a QZAR archive.
///
/// Construction parses and checksums the superblock and TOC only; chunk
/// payloads are fetched lazily, one positioned read per chunk a query
/// actually intersects. Every fetched chunk is verified against its
/// index checksum before decoding.
#[derive(Debug)]
pub struct ArchiveReader<S: ByteSource> {
    src: S,
    toc: Toc,
    payload_start: u64,
}

impl ArchiveReader<FileSource> {
    /// Open an archive file.
    pub fn open(path: &str) -> Result<Self> {
        Self::new(FileSource::open(path)?)
    }
}

impl<'a> ArchiveReader<SliceSource<'a>> {
    /// Read an archive already held in memory.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self> {
        Self::new(SliceSource::new(bytes))
    }
}

impl<S: ByteSource> ArchiveReader<S> {
    /// Parse the superblock and TOC from any byte source.
    pub fn new(src: S) -> Result<Self> {
        let sb = src.read_at(0, SUPERBLOCK_LEN)?;
        if sb[..4] != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let version = sb[4];
        if version > VERSION_TEMPORAL {
            return Err(ArchiveError::NewerFormat {
                found: version,
                supported: VERSION_TEMPORAL,
            });
        }
        // Lower-than-ever-released versions are corruption, not a format
        // to "upgrade" for — don't tell the user to chase a newer build.
        if version < VERSION {
            return Err(ArchiveError::Corrupt("bad container version"));
        }
        if sb[5] != 0 {
            return Err(ArchiveError::Corrupt("nonzero reserved flags"));
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&sb[6..14]);
        let toc_len = u64::from_le_bytes(len8);
        if toc_len > src.len() {
            return Err(ArchiveError::Truncated);
        }
        let toc_bytes = src.read_at(SUPERBLOCK_LEN as u64, toc_len as usize)?;
        let sum = src.read_at(SUPERBLOCK_LEN as u64 + toc_len, 8)?;
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&sum);
        if fnv1a(&toc_bytes) != u64::from_le_bytes(sum8) {
            return Err(ArchiveError::Corrupt("TOC checksum mismatch"));
        }
        let payload_start = SUPERBLOCK_LEN as u64 + toc_len + 8;
        let payload_len = src.len() - payload_start;
        let toc = Toc::decode(&toc_bytes, payload_len, version)?;
        Ok(ArchiveReader {
            src,
            toc,
            payload_start,
        })
    }

    /// The parsed table of contents.
    pub fn toc(&self) -> &Toc {
        &self.toc
    }

    /// Total archive size in bytes.
    pub fn archive_len(&self) -> u64 {
        self.src.len()
    }

    /// Bytes fetched from the source so far (superblock + TOC + chunks).
    pub fn bytes_read(&self) -> u64 {
        self.src.bytes_read()
    }

    /// Total payload bytes (chunk blobs) stored behind the TOC.
    pub fn payload_len(&self) -> u64 {
        self.src.len() - self.payload_start
    }

    /// Fetch `len` raw payload bytes at payload-relative `offset`
    /// (no checksum verification — the appender streams old payload
    /// through this; chunk-granular reads go through `Chunks::fetch`).
    pub(crate) fn read_payload(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.src.read_at(self.payload_start + offset, len)
    }

    /// This archive's chunks, as its own TOC indexes them.
    fn chunks(&self) -> Chunks<'_, S> {
        Chunks {
            reader: self,
            toc: &self.toc,
            staged: SliceSource::new(&[]),
        }
    }

    /// Decompress the slab of `var` covered by `region`, touching only
    /// the chunks the region intersects.
    ///
    /// Intersecting chunk blobs are fetched and checksum-verified one
    /// positioned read at a time, then decompressed in parallel through
    /// `qoz_pario`'s chunk-claiming workers — chunks are independent
    /// streams, so region queries and bulk loads scale with cores the
    /// same way bulk dumps do. The result is a dense array of the
    /// region's size, bitwise equal to slicing the same region out of a
    /// full decompress.
    ///
    /// Temporal delta snapshots are resolved transparently: the same
    /// region is read from every chain member (base keyframe first) and
    /// the residuals accumulated — addition commutes with region
    /// extraction, so a chained region read still touches only the
    /// chunks each member's region intersects, never whole snapshots.
    pub fn read_region<T: Scalar>(&self, name: &str, region: &Region) -> Result<NdArray<T>> {
        self.chunks()
            .read(name, region, &mut Decode::Parallel, None)
    }

    /// [`ArchiveReader::read_region`] decoding serially with the
    /// caller's scratch arena instead of spawning workers.
    ///
    /// This is the many-concurrent-readers shape: when the parallelism
    /// lives *outside* — N threads each querying their own region of one
    /// shared reader — per-query worker pools only oversubscribe the
    /// machine. Each thread keeps one arena and calls this; chunk
    /// streams decode one at a time through it, values bitwise equal to
    /// [`ArchiveReader::read_region`]. Temporal chains resolve exactly
    /// as in [`ArchiveReader::read_region`].
    pub fn read_region_with<T: Scalar>(
        &self,
        name: &str,
        region: &Region,
        scratch: &mut Scratch<T>,
    ) -> Result<NdArray<T>> {
        self.chunks()
            .read(name, region, &mut Decode::Serial(scratch), None)
    }

    /// Decompress a whole variable (a [`ArchiveReader::read_region`]
    /// over the full shape — every chunk is fully covered, so each
    /// decodes in parallel and lands in the output without copies).
    pub fn read_full<T: Scalar>(&self, name: &str) -> Result<NdArray<T>> {
        self.chunks().read_full(name)
    }

    /// Integrity fast path: fetch every chunk and check its checksum
    /// (and the TOC's, already checked at open) **without** spending any
    /// time decompressing.
    ///
    /// Damage never aborts the scan — every chunk of every variable is
    /// checked and every fault lands in [`VerifyReport::faults`], so a
    /// single pass tells a server exactly which chunks it must route
    /// around (and whether the damage is a torn tail or scattered
    /// bit-flips). A report with [`VerifyReport::is_clean`] `== false`
    /// is still `Ok`: failing to *verify* is not failing to *scan*.
    pub fn verify(&self) -> Result<VerifyReport> {
        let chunks = self.chunks();
        let mut report = VerifyReport {
            vars: self.toc.vars.len(),
            chunks: 0,
            payload_bytes: 0,
            faults: Vec::new(),
        };
        for var in &self.toc.vars {
            for (k, entry) in var.chunks.iter().enumerate() {
                report.chunks += 1;
                report.payload_bytes += entry.len;
                if let Err(e) = chunks.fetch(var, k) {
                    report.faults.push(ChunkFault::new(var, k, &e));
                }
            }
        }
        Ok(report)
    }

    /// [`ArchiveReader::read_region_with`] that serves *around* damaged
    /// chunks instead of failing the whole query.
    ///
    /// Chunks that fetch and decode cleanly land in the slab exactly as
    /// in the strict path (bitwise equal where clean); chunks that are
    /// truncated, checksum-broken, or undecodable leave their part of
    /// the slab **zero-filled** and are reported in the returned fault
    /// list. An empty fault list therefore certifies a byte-identical
    /// result to [`ArchiveReader::read_region_with`]; a non-empty one is
    /// the daemon's "degraded read" answer. Structural errors that make
    /// the query itself meaningless (unknown variable, type mismatch,
    /// out-of-bounds region) still fail hard.
    /// Temporal chains degrade per member: a damaged chunk in any chain
    /// member zero-fills that member's contribution to the slab (for a
    /// delta member that reads as "no change there") and is reported in
    /// the fault list like any other damage.
    pub fn read_region_tolerant<T: Scalar>(
        &self,
        name: &str,
        region: &Region,
        scratch: &mut Scratch<T>,
    ) -> Result<(NdArray<T>, Vec<ChunkFault>)> {
        let mut faults = Vec::new();
        let slab = self.chunks().read(
            name,
            region,
            &mut Decode::Serial(scratch),
            Some(&mut faults),
        )?;
        Ok((slab, faults))
    }
}

/// How a member read decodes the chunks it fetched.
enum Decode<'s, T: Scalar> {
    /// On `qoz_pario` workers, one per core; any failure fails the read.
    Parallel,
    /// One chunk at a time in the caller's arena.
    Serial(&'s mut Scratch<T>),
}

/// A TOC and the payload its chunk entries index. Every read fetches
/// chunks and walks temporal chains through one of these: an archive's
/// own ([`ArchiveReader::chunks`]), or an appender's merged TOC, whose
/// entries past the stored payload index its staged payload.
pub(crate) struct Chunks<'a, S: ByteSource> {
    pub(crate) reader: &'a ArchiveReader<S>,
    pub(crate) toc: &'a Toc,
    pub(crate) staged: SliceSource<'a>,
}

impl<'a, S: ByteSource> Chunks<'a, S> {
    /// Fetch chunk `k` of `var` and verify its checksum. A byte range
    /// the payload cannot produce fails with the read error, bytes that
    /// hash wrong with [`ArchiveError::ChecksumMismatch`].
    fn fetch(&self, var: &VarMeta, k: usize) -> Result<Vec<u8>> {
        let m = read_metrics();
        let entry = var.chunks[k];
        m.chunk_fetches.inc();
        let blob = match entry.offset.checked_sub(self.reader.payload_len()) {
            None => self.reader.read_payload(entry.offset, entry.len as usize),
            Some(at) => self.staged.read_at(at, entry.len as usize),
        }
        .map_err(|e| {
            m.faults_truncated.inc();
            e
        })?;
        m.bytes_read.add(blob.len() as u64);
        if fnv1a(&blob) != entry.checksum {
            m.faults_bit_flip.inc();
            return Err(ArchiveError::ChecksumMismatch {
                var: var.name.clone(),
                chunk: k,
            });
        }
        Ok(blob)
    }

    /// The variable `name`, which must hold `T`s.
    fn var<T: Scalar>(&self, name: &str) -> Result<&'a VarMeta> {
        let var = self.toc.var(name)?;
        if var.scalar_tag != T::TYPE_TAG {
            return Err(ArchiveError::TypeMismatch {
                stored: var.scalar_tag,
                requested: T::TYPE_TAG,
            });
        }
        Ok(var)
    }

    /// Read `region` of `name` through its temporal chain: the slab of
    /// the chain's base (a keyframe or an ordinary variable), with each
    /// delta member's residual added on in order. With `faults`,
    /// damaged chunks are recorded there and leave their cells of their
    /// member's slab zero instead of failing the read.
    fn read<T: Scalar>(
        &self,
        name: &str,
        region: &Region,
        decode: &mut Decode<'_, T>,
        mut faults: Option<&mut Vec<ChunkFault>>,
    ) -> Result<NdArray<T>> {
        let mut chain = vec![self.var::<T>(name)?];
        while let TemporalKind::Delta { prev } = &chain[chain.len() - 1].temporal {
            // The TOC decoder already enforces earlier-only predecessor
            // references; the length guard keeps a hand-built TOC from
            // looping us regardless.
            if chain.len() > self.toc.vars.len() {
                return Err(ArchiveError::Corrupt("temporal chain cycle"));
            }
            chain.push(self.var::<T>(prev)?);
        }
        let mut members = chain.into_iter().rev();
        let base = members.next().expect("a chain holds its own variable");
        let mut acc = self.member(base, region, decode, faults.as_deref_mut())?;
        for var in members {
            let residual = self.member(var, region, decode, faults.as_deref_mut())?;
            qoz_temporal::accumulate_residual(&mut acc, &residual)?;
        }
        Ok(acc)
    }

    /// The whole of variable `name`, decoded in parallel.
    pub(crate) fn read_full<T: Scalar>(&self, name: &str) -> Result<NdArray<T>> {
        let shape = self.var::<T>(name)?.shape;
        self.read(name, &Region::full(shape), &mut Decode::Parallel, None)
    }

    /// One chain member's slab of `region` (a delta member's is its
    /// residual): fetch the chunks the region touches, decode them, and
    /// stitch their overlaps into a dense array of the region's size.
    fn member<T: Scalar>(
        &self,
        var: &VarMeta,
        region: &Region,
        decode: &mut Decode<'_, T>,
        mut faults: Option<&mut Vec<ChunkFault>>,
    ) -> Result<NdArray<T>> {
        // Checked addition: a wrapped `origin + size` must not slip past
        // the bounds check and quietly return a zero-filled slab.
        if region.ndim() != var.shape.ndim()
            || (0..region.ndim()).any(|d| {
                region.origin()[d]
                    .checked_add(region.size()[d])
                    .map_or(true, |end| end > var.shape.dim(d))
            })
        {
            return Err(ArchiveError::RegionOutOfBounds);
        }
        let m = read_metrics();
        // A damaged chunk fails the read, unless `faults` takes it.
        let mut damage = |k: usize, e: ArchiveError| match faults.as_deref_mut() {
            None => Err(e),
            Some(faults) => {
                m.tolerant_zero_fills.inc();
                faults.push(ChunkFault::new(var, k, &e));
                Ok(())
            }
        };
        let grid = var.chunk_regions();
        let mut hits = Vec::new();
        let mut blobs = Vec::new();
        for (k, chunk_region) in grid.iter().enumerate() {
            let Some(overlap) = chunk_region.intersect(region) else {
                continue;
            };
            match self.fetch(var, k) {
                Ok(blob) => {
                    hits.push((k, overlap));
                    blobs.push(blob);
                }
                Err(e) => damage(k, e)?,
            }
        }
        let codec = qoz_api::BackendRegistry::new().codec::<T>(var.compressor);
        let decoded: Vec<Result<NdArray<T>>> = match decode {
            Decode::Parallel => {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                qoz_pario::decompress_chunks(&*codec, &blobs, threads)?
                    .into_iter()
                    .map(Ok)
                    .collect()
            }
            Decode::Serial(scratch) => blobs
                .iter()
                .map(|blob| {
                    let mut chunk = NdArray::zeros(Shape::d1(1));
                    codec.decompress_into(blob, scratch, &mut chunk)?;
                    Ok(chunk)
                })
                .collect(),
        };
        let mut slab = NdArray::<T>::zeros(Shape::new(region.size()));
        for ((k, overlap), chunk) in hits.into_iter().zip(decoded) {
            match chunk.and_then(|chunk| stitch(&mut slab, region, &grid[k], &overlap, &chunk)) {
                Ok(()) => m.chunks_decoded.inc(),
                Err(e) => damage(k, e)?,
            }
        }
        m.bytes_served.add((slab.len() * T::BYTES) as u64);
        Ok(slab)
    }
}

/// Copy the `overlap` of a decoded chunk covering `chunk_region` into
/// `slab`, the dense array of `region`.
fn stitch<T: Scalar>(
    slab: &mut NdArray<T>,
    region: &Region,
    chunk_region: &Region,
    overlap: &Region,
    chunk: &NdArray<T>,
) -> Result<()> {
    if chunk.shape().dims() != chunk_region.size() {
        return Err(ArchiveError::Corrupt("chunk stream disagrees with index"));
    }
    // Overlap in chunk-local, then region-local coordinates.
    let nd = region.ndim();
    let mut local_o = [0usize; qoz_tensor::MAX_NDIM];
    let mut dest_o = [0usize; qoz_tensor::MAX_NDIM];
    for d in 0..nd {
        local_o[d] = overlap.origin()[d] - chunk_region.origin()[d];
        dest_o[d] = overlap.origin()[d] - region.origin()[d];
    }
    let dest = Region::new(&dest_o[..nd], overlap.size());
    if overlap.size() == chunk_region.size() {
        // Fully-covered chunk (the read_full case): insert
        // directly, no intermediate copy.
        slab.insert_region(&dest, chunk);
    } else {
        let piece = chunk.extract_region(&Region::new(&local_o[..nd], overlap.size()));
        slab.insert_region(&dest, &piece);
    }
    Ok(())
}

/// Convenience: list `(name, meta)` summaries of an archive's variables.
pub fn describe(toc: &Toc) -> Vec<String> {
    toc.vars
        .iter()
        .map(|v: &VarMeta| {
            let ty = if v.scalar_tag == f64::TYPE_TAG {
                "f64".to_string()
            } else if v.scalar_tag == f32::TYPE_TAG {
                "f32".to_string()
            } else {
                format!("tag {:#04x}", v.scalar_tag)
            };
            let chain = match &v.temporal {
                TemporalKind::Independent => String::new(),
                TemporalKind::Keyframe => ", keyframe".to_string(),
                TemporalKind::Delta { prev } => format!(", delta of {prev}"),
            };
            format!(
                "{}: {:?} {ty} via {}, eb={:.3e}, {} chunks (side {}), {} bytes{chain}",
                v.name,
                v.shape.dims(),
                v.compressor.name(),
                v.abs_eb,
                v.chunks.len(),
                v.chunk_side,
                v.compressed_len()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::snapshot_name;
    use crate::writer::ArchiveWriter;
    use qoz_codec::stream::ErrorBound;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(13, 11, 9), |i| {
            (i[0] as f32 * 0.35).sin() + (i[1] as f32 * 0.2).cos() * i[2] as f32 * 0.05
        })
    }

    fn archive() -> Vec<u8> {
        let data = field();
        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable(
            "rho",
            &data,
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        w.finish()
    }

    #[test]
    fn full_read_honors_bound() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let full: NdArray<f32> = r.read_full("rho").unwrap();
        assert!(field().max_abs_diff(&full) <= 1e-3 * (1.0 + 1e-9));
    }

    #[test]
    fn region_read_equals_full_slice() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let full: NdArray<f32> = r.read_full("rho").unwrap();
        for region in [
            Region::new(&[0, 0, 0], &[1, 1, 1]),
            Region::new(&[3, 2, 1], &[6, 5, 7]),
            Region::new(&[12, 10, 8], &[1, 1, 1]),
            Region::new(&[0, 0, 0], &[13, 11, 9]),
        ] {
            let slab: NdArray<f32> = r.read_region("rho", &region).unwrap();
            assert_eq!(
                slab.as_slice(),
                full.extract_region(&region).as_slice(),
                "region {region:?} differs from full-decompress slice"
            );
        }
    }

    #[test]
    fn region_read_touches_fewer_bytes() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let header_cost = r.bytes_read();
        let _: NdArray<f32> = r
            .read_region("rho", &Region::new(&[0, 0, 0], &[2, 2, 2]))
            .unwrap();
        let after_region = r.bytes_read();
        // One 4x4x4 corner chunk out of 4*3*3 chunks.
        assert!(
            after_region - header_cost < bytes.len() as u64 / 8,
            "single-chunk query read {} of {} bytes",
            after_region - header_cost,
            bytes.len()
        );
    }

    #[test]
    fn wrong_name_type_and_region_reported() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        assert!(matches!(
            r.read_full::<f32>("nope"),
            Err(ArchiveError::UnknownVariable(_))
        ));
        assert!(matches!(
            r.read_full::<f64>("rho"),
            Err(ArchiveError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.read_region::<f32>("rho", &Region::new(&[10, 0, 0], &[4, 1, 1])),
            Err(ArchiveError::RegionOutOfBounds)
        ));
        assert!(matches!(
            r.read_region::<f32>("rho", &Region::new(&[0, 0], &[2, 2])),
            Err(ArchiveError::RegionOutOfBounds)
        ));
        // origin + size wrapping around usize must not sneak past the
        // bounds check and come back as a zero-filled slab.
        assert!(matches!(
            r.read_region::<f32>("rho", &Region::new(&[usize::MAX, 0, 0], &[2, 1, 1])),
            Err(ArchiveError::RegionOutOfBounds)
        ));
    }

    #[test]
    fn verify_checks_every_chunk() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let report = r.verify().unwrap();
        assert_eq!(report.vars, 1);
        assert_eq!(report.chunks, 4 * 3 * 3);
        assert!(report.payload_bytes > 0);
        assert!(report.is_clean());
        assert_eq!(report.faults, vec![]);
    }

    #[test]
    fn payload_corruption_detected() {
        let mut bytes = archive();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // inside the last chunk's blob
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let report = r.verify().unwrap();
        assert!(!report.is_clean());
        // The scan still covered the whole archive and located the
        // damage precisely: last chunk, wrong hash, bytes all present.
        assert_eq!(report.chunks, 4 * 3 * 3);
        assert_eq!(
            report.faults,
            vec![ChunkFault {
                var: "rho".into(),
                chunk: 4 * 3 * 3 - 1,
                kind: FaultKind::BitFlip,
            }]
        );
        // The strict read path still refuses the damaged chunk.
        assert!(matches!(
            r.read_full::<f32>("rho"),
            Err(ArchiveError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn multi_fault_scan_does_not_stop_early() {
        let data = field();
        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable("a", &data, &qoz_sz3::Sz3::default(), ErrorBound::Abs(1e-3))
            .unwrap();
        w.add_variable("b", &data, &qoz_sz3::Sz3::default(), ErrorBound::Abs(1e-3))
            .unwrap();
        let mut bytes = w.finish();
        // Flip one byte inside each variable's first chunk.
        let (toc, payload_start) = {
            let r = ArchiveReader::from_bytes(&bytes).unwrap();
            (r.toc().clone(), bytes.len() as u64 - r.payload_len())
        };
        for var in &toc.vars {
            let off = payload_start + var.chunks[0].offset;
            bytes[off as usize] ^= 0xFF;
        }
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let report = r.verify().unwrap();
        assert_eq!(report.chunks, 2 * 4 * 3 * 3, "scan covers both vars");
        assert_eq!(report.faults.len(), 2, "one fault per damaged var");
        assert_eq!(report.faults[0].var, "a");
        assert_eq!(report.faults[1].var, "b");
        assert!(report
            .faults
            .iter()
            .all(|f| f.chunk == 0 && f.kind == FaultKind::BitFlip));
    }

    #[test]
    fn shrunk_file_reports_truncation_not_bitflip() {
        let bytes = archive();
        let path = std::env::temp_dir()
            .join(format!("qoz_archive_shrunk_{}.qza", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, &bytes).unwrap();
        let r = ArchiveReader::open(&path).unwrap();
        // The file is torn underneath the open reader — the tail chunk's
        // byte range no longer exists.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(bytes.len() as u64 - 10).unwrap();
        drop(f);
        let report = r.verify().unwrap();
        assert!(!report.is_clean());
        assert!(
            report.faults.iter().all(|f| f.kind == FaultKind::Truncated),
            "{:?}",
            report.faults
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tolerant_read_zero_fills_damage_and_reports_it() {
        let mut bytes = archive();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // damage the last chunk
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let bad_chunk = 4 * 3 * 3 - 1;
        let full_region = Region::new(&[0, 0, 0], &[13, 11, 9]);
        let mut scratch = Scratch::new();
        let (slab, faults): (NdArray<f32>, _) = r
            .read_region_tolerant("rho", &full_region, &mut scratch)
            .unwrap();
        assert_eq!(
            faults,
            vec![ChunkFault {
                var: "rho".into(),
                chunk: bad_chunk,
                kind: FaultKind::BitFlip,
            }]
        );
        // Clean part matches the pristine archive; damaged chunk's cells
        // are zero-filled. The last chunk covers the [12.., 8.., 8..]
        // corner of the 4-side grid.
        let pristine = archive();
        let pr = ArchiveReader::from_bytes(&pristine).unwrap();
        let want: NdArray<f32> = pr.read_full("rho").unwrap();
        for x in 0..13 {
            for y in 0..11 {
                for z in 0..9 {
                    let i = (x * 11 + y) * 9 + z;
                    let in_bad = x >= 12 && y >= 8 && z >= 8;
                    if in_bad {
                        assert_eq!(slab.as_slice()[i], 0.0, "damaged cell ({x},{y},{z})");
                    } else {
                        assert_eq!(
                            slab.as_slice()[i],
                            want.as_slice()[i],
                            "clean cell ({x},{y},{z})"
                        );
                    }
                }
            }
        }

        // A region that avoids the damaged chunk reads clean with no
        // faults — byte-identical to the strict path.
        let safe = Region::new(&[0, 0, 0], &[8, 8, 8]);
        let (clean, faults): (NdArray<f32>, _) =
            r.read_region_tolerant("rho", &safe, &mut scratch).unwrap();
        assert!(faults.is_empty());
        assert_eq!(
            clean.as_slice(),
            r.read_region::<f32>("rho", &safe).unwrap().as_slice()
        );

        // Structural errors still fail hard.
        assert!(r
            .read_region_tolerant::<f32>("nope", &safe, &mut scratch)
            .is_err());
    }

    /// `rho` plus the chain `u@t0..t3`, a keyframe and three deltas of
    /// a field drifting slowly in time, appended in two goes.
    fn chained_archive() -> Vec<u8> {
        let drift = |t: usize| {
            NdArray::from_fn(Shape::d3(13, 11, 9), |i| {
                (i[0] as f32 * 0.35).sin()
                    + (i[1] as f32 * 0.2).cos() * i[2] as f32 * 0.05
                    + t as f32 * 0.01
            })
        };
        let c = qoz_sz3::Sz3::default();
        let mut bytes = archive();
        for steps in [0..2, 2..4] {
            let mut app = crate::ArchiveAppender::from_bytes(&bytes)
                .unwrap()
                .with_chunk_side(4);
            for t in steps {
                let kind = app
                    .add_snapshot_chained("u", t as u64, &drift(t), &c, ErrorBound::Abs(1e-3))
                    .unwrap();
                assert_eq!(kind == TemporalKind::Keyframe, t == 0, "u@t{t}: {kind:?}");
            }
            bytes = app.finish();
        }
        bytes
    }

    fn bits(a: &NdArray<f32>) -> Vec<u32> {
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn chained_reads_agree_on_every_path() {
        let bytes = chained_archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let name = snapshot_name("u", 3);
        let full: NdArray<f32> = r.read_full(&name).unwrap();
        let mut scratch = Scratch::new();
        for region in [
            Region::new(&[0, 0, 0], &[13, 11, 9]),
            Region::new(&[3, 2, 1], &[6, 5, 7]),
            Region::new(&[12, 10, 8], &[1, 1, 1]),
        ] {
            let want = bits(&full.extract_region(&region));
            let strict: NdArray<f32> = r.read_region(&name, &region).unwrap();
            assert_eq!(bits(&strict), want, "read_region {region:?}");
            let with = r.read_region_with(&name, &region, &mut scratch).unwrap();
            assert_eq!(bits(&with), want, "read_region_with {region:?}");
            let (tolerant, faults) = r
                .read_region_tolerant(&name, &region, &mut scratch)
                .unwrap();
            assert_eq!(faults, vec![], "{region:?}");
            assert_eq!(bits(&tolerant), want, "read_region_tolerant {region:?}");
        }
    }

    #[test]
    fn damaged_delta_chunk_fails_strict_and_reads_as_no_change_tolerant() {
        let pristine = chained_archive();
        let (member, chunk) = (snapshot_name("u", 2), 17);
        let mut bytes = pristine.clone();
        {
            let r = ArchiveReader::from_bytes(&pristine).unwrap();
            let payload_start = pristine.len() as u64 - r.payload_len();
            let entry = r.toc().var(&member).unwrap().chunks[chunk];
            bytes[(payload_start + entry.offset + entry.len / 2) as usize] ^= 0x10;
        }
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let full = Region::new(&[0, 0, 0], &[13, 11, 9]);
        let mut scratch = Scratch::new();
        let want = ArchiveError::ChecksumMismatch {
            var: member.clone(),
            chunk,
        };
        // The damage fails strict reads of the member and of every
        // later member whose chain runs through it.
        for name in [snapshot_name("u", 2), snapshot_name("u", 3)] {
            let strict = r.read_region::<f32>(&name, &full).unwrap_err();
            assert_eq!(strict, want, "read_region {name}");
            let with = r
                .read_region_with::<f32>(&name, &full, &mut scratch)
                .unwrap_err();
            assert_eq!(with, want, "read_region_with {name}");
        }

        let (slab, faults) = r
            .read_region_tolerant::<f32>(&member, &full, &mut scratch)
            .unwrap();
        assert_eq!(
            faults,
            vec![ChunkFault {
                var: member.clone(),
                chunk,
                kind: FaultKind::BitFlip,
            }]
        );
        // The damaged chunk's residual reads as zero, so its cells hold
        // the predecessor's reconstruction; every other cell is the
        // strict read of the undamaged archive.
        let prev: NdArray<f32> = r.read_full(&snapshot_name("u", 1)).unwrap();
        let strict: NdArray<f32> = ArchiveReader::from_bytes(&pristine)
            .unwrap()
            .read_full(&member)
            .unwrap();
        let damaged = &Region::tile(Shape::d3(13, 11, 9), 4)[chunk];
        let mut expect = strict.clone();
        expect.insert_region(damaged, &prev.extract_region(damaged));
        assert_ne!(bits(&expect), bits(&strict), "the delta changes the chunk");
        assert_eq!(bits(&slab), bits(&expect));
    }

    #[test]
    fn newer_container_version_reported() {
        let mut bytes = archive();
        bytes[4] = VERSION_TEMPORAL + 1;
        let err = ArchiveReader::from_bytes(&bytes).unwrap_err();
        assert!(err.is_newer_format(), "{err}");
        // A version below anything ever released is corruption — the
        // error must not advise upgrading.
        bytes[4] = 0;
        let err = ArchiveReader::from_bytes(&bytes).unwrap_err();
        assert!(!err.is_newer_format());
        assert!(matches!(err, ArchiveError::Corrupt(_)), "{err}");
    }

    #[test]
    fn bad_magic_reported() {
        let mut bytes = archive();
        bytes[0] = b'X';
        assert_eq!(
            ArchiveReader::from_bytes(&bytes).unwrap_err(),
            ArchiveError::BadMagic
        );
    }

    #[test]
    fn describe_summarizes_vars() {
        let bytes = archive();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let lines = describe(r.toc());
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("rho") && lines[0].contains("SZ3"),
            "{lines:?}"
        );
    }
}
