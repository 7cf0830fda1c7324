//! Appending to existing QZAR archives.
//!
//! A QZAR index stores chunk offsets relative to the *payload* start,
//! not the file start — which is exactly what makes append cheap: new
//! variables' chunk blobs go behind the existing payload, every old
//! offset stays valid verbatim, and only the superblock + TOC (a few
//! hundred bytes) are rewritten. [`ArchiveAppender`] wraps an open
//! [`ArchiveReader`] plus a staging [`ArchiveWriter`]; on write-out the
//! old payload is streamed from the source in bounded pieces, so an
//! append never materializes the existing archive in memory.
//!
//! Combined with the [`snapshot_name`] convention (`"{base}@t{t}"`,
//! one ordinary variable per timestep sharing the single TOC), this
//! turns a QZAR file into a growable time-series store: each simulation
//! step appends its snapshot, and readers serve region queries over any
//! timestep — including concurrently, through one shared reader handle.

use crate::format::{sink_error, snapshot_name, write_head, TemporalKind, Toc};
use crate::reader::{ArchiveReader, Chunks};
use crate::source::{ByteSource, FileSource, SliceSource};
use crate::writer::{write_atomically, ArchiveWriter};
use crate::{ArchiveError, Result};
use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_temporal::{form_residual, TemporalSession};
use qoz_tensor::{NdArray, Scalar};

/// Streaming copy granularity for the existing payload during write-out.
const COPY_CHUNK: usize = 1 << 20;

/// Count a chained-snapshot outcome on the same telemetry series the
/// in-memory `TemporalSession` uses, so archive and stream chains share
/// one `qoz_temporal_outcomes_total{mode}` view.
fn record_chain_outcome(mode: &'static str) {
    qoz_telemetry::global()
        .counter("qoz_temporal_outcomes_total", &[("mode", mode)])
        .inc();
}

/// Grows an existing archive: stage new variables, then write the
/// rewritten container (old payload kept in place, byte-for-byte).
#[derive(Debug)]
pub struct ArchiveAppender<S: ByteSource> {
    reader: ArchiveReader<S>,
    writer: ArchiveWriter,
}

impl ArchiveAppender<FileSource> {
    /// Open an archive file for appending.
    pub fn open(path: &str) -> Result<Self> {
        Ok(Self::new(ArchiveReader::open(path)?))
    }
}

impl<'a> ArchiveAppender<SliceSource<'a>> {
    /// Append to an archive already held in memory.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self> {
        Ok(Self::new(ArchiveReader::from_bytes(bytes)?))
    }
}

impl<S: ByteSource> ArchiveAppender<S> {
    /// Wrap a parsed reader for appending.
    pub fn new(reader: ArchiveReader<S>) -> Self {
        ArchiveAppender {
            reader,
            writer: ArchiveWriter::new(),
        }
    }

    /// Override the chunk grid side for *newly added* variables
    /// (existing variables keep the side they were written with).
    ///
    /// # Panics
    /// Panics if `side` is 0.
    pub fn with_chunk_side(mut self, side: usize) -> Self {
        self.writer = self.writer.with_chunk_side(side);
        self
    }

    /// Compress `data` under `bound` and stage it as a new variable
    /// named `name`. Rejects names already present in the existing
    /// archive or staged in this appender.
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
        if self.reader.toc().vars.iter().any(|v| v.name == name) {
            return Err(ArchiveError::DuplicateVariable(name.to_string()));
        }
        self.writer.add_variable(name, data, compressor, bound)
    }

    /// Stage `data` as timestep `t` of the time series `base` (the
    /// variable is named [`snapshot_name`]`(base, t)`; list stored
    /// steps back with [`Toc::snapshots`]).
    pub fn add_snapshot<T, C>(
        &mut self,
        base: &str,
        t: u64,
        data: &NdArray<T>,
        compressor: &C,
        bound: ErrorBound,
    ) -> Result<()>
    where
        T: Scalar,
        C: Compressor<T> + ?Sized,
    {
        self.add_variable(&snapshot_name(base, t), data, compressor, bound)
    }

    /// Stage `data` as timestep `t` of `base`, delta-coded against the
    /// latest earlier snapshot of the series when that pays off.
    ///
    /// The predecessor's **reconstruction** (chain-resolved across both
    /// stored and staged snapshots) is rebuilt, the residual estimated
    /// with the same sampled keyframe policy as
    /// `qoz_temporal::TemporalSession`, and the snapshot stored either
    /// as a [`TemporalKind::Keyframe`] or as a [`TemporalKind::Delta`]
    /// whose chunks hold the residual field, compressed at the absolute
    /// bound resolved against the *snapshot* — so any
    /// `ArchiveReader::read_region` on the chain honors `bound` against
    /// the raw data, however many deltas deep. Returns the kind stored.
    ///
    /// The first snapshot of a series (or one whose shape/type differs
    /// from its predecessor) is always a keyframe.
    pub fn add_snapshot_chained<T, C>(
        &mut self,
        base: &str,
        t: u64,
        data: &NdArray<T>,
        compressor: &C,
        bound: ErrorBound,
    ) -> Result<TemporalKind>
    where
        T: Scalar,
        C: Compressor<T> + ?Sized,
    {
        let name = snapshot_name(base, t);
        let toc = self.merged_toc();
        if toc.var(&name).is_ok() {
            return Err(ArchiveError::DuplicateVariable(name));
        }
        // The chain predecessor: the latest snapshot of `base` strictly
        // before `t`, staged or already stored.
        let prev = toc
            .snapshots(base)
            .into_iter()
            .filter(|&(pt, _)| pt < t)
            .max_by_key(|&(pt, _)| pt)
            .map(|(_, v)| v)
            .filter(|v| v.shape == data.shape() && v.scalar_tag == T::TYPE_TAG);
        let keyframe = |s: &mut Self| -> Result<TemporalKind> {
            s.writer
                .add_variable_kind(&name, data, compressor, bound, TemporalKind::Keyframe)?;
            Ok(TemporalKind::Keyframe)
        };
        let Some(prev) = prev else {
            record_chain_outcome("keyframe");
            return keyframe(self);
        };
        let prev_name = prev.name.clone();
        let prev_recon: NdArray<T> = self.reconstruct_snapshot(&prev_name)?;
        if !TemporalSession::residual_beats_spatial(data, &prev_recon) {
            record_chain_outcome("fallback");
            return keyframe(self);
        }
        // Resolve the bound against the snapshot, never the residual's
        // own (much smaller) value range — the composed-bound contract.
        let abs = bound.absolute(data);
        let mut residual = NdArray::zeros(data.shape());
        form_residual(&mut residual, data, &prev_recon)?;
        self.writer.add_variable_kind(
            &name,
            &residual,
            compressor,
            ErrorBound::Abs(abs),
            TemporalKind::Delta {
                prev: prev_name.clone(),
            },
        )?;
        record_chain_outcome("delta");
        Ok(TemporalKind::Delta { prev: prev_name })
    }

    /// Rebuild the reconstruction of a snapshot variable, resolving its
    /// temporal chain across both the existing archive and the staged
    /// (not yet written) variables of this appender.
    pub fn reconstruct_snapshot<T: Scalar>(&self, name: &str) -> Result<NdArray<T>> {
        let toc = self.merged_toc();
        let chunks = Chunks {
            reader: &self.reader,
            toc: &toc,
            staged: SliceSource::new(self.writer.payload()),
        };
        chunks.read_full(name)
    }

    /// The merged TOC the rewritten archive will carry: existing
    /// variables verbatim, staged variables rebased behind them.
    fn merged_toc(&self) -> Toc {
        let base = self.reader.payload_len();
        let mut toc = self.reader.toc().clone();
        for v in &self.writer.toc().vars {
            let mut v = v.clone();
            for c in &mut v.chunks {
                c.offset += base;
            }
            toc.vars.push(v);
        }
        toc
    }

    /// Serialize the grown archive into any byte sink: new superblock
    /// and TOC, then the existing payload streamed from the source in
    /// bounded pieces, then the staged payload. Returns bytes written.
    pub fn write_into(&self, sink: &mut dyn std::io::Write) -> Result<u64> {
        let head = write_head(&self.merged_toc(), sink)?;
        let old_len = self.reader.payload_len();
        let mut off = 0u64;
        while off < old_len {
            let n = (old_len - off).min(COPY_CHUNK as u64) as usize;
            let piece = self.reader.read_payload(off, n)?;
            sink.write_all(&piece).map_err(sink_error)?;
            off += n as u64;
        }
        let staged = self.writer.payload();
        sink.write_all(staged).map_err(sink_error)?;
        Ok(head + old_len + staged.len() as u64)
    }

    /// Serialize the grown archive into one in-memory buffer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out)
            .expect("writing to a Vec cannot fail for slice-backed sources");
        out
    }

    /// Stream the grown archive to `path` via a temp file + atomic
    /// rename; returns bytes written. `path` may be the very archive
    /// being appended to — the old payload is still being read from it
    /// while the temp file is written, and the rename swaps the grown
    /// archive in whole, so a crash mid-append never leaves a torn
    /// container behind.
    pub fn write_to(self, path: &str) -> Result<u64> {
        write_atomically(path, |sink| self.write_into(sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::{Region, Shape};

    fn field(seed: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(9, 8, 7), |i| {
            ((i[0] + seed) as f32 * 0.3).sin() + (i[1] as f32 * 0.2).cos() * i[2] as f32 * 0.1
        })
    }

    fn base_archive() -> Vec<u8> {
        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable(
            "rho",
            &field(0),
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        w.finish()
    }

    #[test]
    fn append_preserves_old_payload_bytes() {
        let base = base_archive();
        let old = ArchiveReader::from_bytes(&base).unwrap();
        let old_toc = old.toc().clone();

        let mut app = ArchiveAppender::from_bytes(&base)
            .unwrap()
            .with_chunk_side(4);
        app.add_variable(
            "vel",
            &field(3),
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        let grown = app.finish();

        let r = ArchiveReader::from_bytes(&grown).unwrap();
        // Old variable: identical index entries, identical decoded data.
        assert_eq!(r.toc().vars[0], old_toc.vars[0]);
        let a: NdArray<f32> = old.read_full("rho").unwrap();
        let b: NdArray<f32> = r.read_full("rho").unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // New variable serves reads and verifies.
        let v: NdArray<f32> = r.read_full("vel").unwrap();
        assert!(field(3).max_abs_diff(&v) <= 1e-3 * (1.0 + 1e-9));
        assert_eq!(r.verify().unwrap().vars, 2);
    }

    #[test]
    fn append_rejects_existing_and_staged_duplicates() {
        let base = base_archive();
        let mut app = ArchiveAppender::from_bytes(&base).unwrap();
        let c = qoz_sz3::Sz3::default();
        assert!(matches!(
            app.add_variable("rho", &field(1), &c, ErrorBound::Abs(1e-3)),
            Err(ArchiveError::DuplicateVariable(_))
        ));
        app.add_variable("p", &field(1), &c, ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(matches!(
            app.add_variable("p", &field(2), &c, ErrorBound::Abs(1e-3)),
            Err(ArchiveError::DuplicateVariable(_))
        ));
    }

    #[test]
    fn snapshots_accumulate_across_appends() {
        let c = qoz_sz3::Sz3::default();
        let mut w = ArchiveWriter::new().with_chunk_side(4);
        w.add_variable(&snapshot_name("u", 0), &field(0), &c, ErrorBound::Abs(1e-3))
            .unwrap();
        let mut bytes = w.finish();
        for t in 1..3u64 {
            let mut app = ArchiveAppender::from_bytes(&bytes)
                .unwrap()
                .with_chunk_side(4);
            app.add_snapshot("u", t, &field(t as usize), &c, ErrorBound::Abs(1e-3))
                .unwrap();
            bytes = app.finish();
        }
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        let snaps = r.toc().snapshots("u");
        assert_eq!(
            snaps.iter().map(|&(t, _)| t).collect::<Vec<u64>>(),
            vec![0, 1, 2]
        );
        for (t, meta) in snaps {
            let got: NdArray<f32> = r.read_full(&meta.name).unwrap();
            assert!(field(t as usize).max_abs_diff(&got) <= 1e-3 * (1.0 + 1e-9));
        }
    }

    /// A smooth field drifting slowly in time — residuals between steps
    /// are near-constant, so the chained path should pick deltas.
    fn drift(t: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(9, 8, 7), |i| {
            (i[0] as f32 * 0.3).sin()
                + (i[1] as f32 * 0.2).cos() * i[2] as f32 * 0.1
                + t as f32 * 0.01
        })
    }

    #[test]
    fn chained_snapshots_delta_code_and_read_back_within_bound() {
        let c = qoz_sz3::Sz3::default();
        let mut bytes = base_archive();
        for t in 0..4u64 {
            let mut app = ArchiveAppender::from_bytes(&bytes)
                .unwrap()
                .with_chunk_side(4);
            let kind = app
                .add_snapshot_chained("u", t, &drift(t as usize), &c, ErrorBound::Abs(1e-3))
                .unwrap();
            if t == 0 {
                assert_eq!(kind, TemporalKind::Keyframe);
            } else {
                assert_eq!(
                    kind,
                    TemporalKind::Delta {
                        prev: snapshot_name("u", t - 1)
                    }
                );
            }
            bytes = app.finish();
        }
        assert_eq!(bytes[4], crate::format::VERSION_TEMPORAL);
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        // Every member of the chain honors the bound against its raw
        // snapshot — deltas do not accumulate error.
        for t in 0..4u64 {
            let got: NdArray<f32> = r.read_full(&snapshot_name("u", t)).unwrap();
            assert!(
                drift(t as usize).max_abs_diff(&got) <= 1e-3 * (1.0 + 1e-9),
                "chain member t={t} violates the bound"
            );
        }
        // A region read on a deep delta member resolves its whole chain.
        let roi = Region::new(&[2, 2, 1], &[4, 3, 4]);
        let slab: NdArray<f32> = r.read_region(&snapshot_name("u", 3), &roi).unwrap();
        assert_eq!(slab.as_slice(), {
            let full: NdArray<f32> = r.read_full(&snapshot_name("u", 3)).unwrap();
            full.extract_region(&roi).into_vec()
        });
        assert_eq!(r.verify().unwrap().vars, 5);
    }

    #[test]
    fn chain_within_a_single_append_resolves_staged_predecessors() {
        let c = qoz_sz3::Sz3::default();
        let base = base_archive();
        let mut app = ArchiveAppender::from_bytes(&base)
            .unwrap()
            .with_chunk_side(4);
        for t in 0..3u64 {
            app.add_snapshot_chained("u", t, &drift(t as usize), &c, ErrorBound::Abs(1e-3))
                .unwrap();
        }
        // The staged reconstruction must equal what the written archive
        // serves for the same snapshot.
        let staged: NdArray<f32> = app.reconstruct_snapshot(&snapshot_name("u", 2)).unwrap();
        let r_bytes = app.finish();
        let r = ArchiveReader::from_bytes(&r_bytes).unwrap();
        let stored: NdArray<f32> = r.read_full(&snapshot_name("u", 2)).unwrap();
        assert_eq!(staged.as_slice(), stored.as_slice());
        assert!(drift(2).max_abs_diff(&stored) <= 1e-3 * (1.0 + 1e-9));
    }

    #[test]
    fn regime_change_and_shape_change_fall_back_to_keyframes() {
        let c = qoz_sz3::Sz3::default();
        let base = base_archive();
        let mut app = ArchiveAppender::from_bytes(&base)
            .unwrap()
            .with_chunk_side(4);
        app.add_snapshot_chained("u", 0, &drift(0), &c, ErrorBound::Abs(1e-3))
            .unwrap();
        // Sign-flipped field: the residual is twice as rough as the data,
        // so the sampled estimator must refuse the delta.
        let flipped = NdArray::from_fn(Shape::d3(9, 8, 7), |i| {
            -((i[0] as f32 * 0.3).sin() + (i[1] as f32 * 0.2).cos() * i[2] as f32 * 0.1)
        });
        assert_eq!(
            app.add_snapshot_chained("u", 1, &flipped, &c, ErrorBound::Abs(1e-3))
                .unwrap(),
            TemporalKind::Keyframe
        );
        // A shape change can never delta-code.
        let regridded = NdArray::<f32>::from_fn(Shape::d3(6, 6, 6), |i| i[0] as f32 * 0.1);
        assert_eq!(
            app.add_snapshot_chained("u", 2, &regridded, &c, ErrorBound::Abs(1e-3))
                .unwrap(),
            TemporalKind::Keyframe
        );
        let r_bytes = app.finish();
        let r = ArchiveReader::from_bytes(&r_bytes).unwrap();
        let got: NdArray<f32> = r.read_full(&snapshot_name("u", 1)).unwrap();
        assert!(flipped.max_abs_diff(&got) <= 1e-3 * (1.0 + 1e-9));
    }

    #[test]
    fn independent_append_keeps_container_version_one() {
        let base = base_archive();
        let mut app = ArchiveAppender::from_bytes(&base)
            .unwrap()
            .with_chunk_side(4);
        app.add_variable(
            "vel",
            &field(3),
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        let grown = app.finish();
        assert_eq!(
            grown[4],
            crate::format::VERSION,
            "no chained variables: container must stay v1"
        );
    }

    #[test]
    fn append_to_file_in_place_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("qoz_append_{}.qza", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, base_archive()).unwrap();

        let mut app = ArchiveAppender::open(&path).unwrap().with_chunk_side(4);
        app.add_variable(
            "vel",
            &field(5),
            &qoz_sz3::Sz3::default(),
            ErrorBound::Abs(1e-3),
        )
        .unwrap();
        let written = app.write_to(&path).unwrap();
        assert_eq!(
            written,
            std::fs::metadata(&path).unwrap().len(),
            "reported size must match the file"
        );

        let r = ArchiveReader::open(&path).unwrap();
        assert_eq!(r.toc().vars.len(), 2);
        let roi = Region::new(&[2, 2, 2], &[4, 4, 4]);
        let slab: NdArray<f32> = r.read_region("vel", &roi).unwrap();
        assert_eq!(slab.as_slice(), {
            let full: NdArray<f32> = r.read_full("vel").unwrap();
            full.extract_region(&roi).into_vec()
        });
        std::fs::remove_file(&path).ok();
    }
}
