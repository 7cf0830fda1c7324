//! Thread-parallel per-rank compression.
//!
//! Chunks are statically partitioned into contiguous slabs, one per
//! worker (crossbeam scoped threads — no `'static` bound needed). Each
//! worker owns a disjoint `&mut` slice of the output vector, so results
//! land in place without any per-chunk locking, and chunk order — the
//! serial-equals-parallel determinism invariant — is preserved by
//! construction. Chunks are near-equal sized (see [`chunk_along_dim0`]),
//! which keeps the static split balanced.
//!
//! Each worker owns one [`Scratch`] arena for its whole slab — on both
//! directions of the pipeline — so stage buffers (working copy, bins,
//! side streams, entropy staging) are allocated once per worker rather
//! than once per chunk: the archive writer's many-chunk variables ride
//! the compress slabs, the archive reader's region queries ride the
//! decode slabs. Scratch never changes bytes or decoded values, so the
//! serial-equals-parallel invariant is untouched.

use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_codec::{Result, Scratch};
use qoz_tensor::{NdArray, Region, Scalar, Shape};

/// Split an array into `n` near-equal chunks along dimension 0 (the
/// usual HPC domain decomposition). Returns fewer chunks when dim 0 is
/// shorter than `n`.
pub fn chunk_along_dim0<T: Scalar>(data: &NdArray<T>, n: usize) -> Vec<NdArray<T>> {
    assert!(n > 0);
    let shape = data.shape();
    let d0 = shape.dim(0);
    let n = n.min(d0);
    let mut out = Vec::with_capacity(n);
    let base = d0 / n;
    let extra = d0 % n;
    let mut start = 0usize;
    for k in 0..n {
        let len = base + usize::from(k < extra);
        let mut origin = vec![0usize; shape.ndim()];
        let mut size = shape.dims().to_vec();
        origin[0] = start;
        size[0] = len;
        out.push(data.extract_region(&Region::new(&origin, &size)));
        start += len;
    }
    out
}

/// Compress every chunk with `threads` workers; returns blobs in chunk
/// order.
pub fn compress_chunks<T, C>(
    compressor: &C,
    chunks: &[NdArray<T>],
    bound: ErrorBound,
    threads: usize,
) -> Vec<Vec<u8>>
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    if chunks.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(chunks.len());
    let per = chunks.len().div_ceil(threads);
    let mut results: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];

    crossbeam::scope(|s| {
        for (out_slab, in_slab) in results.chunks_mut(per).zip(chunks.chunks(per)) {
            s.spawn(move |_| {
                // One arena per worker: reused across every chunk of the
                // slab, byte-identical to the scratchless path.
                let mut scratch = Scratch::new();
                for (out, chunk) in out_slab.iter_mut().zip(in_slab) {
                    *out = compressor.compress_with_scratch(chunk, bound, &mut scratch);
                }
            });
        }
    })
    .expect("compression worker panicked");

    results
}

/// Compress every chunk with `threads` workers and stream the blobs, in
/// chunk order, into `sink`; returns per-chunk byte counts.
///
/// This is the chunked-dump path of the streaming API: callers that
/// persist blobs back-to-back (the archive writer's payload, a per-rank
/// dump file) take the per-chunk sizes for their index instead of
/// holding a `Vec<Vec<u8>>` of their own. The parallel stage still
/// materializes every blob before the ordered write-out begins (chunk
/// order must be preserved), so peak memory during compression is
/// unchanged — what the sink variant removes is the *caller's* second
/// copy of the concatenated payload.
pub fn compress_chunks_into<T, C>(
    compressor: &C,
    chunks: &[NdArray<T>],
    bound: ErrorBound,
    threads: usize,
    sink: &mut dyn std::io::Write,
) -> Result<Vec<u64>>
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    let blobs = compress_chunks(compressor, chunks, bound, threads);
    let mut lens = Vec::with_capacity(blobs.len());
    for blob in blobs {
        sink.write_all(&blob)?;
        lens.push(blob.len() as u64);
    }
    Ok(lens)
}

/// Decompress every blob with `threads` workers; returns arrays in blob
/// order, or the first error encountered.
pub fn decompress_chunks<T, C>(
    compressor: &C,
    blobs: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<NdArray<T>>>
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    if blobs.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(blobs.len());
    let per = blobs.len().div_ceil(threads);
    let mut results: Vec<Option<Result<NdArray<T>>>> = (0..blobs.len()).map(|_| None).collect();

    crossbeam::scope(|s| {
        for (out_slab, in_slab) in results.chunks_mut(per).zip(blobs.chunks(per)) {
            s.spawn(move |_| {
                // One arena per worker, mirroring `compress_chunks`:
                // the decode slab reuses its stage buffers across every
                // blob. Each chunk decodes into its own array, grown
                // only once its payload agrees with its header.
                let mut scratch = Scratch::new();
                for (out, blob) in out_slab.iter_mut().zip(in_slab) {
                    let mut chunk = NdArray::zeros(Shape::d1(1));
                    *out = Some(
                        compressor
                            .decompress_into(blob, &mut scratch, &mut chunk)
                            .map(|()| chunk),
                    );
                }
            });
        }
    })
    .expect("decompression worker panicked");

    results
        .into_iter()
        .map(|m| m.expect("missing chunk result"))
        .collect()
}

/// Reassemble chunks produced by [`chunk_along_dim0`].
pub fn reassemble_dim0<T: Scalar>(chunks: &[NdArray<T>]) -> NdArray<T> {
    assert!(!chunks.is_empty());
    let first = chunks[0].shape();
    let nd = first.ndim();
    let total0: usize = chunks.iter().map(|c| c.shape().dim(0)).sum();
    let mut dims = first.dims().to_vec();
    dims[0] = total0;
    let shape = Shape::new(&dims);
    let mut out = NdArray::<T>::zeros(shape);
    let mut start = 0usize;
    for c in chunks {
        let mut origin = vec![0usize; nd];
        origin[0] = start;
        out.insert_region(&Region::new(&origin, c.shape().dims()), c);
        start += c.shape().dim(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::Shape;

    fn data() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(25, 16, 16), |i| {
            (i[0] as f32 * 0.31).sin() + (i[1] as f32 - i[2] as f32) * 0.01
        })
    }

    #[test]
    fn chunking_covers_all_rows() {
        let d = data();
        let chunks = chunk_along_dim0(&d, 4);
        assert_eq!(chunks.len(), 4);
        let rows: Vec<usize> = chunks.iter().map(|c| c.shape().dim(0)).collect();
        assert_eq!(rows.iter().sum::<usize>(), 25);
        // Near-equal split: 7,6,6,6.
        assert_eq!(rows, vec![7, 6, 6, 6]);
        let back = reassemble_dim0(&chunks);
        assert_eq!(back.as_slice(), d.as_slice());
    }

    #[test]
    fn more_chunks_than_rows_clamped() {
        let d = NdArray::from_fn(Shape::d2(3, 8), |i| i[1] as f64);
        assert_eq!(chunk_along_dim0(&d, 10).len(), 3);
    }

    #[test]
    fn parallel_roundtrip_matches_serial() {
        let d = data();
        let chunks = chunk_along_dim0(&d, 6);
        let bound = ErrorBound::Abs(1e-3);
        let c = qoz_sz3::Sz3::default();

        let par = compress_chunks(&c, &chunks, bound, 4);
        // Serial reference.
        let ser: Vec<Vec<u8>> = chunks.iter().map(|ch| c.compress(ch, bound)).collect();
        assert_eq!(par, ser, "parallel compression must be deterministic");

        // The streaming variant emits the same bytes, concatenated, and
        // reports the split points.
        let mut sink = Vec::new();
        let lens = compress_chunks_into(&c, &chunks, bound, 4, &mut sink).unwrap();
        assert_eq!(sink, par.concat());
        assert_eq!(
            lens,
            par.iter().map(|b| b.len() as u64).collect::<Vec<u64>>()
        );

        let recon = decompress_chunks::<f32, _>(&c, &par, 4).unwrap();
        let full = reassemble_dim0(&recon);
        assert!(d.max_abs_diff(&full) <= 1e-3);
    }

    #[test]
    fn qoz_parallel_roundtrip() {
        let d = data();
        let chunks = chunk_along_dim0(&d, 3);
        let bound = ErrorBound::Rel(1e-3);
        let q = qoz_core::Qoz::default();
        let blobs = compress_chunks(&q, &chunks, bound, 3);
        let recon = decompress_chunks::<f32, _>(&q, &blobs, 3).unwrap();
        for (a, b) in chunks.iter().zip(&recon) {
            let abs = bound.absolute(a);
            assert!(a.max_abs_diff(b) <= abs);
        }
    }

    #[test]
    fn corrupt_blob_fails_cleanly() {
        let d = data();
        let chunks = chunk_along_dim0(&d, 2);
        let c = qoz_sz3::Sz3::default();
        let mut blobs = compress_chunks(&c, &chunks, ErrorBound::Abs(1e-3), 2);
        blobs[1].truncate(10);
        assert!(decompress_chunks::<f32, _>(&c, &blobs, 2).is_err());
    }
}
