//! Thread-parallel per-rank compression.
//!
//! Workers claim the next chunk index from a shared counter until none
//! are left, so a slow chunk never idles the rest
//! ([`qoz_codec::claim_each`], the loop the tuner's trials share). The
//! calling thread is one of them: a call spawns `min(threads, chunks) − 1`
//! scoped threads (`std::thread::scope`, no `'static` bound needed) and
//! none for a single chunk. Each result lands in its chunk's slot, so
//! chunk order — the serial-equals-parallel determinism invariant — and
//! the first error by index hold whatever the interleaving.
//!
//! Each worker owns one [`Scratch`] arena for every chunk it claims — on
//! both directions of the pipeline — so stage buffers (working copy,
//! bins, side streams, entropy staging) are allocated once per worker
//! rather than once per chunk: the archive writer's many-chunk variables
//! ride the compress workers, the archive reader's region queries ride
//! the decode workers. Scratch never changes bytes or decoded values, so
//! the serial-equals-parallel invariant is untouched.

use qoz_codec::stream::{Compressor, ErrorBound};
use qoz_codec::{claim_each, HelperLease, Result, Scratch};
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
///
/// The spawned workers are reserved from the process-wide helper budget
/// while they run ([`HelperLease`]), so a QoZ plan inside a worker finds
/// the cores taken and runs its trials on its own thread instead of
/// adding threads, and trial arenas, past the cores.
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
    let helpers = threads.min(chunks.len()).saturating_sub(1);
    let _reserved = HelperLease::take(helpers);
    claim_each(chunks.len(), helpers, Scratch::new, |i, scratch| {
        compressor.compress_with_scratch(&chunks[i], bound, scratch)
    })
}

/// Decompress every blob with `threads` workers; returns arrays in blob
/// order, or the error of the first failing blob.
pub fn decompress_chunks<T, C>(
    compressor: &C,
    blobs: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<NdArray<T>>>
where
    T: Scalar,
    C: Compressor<T> + ?Sized,
{
    // Each chunk decodes into its own array, grown only once its
    // payload agrees with its header.
    claim_each(
        blobs.len(),
        threads.saturating_sub(1),
        Scratch::new,
        |i, scratch| {
            let mut chunk = NdArray::zeros(Shape::d1(1));
            compressor
                .decompress_into(&blobs[i], scratch, &mut chunk)
                .map(|()| chunk)
        },
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::Shape;

    /// Reassemble chunks produced by [`chunk_along_dim0`].
    fn reassemble_dim0<T: Scalar>(chunks: &[NdArray<T>]) -> NdArray<T> {
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
        let bound = ErrorBound::Abs(1e-3);
        let c = qoz_sz3::Sz3::default();
        for n in [1, 2, 3, 7] {
            let chunks = chunk_along_dim0(&d, n);
            // Serial reference.
            let ser: Vec<Vec<u8>> = chunks.iter().map(|ch| c.compress(ch, bound)).collect();
            let ser_recon: Vec<NdArray<f32>> =
                ser.iter().map(|b| c.decompress(b).unwrap()).collect();
            for threads in 1..=4 {
                let par = compress_chunks(&c, &chunks, bound, threads);
                assert_eq!(par, ser, "{n} chunks on {threads} threads: bytes differ");
                let recon = decompress_chunks::<f32, _>(&c, &par, threads).unwrap();
                assert_eq!(
                    recon, ser_recon,
                    "{n} chunks on {threads} threads: values differ"
                );
            }
            assert!(d.max_abs_diff(&reassemble_dim0(&ser_recon)) <= 1e-3);
        }
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
        let chunks = chunk_along_dim0(&d, 3);
        let c = qoz_sz3::Sz3::default();
        let blobs = compress_chunks(&c, &chunks, ErrorBound::Abs(1e-3), 3);
        let serial_err = |blob: &[u8]| c.decompress(blob).map(|_: NdArray<f32>| ()).unwrap_err();
        // One corrupt blob first, in the middle or last.
        for bad in 0..blobs.len() {
            let mut blobs = blobs.clone();
            blobs[bad].truncate(10);
            for threads in 1..=4 {
                let err = decompress_chunks::<f32, _>(&c, &blobs, threads).unwrap_err();
                assert_eq!(
                    err,
                    serial_err(&blobs[bad]),
                    "blob {bad} on {threads} threads"
                );
            }
        }
        // Two blobs corrupt in different ways: the lower index's error
        // wins, whichever worker finished first.
        let mut blobs = blobs;
        blobs[1].truncate(10);
        blobs[2] = vec![0; 64];
        let first = serial_err(&blobs[1]);
        assert_ne!(first, serial_err(&blobs[2]));
        for threads in 1..=4 {
            let err = decompress_chunks::<f32, _>(&c, &blobs, threads).unwrap_err();
            assert_eq!(err, first, "{threads} threads");
        }
    }
}
