//! The composed lossless backend: quantization bins → Huffman → LZSS.
//!
//! Every compressor in the workspace funnels its quantization codes and
//! exact-value side streams through these helpers so that the entropy
//! stage is identical across QoZ and the baselines — exactly the setup the
//! paper's comparisons assume (all SZ-family codecs share Huffman+zstd).

use crate::byteio::{ByteReader, ByteWriter};
use crate::huffman::{HuffmanDecoder, HuffmanEncoder};
use crate::lz::{lzss_compress_with, lzss_decompress, lzss_decompress_with};
use crate::scratch::EntropyScratch;
use crate::{CodecError, Result};

/// Marker distinguishing an empty bin stream from a populated one.
const TAG_EMPTY: u8 = 0;
const TAG_DATA: u8 = 1;

/// Entropy-code a stream of quantization bins.
///
/// Produces a self-contained blob: `tag, LZSS(Huffman(bins))`.
pub fn encode_bins(bins: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_bins_with(bins, &mut EntropyScratch::new(), &mut out);
    out
}

/// [`encode_bins`] with caller-provided working memory: clears `out` and
/// fills it with exactly the bytes `encode_bins` would return, staging
/// the Huffman and LZSS passes in the recycled `scratch` buffers.
pub fn encode_bins_with(bins: &[u32], scratch: &mut EntropyScratch, out: &mut Vec<u8>) {
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    w.reserve(bins.len() / 4 + 16);
    match HuffmanEncoder::from_symbols_with(bins, &mut scratch.huffman) {
        None => {
            w.put_u8(TAG_EMPTY);
        }
        Some(enc) => {
            w.put_u8(TAG_DATA);
            let mut huff = ByteWriter::from_vec(std::mem::take(&mut scratch.huff));
            enc.encode_with(bins, &mut scratch.bits, &mut huff);
            enc.recycle(&mut scratch.huffman);
            let huff = huff.into_vec();
            lzss_compress_with(&huff, &mut scratch.lz, &mut scratch.packed);
            scratch.huff = huff;
            w.put_len_prefixed(&scratch.packed);
        }
    }
    *out = w.finish();
}

/// Inverse of [`encode_bins`].
pub fn decode_bins(blob: &[u8]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_bins_with(blob, &mut EntropyScratch::new(), &mut out)?;
    Ok(out)
}

/// [`decode_bins`] with caller-provided working memory: the LZSS
/// inflate, the Huffman table rebuild and the decoded symbols all stage
/// in recycled buffers. `out` is cleared and filled with exactly the
/// bins the allocating path returns.
pub fn decode_bins_with(
    blob: &[u8],
    scratch: &mut EntropyScratch,
    out: &mut Vec<u32>,
) -> Result<()> {
    let mut r = ByteReader::new(blob);
    match r.get_u8()? {
        TAG_EMPTY => {
            out.clear();
            Ok(())
        }
        TAG_DATA => {
            let packed = r.get_len_prefixed()?;
            // Stage the inflated Huffman stream in the recycled `huff`
            // buffer (shared with the encode side; hand it back even on
            // error so failing decodes don't shrink the arena).
            let mut huff = std::mem::take(&mut scratch.huff);
            let res = lzss_decompress_with(packed, &mut scratch.lz, &mut huff).and_then(|()| {
                let mut hr = ByteReader::new(&huff);
                HuffmanDecoder::decode_with(&mut hr, &mut scratch.huffman, out)
            });
            scratch.huff = huff;
            res
        }
        _ => Err(CodecError::Corrupt("unknown bin stream tag")),
    }
}

/// Losslessly compress an arbitrary byte stream (used for anchor points
/// and exact-value side streams). Currently LZSS; kept behind a function
/// so the backend can be swapped without touching compressors.
pub fn lossless_compress(data: &[u8]) -> Vec<u8> {
    crate::lz::lzss_compress(data)
}

/// [`lossless_compress`] with caller-provided working memory: clears
/// `out` and fills it with exactly the bytes `lossless_compress` would
/// return.
pub fn lossless_compress_with(data: &[u8], scratch: &mut EntropyScratch, out: &mut Vec<u8>) {
    lzss_compress_with(data, &mut scratch.lz, out);
}

/// Inverse of [`lossless_compress`].
pub fn lossless_decompress(data: &[u8]) -> Result<Vec<u8>> {
    lzss_decompress(data)
}

/// [`lossless_decompress`] with caller-provided working memory: `out`
/// is cleared and filled with exactly the bytes the allocating path
/// returns.
pub fn lossless_decompress_with(
    data: &[u8],
    scratch: &mut EntropyScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    lzss_decompress_with(data, &mut scratch.lz, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_roundtrip() {
        let bins: Vec<u32> = (0..10_000).map(|i| 32768 + ((i % 7) as u32)).collect();
        let blob = encode_bins(&bins);
        assert_eq!(decode_bins(&blob).unwrap(), bins);
        // Highly concentrated bins compress strongly.
        assert!(blob.len() < bins.len() / 2);
    }

    #[test]
    fn empty_bins_roundtrip() {
        let blob = encode_bins(&[]);
        assert_eq!(decode_bins(&blob).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn byte_stream_roundtrip() {
        let data: Vec<u8> = (0..9999u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let packed = lossless_compress(&data);
        assert_eq!(lossless_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(decode_bins(&[9, 0, 0]).is_err());
    }

    #[test]
    fn truncated_blob_rejected() {
        let bins = vec![1u32, 2, 3, 1, 2, 3];
        let blob = encode_bins(&bins);
        for cut in 0..blob.len() {
            assert!(decode_bins(&blob[..cut]).is_err() || cut == 0);
        }
    }
}
