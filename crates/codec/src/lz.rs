//! LZSS dictionary coding.
//!
//! The SZ reference implementations run zstd over the Huffman-coded
//! quantization stream; residual structure (runs of identical bins, level
//! periodicity) is removed by dictionary matching. This module implements
//! a classic LZSS with hash-chain match finding that fills the same role:
//!
//! * 64 KiB sliding window,
//! * minimum match length 4, maximum 259 (8-bit length field),
//! * MSB-first flag bits: `0` = literal byte, `1` = (distance, length)
//!   back-reference.
//!
//! The format is framed with the uncompressed length so the decoder can
//! pre-allocate and detect truncation.

use crate::bits::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::scratch::GrowCounter;
use crate::{CodecError, Result};

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Bounded chain walk; longer chains give better ratios but slow encoding.
const MAX_CHAIN: usize = 64;

#[inline(always)]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable working memory for [`lzss_compress_with`].
///
/// The match finder allocates two chain tables (`head` is 2^15 entries,
/// `prev` up to 2^16) plus flag/literal/match staging on every call;
/// for repeated compression of similar-sized inputs these dominate the
/// allocator traffic of the lossless stage. A scratch keeps them alive
/// across calls — buffers are cleared, capacity is retained. The decode
/// side ([`lzss_decompress_with`]) reuses the match staging too.
#[derive(Debug, Default)]
pub struct LzScratch {
    head: Vec<usize>,
    prev: Vec<usize>,
    bits: Vec<u8>,
    literals: Vec<u8>,
    matches: Vec<(u16, u8)>,
    grows: GrowCounter,
}

impl LzScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-side buffer growth events recorded so far (monotone).
    pub fn grow_events(&self) -> u64 {
        self.grows.get()
    }
}

/// Compress `input` with LZSS. The output starts with a varint of the
/// uncompressed length.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lzss_compress_with(input, &mut LzScratch::new(), &mut out);
    out
}

/// [`lzss_compress`] with caller-provided working memory: clears `out`
/// and fills it with exactly the bytes `lzss_compress` would return.
pub fn lzss_compress_with(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    w.reserve(input.len() / 2 + 16);
    w.put_varint(input.len() as u64);
    if input.is_empty() {
        *out = w.finish();
        return;
    }

    let mut bits = BitWriter::from_vec(std::mem::take(&mut scratch.bits));
    scratch.literals.clear();
    scratch.matches.clear();
    let literals = &mut scratch.literals;
    let matches = &mut scratch.matches;

    // head[h] = most recent position with hash h; prev[i % WINDOW] = chain.
    // `prev` is read only at positions already inserted for this input
    // (a chain stops before an entry could have been overwritten by a
    // position a window later), so it needs min(n, WINDOW) entries and
    // no reset: stale entries from earlier calls are never read.
    scratch.head.clear();
    scratch.head.resize(HASH_SIZE, usize::MAX);
    let need = input.len().min(WINDOW);
    if scratch.prev.len() < need {
        scratch.prev.resize(need, usize::MAX);
    }
    let head = &mut scratch.head;
    let prev = &mut scratch.prev;

    let n = input.len();
    let mut i = 0;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(&input[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            let limit = (n - i).min(MAX_MATCH);
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                // Quick reject: check the byte just past the current best.
                if best_len == 0 || input[cand + best_len] == input[i + best_len] {
                    let mut l = 0;
                    while l < limit && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            bits.put_bit(true);
            matches.push((best_dist as u16, (best_len - MIN_MATCH) as u8));
            // Insert hash entries for every covered position.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let h = hash4(&input[j..]);
                prev[j % WINDOW] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            bits.put_bit(false);
            literals.push(input[i]);
            if i + MIN_MATCH <= n {
                let h = hash4(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }

    let payload = bits.finish();
    w.put_len_prefixed(&payload);
    scratch.bits = payload; // recycle the bitstream backing store
    w.put_len_prefixed(literals);
    w.put_varint(matches.len() as u64);
    for &(dist, len) in matches.iter() {
        w.put_u16(dist);
        w.put_u8(len);
    }
    *out = w.finish();
}

/// Decompress a buffer produced by [`lzss_compress`].
pub fn lzss_decompress(input: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    lzss_decompress_with(input, &mut LzScratch::new(), &mut out)?;
    Ok(out)
}

/// [`lzss_decompress`] with caller-provided working memory: the match
/// list is staged in `scratch` and the decoded bytes replace the
/// contents of `out` (cleared, capacity kept). Decoded bytes are
/// identical to the allocating path.
pub fn lzss_decompress_with(
    input: &[u8],
    scratch: &mut LzScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut r = ByteReader::new(input);
    let total = r.get_varint()? as usize;
    if total > (1 << 34) {
        return Err(CodecError::Corrupt("implausible uncompressed size"));
    }
    out.clear();
    if total == 0 {
        return Ok(());
    }
    let flags = r.get_len_prefixed()?;
    let literals = r.get_len_prefixed()?;
    let n_matches = r.get_varint()? as usize;
    if n_matches > input.len() {
        return Err(CodecError::Corrupt("implausible match count"));
    }
    // Every flag bit yields one literal or one match of at most
    // MAX_MATCH bytes, so a claimed length past that is a lie; refuse it
    // before `total` sizes an allocation.
    let most = literals
        .len()
        .saturating_add(n_matches.saturating_mul(MAX_MATCH));
    if total > most {
        return Err(CodecError::Corrupt("length exceeds literals and matches"));
    }
    scratch.grows.check(scratch.matches.capacity(), n_matches);
    scratch.matches.clear();
    for _ in 0..n_matches {
        let dist = r.get_u16()?;
        let len = r.get_u8()?;
        scratch.matches.push((dist, len));
    }

    let mut bits = BitReader::new(flags);
    let mut lit_iter = literals.iter();
    let mut match_iter = scratch.matches.iter();
    scratch.grows.check(out.capacity(), total);
    out.reserve(total);
    while out.len() < total {
        if bits.get_bit()? {
            let &(dist, len) = match_iter
                .next()
                .ok_or(CodecError::Corrupt("missing match"))?;
            let (dist, len) = (dist as usize, len as usize + MIN_MATCH);
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("match distance out of range"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let &b = lit_iter
                .next()
                .ok_or(CodecError::Corrupt("missing literal"))?;
            out.push(b);
        }
    }
    if out.len() != total {
        return Err(CodecError::Corrupt("length mismatch after decode"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = lzss_compress(data);
        let d = lzss_decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"abc");
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(10_000).copied().collect();
        let c = lzss_compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive data should compress well, got {} for {}",
            c.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: xorshift.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_run_of_zeros() {
        roundtrip(&vec![0u8; 100_000]);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaa..." forces overlapping copies (dist 1, long match).
        let mut data = vec![b'x'];
        data.extend(vec![b'a'; 500]);
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_long_mixed() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(&(i % 97).to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = lzss_compress(&data);
        for cut in 0..c.len() {
            assert!(
                lzss_decompress(&c[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn corrupt_distance_rejected() {
        // Hand-build: total=4, flags = [1 match], no literals, 1 match with
        // distance 9 (> produced output).
        let mut w = ByteWriter::new();
        w.put_varint(4);
        let mut bits = BitWriter::new();
        bits.put_bit(true);
        w.put_len_prefixed(&bits.finish());
        w.put_len_prefixed(&[]);
        w.put_varint(1);
        w.put_u16(9);
        w.put_u8(0);
        let buf = w.finish();
        assert!(lzss_decompress(&buf).is_err());
    }

    /// Bytes from a four-letter alphabet with a drifting period: long
    /// hash chains and matches at every distance up to the window.
    fn chained_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if x % 8 == 0 {
                    b'a' + (x >> 8) as u8 % 4
                } else {
                    b'a' + (i % 7 + i / 4096) as u8 % 4
                }
            })
            .collect()
    }

    /// One arena across every length, longest first, so each shorter
    /// input runs over `prev` entries a longer one left behind: the
    /// bytes must equal a fresh arena's and decode to the input.
    #[test]
    fn roundtrip_around_the_window_with_a_reused_arena() {
        let mut scratch = LzScratch::new();
        let mut out = Vec::new();
        for n in [
            3 * WINDOW,
            WINDOW + 1,
            WINDOW,
            WINDOW - 1,
            4,
            3,
            1,
            3 * WINDOW,
        ] {
            let data = chained_bytes(n);
            lzss_compress_with(&data, &mut scratch, &mut out);
            assert_eq!(out, lzss_compress(&data), "length {n}");
            assert_eq!(lzss_decompress(&out).unwrap(), data, "length {n}");
        }
    }

    #[test]
    fn claimed_length_past_the_matches_is_refused_before_allocating() {
        // 2^34 bytes claimed (the plausibility cap) from no flags, no
        // literals and no matches.
        let mut w = ByteWriter::new();
        w.put_varint(1 << 34);
        w.put_len_prefixed(&[]);
        w.put_len_prefixed(&[]);
        w.put_varint(0);
        let buf = w.finish();
        let mut out = Vec::new();
        let err = lzss_decompress_with(&buf, &mut LzScratch::new(), &mut out);
        assert!(matches!(err, Err(CodecError::Corrupt(_))), "{err:?}");
        assert!(out.capacity() < 1024, "reserved {} bytes", out.capacity());
        // A run that really expands to the bound still decodes: one
        // literal then matches of MAX_MATCH bytes each.
        let data = vec![b'z'; 1 + 3 * MAX_MATCH];
        assert_eq!(lzss_decompress(&lzss_compress(&data)).unwrap(), data);
    }
}
