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

/// Hash-table slot of a 4-byte word.
#[inline(always)]
fn hash_word(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The 4 bytes at `at`, little-endian.
#[inline(always)]
fn word4(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("a 4-byte slice"))
}

/// Reusable working memory for [`lzss_compress_with`].
///
/// The match finder's two chain tables hold `u32` *stored positions*:
/// `head` (2^15 entries) maps a 4-byte hash to the latest position with
/// that hash, `prev` (`min(n, WINDOW)` entries, indexed by input offset
/// modulo the window) links each position to the one before it. An
/// arena numbers the bytes of successive inputs from one running
/// counter and leaves a window-sized gap after each input, so every
/// entry an earlier input left fails the match window test: neither
/// table is cleared between calls, and `prev` only ever grows. Zero, the
/// value of a never-written slot, sits a full window behind the first
/// position. Before the counter could leave the `u32` range, every entry
/// and the counter slide down together (entries out of the window
/// saturate to zero), so distances, and the bytes, never change. The
/// flag/literal/match staging is kept across calls too, and the decode
/// side ([`lzss_decompress_with`]) reuses the match staging.
#[derive(Debug, Default)]
pub struct LzScratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Stored position of the next input's first byte; 0 until the
    /// first call sizes `head`.
    next_pos: u32,
    bits: Vec<u8>,
    literals: Vec<u8>,
    matches: Vec<(u16, u8)>,
    grows: GrowCounter,
}

/// Stored position of an arena's first byte, and of the current byte
/// after a slide: one window past the zero of an empty slot.
const FIRST_POS: u32 = WINDOW as u32;
/// The match finder slides its tables down before a position reaches
/// this. The room above it covers one match's insertions and the gap
/// before the next input.
const SLIDE_AT: u32 = u32::MAX - 4 * WINDOW as u32;

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

/// Move every stored position in the chain tables down by
/// `pos - FIRST_POS` and return [`FIRST_POS`], the new stored position of
/// `pos`. Entries within the window keep their distance to it; older
/// ones, which no walk can use, saturate to zero.
#[cold]
fn slide(head: &mut [u32], prev: &mut [u32], pos: u32) -> u32 {
    let shift = pos - FIRST_POS;
    for e in head.iter_mut().chain(prev.iter_mut()) {
        *e = e.saturating_sub(shift);
    }
    FIRST_POS
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

    if scratch.head.len() != HASH_SIZE {
        scratch.head.resize(HASH_SIZE, 0);
        scratch.next_pos = FIRST_POS;
    }
    // `prev` is read only at positions already inserted for this input
    // (a walk stops at the first candidate a window or more behind), so
    // it needs min(n, WINDOW) slots and no reset.
    let need = input.len().min(WINDOW);
    if scratch.prev.len() < need {
        scratch.prev.resize(need, 0);
    }

    let head: &mut [u32; HASH_SIZE] = (&mut scratch.head[..])
        .try_into()
        .expect("head has HASH_SIZE slots");
    let prev = &mut scratch.prev[..];
    let n = input.len();
    // `pos` is the stored position of input byte `i`.
    let mut pos = scratch.next_pos;
    let mut i = 0;
    while i < n {
        if pos >= SLIDE_AT {
            pos = slide(head, prev, pos);
        }
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            // Insert `i` first: the walk never reads its slot, since
            // every candidate it follows is less than a window behind.
            let cur = word4(input, i);
            let h = hash_word(cur);
            let first = head[h];
            head[h] = pos;
            prev[i % WINDOW] = first;
            // Only a candidate sharing the 4 bytes at `i` can give a
            // match, and the walk stops at the first candidate a window or
            // more behind. So unless the first candidate is in the window
            // and shares them, or the second one is in the window too,
            // the walk finds nothing and is skipped. The test is computed
            // without branches (an out-of-window candidate reads `i`
            // instead): it replaces the walk's first exit, which depends
            // on a table load and is taken about as often as not, with a
            // branch that is rarely taken.
            let d0 = (pos - first) as usize;
            let in_window = d0 < WINDOW;
            let c0 = if in_window { i - d0 } else { i };
            let shares_word = in_window & (word4(input, c0) == cur);
            let second_in_window = in_window & (((pos - prev[c0 % WINDOW]) as usize) < WINDOW);
            if shares_word | second_in_window {
                let mut cand = first;
                let mut chain = 0;
                let limit = (n - i).min(MAX_MATCH);
                while chain < MAX_CHAIN {
                    let dist = (pos - cand) as usize;
                    if dist >= WINDOW {
                        break;
                    }
                    let c = i - dist;
                    // Quick reject: check the byte just past the current best.
                    if best_len == 0 || input[c + best_len] == input[i + best_len] {
                        let mut l = 0;
                        while l < limit && input[c + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = dist;
                            if l == limit {
                                break;
                            }
                        }
                    }
                    cand = prev[c % WINDOW];
                    chain += 1;
                }
            }
        }

        if best_len >= MIN_MATCH {
            bits.put_bit(true);
            matches.push((best_dist as u16, (best_len - MIN_MATCH) as u8));
            // Insert hash entries for every other covered position.
            let end = (i + best_len).min(n - (MIN_MATCH - 1));
            for j in i + 1..end {
                let h = hash_word(word4(input, j));
                prev[j % WINDOW] = head[h];
                head[h] = pos + (j - i) as u32;
            }
            i += best_len;
            pos += best_len as u32;
        } else {
            bits.put_bit(false);
            literals.push(input[i]);
            i += 1;
            pos += 1;
        }
    }
    // The gap puts every entry of this input a window or more behind the
    // next one's first position.
    scratch.next_pos = pos + FIRST_POS;

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
    /// bytes must equal the old match finder's and decode to the input.
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
            assert_eq!(out, lzss_compress_oracle(&data), "length {n}");
            assert_eq!(lzss_decompress(&out).unwrap(), data, "length {n}");
        }
    }

    /// The match finder [`lzss_compress_with`] replaced: `usize` chains
    /// in fresh tables (a reused arena refilled `head` on every call and
    /// never read a stale `prev` slot, so it wrote these same bytes),
    /// each position hashed for its walk and again for its insertion.
    fn lzss_compress_oracle(input: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(input.len() as u64);
        if input.is_empty() {
            return w.finish();
        }
        let mut bits = BitWriter::new();
        let mut literals = Vec::new();
        let mut matches: Vec<(u16, u8)> = Vec::new();
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; input.len().min(WINDOW)];
        let n = input.len();
        let mut i = 0;
        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= n {
                let h = hash_word(word4(input, i));
                let mut cand = head[h];
                let mut chain = 0;
                let limit = (n - i).min(MAX_MATCH);
                while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
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
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                for j in i..end {
                    let h = hash_word(word4(input, j));
                    prev[j % WINDOW] = head[h];
                    head[h] = j;
                }
                i += best_len;
            } else {
                bits.put_bit(false);
                literals.push(input[i]);
                if i + MIN_MATCH <= n {
                    let h = hash_word(word4(input, i));
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        w.put_len_prefixed(&bits.finish());
        w.put_len_prefixed(&literals);
        w.put_varint(matches.len() as u64);
        for (dist, len) in matches {
            w.put_u16(dist);
            w.put_u8(len);
        }
        w.finish()
    }

    /// Huffman streams of tuner-trial bins: the quantized levels of
    /// blocks sampled from seeded fields, traversed as the engine
    /// traverses an anchored block, at a tight, a typical and a loose
    /// bound.
    fn trial_huffman_streams() -> Vec<Vec<u8>> {
        use qoz_datagen::{Dataset, SizeClass};
        use qoz_predict::{traverse_level, LevelConfig};
        use qoz_tensor::{sample_blocks, SamplePlan};

        let mut streams = Vec::new();
        for ds in [Dataset::Miranda, Dataset::CesmAtm, Dataset::Nyx] {
            let data = ds.generate(SizeClass::Tiny, 0);
            let block = if data.shape().ndim() == 2 { 64 } else { 16 };
            let plan = SamplePlan::from_rate(data.shape(), block, 0.02);
            for rel in [1e-5, 1e-3, 1e-2] {
                let q = crate::LinearQuantizer::new(rel * data.value_range());
                let mut bins = Vec::new();
                for mut b in sample_blocks(&data, &plan) {
                    let shape = b.shape();
                    let levels = (block as u32).trailing_zeros();
                    for level in (1..=levels).rev() {
                        let cfg = LevelConfig::default();
                        traverse_level(b.as_mut_slice(), shape, level, cfg, &mut |buf, off, p| {
                            let qz = q.quantize(buf[off], p);
                            bins.push(qz.code);
                            buf[off] = qz.reconstructed;
                        });
                    }
                }
                let enc = crate::HuffmanEncoder::from_symbols(&bins).expect("blocks have bins");
                let mut w = ByteWriter::new();
                enc.encode(&bins, &mut w);
                streams.push(w.finish());
            }
        }
        streams
    }

    /// One arena codes trial Huffman streams, chained bytes around the
    /// window and 0..=4-byte inputs, three times over; before each round
    /// its counter moves up to just below the slide point, so the round's
    /// first input slides the tables: in the middle of a long input, 3
    /// bytes into a trial stream, and at the only byte of a 1-byte input.
    /// Every output equals the old match finder's and decodes to its
    /// input.
    #[test]
    fn parse_matches_the_old_match_finder_across_slides() {
        let mut inputs = vec![chained_bytes(3 * WINDOW)];
        inputs.extend(trial_huffman_streams());
        for n in [WINDOW + 1, WINDOW, WINDOW - 1, 2 * WINDOW + 7] {
            inputs.push(chained_bytes(n));
        }
        for n in (0..=4).rev() {
            inputs.push(chained_bytes(n));
            inputs.push(vec![0; n]);
        }
        let one_byte = inputs.len() - 4;
        assert_eq!(inputs[one_byte].len(), 1);
        let mut scratch = LzScratch::new();
        lzss_compress_with(&inputs[0], &mut scratch, &mut Vec::new());
        let mut out = Vec::new();
        for (round, (gap, first)) in [(WINDOW + 12_345, 0), (3, 1), (0, one_byte)]
            .into_iter()
            .enumerate()
        {
            // Moving the counter up only ages the entries already stored.
            let at = SLIDE_AT - gap as u32;
            assert!(scratch.next_pos <= at);
            scratch.next_pos = at;
            let order = (first..inputs.len()).chain(0..first);
            for (k, data) in order.map(|k| (k, &inputs[k])) {
                let before = scratch.next_pos;
                lzss_compress_with(data, &mut scratch, &mut out);
                assert_eq!(out, lzss_compress_oracle(data), "round {round} input {k}");
                assert_eq!(
                    lzss_decompress(&out).unwrap(),
                    *data,
                    "round {round} input {k}"
                );
                let slid = scratch.next_pos < before;
                assert_eq!(slid, k == first, "round {round} input {k}");
            }
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
