//! Canonical Huffman coding over `u32` symbols.
//!
//! Quantization bins are entropy-coded with a canonical Huffman code:
//! code lengths are derived from symbol frequencies with the classic
//! two-queue construction, then codes are assigned canonically
//! (shorter-first, then by symbol value) so only the `(symbol, length)`
//! table needs to be serialized. Decoding uses the canonical
//! first-code/offset tables — O(length) per symbol with tiny memory.
//!
//! Degenerate inputs (empty stream, single distinct symbol) are handled
//! explicitly; over-long codes (> [`MAX_CODE_LEN`]) are prevented by
//! iteratively flattening the frequency distribution, which preserves
//! prefix-freeness at a negligible size cost.

use crate::bits::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::scratch::GrowCounter;
use crate::{CodecError, Result};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Longest permitted code, in bits.
pub const MAX_CODE_LEN: u32 = 32;

/// Frequency-derived code lengths via the standard Huffman heap algorithm.
fn code_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
    assert!(!freqs.is_empty());
    if freqs.len() == 1 {
        // A lone symbol still needs one bit so the bit count encodes the run
        // length unambiguously.
        return vec![(freqs[0].0, 1)];
    }

    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on an id to make the construction deterministic.
        id: usize,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert for min-heap behaviour.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut next_id = freqs.len();
    let mut heap: BinaryHeap<Node> = freqs
        .iter()
        .enumerate()
        .map(|(i, &(_, w))| Node {
            weight: w.max(1),
            id: i,
            kind: NodeKind::Leaf(i),
        })
        .collect();

    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let w = a.weight + b.weight;
        heap.push(Node {
            weight: w,
            id: next_id,
            kind: NodeKind::Internal(Box::new(a), Box::new(b)),
        });
        next_id += 1;
    }

    let root = heap.pop().unwrap();
    let mut depths = vec![0u32; freqs.len()];
    // Iterative DFS to avoid recursion limits on skewed trees.
    let mut stack = vec![(root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        match node.kind {
            NodeKind::Leaf(i) => depths[i] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((*a, depth + 1));
                stack.push((*b, depth + 1));
            }
        }
    }
    freqs
        .iter()
        .zip(depths)
        .map(|(&(sym, _), d)| (sym, d))
        .collect()
}

/// Canonical code assignment: returns `(symbol, length, code)` sorted by
/// `(length, symbol)`.
fn canonical_codes(mut lengths: Vec<(u32, u32)>) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::with_capacity(lengths.len());
    canonical_codes_into(&mut lengths, &mut out);
    out
}

/// [`canonical_codes`] into a recycled buffer: sorts `lengths` in place
/// by `(length, symbol)` and fills `out` (cleared first) with the same
/// `(symbol, length, code)` triples the allocating variant returns.
fn canonical_codes_into(lengths: &mut [(u32, u32)], out: &mut Vec<(u32, u32, u64)>) {
    lengths.sort_by_key(|&(sym, len)| (len, sym));
    out.clear();
    out.reserve(lengths.len());
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &(sym, len) in lengths.iter() {
        code <<= len - prev_len;
        out.push((sym, len, code));
        code += 1;
        prev_len = len;
    }
}

/// Widest symbol range for which the encoder keeps a directly-indexed
/// table. Quantizer bins cluster near the radius (tens of thousands), so
/// this covers every real workload; pathological sparse alphabets fall
/// back to a hash map.
const DENSE_SYMBOL_SLACK: usize = 1 << 16;

/// symbol -> (length, code) lookup, dense where the symbol range allows.
#[derive(Debug, Clone)]
enum SymbolTable {
    /// Indexed directly by symbol value; `length == 0` marks a hole.
    Dense(Vec<(u32, u64)>),
    /// Fallback for sparse, wide alphabets.
    Sparse(HashMap<u32, (u32, u64)>),
}

impl SymbolTable {
    /// Build the lookup table, staging the dense variant in the scratch's
    /// recycled buffer (handed back via [`HuffmanEncoder::recycle`]). The
    /// table contents are identical to a freshly allocated build.
    fn build(coded: &[(u32, u32, u64)], scratch: &mut HuffmanScratch) -> SymbolTable {
        let max = coded.iter().map(|&(s, _, _)| s).max().unwrap_or(0) as usize;
        if max <= coded.len().saturating_mul(16) + DENSE_SYMBOL_SLACK {
            let mut v = std::mem::take(&mut scratch.dense);
            v.clear();
            v.resize(max + 1, (0u32, 0u64));
            for &(sym, len, code) in coded {
                v[sym as usize] = (len, code);
            }
            SymbolTable::Dense(v)
        } else {
            SymbolTable::Sparse(
                coded
                    .iter()
                    .map(|&(sym, len, code)| (sym, (len, code)))
                    .collect(),
            )
        }
    }

    #[inline]
    fn get(&self, sym: u32) -> Option<(u32, u64)> {
        match self {
            SymbolTable::Dense(v) => match v.get(sym as usize) {
                Some(&(len, code)) if len != 0 => Some((len, code)),
                _ => None,
            },
            SymbolTable::Sparse(m) => m.get(&sym).copied(),
        }
    }
}

/// A Huffman encoder built from symbol frequencies.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    table: SymbolTable,
    /// `(symbol, length)` pairs sorted by `(length, symbol)` — the
    /// canonical serialization order.
    entries: Vec<(u32, u32)>,
}

/// Reusable table-construction buffers for the Huffman coder.
///
/// The encode side recycles the dense frequency-count table and — via
/// [`HuffmanEncoder::recycle`] — the dense symbol→code table, both
/// sized by the largest symbol (tens of thousands of entries for
/// quantizer bins). The decode side ([`HuffmanDecoder::decode_with`])
/// recycles the serialized-table staging, the canonical symbol list and
/// the 2^11-entry primary lookup table. Recycling never changes bytes
/// or decoded values; the golden-bitstream tests pin this.
#[derive(Debug, Default)]
pub struct HuffmanScratch {
    counts: Vec<u64>,
    /// Encoder dense symbol→code table, recycled across builds.
    dense: Vec<(u32, u64)>,
    /// Decoder staging: `(symbol, length)` entries read from the stream.
    entries: Vec<(u32, u32)>,
    /// Decoder staging: canonical `(symbol, length, code)` triples.
    coded: Vec<(u32, u32, u64)>,
    /// Decoder canonical symbol list, recycled across streams.
    symbols: Vec<u32>,
    /// Decoder primary lookup table (2^11 entries), recycled.
    primary: Vec<u64>,
    grows: GrowCounter,
}

impl HuffmanScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-side buffer growth events recorded so far (monotone).
    pub fn grow_events(&self) -> u64 {
        self.grows.get()
    }
}

impl HuffmanEncoder {
    /// Build an encoder from the symbols that will be encoded.
    ///
    /// Returns `None` for an empty input (nothing to encode).
    pub fn from_symbols(symbols: &[u32]) -> Option<Self> {
        Self::from_symbols_with(symbols, &mut HuffmanScratch::new())
    }

    /// [`HuffmanEncoder::from_symbols`] with a recycled counting buffer.
    pub fn from_symbols_with(symbols: &[u32], scratch: &mut HuffmanScratch) -> Option<Self> {
        if symbols.is_empty() {
            return None;
        }
        // Frequency counting: dense array when the symbol range is
        // moderate (the common quantizer-bin case), hash map otherwise.
        // Both paths yield the same symbol-sorted frequency list.
        let max = symbols.iter().copied().max().unwrap() as usize;
        let mut freqs: Vec<(u32, u64)>;
        if max <= symbols.len().saturating_mul(16) + DENSE_SYMBOL_SLACK {
            let counts = &mut scratch.counts;
            counts.clear();
            counts.resize(max + 1, 0);
            for &s in symbols {
                counts[s as usize] += 1;
            }
            freqs = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (s as u32, c))
                .collect();
        } else {
            let mut freq: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *freq.entry(s).or_insert(0) += 1;
            }
            freqs = freq.into_iter().collect();
            freqs.sort_unstable();
        }

        // Flatten the distribution until no code exceeds MAX_CODE_LEN.
        let mut lengths = code_lengths(&freqs);
        while lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
            for f in freqs.iter_mut() {
                f.1 = (f.1 / 2).max(1);
            }
            lengths = code_lengths(&freqs);
        }

        let coded = canonical_codes(lengths);
        let table = SymbolTable::build(&coded, scratch);
        let entries = coded.iter().map(|&(sym, len, _)| (sym, len)).collect();
        Some(HuffmanEncoder { table, entries })
    }

    /// Hand the encoder's dense symbol→code table back to `scratch` so
    /// the next [`HuffmanEncoder::from_symbols_with`] build reuses its
    /// allocation instead of allocating a fresh table.
    pub fn recycle(self, scratch: &mut HuffmanScratch) {
        if let SymbolTable::Dense(v) = self.table {
            scratch.dense = v;
        }
    }

    /// Number of distinct symbols in the code.
    pub fn num_symbols(&self) -> usize {
        self.entries.len()
    }

    /// Code length in bits for `symbol`, if present.
    pub fn length_of(&self, symbol: u32) -> Option<u32> {
        self.table.get(symbol).map(|(l, _)| l)
    }

    /// Exact size in bits of encoding `symbols` with this table (payload
    /// only, excluding the serialized table).
    pub fn payload_bits(&self, symbols: &[u32]) -> Option<usize> {
        let mut total = 0usize;
        for &s in symbols {
            total += self.table.get(s)?.0 as usize;
        }
        Some(total)
    }

    /// Serialize the code table and the encoded payload.
    ///
    /// Layout: varint symbol-count, then per symbol (varint symbol, u8
    /// length), then varint payload symbol count, varint payload byte
    /// length, payload bits.
    pub fn encode(&self, symbols: &[u32], out: &mut ByteWriter) {
        self.encode_with(symbols, &mut Vec::new(), out);
    }

    /// [`HuffmanEncoder::encode`] with a recycled bitstream backing
    /// store: the payload is accumulated in `bit_buf`'s allocation and
    /// the buffer is handed back (holding the payload) for the next call.
    pub fn encode_with(&self, symbols: &[u32], bit_buf: &mut Vec<u8>, out: &mut ByteWriter) {
        out.put_varint(self.entries.len() as u64);
        for &(sym, len) in &self.entries {
            out.put_varint(sym as u64);
            out.put_u8(len as u8);
        }
        let mut bits = BitWriter::from_vec(std::mem::take(bit_buf));
        match &self.table {
            SymbolTable::Dense(v) => {
                for &s in symbols {
                    let (len, code) = v[s as usize];
                    assert!(len != 0, "symbol not present in Huffman table");
                    bits.put_bits(code, len);
                }
            }
            SymbolTable::Sparse(m) => {
                for s in symbols {
                    let &(len, code) = m.get(s).expect("symbol not present in Huffman table");
                    bits.put_bits(code, len);
                }
            }
        }
        let payload = bits.finish();
        out.put_varint(symbols.len() as u64);
        out.put_len_prefixed(&payload);
        *bit_buf = payload;
    }
}

/// Width of the decoder's primary lookup table: codes no longer than
/// this resolve in a single probe. 11 bits covers the vast majority of
/// real quantizer-bin distributions while keeping the table at 2^11
/// entries (16 KiB), cheap to build per stream.
const PRIMARY_BITS: u32 = 11;

/// Decoder over a serialized canonical Huffman stream.
///
/// Short codes (≤ `PRIMARY_BITS`) decode with one probe of a dense
/// prefix table fed by a 64-bit peek; longer codes fall back to the
/// canonical per-length first-code/offset walk (`O(length)` per symbol).
#[derive(Debug)]
pub struct HuffmanDecoder {
    /// Symbols sorted by (length, symbol) — canonical order.
    symbols: Vec<u32>,
    /// For each length 1..=MAX: the first canonical code of that length.
    first_code: [u64; MAX_CODE_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Index into `symbols` of the first code of each length.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Primary table indexed by the next `PRIMARY_BITS` bits of the
    /// stream; entry = `symbol << 8 | code_length`, 0 = fall back.
    primary: Vec<u64>,
}

impl HuffmanDecoder {
    /// Build from raw `(symbol, length)` entries with fresh table
    /// allocations (the equivalence tests' entry point; the streaming
    /// path goes through [`HuffmanDecoder::decode_with`]).
    #[cfg(test)]
    fn from_entries(entries: Vec<(u32, u32)>) -> Result<Self> {
        let coded = canonical_codes(entries);
        Self::from_coded(&coded, Vec::new(), Vec::new())
    }

    /// Build the decoder tables from canonical `(symbol, length, code)`
    /// triples, filling the recycled `symbols_buf`/`primary_buf` buffers
    /// (cleared and re-initialized; contents end up identical to a fresh
    /// allocation).
    fn from_coded(
        coded: &[(u32, u32, u64)],
        symbols_buf: Vec<u32>,
        primary_buf: Vec<u64>,
    ) -> Result<Self> {
        // Sanity-check the Kraft inequality so corrupt tables are rejected.
        let kraft: f64 = coded.iter().map(|&(_, l, _)| 2f64.powi(-(l as i32))).sum();
        if kraft > 1.0 + 1e-9 {
            return Err(CodecError::Corrupt("Huffman table violates Kraft bound"));
        }
        let mut symbols = symbols_buf;
        symbols.clear();
        symbols.reserve(coded.len());
        let mut first_code = [0u64; MAX_CODE_LEN as usize + 1];
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut primary = primary_buf;
        primary.clear();
        primary.resize(1 << PRIMARY_BITS, 0u64);
        for (i, &(sym, len, code)) in coded.iter().enumerate() {
            let l = len as usize;
            if count[l] == 0 {
                first_code[l] = code;
                offset[l] = i as u32;
            }
            count[l] += 1;
            symbols.push(sym);
            // Every PRIMARY_BITS-wide bit pattern starting with this code
            // maps to it (prefix-freeness keeps the ranges disjoint). The
            // `code >> len` guard skips near-corrupt tables that slipped
            // past the float Kraft check; they resolve via the fallback,
            // which bounds-checks every step.
            if len <= PRIMARY_BITS && (code >> len) == 0 {
                let fill = PRIMARY_BITS - len;
                let lo = (code << fill) as usize;
                for slot in &mut primary[lo..lo + (1usize << fill)] {
                    *slot = (sym as u64) << 8 | len as u64;
                }
            }
        }
        Ok(HuffmanDecoder {
            symbols,
            first_code,
            count,
            offset,
            primary,
        })
    }

    /// Decode a stream produced by [`HuffmanEncoder::encode`].
    pub fn decode(reader: &mut ByteReader) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        Self::decode_with(reader, &mut HuffmanScratch::new(), &mut out)?;
        Ok(out)
    }

    /// [`HuffmanDecoder::decode`] with caller-provided working memory:
    /// the serialized table, the canonical decoder tables (including the
    /// 2^11-entry primary lookup) and the output staging all live in
    /// recycled buffers. `out` is cleared and filled with exactly the
    /// symbols the allocating path returns.
    pub fn decode_with(
        reader: &mut ByteReader,
        scratch: &mut HuffmanScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let n_entries = reader.get_varint()? as usize;
        if n_entries == 0 {
            return Err(CodecError::Corrupt("empty Huffman table"));
        }
        if n_entries > (1 << 28) {
            return Err(CodecError::Corrupt("implausible Huffman table size"));
        }
        scratch.grows.check(scratch.entries.capacity(), n_entries);
        scratch.entries.clear();
        for _ in 0..n_entries {
            let sym = reader.get_varint()? as u32;
            let len = reader.get_u8()? as u32;
            if len == 0 || len > MAX_CODE_LEN {
                return Err(CodecError::Corrupt("invalid Huffman code length"));
            }
            scratch.entries.push((sym, len));
        }
        scratch.grows.check(scratch.coded.capacity(), n_entries);
        scratch.grows.check(scratch.symbols.capacity(), n_entries);
        scratch
            .grows
            .check(scratch.primary.capacity(), 1 << PRIMARY_BITS);
        let mut coded = std::mem::take(&mut scratch.coded);
        canonical_codes_into(&mut scratch.entries, &mut coded);
        let decoder = Self::from_coded(
            &coded,
            std::mem::take(&mut scratch.symbols),
            std::mem::take(&mut scratch.primary),
        );
        scratch.coded = coded;
        let decoder = decoder?;
        let n_symbols = reader.get_varint()? as usize;
        let payload = reader.get_len_prefixed()?;
        let mut bits = BitReader::new(payload);
        let cap = n_symbols.min(1 << 28);
        scratch.grows.check(out.capacity(), cap);
        out.clear();
        out.reserve(cap);
        let mut res = Ok(());
        for _ in 0..n_symbols {
            match decoder.decode_one(&mut bits) {
                Ok(sym) => out.push(sym),
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        // Hand the decoder tables back even when the payload was corrupt,
        // so repeated failing decodes don't degrade the arena.
        let HuffmanDecoder {
            symbols, primary, ..
        } = decoder;
        scratch.symbols = symbols;
        scratch.primary = primary;
        res
    }

    /// Decode a single symbol from a bit stream.
    #[inline]
    fn decode_one(&self, bits: &mut BitReader) -> Result<u32> {
        // Fast path: one probe resolves any code of length <= PRIMARY_BITS.
        // The peek zero-pads past the end of the buffer, so a hit is only
        // trusted when the stream really holds that many bits; everything
        // else (long codes, EOF, corrupt prefixes) takes the exact slow
        // path below.
        let entry = self.primary[bits.peek_bits(PRIMARY_BITS) as usize];
        let len = (entry & 0xFF) as u32;
        if len != 0 && len as usize <= bits.remaining_bits() {
            bits.consume(len);
            return Ok((entry >> 8) as u32);
        }
        self.decode_one_slow(bits)
    }

    /// Reference bit-by-bit canonical decode (the pre-table
    /// implementation). Kept as the fallback for codes longer than
    /// `PRIMARY_BITS` and for stream tails, and as the oracle the
    /// equivalence tests compare the fast path against.
    fn decode_one_slow(&self, bits: &mut BitReader) -> Result<u32> {
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | bits.get_bit()? as u64;
            let n = self.count[len] as u64;
            if n > 0 {
                let first = self.first_code[len];
                if code >= first && code - first < n {
                    let idx = self.offset[len] as usize + (code - first) as usize;
                    return Ok(self.symbols[idx]);
                }
            }
        }
        Err(CodecError::Corrupt("Huffman code too long"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) -> Vec<u32> {
        let enc = HuffmanEncoder::from_symbols(symbols).unwrap();
        let mut w = ByteWriter::new();
        enc.encode(symbols, &mut w);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        HuffmanDecoder::decode(&mut r).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let data = vec![1, 2, 2, 3, 3, 3, 3, 7, 7, 1, 2];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_single_symbol_run() {
        let data = vec![42u32; 1000];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_single_element() {
        let data = vec![9u32];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_large_alphabet() {
        let data: Vec<u32> = (0..5000).map(|i| (i * i) % 1013).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 99% one symbol -> far below 32 bits/symbol.
        let mut data = vec![0u32; 9900];
        data.extend((1..101).map(|i| i as u32));
        let enc = HuffmanEncoder::from_symbols(&data).unwrap();
        let mut w = ByteWriter::new();
        enc.encode(&data, &mut w);
        let bytes = w.finish().len();
        assert!(
            bytes < data.len() / 2,
            "expected compression, got {bytes} bytes for {} symbols",
            data.len()
        );
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(HuffmanEncoder::from_symbols(&[]).is_none());
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut data = vec![5u32; 1000];
        data.extend(vec![6u32; 10]);
        data.extend(vec![7u32; 10]);
        let enc = HuffmanEncoder::from_symbols(&data).unwrap();
        assert!(enc.length_of(5).unwrap() <= enc.length_of(6).unwrap());
    }

    #[test]
    fn payload_bits_matches_encoded_len() {
        let data = vec![1, 1, 2, 3, 1, 2, 1];
        let enc = HuffmanEncoder::from_symbols(&data).unwrap();
        let bits = enc.payload_bits(&data).unwrap();
        let mut w = ByteWriter::new();
        enc.encode(&data, &mut w);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        // Skip table.
        let n = r.get_varint().unwrap();
        for _ in 0..n {
            r.get_varint().unwrap();
            r.get_u8().unwrap();
        }
        r.get_varint().unwrap();
        let payload = r.get_len_prefixed().unwrap();
        assert_eq!(payload.len(), bits.div_ceil(8));
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![1, 2, 3, 1, 2, 3, 3, 3];
        let enc = HuffmanEncoder::from_symbols(&data).unwrap();
        let mut w = ByteWriter::new();
        enc.encode(&data, &mut w);
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(
                HuffmanDecoder::decode(&mut r).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    /// Deterministic 64-bit mixer for adversarial-stream generation.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Table-driven fast decode must agree with the bit-by-bit canonical
    /// walk on every code-length mix, especially around the
    /// PRIMARY_BITS boundary and at MAX_CODE_LEN.
    #[test]
    fn fast_decode_matches_slow_on_adversarial_lengths() {
        // Each mix is a (length, how-many) multiset chosen so the Kraft
        // sum is exactly one (verified below in exact integer arithmetic).
        let mixes: [&[(u32, usize)]; 4] = [
            // One code of every length 1..=31, two of length 32.
            &(1..=31)
                .map(|l| (l, 1))
                .chain([(32, 2)])
                .collect::<Vec<_>>(),
            // Chain 1..=10, then the remainder as length-12 codes:
            // straddles the primary/fallback boundary.
            &(1..=10)
                .map(|l| (l, 1))
                .chain([(12, 4)])
                .collect::<Vec<_>>(),
            // Saturated primary table: every code exactly PRIMARY_BITS.
            &[(11, 2048)],
            // Uniform just past the boundary: all codes miss the table.
            &[(13, 8192)],
        ];
        for (mi, mix) in mixes.iter().enumerate() {
            let kraft: u64 = mix
                .iter()
                .map(|&(l, n)| (n as u64) << (MAX_CODE_LEN + 8 - l))
                .sum();
            assert_eq!(kraft, 1u64 << (MAX_CODE_LEN + 8), "mix {mi} not complete");

            // Distinct, non-contiguous symbol values.
            let mut entries = Vec::new();
            for &(len, n) in mix.iter() {
                for _ in 0..n {
                    entries.push((entries.len() as u32 * 7 + 3, len));
                }
            }
            let coded = canonical_codes(entries.clone());

            // Pseudorandom symbol stream encoded with the canonical codes.
            let mut w = BitWriter::new();
            let mut expect = Vec::new();
            for i in 0..4000u64 {
                let &(sym, len, code) =
                    &coded[(splitmix64(i * 31 + mi as u64) % coded.len() as u64) as usize];
                expect.push(sym);
                w.put_bits(code, len);
            }
            let payload = w.finish();

            let dec = HuffmanDecoder::from_entries(entries).unwrap();
            let mut fast = BitReader::new(&payload);
            let mut slow = BitReader::new(&payload);
            for (i, &want) in expect.iter().enumerate() {
                let a = dec.decode_one(&mut fast).unwrap();
                let b = dec.decode_one_slow(&mut slow).unwrap();
                assert_eq!(a, b, "mix {mi}: divergence at symbol {i}");
                assert_eq!(a, want, "mix {mi}: wrong symbol at {i}");
                assert_eq!(
                    fast.remaining_bits(),
                    slow.remaining_bits(),
                    "mix {mi}: cursor divergence at {i}"
                );
            }
        }
    }

    /// Truncation mid-code must error identically through both paths.
    #[test]
    fn fast_decode_eof_matches_slow() {
        let entries: Vec<(u32, u32)> = (1..=10).map(|l| (l * 11, l)).chain([(121, 10)]).collect();
        let coded = canonical_codes(entries.clone());
        let mut w = BitWriter::new();
        for &(_, len, code) in coded.iter() {
            w.put_bits(code, len);
        }
        let payload = w.finish();
        let dec = HuffmanDecoder::from_entries(entries).unwrap();
        for cut in 0..payload.len() {
            let mut fast = BitReader::new(&payload[..cut]);
            let mut slow = BitReader::new(&payload[..cut]);
            loop {
                let a = dec.decode_one(&mut fast);
                let b = dec.decode_one_slow(&mut slow);
                assert_eq!(a, b, "cut {cut}");
                if a.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn corrupt_zero_length_rejected() {
        let mut w = ByteWriter::new();
        w.put_varint(1); // one entry
        w.put_varint(7); // symbol 7
        w.put_u8(0); // invalid zero length
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(HuffmanDecoder::decode(&mut r).is_err());
    }
}
