//! Canonical Huffman coding over `u32` symbols.
//!
//! Quantization bins are entropy-coded with a canonical Huffman code:
//! code lengths are derived from symbol frequencies with the classic
//! two-queue construction, then codes are assigned canonically
//! (shorter-first, then by symbol value) so only the `(symbol, length)`
//! table needs to be serialized. Decoding keeps the next payload bits
//! in a 64-bit buffer and probes a 2^11-entry table with the next 11 of
//! them; each entry holds every code (up to four) that fits whole in
//! those bits, so one probe writes several symbols. Longer codes walk
//! the canonical first-code/offset tables, O(length) per symbol.
//!
//! Degenerate inputs (empty stream, single distinct symbol) are handled
//! explicitly; over-long codes (> [`MAX_CODE_LEN`]) are prevented by
//! iteratively flattening the frequency distribution, which preserves
//! prefix-freeness at a negligible size cost.

use crate::bits::BitReader;
#[cfg(test)]
use crate::bits::BitWriter;
use crate::byteio::{ByteReader, ByteWriter};
use crate::scratch::GrowCounter;
use crate::{CodecError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Longest permitted code, in bits.
pub const MAX_CODE_LEN: u32 = 32;

/// Frequency-derived code lengths via the standard Huffman heap algorithm.
///
/// The heap holds `(weight, id)` pairs and pops the lightest first, ties
/// going to the lower id: leaves take ids `0..n` in `freqs` order and
/// each merged node the next free id. That order fixes the tree, and so
/// the stream bytes. Nodes record only their parent (always a higher
/// id), so one descending pass turns parents into depths.
fn code_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
    assert!(!freqs.is_empty());
    if freqs.len() == 1 {
        // A lone symbol still needs one bit so the bit count encodes the run
        // length unambiguously.
        return vec![(freqs[0].0, 1)];
    }
    let n = freqs.len();
    let root = 2 * n - 2;
    let mut parent = vec![0usize; root + 1];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = freqs
        .iter()
        .enumerate()
        .map(|(i, &(_, w))| Reverse((w.max(1), i)))
        .collect();
    for id in n..=root {
        let Reverse((wa, a)) = heap.pop().expect("two nodes remain below the root");
        let Reverse((wb, b)) = heap.pop().expect("two nodes remain below the root");
        parent[a] = id;
        parent[b] = id;
        heap.push(Reverse((wa + wb, id)));
    }
    let mut depth = vec![0u32; root + 1];
    for id in (0..root).rev() {
        depth[id] = depth[parent[id]] + 1;
    }
    freqs
        .iter()
        .zip(depth)
        .map(|(&(sym, _), d)| (sym, d))
        .collect()
}

/// The boxed-tree construction [`code_lengths`] replaced, kept as the
/// oracle its equivalence test compares against.
#[cfg(test)]
fn code_lengths_boxed(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
    assert!(!freqs.is_empty());
    if freqs.len() == 1 {
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

/// Widest symbol span (`max - min`) for which the encoder keeps a
/// directly-indexed table, beyond a slack proportional to the count.
/// Quantizer bins cluster around the radius within a few thousand
/// values, so this covers every real workload; pathological sparse
/// alphabets fall back to a hash map.
const DENSE_SYMBOL_SLACK: usize = 1 << 16;

/// `true` when symbols spanning `[min, max]` get dense tables for `count`
/// symbols (or distinct symbols, for the code table).
fn dense_span(min: u32, max: u32, count: usize) -> bool {
    (max - min) as usize <= count.saturating_mul(16) + DENSE_SYMBOL_SLACK
}

/// `[min, max]` of the non-zero symbols, `None` when every symbol is 0.
///
/// Symbol 0 is the quantizer's unpredictable marker, so any input with
/// an unpredictable point has it while its other bins sit within about
/// a thousand values of the radius (32768). The dense tables cover this
/// window and keep symbol 0 beside it, instead of spanning `[0, max]`.
/// No index into the window is ever 0's: `0 - min` wraps past `max - min`.
fn nonzero_window(symbols: impl Iterator<Item = u32>) -> Option<(u32, u32)> {
    // 0 - 1 wraps to u32::MAX, the identity of `min`, so 0 only shows
    // when no other symbol does; then `hi` is 0 too.
    let (lo, hi) = symbols.fold((u32::MAX, 0), |(lo, hi), s| {
        (lo.min(s.wrapping_sub(1)), hi.max(s))
    });
    (hi != 0).then(|| (lo + 1, hi))
}

/// A table of `len` zeroed entries in the recycled `buf`, allocated to
/// exactly `len` when it must grow, so a tuner arena's tables stay the
/// size of the windows it has seen rather than doubling past them.
fn zeroed<E: Copy + Default>(mut buf: Vec<E>, len: usize) -> Vec<E> {
    buf.clear();
    buf.reserve_exact(len);
    buf.resize(len, E::default());
    buf
}

/// symbol -> (length, code) lookup, dense where the symbol span allows.
/// Codes are at most [`MAX_CODE_LEN`] = 32 bits.
#[derive(Debug, Clone)]
enum SymbolTable {
    /// `codes` is indexed by `symbol - base` over the window of non-zero
    /// symbols (empty when 0 is the only symbol), and `zero` is symbol
    /// 0's entry; `length == 0` marks a hole.
    Dense {
        base: u32,
        codes: Vec<(u32, u32)>,
        zero: (u32, u32),
    },
    /// Fallback for sparse, wide alphabets.
    Sparse(HashMap<u32, (u32, u32)>),
}

impl SymbolTable {
    /// Build the lookup table, staging the dense variant in the scratch's
    /// recycled buffer (handed back via [`HuffmanEncoder::recycle`]). The
    /// table contents are identical to a freshly allocated build.
    fn build(coded: &[(u32, u32, u64)], scratch: &mut HuffmanScratch) -> SymbolTable {
        let entry = |len, code| {
            let code = u32::try_from(code).expect("codes are at most MAX_CODE_LEN bits");
            (len, code)
        };
        let window = nonzero_window(coded.iter().map(|c| c.0));
        match window {
            Some((min, max)) if !dense_span(min, max, coded.len()) => SymbolTable::Sparse(
                coded
                    .iter()
                    .map(|&(sym, len, code)| (sym, entry(len, code)))
                    .collect(),
            ),
            _ => {
                let (base, span) = window.map_or((1, 0), |(lo, hi)| (lo, (hi - lo) as usize + 1));
                let mut codes = zeroed(std::mem::take(&mut scratch.dense), span);
                let mut zero = (0, 0);
                for &(sym, len, code) in coded {
                    match codes.get_mut(sym.wrapping_sub(base) as usize) {
                        Some(slot) => *slot = entry(len, code),
                        None => zero = entry(len, code),
                    }
                }
                SymbolTable::Dense { base, codes, zero }
            }
        }
    }

    #[inline]
    fn get(&self, sym: u32) -> Option<(u32, u32)> {
        match self {
            SymbolTable::Dense { base, codes, zero } => {
                let found = dense_entry(*base, codes, *zero, sym);
                (found.0 != 0).then_some(found)
            }
            SymbolTable::Sparse(m) => m.get(&sym).copied(),
        }
    }
}

/// A dense table's `(length, code)` for `sym`, `(0, 0)` if it has none.
#[inline(always)]
fn dense_entry(base: u32, codes: &[(u32, u32)], zero: (u32, u32), sym: u32) -> (u32, u32) {
    match codes.get(sym.wrapping_sub(base) as usize) {
        Some(&e) => e,
        None if sym == 0 => zero,
        None => (0, 0),
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
/// sized by the window `max - min + 1` of the non-zero symbols (about a
/// thousand entries for quantizer bins, which cluster around the
/// radius), with symbol 0 counted and coded beside it. The decode
/// side ([`HuffmanDecoder::decode_with`]) recycles the serialized-table
/// staging, the canonical symbol list and the 2^11-entry lookup table,
/// whose entries each hold up to four decoded symbols. Recycling never
/// changes bytes or decoded values; the golden-bitstream tests pin this.
#[derive(Debug, Default)]
pub struct HuffmanScratch {
    counts: Vec<u64>,
    /// Encoder dense symbol→code table, recycled across builds.
    dense: Vec<(u32, u32)>,
    /// Decoder staging: `(symbol, length)` entries read from the stream.
    entries: Vec<(u32, u32)>,
    /// Decoder staging: canonical `(symbol, length, code)` triples.
    coded: Vec<(u32, u32, u64)>,
    /// Decoder canonical symbol list, recycled across streams.
    symbols: Vec<u32>,
    /// Decoder lookup table (2^11 entries of up to four symbols each),
    /// recycled.
    table: LookupTable,
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
        // Frequency counting: a dense array over the non-zero symbols'
        // window with symbol 0 counted beside it when the window is
        // moderate (the common quantizer-bin case), a hash map otherwise.
        // Both paths yield the same symbol-sorted frequency list.
        let window = nonzero_window(symbols.iter().copied());
        let mut freqs: Vec<(u32, u64)>;
        match window {
            Some((min, max)) if !dense_span(min, max, symbols.len()) => {
                let mut freq: HashMap<u32, u64> = HashMap::new();
                for &s in symbols {
                    *freq.entry(s).or_insert(0) += 1;
                }
                freqs = freq.into_iter().collect();
                freqs.sort_unstable();
            }
            _ => {
                let (min, span) = window.map_or((1, 0), |(lo, hi)| (lo, (hi - lo) as usize + 1));
                let mut counts = zeroed(std::mem::take(&mut scratch.counts), span);
                let mut zeros = 0u64;
                for &s in symbols {
                    match counts.get_mut(s.wrapping_sub(min) as usize) {
                        Some(c) => *c += 1,
                        None => zeros += 1,
                    }
                }
                freqs = (zeros > 0).then_some((0, zeros)).into_iter().collect();
                freqs.extend(
                    counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| (min + i as u32, c)),
                );
                scratch.counts = counts;
            }
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
        if let SymbolTable::Dense { codes, .. } = self.table {
            scratch.dense = codes;
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
    ///
    /// # Panics
    /// Panics if a symbol is not in the table.
    pub fn encode_with(&self, symbols: &[u32], bit_buf: &mut Vec<u8>, out: &mut ByteWriter) {
        out.put_varint(self.entries.len() as u64);
        for &(sym, len) in &self.entries {
            out.put_varint(sym as u64);
            out.put_u8(len as u8);
        }
        let mut payload = std::mem::take(bit_buf);
        payload.clear();
        let mut packer = WordPacker { word: 0, free: 64 };
        match &self.table {
            SymbolTable::Dense { base, codes, zero } => {
                for &s in symbols {
                    let (len, code) = dense_entry(*base, codes, *zero, s);
                    assert!(len != 0, "symbol not present in Huffman table");
                    packer.put(code, len, &mut payload);
                }
            }
            SymbolTable::Sparse(m) => {
                for s in symbols {
                    let &(len, code) = m.get(s).expect("symbol not present in Huffman table");
                    packer.put(code, len, &mut payload);
                }
            }
        }
        packer.finish(&mut payload);
        out.put_varint(symbols.len() as u64);
        out.put_len_prefixed(&payload);
        *bit_buf = payload;
    }
}

/// The encoder's bit packer: codes of 1..=[`MAX_CODE_LEN`] bits fill a
/// 64-bit word from the top, and each full word is stored as 8
/// big-endian bytes. The bytes are the MSB-first stream
/// [`BitWriter`] writes, zero-padded to a byte, without its per-append
/// width checks and split paths.
struct WordPacker {
    /// Pending bits, left-aligned: the top `64 - free` bits are valid,
    /// the rest zero.
    word: u64,
    /// Unused low bits of `word`, 1..=64 between appends.
    free: u32,
}

impl WordPacker {
    /// Append the low `len` bits of `code`; `code < 2^len`, `1 <= len <= 32`.
    #[inline(always)]
    fn put(&mut self, code: u32, len: u32, out: &mut Vec<u8>) {
        let code = u64::from(code);
        if len < self.free {
            self.free -= len;
            self.word |= code << self.free;
        } else {
            // The code's top `free` bits complete the word; the rest,
            // fewer than 32, start the next one.
            let rest = len - self.free;
            out.extend_from_slice(&(self.word | code >> rest).to_be_bytes());
            self.free = 64 - rest;
            // `checked_shl` yields 0 for a 64-bit shift (`rest == 0`),
            // which leaves the new word empty.
            self.word = code.checked_shl(self.free).unwrap_or(0);
        }
    }

    /// Store the pending bits, zero-padded to a whole byte.
    fn finish(self, out: &mut Vec<u8>) {
        let bytes = (64 - self.free).div_ceil(8) as usize;
        out.extend_from_slice(&self.word.to_be_bytes()[..bytes]);
    }
}

/// Width of the decoder's lookup table: each probe peeks this many
/// bits. 11 bits holds the codes of nearly every real quantizer bin
/// while keeping the table at 2^11 entries (36 KiB), cheap to build per
/// stream.
const TABLE_BITS: u32 = 11;

/// Most codes one table entry resolves, so that a row of its symbols
/// is 16 bytes.
const ENTRY_SYMS: usize = 4;

/// Probes between two refills of the bit buffer: a refill leaves at
/// least 56 bits, and 5 probes take at most 5 × `TABLE_BITS` = 55.
const BLOCK: usize = 5;

/// The decoder's lookup table, indexed by the next `TABLE_BITS` bits of
/// the stream. Entry `i` resolves the codes that fit whole in those
/// bits, read greedily from the first bit, up to `ENTRY_SYMS` of them.
/// Its total length and count are `meta[i]` and its symbols `syms[i]`:
/// the length decides where the next probe reads, so it sits in an
/// array of its own that the index addresses in one step, while the
/// symbol row is copied out beside that chain of loads.
#[derive(Debug, Default)]
struct LookupTable {
    /// Per entry: the total length in bits of its codes (low byte) and
    /// their count (high byte). 0 marks bits that start with a code
    /// longer than `TABLE_BITS`, or with no code at all.
    meta: Vec<u16>,
    /// Per entry: the decoded symbols in stream order; only the first
    /// `count` are meaningful.
    syms: Vec<[u32; ENTRY_SYMS]>,
}

impl LookupTable {
    /// Rebuild the table for canonical `(symbol, length, code)` triples,
    /// in the allocations it already has.
    fn build(&mut self, coded: &[(u32, u32, u64)]) {
        // `fill` writes every entry's length and count and the symbols
        // they make meaningful, so a recycled table needs no reset.
        self.meta.resize(1 << TABLE_BITS, 0);
        self.syms.resize(1 << TABLE_BITS, [0; ENTRY_SYMS]);
        let short = &coded[..coded.partition_point(|c| c.1 <= TABLE_BITS)];
        self.fill(short, 0, TABLE_BITS, 0, 0);
    }

    /// Fill entries `at..at + 2^rem`: those whose bits begin with
    /// `count` codes of `len` bits in all, already written to their
    /// symbol rows, and have `rem` bits after them. Each short code
    /// (`short` is in canonical order) that fits in `rem` bits becomes
    /// symbol `count` of its own sub-range, which is then filled the same
    /// way; the entries after those, where the next code does not fit,
    /// resolve the `count` codes alone. Canonical codes of at most `rem`
    /// bits tile a prefix of the range in order, so every entry gets its
    /// length and count exactly once.
    fn fill(&mut self, short: &[(u32, u32, u64)], at: usize, rem: u32, len: u32, count: usize) {
        let mut end = at;
        if count < ENTRY_SYMS {
            for &(sym, l, code) in short.iter().take_while(|c| c.1 <= rem) {
                // Codes past their length's range come only from a table
                // that slipped past the float Kraft check; the canonical
                // walk resolves them, bounds-checking every step.
                if code >> l != 0 {
                    break;
                }
                let start = at + ((code as usize) << (rem - l));
                debug_assert_eq!(start, end, "canonical codes tile the range");
                end = start + (1 << (rem - l));
                for row in &mut self.syms[start..end] {
                    row[count] = sym;
                }
                self.fill(short, start, rem - l, len + l, count + 1);
            }
        }
        self.meta[end..at + (1 << rem)].fill(len as u16 | (count as u16) << 8);
    }
}

/// Decoder over a serialized canonical Huffman stream.
///
/// Each probe of a 2^11-entry lookup table, fed by a 64-bit bit buffer,
/// writes every code (up to four) that fits whole in the next 11 bits.
/// Codes longer than that, the last symbols of a stream and damaged
/// payloads go through the canonical per-length first-code/offset walk
/// (`O(length)` per symbol).
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
    /// Several codes per probe.
    table: LookupTable,
}

impl HuffmanDecoder {
    /// Build from raw `(symbol, length)` entries with fresh table
    /// allocations (the equivalence tests' entry point; the streaming
    /// path goes through [`HuffmanDecoder::decode_with`]).
    #[cfg(test)]
    fn from_entries(entries: Vec<(u32, u32)>) -> Result<Self> {
        let coded = canonical_codes(entries);
        Self::from_coded(&coded, Vec::new(), LookupTable::default())
    }

    /// Build the decoder tables from canonical `(symbol, length, code)`
    /// triples, filling the recycled `symbols_buf` and `table` (contents
    /// end up identical to a fresh allocation).
    fn from_coded(
        coded: &[(u32, u32, u64)],
        symbols_buf: Vec<u32>,
        mut table: LookupTable,
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
        for (i, &(sym, len, code)) in coded.iter().enumerate() {
            let l = len as usize;
            if count[l] == 0 {
                first_code[l] = code;
                offset[l] = i as u32;
            }
            count[l] += 1;
            symbols.push(sym);
        }
        table.build(coded);
        Ok(HuffmanDecoder {
            symbols,
            first_code,
            count,
            offset,
            table,
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
    /// 2^11-entry lookup table, each entry up to four decoded symbols)
    /// and the output staging all live in recycled buffers. `out` is
    /// cleared and filled with exactly the symbols the allocating path
    /// returns.
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
        let n_symbols = reader.get_varint()? as usize;
        let payload = reader.get_len_prefixed()?;
        // Every code is at least one bit long, so a count the payload
        // cannot hold is a lie; refuse it before it sizes `out`.
        if n_symbols > payload.len().saturating_mul(8) {
            return Err(CodecError::Corrupt("Huffman symbol count exceeds payload"));
        }
        scratch.grows.check(scratch.coded.capacity(), n_entries);
        scratch.grows.check(scratch.symbols.capacity(), n_entries);
        scratch
            .grows
            .check(scratch.table.meta.capacity(), 1 << TABLE_BITS);
        let mut coded = std::mem::take(&mut scratch.coded);
        canonical_codes_into(&mut scratch.entries, &mut coded);
        let decoder = Self::from_coded(
            &coded,
            std::mem::take(&mut scratch.symbols),
            std::mem::take(&mut scratch.table),
        );
        scratch.coded = coded;
        let decoder = decoder?;
        scratch.grows.check(out.capacity(), n_symbols);
        out.clear();
        out.resize(n_symbols, 0);
        let mut done = 0;
        let res = decoder.decode_payload(payload, out, &mut done);
        out.truncate(done);
        // Hand the decoder tables back even when the payload was corrupt,
        // so repeated failing decodes don't degrade the arena.
        let HuffmanDecoder { symbols, table, .. } = decoder;
        scratch.symbols = symbols;
        scratch.table = table;
        res
    }

    /// Decode `out.len()` symbols of `payload` into `out`; `done` ends
    /// at the number decoded, which on an error is the failing symbol's
    /// index.
    ///
    /// The next payload bits sit MSB-first in a `u64`. A run decodes
    /// blocks of `BLOCK` probes; each probe copies a whole symbol row to
    /// `out` and advances the output cursor by the entry's count, so a
    /// block needs room for `BLOCK * ENTRY_SYMS` symbols. After each
    /// block, an 8-byte big-endian word loaded during it tops the buffer
    /// up to 56–63 bits without a branch. A table miss (a code longer
    /// than `TABLE_BITS`, or an invalid prefix) and the last symbols,
    /// once that room or 16 unread payload bytes are no longer left, go
    /// through [`HuffmanDecoder::decode_one_slow`] from the same cursor,
    /// so corrupt and truncated payloads fail exactly as that walk does.
    fn decode_payload(&self, payload: &[u8], out: &mut [u32], done: &mut usize) -> Result<()> {
        let meta: &[u16; 1 << TABLE_BITS] = self.table.meta[..]
            .try_into()
            .expect("the lookup table has 2^TABLE_BITS entries");
        let syms: &[[u32; ENTRY_SYMS]; 1 << TABLE_BITS] = self.table.syms[..]
            .try_into()
            .expect("the lookup table has 2^TABLE_BITS entries");
        let load = |at: usize| {
            u64::from_be_bytes(payload[at..at + 8].try_into().expect("an 8-byte slice"))
        };
        let n = out.len();
        // Bit cursor: where the next symbol starts.
        let mut pos = 0usize;
        let mut i = 0usize;
        while i < n {
            if n - i >= BLOCK * ENTRY_SYMS && payload.len() - (pos >> 3) >= 16 {
                // The top `avail` bits of `buf` are payload bits
                // `[next * 8 - avail, next * 8)`. The bits below them are
                // the ones that follow (or zero), so a refill ORs equal
                // bits. `word` holds the 8 bytes at `next`.
                let skip = (pos & 7) as u32;
                let mut buf = load(pos >> 3) << skip;
                let mut next = (pos >> 3) + 8;
                let mut avail = 64 - skip;
                let mut word = load(next);
                'run: while n - i >= BLOCK * ENTRY_SYMS {
                    for _ in 0..BLOCK {
                        let idx = (buf >> (64 - TABLE_BITS)) as usize;
                        let len = u32::from(meta[idx] & 0xFF);
                        if len == 0 {
                            break 'run;
                        }
                        out[i..i + ENTRY_SYMS].copy_from_slice(&syms[idx]);
                        i += usize::from(meta[idx] >> 8);
                        buf <<= len;
                        avail -= len;
                    }
                    buf |= word >> avail;
                    next += ((63 - avail) >> 3) as usize;
                    avail |= 56;
                    if payload.len() - next < 8 {
                        break;
                    }
                    word = load(next);
                }
                pos = next * 8 - avail as usize;
                if i == n {
                    break;
                }
            }
            *done = i;
            let mut bits = reader_at(payload, pos)?;
            out[i] = self.decode_one_slow(&mut bits)?;
            i += 1;
            pos = payload.len() * 8 - bits.remaining_bits();
        }
        *done = i;
        Ok(())
    }

    /// Reference bit-by-bit canonical decode (the pre-table
    /// implementation). Kept as the fallback for codes longer than
    /// `TABLE_BITS`, for stream tails and damaged payloads, and as the
    /// oracle the equivalence tests compare the table path against.
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

/// A bit reader over `payload` with its cursor at bit `pos`.
fn reader_at(payload: &[u8], pos: usize) -> Result<BitReader<'_>> {
    let mut bits = BitReader::new(&payload[pos >> 3..]);
    bits.get_bits((pos & 7) as u32)?;
    Ok(bits)
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

    /// Code-length mixes `(length, how many)`, each with a Kraft sum of
    /// exactly one (verified in the tests in exact integer arithmetic).
    fn adversarial_mixes() -> Vec<Vec<(u32, usize)>> {
        vec![
            // One code of every length 1..=31, two of length 32.
            (1..=31).map(|l| (l, 1)).chain([(32, 2)]).collect(),
            // Chain 1..=10, then the remainder as length-12 codes:
            // straddles the primary/fallback boundary.
            (1..=10).map(|l| (l, 1)).chain([(12, 4)]).collect(),
            // Saturated primary table: every code exactly PRIMARY_BITS.
            vec![(11, 2048)],
            // Uniform just past the boundary: all codes miss the table.
            vec![(13, 8192)],
            // Chain 1..=19, then two codes of 20: the stream tail of
            // `mix_stream` puts codes of 12..=15 bits, 54 in all, in the
            // last 8 payload bytes.
            (1..=19).map(|l| (l, 1)).chain([(20, 2)]).collect(),
            // Uniform codes that pack exactly one (6 + 6 > 11), two,
            // three and four (the cap) to a table entry.
            vec![(6, 64)],
            vec![(4, 16)],
            vec![(3, 8)],
            vec![(2, 4)],
            // Entries of one to four codes side by side.
            vec![(1, 1), (3, 2), (4, 2), (5, 4)],
            // Entries of 10 or 11 bits: nearly every block of probes has
            // one that straddles the word a refill ORs in.
            vec![(5, 30), (6, 4)],
        ]
    }

    /// A mix's `(symbol, length)` entries, with distinct, non-contiguous
    /// symbol values.
    fn mix_entries(mix: &[(u32, usize)]) -> Vec<(u32, u32)> {
        let mut entries = Vec::new();
        for &(len, n) in mix {
            for _ in 0..n {
                entries.push((entries.len() as u32 * 7 + 3, len));
            }
        }
        entries
    }

    /// `count` pseudorandom codes of a mix, then its first code of each
    /// length 12..=15 it has.
    fn mix_stream(seed: u64, coded: &[(u32, u32, u64)], count: usize) -> Vec<(u32, u32, u64)> {
        let mut picks: Vec<_> = (0..count as u64)
            .map(|i| coded[(splitmix64(i * 31 + seed) % coded.len() as u64) as usize])
            .collect();
        for len in 12..=15 {
            picks.extend(coded.iter().find(|c| c.1 == len));
        }
        picks
    }

    /// The payload bits of `codes`, back to back.
    fn pack(codes: &[(u32, u32, u64)]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &(_, len, code) in codes {
            w.put_bits(code, len);
        }
        w.finish()
    }

    /// Serialize `n` symbols over `payload` with the code table
    /// `entries` and decode them through [`HuffmanDecoder::decode_with`]
    /// in `scratch`, which the tests recycle across code tables as an
    /// arena does: the symbols it produced, and its result.
    fn decode_stream(
        scratch: &mut HuffmanScratch,
        entries: &[(u32, u32)],
        n: usize,
        payload: &[u8],
    ) -> (Vec<u32>, Result<()>) {
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64);
        for &(sym, len) in entries {
            w.put_varint(sym as u64);
            w.put_u8(len as u8);
        }
        w.put_varint(n as u64);
        w.put_len_prefixed(payload);
        let buf = w.finish();
        let mut out = Vec::new();
        let res = HuffmanDecoder::decode_with(&mut ByteReader::new(&buf), scratch, &mut out);
        (out, res)
    }

    /// The oracle: `n` [`HuffmanDecoder::decode_one_slow`] calls from
    /// the start of `payload`, stopping at the first error.
    fn slow_loop(dec: &HuffmanDecoder, payload: &[u8], n: usize) -> (Vec<u32>, Result<()>) {
        let mut bits = BitReader::new(payload);
        let mut out = Vec::new();
        for _ in 0..n {
            match dec.decode_one_slow(&mut bits) {
                Ok(sym) => out.push(sym),
                Err(e) => return (out, Err(e)),
            }
        }
        (out, Ok(()))
    }

    /// The table decode loop must agree with the bit-by-bit canonical
    /// walk, symbol for symbol, on every code-length mix: around the
    /// TABLE_BITS boundary, at MAX_CODE_LEN, with long codes in the last
    /// 8 payload bytes, with one to four codes per entry, and on payloads
    /// too short for a table run. Each mix runs with small symbols and
    /// with symbols spread over the whole `u32` range.
    #[test]
    fn fast_decode_matches_slow_on_adversarial_lengths() {
        let mut counts = std::collections::BTreeSet::new();
        let mut scratch = HuffmanScratch::new();
        for (mi, mix) in adversarial_mixes().iter().enumerate() {
            let kraft: u64 = mix
                .iter()
                .map(|&(l, n)| (n as u64) << (MAX_CODE_LEN + 8 - l))
                .sum();
            assert_eq!(kraft, 1u64 << (MAX_CODE_LEN + 8), "mix {mi} not complete");
            let narrow = mix_entries(mix);
            // Multiplying by an odd constant keeps the symbols distinct.
            let wide = narrow
                .iter()
                .map(|&(s, l)| (s.wrapping_mul(0x9E37_79B1), l))
                .collect();
            for entries in [narrow, wide] {
                let coded = canonical_codes(entries.clone());
                let dec = HuffmanDecoder::from_entries(entries.clone()).unwrap();
                counts.extend(dec.table.meta.iter().map(|m| m >> 8));
                let stream = mix_stream(mi as u64, &coded, 4000);
                // Every prefix of up to 100 symbols (payloads from empty
                // to past the room and byte thresholds of a table run),
                // then the whole stream.
                for k in (0..=100).chain([stream.len()]) {
                    let payload = pack(&stream[..k]);
                    let want: Vec<u32> = stream[..k].iter().map(|c| c.0).collect();
                    let oracle = slow_loop(&dec, &payload, k);
                    assert_eq!(oracle, (want, Ok(())), "mix {mi}: oracle, {k} symbols");
                    assert_eq!(
                        decode_stream(&mut scratch, &entries, k, &payload),
                        oracle,
                        "mix {mi}: {k} symbols"
                    );
                }
            }
        }
        let want: std::collections::BTreeSet<u16> = (0..=ENTRY_SYMS as u16).collect();
        assert_eq!(counts, want, "codes per table entry");
    }

    /// [`HuffmanEncoder::encode_with`] as it was, one checked
    /// [`BitWriter::put_bits`] per symbol: the oracle of the word packer.
    fn encode_put_bits(enc: &HuffmanEncoder, symbols: &[u32]) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.put_varint(enc.entries.len() as u64);
        for &(sym, len) in &enc.entries {
            out.put_varint(sym as u64);
            out.put_u8(len as u8);
        }
        let mut bits = BitWriter::new();
        for &s in symbols {
            let (len, code) = enc
                .table
                .get(s)
                .expect("symbol not present in Huffman table");
            bits.put_bits(u64::from(code), len);
        }
        let payload = bits.finish();
        out.put_varint(symbols.len() as u64);
        out.put_len_prefixed(&payload);
        out.finish()
    }

    /// An encoder for exactly the `(symbol, length)` entries given.
    fn encoder_for(entries: Vec<(u32, u32)>) -> HuffmanEncoder {
        let coded = canonical_codes(entries);
        HuffmanEncoder {
            table: SymbolTable::build(&coded, &mut HuffmanScratch::new()),
            entries: coded.iter().map(|&(sym, len, _)| (sym, len)).collect(),
        }
    }

    /// The word packer writes the `put_bits` loop's bytes for codes of
    /// every length 1..=32, dense and sparse tables, one-symbol
    /// alphabets, and every stream prefix up to 80 symbols, so payloads
    /// end on 64-bit word boundaries and at every offset inside a word.
    /// One recycled bit buffer serves every case.
    #[test]
    fn word_packer_matches_put_bits_on_adversarial_lengths() {
        let mut cases = Vec::new();
        for (mi, mix) in adversarial_mixes().iter().enumerate() {
            let entries = mix_entries(mix);
            let coded = canonical_codes(entries.clone());
            let symbols: Vec<u32> = mix_stream(mi as u64 + 3, &coded, 4000)
                .iter()
                .map(|c| c.0)
                .collect();
            if entries.len() < 64 {
                // Symbols 10^8 apart: a sparse (hash map) table.
                let wide = |s: u32| s / 7 * 100_000_000 + 1;
                let sparse = entries.iter().map(|&(s, l)| (wide(s), l)).collect();
                let wide_symbols = symbols.iter().map(|&s| wide(s)).collect();
                cases.push((encoder_for(sparse), wide_symbols, true));
            }
            cases.push((encoder_for(entries), symbols, false));
        }
        for sym in [0, 7, u32::MAX] {
            let run = vec![sym; 200];
            cases.push((HuffmanEncoder::from_symbols(&run).unwrap(), run, false));
        }
        let mut bit_buf = Vec::new();
        let (mut on_word, mut off_word) = (0, 0);
        for (ci, (enc, symbols, sparse)) in cases.iter().enumerate() {
            let is_sparse = matches!(enc.table, SymbolTable::Sparse(_));
            assert_eq!(is_sparse, *sparse, "case {ci}: table kind");
            for k in (0..=80).chain([symbols.len()]) {
                let mut w = ByteWriter::new();
                enc.encode_with(&symbols[..k], &mut bit_buf, &mut w);
                assert_eq!(
                    w.finish(),
                    encode_put_bits(enc, &symbols[..k]),
                    "case {ci}: {k} symbols"
                );
                let bits = enc.payload_bits(&symbols[..k]).unwrap();
                if bits % 64 == 0 {
                    on_word += 1;
                } else {
                    off_word += 1;
                }
            }
        }
        assert!(
            on_word > 10 && off_word > 100,
            "{on_word} on, {off_word} off"
        );
    }

    /// Truncated and corrupt payloads must fail through `decode_with`
    /// after the same symbols, and with the same error, as the oracle.
    #[test]
    fn fast_decode_eof_matches_slow() {
        // `decode_with` refuses a count the payload cannot hold before
        // decoding anything, so each check asks for at most 8 per byte.
        // Returns whether the oracle decoded every symbol asked for.
        let mut scratch = HuffmanScratch::new();
        let mut check = |dec: &HuffmanDecoder, entries: &[(u32, u32)], n: usize, payload: &[u8]| {
            let n = n.min(payload.len() * 8);
            let oracle = slow_loop(dec, payload, n);
            let got = decode_stream(&mut scratch, entries, n, payload);
            assert_eq!(got, oracle, "{n} symbols");
            oracle.1.is_ok()
        };
        // Every code of a 1..=10 chain once, cut at every byte.
        let entries: Vec<(u32, u32)> = (1..=10).map(|l| (l * 11, l)).chain([(121, 10)]).collect();
        let coded = canonical_codes(entries.clone());
        let dec = HuffmanDecoder::from_entries(entries.clone()).unwrap();
        let payload = pack(&coded);
        for cut in 0..payload.len() {
            check(&dec, &entries, coded.len(), &payload[..cut]);
        }
        // 200 symbols of each mix, ending in its long codes, cut at
        // every byte: the cut falls inside the buffered run, at its
        // boundary and in the slow tail.
        for (mi, mix) in adversarial_mixes().iter().enumerate() {
            let entries = mix_entries(mix);
            let coded = canonical_codes(entries.clone());
            let dec = HuffmanDecoder::from_entries(entries.clone()).unwrap();
            let stream = mix_stream(mi as u64 + 7, &coded, 200);
            let payload = pack(&stream);
            for cut in 0..payload.len() {
                let ok = check(&dec, &entries, stream.len(), &payload[..cut]);
                // Once the count check lets the whole count through, the
                // cut itself must be what fails.
                assert!(
                    !ok || stream.len() > cut * 8,
                    "mix {mi}: cut {cut} unnoticed"
                );
            }
            assert!(check(&dec, &entries, stream.len(), &payload), "mix {mi}");
        }
        // An incomplete code over pseudorandom bytes: invalid prefixes
        // fail as over-long codes, and long codes miss the table, both
        // inside the buffered run and in the tail.
        let entries = [(5, 2), (6, 3), (7, 9), (8, 12)];
        let dec = HuffmanDecoder::from_entries(entries.to_vec()).unwrap();
        for len in 0..48u64 {
            let payload: Vec<u8> = (0..len).map(|i| splitmix64(len * 1000 + i) as u8).collect();
            check(&dec, &entries, payload.len() * 8, &payload);
        }
        // Real bin payloads, whole, with seeded flips of one to three
        // bits, and cut at seeded bytes.
        for (ri, (entries, n, payload)) in real_bin_payloads().into_iter().enumerate() {
            let dec = HuffmanDecoder::from_entries(entries.clone()).unwrap();
            assert!(check(&dec, &entries, n, &payload), "payload {ri}");
            for seed in 0..12u64 {
                let mut flipped = payload.clone();
                for f in 0..=seed % 3 {
                    let bit = splitmix64(seed * 16 + f + 1) as usize % (payload.len() * 8);
                    flipped[bit >> 3] ^= 0x80 >> (bit & 7);
                }
                check(&dec, &entries, n, &flipped);
                let cut = splitmix64(seed + 100) as usize % payload.len();
                check(&dec, &entries, n, &payload[..cut]);
            }
        }
    }

    /// A code table's `(symbol, length)` entries, a symbol count and a
    /// payload.
    type BinPayload = (Vec<(u32, u32)>, usize, Vec<u8>);

    /// Quantizer bins of two real inputs as the engine orders them, level
    /// by level around anchors, at `Rel(1e-3)`: a Miranda field the size
    /// of a 32^3 QoZ chunk, and a 192x384 CESM field of the shape field
    /// dumps use. Each comes back as the `(symbol, length)` table the
    /// encoder serializes, the symbol count and the payload.
    fn real_bin_payloads() -> Vec<BinPayload> {
        use qoz_datagen::fields::{cesm_like, miranda_like};
        use qoz_predict::{traverse_level, LevelConfig};
        use qoz_tensor::Shape;

        let mut out = Vec::new();
        for (mut data, levels) in [
            (miranda_like(Shape::d3(32, 32, 32), 0xA2C1_0F1E), 5),
            (cesm_like(Shape::d2(192, 384), 0x51C0_FFEE), 6),
        ] {
            let q = crate::LinearQuantizer::new(1e-3 * data.value_range());
            let shape = data.shape();
            let mut bins = Vec::new();
            let mut visit = |buf: &mut [f32], off: usize, p: f64| {
                let qz = q.quantize(buf[off], p);
                bins.push(qz.code);
                buf[off] = qz.reconstructed;
            };
            for level in (1..=levels).rev() {
                let cfg = LevelConfig::default();
                traverse_level(data.as_mut_slice(), shape, level, cfg, &mut visit);
            }
            let enc = HuffmanEncoder::from_symbols(&bins).expect("fields have bins");
            let mut w = ByteWriter::new();
            enc.encode(&bins, &mut w);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let entries = (0..r.get_varint().unwrap())
                .map(|_| {
                    (
                        r.get_varint().unwrap() as u32,
                        u32::from(r.get_u8().unwrap()),
                    )
                })
                .collect();
            let n = r.get_varint().unwrap() as usize;
            out.push((entries, n, r.get_len_prefixed().unwrap().to_vec()));
        }
        out
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

    /// Fibonacci weights build the deepest possible tree: 40 of them
    /// give codes far past MAX_CODE_LEN.
    fn fibonacci_freqs(n: usize) -> Vec<(u32, u64)> {
        let (mut a, mut b) = (1u64, 1u64);
        (0..n as u32)
            .map(|s| {
                let w = a;
                (a, b) = (b, a + b);
                (s * 5 + 2, w)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The index heap pops `(weight, id)` in the boxed tree's order,
        /// so every code length agrees, ties included.
        #[test]
        fn index_heap_lengths_match_boxed_tree(
            weights in proptest::collection::vec(
                proptest::prop_oneof![
                    3 => 1u64..4,
                    2 => 1u64..1_000_000,
                    1 => proptest::prelude::Just(0u64),
                ],
                1..400,
            )
        ) {
            let freqs: Vec<(u32, u64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (i as u32 * 3 + 1, w))
                .collect();
            proptest::prop_assert_eq!(code_lengths(&freqs), code_lengths_boxed(&freqs));
        }
    }

    /// The flattening loop of `from_symbols_with` feeds `code_lengths`
    /// halved tables until every code fits: both constructions agree at
    /// every step, and the loop ends within MAX_CODE_LEN.
    #[test]
    fn index_heap_matches_boxed_tree_through_flattening() {
        let mut freqs = fibonacci_freqs(40);
        let mut rounds = 0;
        loop {
            let lengths = code_lengths(&freqs);
            assert_eq!(lengths, code_lengths_boxed(&freqs), "round {rounds}");
            if lengths.iter().all(|&(_, l)| l <= MAX_CODE_LEN) {
                break;
            }
            for f in freqs.iter_mut() {
                f.1 = (f.1 / 2).max(1);
            }
            rounds += 1;
        }
        assert!(rounds > 0, "the table must exercise the flattening path");
    }

    /// `encode_bins` round trip, and the symbol table the encoder chose.
    fn bins_roundtrip(bins: &[u32]) -> bool {
        let blob = crate::backend::encode_bins(bins);
        assert_eq!(crate::backend::decode_bins(&blob).unwrap(), bins);
        let enc = HuffmanEncoder::from_symbols(bins).unwrap();
        matches!(enc.table, SymbolTable::Dense { .. })
    }

    #[test]
    fn bins_roundtrip_at_the_edges_of_the_symbol_table() {
        // Symbols near u32::MAX span a few values: dense, offset by min.
        let top: Vec<u32> = (0..300u32).map(|i| u32::MAX - (i * i) % 7).collect();
        assert!(bins_roundtrip(&top));
        // One distinct symbol, at either end of the range.
        assert!(bins_roundtrip(&[u32::MAX; 50]));
        assert!(bins_roundtrip(&[0; 50]));
        // A span of exactly 16 per symbol plus the slack stays dense; one
        // more takes the hash map.
        let n = 64u32;
        let edge = n * 16 + DENSE_SYMBOL_SLACK as u32;
        let base = 1_000_000u32;
        let mut at: Vec<u32> = (0..n).map(|i| base + i).collect();
        at[n as usize - 1] = base + edge;
        assert!(bins_roundtrip(&at));
        at[n as usize - 1] += 1;
        assert!(!bins_roundtrip(&at));
        // A wide sparse alphabet, zero to u32::MAX: the hash-map path.
        let sparse: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
        assert!(!bins_roundtrip(&sparse));
    }

    #[test]
    fn symbol_count_past_the_payload_is_refused_before_allocating() {
        // One-entry table, then 2^28 symbols claimed over an empty payload.
        let mut w = ByteWriter::new();
        w.put_varint(1);
        w.put_varint(7);
        w.put_u8(1);
        w.put_varint(1 << 28);
        w.put_len_prefixed(&[]);
        let buf = w.finish();
        let mut out = Vec::new();
        let err = HuffmanDecoder::decode_with(
            &mut ByteReader::new(&buf),
            &mut HuffmanScratch::new(),
            &mut out,
        );
        assert!(matches!(err, Err(CodecError::Corrupt(_))), "{err:?}");
        assert!(out.capacity() < 1024, "reserved {} symbols", out.capacity());
        // Eight symbols per payload byte is the most a valid stream holds.
        let enc = HuffmanEncoder::from_symbols(&[3; 64]).unwrap();
        let mut w = ByteWriter::new();
        enc.encode(&[3; 64], &mut w);
        let buf = w.finish();
        assert_eq!(
            HuffmanDecoder::decode(&mut ByteReader::new(&buf)).unwrap(),
            [3; 64]
        );
    }

    /// The encoder as it was before symbol 0 moved beside the window:
    /// frequencies counted over the whole `[min, max]` span (or a hash
    /// map), codes looked up in a map, bits through `put_bits`. The
    /// oracle of the windowed build.
    fn encode_spanning(symbols: &[u32]) -> Vec<u8> {
        let (min, max) = symbols
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let mut freqs: Vec<(u32, u64)> = if dense_span(min, max, symbols.len()) {
            let mut counts = vec![0u64; (max - min) as usize + 1];
            for &s in symbols {
                counts[(s - min) as usize] += 1;
            }
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (min + i as u32, c))
                .collect()
        } else {
            let mut freq: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *freq.entry(s).or_insert(0) += 1;
            }
            let mut freqs: Vec<_> = freq.into_iter().collect();
            freqs.sort_unstable();
            freqs
        };
        let mut lengths = code_lengths(&freqs);
        while lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
            for f in freqs.iter_mut() {
                f.1 = (f.1 / 2).max(1);
            }
            lengths = code_lengths(&freqs);
        }
        let coded = canonical_codes(lengths);
        let table: HashMap<u32, (u32, u64)> = coded
            .iter()
            .map(|&(sym, len, code)| (sym, (len, code)))
            .collect();
        let mut out = ByteWriter::new();
        out.put_varint(coded.len() as u64);
        for &(sym, len, _) in &coded {
            out.put_varint(sym as u64);
            out.put_u8(len as u8);
        }
        let mut bits = BitWriter::new();
        for s in symbols {
            let (len, code) = table[s];
            bits.put_bits(code, len);
        }
        out.put_varint(symbols.len() as u64);
        out.put_len_prefixed(&bits.finish());
        out.finish()
    }

    /// Quantizer-like bins: `n` values within `half` of 32768.
    fn bins_near_radius(n: u32, half: u32) -> Vec<u32> {
        (0..n)
            .map(|i| 32768 - half + (splitmix64(u64::from(i)) % u64::from(2 * half)) as u32)
            .collect()
    }

    /// Counting and coding symbol 0 beside the window of the others gives
    /// the spanning build's bytes: bins with and without 0, all zeros,
    /// `{0, 1}`, `{0, 65535}`, `{0, 200000}` (sparse in the spanning
    /// build, dense now), one symbol, and the hash-map fallback. One
    /// recycled scratch serves every case, and every stream decodes.
    #[test]
    fn zero_beside_the_window_matches_the_spanning_build() {
        let mut with_zeros = bins_near_radius(20_000, 500);
        for i in (0..with_zeros.len()).step_by(97) {
            with_zeros[i] = 0;
        }
        let alternate = |a: u32, b: u32| -> Vec<u32> {
            (0..300u64)
                .map(|i| if splitmix64(i) % 3 == 0 { a } else { b })
                .collect()
        };
        let mut sparse: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
        sparse.extend([0; 40]);
        let cases: Vec<(Vec<u32>, bool)> = vec![
            (bins_near_radius(20_000, 500), false),
            (with_zeros, false),
            (vec![0; 300], false),
            (alternate(0, 1), false),
            (alternate(0, 65535), false),
            (alternate(0, 200_000), false),
            (alternate(1, 0), false),
            (vec![32768; 100], false),
            (vec![7], false),
            (sparse, true),
        ];
        let mut scratch = HuffmanScratch::new();
        let mut bit_buf = Vec::new();
        for (ci, (symbols, is_sparse)) in cases.iter().enumerate() {
            let enc = HuffmanEncoder::from_symbols_with(symbols, &mut scratch).unwrap();
            assert_eq!(
                matches!(enc.table, SymbolTable::Sparse(_)),
                *is_sparse,
                "case {ci}: table kind"
            );
            let mut w = ByteWriter::new();
            enc.encode_with(symbols, &mut bit_buf, &mut w);
            enc.recycle(&mut scratch);
            let bytes = w.finish();
            assert_eq!(bytes, encode_spanning(symbols), "case {ci}");
            assert_eq!(
                HuffmanDecoder::decode(&mut ByteReader::new(&bytes)).unwrap(),
                *symbols,
                "case {ci}"
            );
        }
    }

    /// A few zeros among bins near 32768 leave the recycled tables the
    /// size of the bins' window, not of `[0, 33 K]`, and a slightly wider
    /// window later grows them to exactly that, not to double.
    #[test]
    fn tables_hold_the_window_not_the_span_down_to_zero() {
        let mut scratch = HuffmanScratch::new();
        for half in [500u32, 550] {
            let mut bins = bins_near_radius(20_000, half);
            bins[7] = 0;
            bins[9_000] = 0;
            let enc = HuffmanEncoder::from_symbols_with(&bins, &mut scratch).unwrap();
            enc.recycle(&mut scratch);
            let window = 2 * half as usize;
            for (name, cap) in [
                ("counts", scratch.counts.capacity()),
                ("dense", scratch.dense.capacity()),
            ] {
                assert!(
                    (window - 16..=window + 16).contains(&cap),
                    "{name}: capacity {cap} for a window of {window}"
                );
            }
        }
    }
}
