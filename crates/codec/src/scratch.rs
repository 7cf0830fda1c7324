//! Reusable stage buffers for repeated compression.
//!
//! Every compression pass walks the same stages — working copy of the
//! input, quantization bins, unpredictable/anchor side streams, Huffman
//! bitstream, LZSS dictionary pass — and, before this module existed,
//! allocated every stage buffer from scratch on every call. Scientific
//! time-series workloads compress the *same* variables every timestep,
//! so a [`Scratch`] arena keeps all of those allocations alive across
//! calls: buffers are cleared (length 0) but keep their capacity, and
//! re-grow automatically when a larger or differently-shaped input
//! arrives, so one arena can serve arbitrary inputs safely.
//!
//! Scratch-based entry points are required to be **byte-identical** to
//! their allocating counterparts — the arena changes where bytes are
//! staged, never which bytes are produced. The golden-bitstream tests
//! pin this.

use crate::huffman::HuffmanScratch;
use crate::lz::LzScratch;
use qoz_tensor::Scalar;

/// Counts buffer-growth events inside scratch-based decode internals.
///
/// Every decode `_with` entry point calls [`GrowCounter::check`] with a
/// staging buffer's current capacity and the size about to be staged
/// into it, *before* the buffer is (re)filled. A warm arena that has
/// already decoded a stream of the same shape therefore records zero
/// new events — the property `tests/decompress_reuse.rs` pins for
/// `Pipeline::decompress_into`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GrowCounter(u64);

impl GrowCounter {
    /// Record one growth event if a buffer of `capacity` must expand to
    /// hold `needed` elements.
    #[inline]
    pub fn check(&mut self, capacity: usize, needed: usize) {
        if needed > capacity {
            self.0 += 1;
        }
    }

    /// Record one growth event unconditionally (for buffers whose
    /// capacity the caller observed out of band, e.g. a destination
    /// array reporting that it had to reallocate).
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Total growth events recorded so far (monotone).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Working memory for the entropy stage (`bins → Huffman → LZSS`).
#[derive(Debug, Default)]
pub struct EntropyScratch {
    /// Huffman-serialized bins (table + payload), pre-LZSS.
    pub huff: Vec<u8>,
    /// Huffman bitstream backing store.
    pub bits: Vec<u8>,
    /// LZSS output staging for the current section.
    pub packed: Vec<u8>,
    /// Huffman frequency-count table.
    pub huffman: HuffmanScratch,
    /// LZSS hash chains and flag/literal/match staging.
    pub lz: LzScratch,
}

impl EntropyScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reusable arena of per-stage buffers for one compression pipeline.
///
/// Generic over the element type because the predictor's working copy of
/// the input lives here too. One arena belongs to one caller at a time
/// (a `qoz_api::Pipeline` handle, one parallel worker in `qoz_pario`);
/// it is `Send` but deliberately not shared.
#[derive(Debug, Default)]
pub struct Scratch<T: Scalar> {
    /// The predictor's working copy of the input; holds the
    /// decompressor-identical reconstruction after a pass.
    pub work: Vec<T>,
    /// Quantization codes in traversal order.
    pub bins: Vec<u32>,
    /// Exact-value byte store for unpredictable points.
    pub unpred: Vec<u8>,
    /// Exact-value byte store for anchor points.
    pub anchors: Vec<u8>,
    /// Encoded-section staging (entropy-coded bins, packed side streams).
    pub section: Vec<u8>,
    /// Entropy-stage working memory.
    pub entropy: EntropyScratch,
    /// Growth events a caller records for decode work it stages outside
    /// the entropy scratches. No decoder in the workspace writes it: the
    /// Huffman and LZSS scratches already count the bins, unpredictable
    /// and anchor buffers, and the destination array belongs to the
    /// caller. [`Scratch::decode_grow_events`] adds it to their counts.
    pub grows: GrowCounter,
}

impl<T: Scalar> Scratch<T> {
    /// Fresh, empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every stage buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.work.clear();
        self.bins.clear();
        self.unpred.clear();
        self.anchors.clear();
        self.section.clear();
    }

    /// Load `data` into the working buffer, recycling its allocation.
    pub fn load_work(&mut self, data: &[T]) {
        self.work.clear();
        self.work.extend_from_slice(data);
    }

    /// Total decode-stage buffer growth events across the whole arena:
    /// the LZSS and Huffman scratches (which stage the bins and both
    /// side streams) plus [`Scratch::grows`]. The destination array a
    /// decode writes into is the caller's, so it never counts here.
    ///
    /// The count is monotone and survives [`Scratch::clear`] (clearing
    /// keeps capacity, so it is not a growth event). A warm arena
    /// decoding a stream shaped like one it has already seen records no
    /// new events; callers assert zero-allocation steady state by
    /// sampling this before and after a decode.
    pub fn decode_grow_events(&self) -> u64 {
        self.grows.get() + self.entropy.lz.grow_events() + self.entropy.huffman.grow_events()
    }

    /// Current capacities of every arena-owned stage buffer, in a fixed
    /// order (work, bins, unpred, anchors, section, entropy huff/bits/
    /// packed). The compress path has no internal grow counters — its
    /// buffers grow through ordinary `Vec` reallocation — so callers
    /// that want compress-side growth accounting compare this profile
    /// before and after a call: any entry that increased is one growth
    /// event.
    pub fn capacities(&self) -> [usize; 8] {
        [
            self.work.capacity(),
            self.bins.capacity(),
            self.unpred.capacity(),
            self.anchors.capacity(),
            self.section.capacity(),
            self.entropy.huff.capacity(),
            self.entropy.bits.capacity(),
            self.entropy.packed.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_clear() {
        let mut s = Scratch::<f32>::new();
        s.load_work(&[1.0; 4096]);
        s.bins.extend(std::iter::repeat(7u32).take(4096));
        s.unpred.extend_from_slice(&[1u8; 1024]);
        let (cw, cb, cu) = (s.work.capacity(), s.bins.capacity(), s.unpred.capacity());
        s.clear();
        assert!(s.work.is_empty() && s.bins.is_empty() && s.unpred.is_empty());
        assert_eq!(s.work.capacity(), cw);
        assert_eq!(s.bins.capacity(), cb);
        assert_eq!(s.unpred.capacity(), cu);
    }

    #[test]
    fn work_regrows_for_larger_inputs() {
        let mut s = Scratch::<f64>::new();
        s.load_work(&[0.5; 8]);
        assert_eq!(s.work.len(), 8);
        s.load_work(&[0.25; 999]);
        assert_eq!(s.work.len(), 999);
        assert!(s.work.iter().all(|&v| v == 0.25));
        // Shrinking inputs are exact too: no stale tail.
        s.load_work(&[1.5; 3]);
        assert_eq!(s.work.as_slice(), &[1.5; 3]);
    }
}
