//! MSB-first bit-level I/O.
//!
//! Both the Huffman coder and the embedded bitplane coder in `qoz-zfp`
//! write variable-length codes; this module gives them a single, tested
//! bit container. Bits are packed most-significant-first inside each byte,
//! matching the usual entropy-coding convention so streams are easy to
//! inspect in a hex dump.

use crate::{CodecError, Result};

/// Accumulates bits into a byte buffer, MSB-first.
///
/// Bits are shifted into a 64-bit accumulator word and drained 32 bits
/// at a time, so an append of up to 32 bits is a couple of shifts and at
/// most one 4-byte store rather than a per-bit or per-byte loop.
#[derive(Default, Debug)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned; only the low `used` bits are valid.
    acc: u64,
    /// Number of valid bits in `acc` (0..32 between calls).
    used: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopt a recycled backing buffer: contents are cleared, capacity
    /// is kept. Lets entropy-stage scratch arenas reuse the bitstream
    /// allocation across calls.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            buf,
            acc: 0,
            used: 0,
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        if n > 32 {
            // Split so the accumulator (holding < 32 pending bits) never
            // overflows: 31 + 32 bits always fit in the u64.
            self.put_bits(value >> 32, n - 32);
            self.put_bits(value & 0xFFFF_FFFF, 32);
            return;
        }
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | (value & (u64::MAX >> (64 - n)));
        self.used += n;
        if self.used >= 32 {
            self.used -= 32;
            let word = (self.acc >> self.used) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.used as usize
    }

    /// Pad the final byte with zeros and return the backing buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.used >= 8 {
            self.used -= 8;
            self.buf.push((self.acc >> self.used) as u8);
        }
        if self.used > 0 {
            self.buf.push((self.acc << (8 - self.used)) as u8);
        }
        self.buf
    }
}

/// Reads bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Number of bits still available.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool> {
        let byte = self.pos / 8;
        if byte >= self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let shift = 7 - (self.pos % 8) as u32;
        self.pos += 1;
        Ok((self.buf[byte] >> shift) & 1 == 1)
    }

    /// The next 64 bits at the cursor, MSB-aligned, zero-padded past the
    /// end of the buffer. One unaligned load in the common case.
    #[inline]
    fn peek_word(&self) -> u64 {
        let byte = self.pos >> 3;
        let w = if self.buf.len() - byte >= 8 {
            u64::from_be_bytes(self.buf[byte..byte + 8].try_into().unwrap())
        } else {
            let mut tmp = [0u8; 8];
            tmp[..self.buf.len() - byte].copy_from_slice(&self.buf[byte..]);
            u64::from_be_bytes(tmp)
        };
        w << (self.pos & 7)
    }

    /// Read `n` bits into the low bits of a `u64`, MSB-first.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.remaining_bits() < n as usize {
            // Drain the cursor like the old bit-by-bit loop did before
            // reporting EOF.
            self.pos = self.buf.len() * 8;
            return Err(CodecError::UnexpectedEof);
        }
        if n == 0 {
            return Ok(0);
        }
        if n <= 57 {
            let v = self.peek_word() >> (64 - n);
            self.pos += n as usize;
            Ok(v)
        } else {
            let hi = self.get_bits(n - 32)?;
            let lo = self.get_bits(32)?;
            Ok((hi << 32) | lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0x3FF, 10);
        w.put_bits(u64::MAX, 64);
        w.put_bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4).unwrap(), 0b1011);
        assert_eq!(r.get_bits(10).unwrap(), 0x3FF);
        assert_eq!(r.get_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.get_bits(1).unwrap(), 0);
    }

    #[test]
    fn msb_first_packing() {
        let mut w = BitWriter::new();
        w.put_bits(0b10000001, 8);
        assert_eq!(w.finish(), vec![0b1000_0001]);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bit(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.put_bits(0, 6);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn remaining_bits_tracks_cursor() {
        let data = [0u8; 4];
        let mut r = BitReader::new(&data);
        assert_eq!(r.remaining_bits(), 32);
        r.get_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 27);
    }

    /// The 32-bit drain packs exactly the bits a one-bit-at-a-time
    /// writer would, at every width and alignment.
    #[test]
    fn word_drain_matches_bit_by_bit_packing() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut w = BitWriter::new();
        let mut reference: Vec<bool> = Vec::new();
        for i in 0..5000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x >> 58) as u32 + i % 2; // 0..=64
            w.put_bits(x, n);
            reference.extend((0..n).rev().map(|b| (x >> b) & 1 == 1));
            assert_eq!(w.bit_len(), reference.len());
        }
        let mut expect = vec![0u8; reference.len().div_ceil(8)];
        for (k, &bit) in reference.iter().enumerate() {
            expect[k / 8] |= (bit as u8) << (7 - k % 8);
        }
        assert_eq!(w.finish(), expect);
    }
}
