//! Framed little-endian byte I/O with LEB128 varints.
//!
//! Compressed streams in this workspace are self-describing: headers and
//! section lengths are written through [`ByteWriter`] and read back with
//! [`ByteReader`], which checks bounds on every access so that truncated
//! or corrupted inputs surface as [`CodecError`] values rather than panics.

use crate::{CodecError, Result};

/// Growable little-endian byte sink.
///
/// Backed by a plain `Vec<u8>` so scratch arenas can recycle the
/// allocation across calls: [`ByteWriter::from_vec`] adopts a spent
/// buffer (clearing its contents, keeping its capacity) and
/// [`ByteWriter::into_vec`] hands the backing store back without a copy.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Adopt a recycled buffer: contents are cleared, capacity is kept.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Finish and return the backing buffer (alias of [`finish`] that
    /// reads naturally at recycle sites).
    ///
    /// [`finish`]: ByteWriter::finish
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Reserve capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a varint length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Finish and return the accumulated buffer (no copy).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && (byte & 0x7F) > 1) {
                return Err(CodecError::Corrupt("varint overflow"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a varint length prefix, then that many bytes.
    pub fn get_len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-2.5);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -2.5);
        assert_eq!(r.remaining(), 0);
    }

    /// The writer's byte layout, pinned without the reader: a round trip
    /// alone would pass if both sides changed endianness together.
    #[test]
    fn writes_are_little_endian_bytes() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_f64(-2.5);
        w.put_varint(300);
        w.put_bytes(&[7, 8, 9]);
        let mut want = vec![0xAB, 0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE];
        want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        // -2.5 is 0xC004_0000_0000_0000.
        want.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x04, 0xC0]);
        // 300 as a varint, then the raw bytes.
        want.extend_from_slice(&[0xAC, 0x02, 7, 8, 9]);
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_sizes() {
        let mut w = ByteWriter::new();
        w.put_varint(127);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.put_varint(128);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_len_prefixed(b"hello");
        w.put_len_prefixed(b"");
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_len_prefixed().unwrap(), b"hello");
        assert_eq!(r.get_len_prefixed().unwrap(), b"");
    }

    #[test]
    fn truncated_read_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn truncated_varint_errors() {
        let mut r = ByteReader::new(&[0x80, 0x80]);
        assert_eq!(r.get_varint(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes would shift past 64 bits.
        let data = [0xFFu8; 11];
        let mut r = ByteReader::new(&data);
        assert!(matches!(r.get_varint(), Err(CodecError::Corrupt(_))));
    }
}
