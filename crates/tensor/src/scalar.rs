//! The [`Scalar`] trait abstracts over the floating-point element types the
//! compressors support (`f32` and `f64`).
//!
//! All tuning/metric arithmetic inside the workspace is performed in `f64`;
//! `Scalar` therefore only needs cheap, lossless-enough conversions to and
//! from `f64` plus a handful of numeric helpers. Keeping the trait small
//! makes the prediction kernels easy to audit.

use std::fmt::Debug;

/// Element type of a compressible array.
///
/// Implemented for `f32` and `f64`. The trait is sealed in spirit (nothing
/// else in the workspace implements it) but deliberately left open so
/// downstream users can experiment with custom float wrappers.
pub trait Scalar:
    Copy + Clone + Debug + PartialOrd + PartialEq + Default + Send + Sync + 'static
{
    /// Number of bytes of the native representation (4 or 8).
    const BYTES: usize;
    /// Human-readable type tag stored in compressed headers.
    const TYPE_TAG: u8;

    /// Lossless widening to `f64` (for `f32`) or identity (for `f64`).
    fn to_f64(self) -> f64;
    /// Narrowing conversion from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` if the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;
    /// The little-endian byte array of one value, `[u8; BYTES]`.
    type LeBytes: AsRef<[u8]>;
    /// Raw little-endian bytes of the value, without allocating.
    fn le_bytes(self) -> Self::LeBytes;
    /// Rebuild a value from little-endian bytes; `bytes.len()` must be `BYTES`.
    fn from_le_slice(bytes: &[u8]) -> Self;
    /// Zero constant.
    fn zero() -> Self;
}

impl Scalar for f32 {
    const BYTES: usize = 4;
    type LeBytes = [u8; 4];
    const TYPE_TAG: u8 = 0x32;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn le_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    #[inline]
    fn from_le_slice(bytes: &[u8]) -> Self {
        let mut b = [0u8; 4];
        b.copy_from_slice(&bytes[..4]);
        f32::from_le_bytes(b)
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
}

impl Scalar for f64 {
    const BYTES: usize = 8;
    type LeBytes = [u8; 8];
    const TYPE_TAG: u8 = 0x64;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn le_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    #[inline]
    fn from_le_slice(bytes: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[..8]);
        f64::from_le_bytes(b)
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_bytes() {
        let v: f32 = -12.625;
        let bytes = v.le_bytes();
        assert_eq!(bytes.len(), f32::BYTES);
        assert_eq!(f32::from_le_slice(&bytes).to_bits(), v.to_bits());
    }

    #[test]
    fn f64_roundtrip_bytes() {
        let v: f64 = std::f64::consts::PI;
        let bytes = v.le_bytes();
        assert_eq!(bytes.len(), f64::BYTES);
        assert_eq!(f64::from_le_slice(&bytes).to_bits(), v.to_bits());
    }

    #[test]
    fn widening_is_lossless_for_f32() {
        let v: f32 = 0.1;
        assert_eq!(f32::from_f64(v.to_f64()), v);
    }

    #[test]
    fn type_tags_distinct() {
        assert_ne!(f32::TYPE_TAG, f64::TYPE_TAG);
    }

    #[test]
    fn finite_checks() {
        assert!(1.0f32.is_finite());
        assert!(!f32::NAN.is_finite());
        assert!(!f64::INFINITY.is_finite());
    }
}
