//! Error-bounded linear-scale quantization (the SZ quantizer).
//!
//! Given a prediction `p` for a true value `x` and an absolute error bound
//! `e`, the residual `x - p` is quantized to the nearest multiple of `2e`:
//!
//! ```text
//! q  = round((x - p) / 2e)          (signed integer)
//! x' = p + 2e * q                   (reconstruction, |x - x'| <= e)
//! ```
//!
//! Quantization codes are mapped into a non-negative range centred at
//! `radius` so they can feed straight into the Huffman stage; code `0` is
//! reserved for *unpredictable* points whose residual exceeds the code
//! range (or whose reconstruction fails the bound due to floating-point
//! rounding). Unpredictable values are stored exactly in a side stream,
//! mirroring SZ's design.

use qoz_tensor::Scalar;

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantized<T: Scalar> {
    /// Huffman-ready code: `0` = unpredictable, otherwise `q + radius`.
    pub code: u32,
    /// The reconstructed value the decompressor will produce.
    pub reconstructed: T,
}

/// Linear-scale quantizer with a fixed absolute error bound.
#[derive(Debug, Clone)]
pub struct LinearQuantizer {
    error_bound: f64,
    /// Half the number of representable codes; code range is
    /// `[-radius+1, radius-1]` mapped to `[1, 2*radius-1]`.
    radius: u32,
}

impl LinearQuantizer {
    /// Default code radius (2^15), matching SZ's 65536-bin default.
    pub const DEFAULT_RADIUS: u32 = 1 << 15;

    /// Create a quantizer for absolute error bound `e > 0`.
    ///
    /// # Panics
    /// Panics if `e` is not finite and positive.
    pub fn new(error_bound: f64) -> Self {
        Self::with_radius(error_bound, Self::DEFAULT_RADIUS)
    }

    /// Create a quantizer with an explicit code radius (power of two not
    /// required; must be at least 2).
    pub fn with_radius(error_bound: f64, radius: u32) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be finite and positive, got {error_bound}"
        );
        assert!(radius >= 2, "radius must be >= 2");
        LinearQuantizer {
            error_bound,
            radius,
        }
    }

    /// The absolute error bound.
    #[inline(always)]
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// The code radius.
    #[inline(always)]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of distinct codes this quantizer can emit (`2*radius`).
    pub fn num_codes(&self) -> u32 {
        self.radius * 2
    }

    /// Quantize `value` against `prediction`.
    ///
    /// Returns the Huffman code and the reconstruction. When the code is
    /// `0` the caller must store `value` exactly (the reconstruction
    /// returned is `value` itself in that case).
    #[inline]
    pub fn quantize<T: Scalar>(&self, value: T, prediction: f64) -> Quantized<T> {
        let v = value.to_f64();
        if !v.is_finite() || !prediction.is_finite() {
            return Quantized {
                code: 0,
                reconstructed: value,
            };
        }
        let diff = v - prediction;
        let scaled = diff / (2.0 * self.error_bound);
        // Out-of-range residual -> unpredictable.
        if scaled.abs() >= (self.radius - 1) as f64 {
            return Quantized {
                code: 0,
                reconstructed: value,
            };
        }
        let q = scaled.round() as i64;
        let recon_f = prediction + 2.0 * self.error_bound * q as f64;
        let recon = T::from_f64(recon_f);
        // Rounding through the narrower T (f32) can break the bound; fall
        // back to exact storage when it does.
        if (recon.to_f64() - v).abs() > self.error_bound {
            return Quantized {
                code: 0,
                reconstructed: value,
            };
        }
        Quantized {
            code: (q + self.radius as i64) as u32,
            reconstructed: recon,
        }
    }

    /// Reconstruct a value from its code (code must be non-zero; code `0`
    /// values come from the exact side stream instead).
    #[inline]
    pub fn reconstruct<T: Scalar>(&self, code: u32, prediction: f64) -> T {
        debug_assert!(code != 0, "code 0 is the unpredictable marker");
        let q = code as i64 - self.radius as i64;
        T::from_f64(prediction + 2.0 * self.error_bound * q as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_within_bound_after_roundtrip() {
        let q = LinearQuantizer::new(0.01);
        for i in 0..1000 {
            let value = (i as f64) * 0.0037 - 1.5;
            let pred = value + ((i % 17) as f64 - 8.0) * 0.002;
            let out = q.quantize(value, pred);
            assert!(
                (out.reconstructed - value).abs() <= 0.01 + 1e-15,
                "value {value} pred {pred} recon {}",
                out.reconstructed
            );
            if out.code != 0 {
                let r: f64 = q.reconstruct(out.code, pred);
                assert_eq!(r, out.reconstructed);
            }
        }
    }

    #[test]
    fn exact_prediction_gives_center_code() {
        let q = LinearQuantizer::new(1e-3);
        let out = q.quantize(5.0f64, 5.0);
        assert_eq!(out.code, LinearQuantizer::DEFAULT_RADIUS);
        assert_eq!(out.reconstructed, 5.0);
    }

    #[test]
    fn large_residual_is_unpredictable() {
        let q = LinearQuantizer::with_radius(1e-6, 256);
        let out = q.quantize(1.0f64, 0.0);
        assert_eq!(out.code, 0);
        assert_eq!(out.reconstructed, 1.0);
    }

    #[test]
    fn nan_value_is_unpredictable() {
        let q = LinearQuantizer::new(1e-3);
        let out = q.quantize(f64::NAN, 0.0);
        assert_eq!(out.code, 0);
    }

    #[test]
    fn non_finite_prediction_is_unpredictable() {
        let q = LinearQuantizer::new(1e-3);
        let out = q.quantize(1.0f64, f64::INFINITY);
        assert_eq!(out.code, 0);
        assert_eq!(out.reconstructed, 1.0);
    }

    #[test]
    fn f32_rounding_never_violates_bound() {
        let q = LinearQuantizer::new(1e-4);
        // Large magnitudes where f32 ULP > residual grid.
        for i in 0..100 {
            let value = 1.0e7f32 + i as f32;
            let pred = value as f64 + 3.3e-5;
            let out = q.quantize(value, pred);
            assert!(
                (out.reconstructed.to_f64() - value.to_f64()).abs() <= 1e-4,
                "bound violated at {value}"
            );
        }
    }

    #[test]
    fn code_symmetry() {
        let q = LinearQuantizer::new(0.5);
        let plus = q.quantize(1.0f64, 0.0);
        let minus = q.quantize(-1.0f64, 0.0);
        let r = LinearQuantizer::DEFAULT_RADIUS as i64;
        assert_eq!(plus.code as i64 - r, -(minus.code as i64 - r));
    }

    #[test]
    fn half_ties_round_away_from_zero() {
        // At bound 0.5 a code step is 1, so a residual of exactly k + 0.5
        // is a tie, which `f64::round` breaks away from zero.
        let q = LinearQuantizer::new(0.5);
        let r = LinearQuantizer::DEFAULT_RADIUS as i64;
        let below_half = 0.49999999999999994; // the largest f64 below 0.5
        for (value, step) in [
            (0.5, 1),
            (-0.5, -1),
            (1.5, 2),
            (-1.5, -2),
            (2.5, 3),
            (3.5, 4),
            (below_half, 0),
            (-below_half, 0),
        ] {
            let out = q.quantize(value, 0.0);
            assert_eq!(out.code as i64, r + step, "code of {value}");
            assert_eq!(out.reconstructed, step as f64, "reconstruction of {value}");
            let back: f64 = q.reconstruct(out.code, 0.0);
            assert_eq!(back, out.reconstructed, "decoder reconstruction of {value}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_bound_rejected() {
        let _ = LinearQuantizer::new(0.0);
    }
}
