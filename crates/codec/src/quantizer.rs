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
//!
//! `round` is half away from zero, as `f64::round` computes it, but done
//! inline by `round_half_away`: truncate to `i64`, then step one away
//! from zero when the exact fractional part is at least one half. On the
//! baseline x86-64 target (no SSE4.1 `roundsd`) `f64::round` is a libm
//! call, out of line once per point with the loop's registers spilled
//! around it. The inline form equals `f64::round` wherever the
//! truncation is exact, `|x| < 2^63`; `quantize` only rounds after its
//! range check has bounded `|scaled|` below `radius - 1 < 2^31`.

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

    /// Largest code radius, `2^31 − 1`: the codes `[1, 2·radius − 1]`
    /// and their count `2·radius` both fit in a `u32` up to here.
    pub const MAX_RADIUS: u32 = u32::MAX / 2;

    /// Create a quantizer for absolute error bound `e > 0`.
    ///
    /// # Panics
    /// Panics if `e` is not finite and positive.
    pub fn new(error_bound: f64) -> Self {
        Self::with_radius(error_bound, Self::DEFAULT_RADIUS)
    }

    /// Create a quantizer with an explicit code radius (power of two not
    /// required).
    ///
    /// # Panics
    /// Panics if `e` is not finite and positive, or if `radius` is
    /// outside `2..=`[`Self::MAX_RADIUS`]: past it a code would wrap its
    /// `u32` and decode to another value.
    pub fn with_radius(error_bound: f64, radius: u32) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be finite and positive, got {error_bound}"
        );
        assert!(
            (2..=Self::MAX_RADIUS).contains(&radius),
            "radius must be in 2..=2^31-1, got {radius}"
        );
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
        let q = round_half_away(scaled);
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

/// `x.round() as i64` for `|x| < 2^63`: truncation toward zero, then
/// one step away from zero when the fractional part reaches one half.
/// Both steps are exact there: `x as i64` is, and so is `x - t`, the
/// fractional part of a float.
#[inline(always)]
fn round_half_away(x: f64) -> i64 {
    let t = x as i64;
    let frac = x - t as f64;
    t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
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

    /// Past the cap, `3e9` would code as `2999999999`, which decodes to
    /// `-1294967296`: the radius is refused instead.
    #[test]
    #[should_panic(expected = "radius must be in 2..=2^31-1")]
    fn radius_past_the_cap_rejected() {
        let _ = LinearQuantizer::with_radius(0.5, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "radius must be in 2..=2^31-1")]
    fn radius_one_past_the_cap_rejected() {
        let _ = LinearQuantizer::with_radius(0.5, LinearQuantizer::MAX_RADIUS + 1);
    }

    /// At the cap every code, the extremes included, decodes to the value
    /// it was coded from, and the code count fits.
    #[test]
    fn codes_round_trip_at_the_radius_cap() {
        let radius = LinearQuantizer::MAX_RADIUS;
        let q = LinearQuantizer::with_radius(0.5, radius);
        assert_eq!(q.num_codes(), u32::MAX - 1);
        // `radius - 1.5` is the last tie inside the range; it rounds out
        // to the extreme codes 1 and `2·radius − 1`.
        let tie = f64::from(radius - 1) - 0.5;
        for (value, code) in [
            (tie, u32::MAX - 2),
            (-tie, 1),
            (f64::from(radius - 2), u32::MAX - 3),
            (1.0, radius + 1),
            (0.0, radius),
        ] {
            let out = q.quantize(value, 0.0);
            assert_eq!(out.code, code, "code of {value}");
            let back: f64 = q.reconstruct(out.code, 0.0);
            assert_eq!(back, out.reconstructed, "decoded {value}");
            assert!((back - value).abs() <= 0.5, "bound at {value}");
        }
        // The example that used to wrap is out of range at the cap.
        assert_eq!(q.quantize(3e9, 0.0).code, 0);
        assert_eq!(q.quantize(f64::from(radius - 1), 0.0).code, 0);
    }

    /// [`LinearQuantizer::quantize`] as it was with `f64::round`: the
    /// oracle the inline rounding is checked against.
    fn quantize_libm<T: Scalar>(q: &LinearQuantizer, value: T, prediction: f64) -> Quantized<T> {
        let v = value.to_f64();
        let unpredictable = Quantized {
            code: 0,
            reconstructed: value,
        };
        if !v.is_finite() || !prediction.is_finite() {
            return unpredictable;
        }
        let scaled = (v - prediction) / (2.0 * q.error_bound);
        if scaled.abs() >= (q.radius - 1) as f64 {
            return unpredictable;
        }
        let qi = scaled.round() as i64;
        let recon = T::from_f64(prediction + 2.0 * q.error_bound * qi as f64);
        if (recon.to_f64() - v).abs() > q.error_bound {
            return unpredictable;
        }
        Quantized {
            code: (qi + q.radius as i64) as u32,
            reconstructed: recon,
        }
    }

    /// The code and the reconstruction's bits of both implementations.
    fn same_as_libm<T: Scalar>(q: &LinearQuantizer, value: T, prediction: f64) -> bool {
        let (got, want) = (
            q.quantize(value, prediction),
            quantize_libm(q, value, prediction),
        );
        got.code == want.code
            && got.reconstructed.to_f64().to_bits() == want.reconstructed.to_f64().to_bits()
    }

    fn up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// Ties `±(k + 1/2)`, their neighbours one ulp either side, signed
    /// zeros and subnormals round as `f64::round` rounds them, both
    /// directly and through `quantize` (bound 1/2, so `scaled` is the
    /// value itself, at the widest radius).
    #[test]
    fn inline_round_matches_f64_round_on_ties_zeros_and_subnormals() {
        let q = LinearQuantizer::with_radius(0.5, LinearQuantizer::MAX_RADIUS);
        let mut ks: Vec<u64> = (0..64).collect();
        ks.extend([1 << 15, (1 << 24) - 1, 1 << 24, 1 << 31, (1 << 32) - 3]);
        let mut xs = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            0.5,
            -0.5,
        ];
        for k in ks {
            let tie = k as f64 + 0.5;
            xs.extend([tie, up(tie), down(tie), -tie, -up(tie), -down(tie)]);
        }
        for x in xs {
            assert_eq!(round_half_away(x), x.round() as i64, "round({x:e})");
            assert!(same_as_libm(&q, x, 0.0), "value {x:e}");
            assert!(same_as_libm(&q, x as f32, 0.0), "f32 value {x:e}");
            assert!(same_as_libm(&q, 0.0f64, -x), "prediction {x:e}");
        }
        // Subnormal values, predictions and bounds.
        for eb in [5e-324, 1e-310, 1e-300] {
            let q = LinearQuantizer::new(eb);
            for (v, p) in [
                (1e-310, 0.0),
                (-3e-320, 1e-315),
                (2.5e-323, -5e-324),
                (0.0, -0.0),
            ] {
                assert!(
                    same_as_libm(&q, v, p),
                    "eb {eb:e} value {v:e} prediction {p:e}"
                );
            }
        }
    }

    /// `|scaled|` exactly at `radius - 1` is unpredictable; one ulp
    /// inside it, and the ties just inside, are coded as before.
    #[test]
    fn inline_round_matches_f64_round_at_the_code_range_edge() {
        for radius in [2, 3, 1 << 15, 1 << 24, 1 << 30, LinearQuantizer::MAX_RADIUS] {
            let q = LinearQuantizer::with_radius(0.5, radius);
            let edge = (radius - 1) as f64;
            let tie = edge - 0.5;
            for x in [edge, down(edge), up(edge), tie, up(tie), down(tie)] {
                for v in [x, -x] {
                    assert!(same_as_libm(&q, v, 0.0), "radius {radius}, value {v}");
                }
            }
            assert_eq!(q.quantize(edge, 0.0).code, 0, "radius {radius}");
            assert_ne!(q.quantize(down(edge), 0.0).code, 0, "radius {radius}");
        }
    }

    /// Any finite positive bound, subnormals included.
    fn any_bound() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            1e-9f64..1e3,
            Just(0.5),
            (1u64..0x7FF0_0000_0000_0000).prop_map(f64::from_bits),
        ]
    }

    /// Values and predictions: smooth ones, ties at bound 1/2, NaN,
    /// ±Inf, signed zeros and arbitrary bit patterns.
    fn any_f64() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            4 => any::<f64>(),
            2 => (-1000i64..1000).prop_map(|k| k as f64 + 0.5),
            2 => any::<u64>().prop_map(f64::from_bits),
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(-0.0),
        ]
    }

    fn any_radius() -> impl proptest::prelude::Strategy<Value = u32> {
        use proptest::prelude::*;
        prop_oneof![
            Just(LinearQuantizer::DEFAULT_RADIUS),
            2u32..LinearQuantizer::MAX_RADIUS + 1
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        #[test]
        fn inline_round_matches_f64_round_on_random_inputs(
            value in any_f64(),
            prediction in any_f64(),
            eb in any_bound(),
            radius in any_radius(),
        ) {
            let q = LinearQuantizer::with_radius(eb, radius);
            proptest::prop_assert!(same_as_libm(&q, value, prediction));
            proptest::prop_assert!(same_as_libm(&q, value as f32, prediction));
            // The prediction a tie lands on after rounding through f32.
            proptest::prop_assert!(same_as_libm(&q, value as f32, value + eb));
        }
    }
}
