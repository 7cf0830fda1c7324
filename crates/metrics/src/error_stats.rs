//! Pointwise error statistics: MSE, NRMSE, PSNR, bound verification.

use qoz_tensor::{NdArray, Scalar};

/// Maximum absolute pointwise error between `original` and `recon`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn max_abs_error<T: Scalar>(original: &NdArray<T>, recon: &NdArray<T>) -> f64 {
    original.max_abs_diff(recon)
}

/// Mean squared error.
pub fn mse<T: Scalar>(original: &NdArray<T>, recon: &NdArray<T>) -> f64 {
    assert_eq!(original.shape(), recon.shape(), "shape mismatch");
    let n = original.len() as f64;
    original
        .as_slice()
        .iter()
        .zip(recon.as_slice())
        .map(|(a, b)| {
            let d = a.to_f64() - b.to_f64();
            d * d
        })
        .sum::<f64>()
        / n
}

/// Normalized root mean squared error: `rmse / value_range(original)`.
///
/// Returns `f64::INFINITY` for constant data with non-zero error.
pub fn nrmse<T: Scalar>(original: &NdArray<T>, recon: &NdArray<T>) -> f64 {
    let rmse = mse(original, recon).sqrt();
    let range = original.value_range();
    if range == 0.0 {
        if rmse == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        rmse / range
    }
}

/// Peak signal-to-noise ratio (paper Eq. 1):
/// `PSNR = 20 * log10(value_range / rmse)`.
///
/// Lossless reconstruction yields `f64::INFINITY`.
pub fn psnr<T: Scalar>(original: &NdArray<T>, recon: &NdArray<T>) -> f64 {
    let m = mse(original, recon);
    let range = original.value_range();
    if m == 0.0 {
        return f64::INFINITY;
    }
    if range == 0.0 {
        return -f64::INFINITY;
    }
    20.0 * (range / m.sqrt()).log10()
}

/// Check the hard error-bound contract: every point whose original `x`
/// is finite must reconstruct to a finite `x'` with `|x - x'| <= bound`,
/// plus a slack of `bound·1e-12` for the f64 rounding of the check
/// itself. A finite input decoded as NaN or ±Inf is a violation. Points
/// whose original is NaN or ±Inf are skipped: no bound applies to them.
/// Returns the first violating linear index if any.
pub fn verify_error_bound<T: Scalar>(
    original: &NdArray<T>,
    recon: &NdArray<T>,
    bound: f64,
) -> Option<usize> {
    assert_eq!(original.shape(), recon.shape(), "shape mismatch");
    let slack = bound * 1e-12;
    original
        .as_slice()
        .iter()
        .zip(recon.as_slice())
        .position(|(a, b)| {
            a.is_finite() && !(b.is_finite() && (a.to_f64() - b.to_f64()).abs() <= bound + slack)
        })
}

/// Histogram of signed errors over `[-bound, bound]` with `bins` buckets
/// (used to regenerate Fig. 7). Out-of-range errors clamp into the edge
/// buckets so a bound violation is visible as mass at the extremes.
pub fn error_histogram<T: Scalar>(
    original: &NdArray<T>,
    recon: &NdArray<T>,
    bound: f64,
    bins: usize,
) -> Vec<u64> {
    assert!(bins >= 2, "need at least 2 bins");
    assert!(bound > 0.0, "bound must be positive");
    let mut hist = vec![0u64; bins];
    for (a, b) in original.as_slice().iter().zip(recon.as_slice()) {
        if !a.is_finite() || !b.is_finite() {
            continue;
        }
        let e = b.to_f64() - a.to_f64();
        let t = ((e + bound) / (2.0 * bound)).clamp(0.0, 1.0);
        let idx = ((t * bins as f64) as usize).min(bins - 1);
        hist[idx] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_tensor::Shape;

    fn pair() -> (NdArray<f64>, NdArray<f64>) {
        let a = NdArray::from_fn(Shape::d1(100), |i| (i[0] as f64).sin());
        let mut b = a.clone();
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.01 } else { -0.01 };
        }
        (a, b)
    }

    #[test]
    fn mse_of_constant_offset() {
        let (a, b) = pair();
        assert!((mse(&a, &b) - 1e-4).abs() < 1e-12);
        assert!((max_abs_error(&a, &b) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn psnr_matches_formula() {
        let (a, b) = pair();
        let range = a.value_range();
        let expect = 20.0 * (range / 0.01).log10();
        assert!((psnr(&a, &b) - expect).abs() < 1e-9);
    }

    #[test]
    fn psnr_infinite_when_lossless() {
        let (a, _) = pair();
        assert_eq!(psnr(&a, &a.clone()), f64::INFINITY);
    }

    #[test]
    fn nrmse_and_psnr_consistent() {
        let (a, b) = pair();
        let n = nrmse(&a, &b);
        let p = psnr(&a, &b);
        assert!((p - (-20.0 * n.log10())).abs() < 1e-9);
    }

    #[test]
    fn verify_bound_accepts_within() {
        let (a, b) = pair();
        assert_eq!(verify_error_bound(&a, &b, 0.01), None);
    }

    #[test]
    fn verify_bound_flags_violation() {
        let (a, mut b) = pair();
        b.as_mut_slice()[17] += 1.0;
        assert_eq!(verify_error_bound(&a, &b, 0.01), Some(17));
    }

    #[test]
    fn verify_bound_ignores_nan() {
        let a = NdArray::from_vec(Shape::d1(3), vec![f64::NAN, 1.0, 2.0]);
        let b = NdArray::from_vec(Shape::d1(3), vec![0.0, 1.0, 2.0]);
        assert_eq!(verify_error_bound(&a, &b, 1e-6), None);
    }

    #[test]
    fn verify_bound_flags_non_finite_reconstruction() {
        let a = NdArray::from_vec(Shape::d1(4), vec![1.0f32, 2.0, 3.0, 4.0]);
        let b = NdArray::from_vec(Shape::d1(4), vec![1.0f32, f32::NAN, 3.0, f32::INFINITY]);
        assert_eq!(verify_error_bound(&a, &b, 1e-3), Some(1));
        let b = NdArray::from_vec(Shape::d1(4), vec![1.0f32, 2.0, 3.0, f32::INFINITY]);
        assert_eq!(verify_error_bound(&a, &b, 1e-3), Some(3));
    }

    #[test]
    fn histogram_sums_to_finite_count() {
        let (a, b) = pair();
        let h = error_histogram(&a, &b, 0.01, 20);
        assert_eq!(h.iter().sum::<u64>(), 100);
        // Errors are exactly +-0.01 -> mass in the two edge buckets.
        assert_eq!(h[0], 50);
        assert_eq!(h[19], 50);
    }

    #[test]
    fn histogram_centers_small_errors() {
        let a = NdArray::from_vec(Shape::d1(4), vec![0.0f64; 4]);
        let b = NdArray::from_vec(Shape::d1(4), vec![1e-9; 4]);
        let h = error_histogram(&a, &b, 1.0, 11);
        assert_eq!(h[5], 4);
    }
}
