//! Multi-level interpolation traversal (the engine behind SZ3 and QoZ).
//!
//! The array is refined level by level. At level `l` the stride is
//! `s = 2^(l-1)`: points whose coordinates are all even multiples of `s`
//! are already reconstructed, and the level predicts every point with at
//! least one odd-multiple coordinate, one dimension at a time. After
//! level 1 completes, every point has been visited exactly once.
//!
//! The traversal is a pure function of `(shape, level, config)`; the
//! compressor and decompressor run the identical sequence of
//! `(offset, prediction)` callbacks, differing only in what they do at
//! each point (quantize vs. reconstruct). That symmetry is the error-bound
//! guarantee's foundation and is covered by tests below.

use crate::interp::{predict_line, DimOrder, InterpKind, LevelConfig};
use qoz_tensor::{Scalar, Shape, MAX_NDIM};

/// Number of interpolation levels needed to cover an array: the smallest
/// `L` (at least 1) with `2^L >= max_extent - 1`. Returns 0 only for a
/// single-point array.
pub fn max_level(shape: Shape) -> u32 {
    let m = shape.dims().iter().copied().max().unwrap_or(1);
    if m <= 1 {
        return 0;
    }
    let mut l = 1u32;
    while (1usize << l) < m - 1 {
        l += 1;
    }
    l
}

/// The grid spacing of the base (already-known) points for a traversal
/// that starts at `level`: `2^level`.
pub fn base_stride(level: u32) -> usize {
    1usize << level
}

/// Invoke `f` with the linear offset of every base-grid point: all
/// coordinates congruent to 0 modulo `stride`.
///
/// Visits points in row-major order over the base grid (last dimension
/// fastest), maintaining offsets incrementally: the inner loop advances
/// by `stride` elements (the last dimension is contiguous) and the outer
/// dimensions adjust the line offset by one stride product per step.
pub fn for_each_base_point(shape: Shape, stride: usize, mut f: impl FnMut(usize)) {
    assert!(stride > 0);
    let nd = shape.ndim();
    let last = nd - 1;
    let mut counts = [1usize; MAX_NDIM];
    for d in 0..nd {
        counts[d] = (shape.dim(d) - 1) / stride + 1;
    }
    let inner_cnt = counts[last];
    let mut idx = [0usize; MAX_NDIM];
    let mut line_off = 0usize;
    loop {
        let mut off = line_off;
        for _ in 0..inner_cnt {
            f(off);
            off += stride; // shape.stride(last) == 1
        }
        // Odometer over the outer dimensions, second-to-last fastest.
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            line_off += stride * shape.stride(d);
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
            line_off -= counts[d] * stride * shape.stride(d);
        }
    }
}

/// Number of base-grid points for a shape/stride pair.
pub fn base_point_count(shape: Shape, stride: usize) -> usize {
    (0..shape.ndim())
        .map(|d| (shape.dim(d) - 1) / stride + 1)
        .product()
}

/// Run one interpolation level over `data`.
///
/// For every point predicted on this level, `f(data, offset, prediction)`
/// is called exactly once; the callback must write the reconstructed
/// value to `data[offset]` before returning (later predictions read it).
///
/// `level >= 1`; the level stride is `2^(level-1)`.
///
/// The traversal is line-oriented: each pass walks whole contiguous
/// lines along the innermost dimension with a fused per-kernel stencil
/// (offsets maintained incrementally, no multi-index materialization).
/// The visit order and the f64 arithmetic are exactly those of the
/// original per-point odometer, so compressed streams are byte-identical
/// (pinned by `tests/golden_bitstream.rs`).
pub fn traverse_level<T: Scalar>(
    data: &mut [T],
    shape: Shape,
    level: u32,
    cfg: LevelConfig,
    f: &mut impl FnMut(&mut [T], usize, f64),
) {
    assert!(level >= 1, "levels are numbered from 1");
    assert_eq!(data.len(), shape.len(), "buffer/shape mismatch");
    let s = 1usize << (level - 1);
    let nd = shape.ndim();

    for pass in 0..nd {
        let cur = match cfg.order {
            DimOrder::Ascending => pass,
            DimOrder::Descending => nd - 1 - pass,
        };
        let n_cur = shape.dim(cur);
        // Nothing to predict along this dimension at this stride.
        if n_cur <= s {
            continue;
        }
        // Allowed coordinates per dimension for this pass: the predicted
        // dimension walks the odd multiples of `s`; dimensions refined
        // earlier in this level sit on the full stride-s grid; the rest
        // only exist on the coarse stride-2s grid.
        let mut steps = [1usize; MAX_NDIM];
        let mut counts = [1usize; MAX_NDIM];
        let mut base = 0usize; // offset of the first predicted point
        for d in 0..nd {
            let refined_earlier = match cfg.order {
                DimOrder::Ascending => d < cur,
                DimOrder::Descending => d > cur,
            };
            let (start, step) = if d == cur {
                (s, 2 * s)
            } else if refined_earlier {
                (0, s)
            } else {
                (0, 2 * s)
            };
            steps[d] = step;
            counts[d] = (shape.dim(d) - 1 - start) / step + 1;
            base += start * shape.stride(d);
        }
        pass_lines(
            data, shape, cur, s, n_cur, &steps, &counts, base, cfg.kind, f,
        );
    }
}

/// One pass of [`traverse_level`]: iterate the outer dimensions with an
/// incremental-offset odometer and run a fused kernel along each
/// contiguous inner line.
#[allow(clippy::too_many_arguments)]
fn pass_lines<T: Scalar>(
    data: &mut [T],
    shape: Shape,
    cur: usize,
    s: usize,
    n_cur: usize,
    steps: &[usize; MAX_NDIM],
    counts: &[usize; MAX_NDIM],
    base: usize,
    kind: InterpKind,
    f: &mut impl FnMut(&mut [T], usize, f64),
) {
    let nd = shape.ndim();
    let last = nd - 1;
    let contiguous = cur == last;
    let stride_cur = shape.stride(cur);
    let mut idx = [0usize; MAX_NDIM];
    let mut line_off = base;
    loop {
        if contiguous {
            line_contiguous(data, line_off, s, n_cur, counts[last], kind, f);
        } else {
            // The coordinate along `cur` is fixed for the whole line, so
            // the stencil (and its boundary degradation) is chosen once.
            let x = s * (2 * idx[cur] + 1);
            line_strided(
                data,
                line_off,
                x,
                s,
                n_cur,
                stride_cur,
                counts[last],
                steps[last],
                kind,
                f,
            );
        }
        // Odometer over the outer dimensions, second-to-last fastest.
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            line_off += steps[d] * shape.stride(d);
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
            line_off -= counts[d] * steps[d] * shape.stride(d);
        }
    }
}

/// Predict a line *along* the innermost dimension: points sit at odd
/// multiples of `s` (`x = s, 3s, 5s, ...`) with unit element stride, so
/// neighbours live at fixed relative offsets `±s`, `±3s`. The first and
/// last couple of points can lack far neighbours; they go through the
/// generic boundary-degrading [`predict_line`], the interior through a
/// branch-free fused stencil.
fn line_contiguous<T: Scalar>(
    data: &mut [T],
    line_off: usize,
    s: usize,
    n: usize,
    cnt: usize,
    kind: InterpKind,
    f: &mut impl FnMut(&mut [T], usize, f64),
) {
    let line_base = line_off - s;
    // Largest k with 2*s*k <= n-1; the full-stencil j-ranges derive from
    // it: point j sits at x = s*(2j+1), and e.g. `x + s < n` <=> `j < q`.
    let q = (n - 1) / (2 * s);
    let (lo, hi) = match kind {
        InterpKind::Linear => (0usize, q),
        InterpKind::Cubic => (1, q.saturating_sub(1)),
        InterpKind::Quadratic => (1, q),
    };
    let lo = lo.min(cnt);
    let hi = hi.clamp(lo, cnt);
    let mut j = 0usize;
    let mut off = line_off;
    while j < lo {
        let x = s * (2 * j + 1);
        let pred = predict_line(kind, x, s, n, |p| data[line_base + p].to_f64());
        f(data, off, pred);
        off += 2 * s;
        j += 1;
    }
    match kind {
        InterpKind::Linear => {
            while j < hi {
                let pred = (data[off - s].to_f64() + data[off + s].to_f64()) * 0.5;
                f(data, off, pred);
                off += 2 * s;
                j += 1;
            }
        }
        InterpKind::Cubic => {
            let s3 = 3 * s;
            while j < hi {
                let pred = (-data[off - s3].to_f64()
                    + 9.0 * data[off - s].to_f64()
                    + 9.0 * data[off + s].to_f64()
                    - data[off + s3].to_f64())
                    / 16.0;
                f(data, off, pred);
                off += 2 * s;
                j += 1;
            }
        }
        InterpKind::Quadratic => {
            let s3 = 3 * s;
            while j < hi {
                let pred = (-data[off - s3].to_f64()
                    + 6.0 * data[off - s].to_f64()
                    + 3.0 * data[off + s].to_f64())
                    / 8.0;
                f(data, off, pred);
                off += 2 * s;
                j += 1;
            }
        }
    }
    while j < cnt {
        let x = s * (2 * j + 1);
        let pred = predict_line(kind, x, s, n, |p| data[line_base + p].to_f64());
        f(data, off, pred);
        off += 2 * s;
        j += 1;
    }
}

/// Predict a contiguous line *across* the interpolated dimension: every
/// point on the line shares the same coordinate `x` along `cur`, so one
/// stencil (with neighbours at fixed offsets `±s*stride_cur`,
/// `±3s*stride_cur`) applies to the whole run. `x >= s` always holds
/// (predicted coordinates start at `s`), so only the right boundary can
/// degrade the kernel.
#[allow(clippy::too_many_arguments)]
fn line_strided<T: Scalar>(
    data: &mut [T],
    line_off: usize,
    x: usize,
    s: usize,
    n_cur: usize,
    stride_cur: usize,
    cnt: usize,
    step: usize,
    kind: InterpKind,
    f: &mut impl FnMut(&mut [T], usize, f64),
) {
    let d1 = s * stride_cur;
    let d3 = 3 * s * stride_cur;
    let mut off = line_off;
    if x + s < n_cur {
        let has_left2 = x >= 3 * s;
        match kind {
            InterpKind::Cubic if has_left2 && x + 3 * s < n_cur => {
                for _ in 0..cnt {
                    let pred = (-data[off - d3].to_f64()
                        + 9.0 * data[off - d1].to_f64()
                        + 9.0 * data[off + d1].to_f64()
                        - data[off + d3].to_f64())
                        / 16.0;
                    f(data, off, pred);
                    off += step;
                }
            }
            InterpKind::Quadratic if has_left2 => {
                for _ in 0..cnt {
                    let pred = (-data[off - d3].to_f64()
                        + 6.0 * data[off - d1].to_f64()
                        + 3.0 * data[off + d1].to_f64())
                        / 8.0;
                    f(data, off, pred);
                    off += step;
                }
            }
            _ => {
                for _ in 0..cnt {
                    let pred = (data[off - d1].to_f64() + data[off + d1].to_f64()) * 0.5;
                    f(data, off, pred);
                    off += step;
                }
            }
        }
    } else {
        // No right neighbour at this stride: copy the left one.
        for _ in 0..cnt {
            let pred = data[off - d1].to_f64();
            f(data, off, pred);
            off += step;
        }
    }
}

/// Total number of points predicted on `level` (useful for sizing and for
/// the per-level error-bound bookkeeping in QoZ).
///
/// Closed form: each pass contributes the product of its per-dimension
/// coordinate counts — no buffer allocation, no shadow traversal.
pub fn level_point_count(shape: Shape, level: u32, cfg: LevelConfig) -> usize {
    assert!(level >= 1, "levels are numbered from 1");
    let s = 1usize << (level - 1);
    let nd = shape.ndim();
    let mut total = 0usize;
    for pass in 0..nd {
        let cur = match cfg.order {
            DimOrder::Ascending => pass,
            DimOrder::Descending => nd - 1 - pass,
        };
        if shape.dim(cur) <= s {
            continue;
        }
        let mut prod = 1usize;
        for d in 0..nd {
            let n = shape.dim(d);
            let refined_earlier = match cfg.order {
                DimOrder::Ascending => d < cur,
                DimOrder::Descending => d > cur,
            };
            prod *= if d == cur {
                (n - 1 - s) / (2 * s) + 1
            } else if refined_earlier {
                (n - 1) / s + 1
            } else {
                (n - 1) / (2 * s) + 1
            };
        }
        total += prod;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{DimOrder, InterpKind};
    use qoz_tensor::NdArray;

    fn full_traversal_offsets(shape: Shape, cfg: LevelConfig, start_level: u32) -> Vec<usize> {
        let mut visited = Vec::new();
        let mut data = vec![0f64; shape.len()];
        for level in (1..=start_level).rev() {
            traverse_level(&mut data, shape, level, cfg, &mut |_, off, _| {
                visited.push(off)
            });
        }
        visited
    }

    #[test]
    fn max_level_values() {
        assert_eq!(max_level(Shape::d1(1)), 0);
        assert_eq!(max_level(Shape::d1(2)), 1);
        assert_eq!(max_level(Shape::d1(9)), 3);
        assert_eq!(max_level(Shape::d1(10)), 4);
        assert_eq!(max_level(Shape::d2(9, 100)), 7);
        assert_eq!(max_level(Shape::d3(5, 5, 33)), 5);
    }

    #[test]
    fn coverage_exact_once_2d() {
        let shape = Shape::d2(9, 9);
        let l = max_level(shape);
        let stride = base_stride(l);
        let mut base = Vec::new();
        for_each_base_point(shape, stride, |off| base.push(off));
        assert_eq!(base.len(), 4); // corners of the 8-grid

        let cfg = LevelConfig::default();
        let mut seen = vec![0u32; shape.len()];
        for &b in &base {
            seen[b] += 1;
        }
        for off in full_traversal_offsets(shape, cfg, l) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage not exactly-once");
    }

    #[test]
    fn coverage_exact_once_3d_non_pow2() {
        let shape = Shape::d3(7, 10, 5);
        let l = max_level(shape);
        let stride = base_stride(l);
        for cfg in LevelConfig::candidates() {
            let mut seen = vec![0u32; shape.len()];
            for_each_base_point(shape, stride, |off| seen[off] += 1);
            for off in full_traversal_offsets(shape, cfg, l) {
                seen[off] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "coverage failure for {cfg:?}");
        }
    }

    #[test]
    fn coverage_exact_once_1d() {
        let shape = Shape::d1(100);
        let l = max_level(shape);
        let mut seen = vec![0u32; shape.len()];
        for_each_base_point(shape, base_stride(l), |off| seen[off] += 1);
        for off in full_traversal_offsets(shape, LevelConfig::default(), l) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn anchored_traversal_covers_with_small_levels() {
        // QoZ-style: anchors every 8, levels 3..1 only.
        let shape = Shape::d2(33, 17);
        let anchor = 8usize;
        let mut seen = vec![0u32; shape.len()];
        for_each_base_point(shape, anchor, |off| seen[off] += 1);
        for off in full_traversal_offsets(shape, LevelConfig::default(), 3) {
            seen[off] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn linear_traversal_reconstructs_affine_exactly() {
        // f(x,y) = 3x + 2y is exactly reproduced by linear interpolation:
        // predictions match true values, so writing predictions directly
        // (lossless "compression") must regenerate the field.
        let shape = Shape::d2(17, 17);
        let truth = NdArray::from_fn(shape, |i| 3.0 * i[0] as f64 + 2.0 * i[1] as f64);
        let l = max_level(shape);
        let mut data = vec![0f64; shape.len()];
        for_each_base_point(shape, base_stride(l), |off| {
            data[off] = truth.as_slice()[off];
        });
        let cfg = LevelConfig {
            kind: InterpKind::Linear,
            order: DimOrder::Ascending,
        };
        for level in (1..=l).rev() {
            traverse_level(&mut data, shape, level, cfg, &mut |d, off, pred| {
                d[off] = pred;
            });
        }
        for (a, b) in data.iter().zip(truth.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn traversal_is_deterministic_across_runs() {
        let shape = Shape::d3(9, 8, 11);
        let cfg = LevelConfig {
            kind: InterpKind::Cubic,
            order: DimOrder::Descending,
        };
        let a = full_traversal_offsets(shape, cfg, max_level(shape));
        let b = full_traversal_offsets(shape, cfg, max_level(shape));
        assert_eq!(a, b);
    }

    #[test]
    fn orders_visit_same_set_differently() {
        let shape = Shape::d2(9, 9);
        let asc = full_traversal_offsets(
            shape,
            LevelConfig {
                kind: InterpKind::Linear,
                order: DimOrder::Ascending,
            },
            max_level(shape),
        );
        let desc = full_traversal_offsets(
            shape,
            LevelConfig {
                kind: InterpKind::Linear,
                order: DimOrder::Descending,
            },
            max_level(shape),
        );
        assert_ne!(asc, desc, "orders should differ in sequence");
        let mut a = asc.clone();
        let mut d = desc.clone();
        a.sort_unstable();
        d.sort_unstable();
        assert_eq!(a, d, "orders must cover the same point set");
    }

    #[test]
    fn level_point_counts_sum_to_total() {
        let shape = Shape::d2(9, 9);
        let l = max_level(shape);
        let cfg = LevelConfig::default();
        let total: usize = (1..=l).map(|lev| level_point_count(shape, lev, cfg)).sum();
        assert_eq!(total + base_point_count(shape, base_stride(l)), shape.len());
    }

    #[test]
    fn level_point_count_matches_shadow_traversal() {
        // The closed form must agree with an actual traversal (the old
        // implementation counted by traversing a zero buffer).
        let shapes = [
            Shape::d1(1),
            Shape::d1(2),
            Shape::d1(100),
            Shape::d2(9, 9),
            Shape::d2(33, 17),
            Shape::d2(1, 50),
            Shape::d3(7, 10, 5),
            Shape::d3(2, 2, 2),
            Shape::new(&[3, 5, 4, 6]),
        ];
        for shape in shapes {
            for cfg in LevelConfig::candidates() {
                for level in 1..=max_level(shape).max(1) + 1 {
                    let mut n = 0usize;
                    let mut dummy = vec![0f32; shape.len()];
                    traverse_level(&mut dummy, shape, level, cfg, &mut |_, _, _| n += 1);
                    assert_eq!(
                        level_point_count(shape, level, cfg),
                        n,
                        "closed form diverged for {shape:?} level {level} {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lowest_level_holds_majority_of_points() {
        // Paper: level 1 holds 75% of points in 2D, 87.5% in 3D.
        let shape = Shape::d2(65, 65);
        let cfg = LevelConfig::default();
        let l1 = level_point_count(shape, 1, cfg);
        let frac = l1 as f64 / shape.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "level-1 fraction {frac}");

        let shape3 = Shape::d3(33, 33, 33);
        let l1 = level_point_count(shape3, 1, cfg);
        let frac = l1 as f64 / shape3.len() as f64;
        assert!((frac - 0.875).abs() < 0.03, "level-1 fraction 3D {frac}");
    }
}
