//! Owned dense row-major arrays.

use crate::region::Region;
use crate::scalar::Scalar;
use crate::shape::Shape;

/// An owned, dense, row-major N-dimensional array.
///
/// This is the unit of compression throughout the workspace: compressors
/// take an `&NdArray<T>` and produce one on decompression. The element type
/// is any [`Scalar`] (`f32` or `f64`).
#[derive(Clone, Debug, PartialEq)]
pub struct NdArray<T: Scalar> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Scalar> NdArray<T> {
    /// Create a zero-filled array.
    pub fn zeros(shape: Shape) -> Self {
        NdArray {
            shape,
            data: vec![T::zero(); shape.len()],
        }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        NdArray { shape, data }
    }

    /// Build an array by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for idx in shape.indices() {
            data.push(f(&idx[..shape.ndim()]));
        }
        NdArray { shape, data }
    }

    /// The array's shape.
    #[inline(always)]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array holds no elements (never, by construction).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the underlying buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view of the underlying buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the array, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// The elements' raw little-endian bytes, `len() * T::BYTES` of
    /// them in row-major order: the wire and file form of an array.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.data.len() * T::BYTES];
        for (dst, &v) in out.chunks_exact_mut(T::BYTES).zip(&self.data) {
            dst.copy_from_slice(v.le_bytes().as_ref());
        }
        out
    }

    /// Rebuild an array of `shape` from raw little-endian bytes (inverse
    /// of [`NdArray::to_le_bytes`], bit for bit). `None` unless `bytes`
    /// holds exactly `shape.len()` elements.
    pub fn from_le_bytes(shape: Shape, bytes: &[u8]) -> Option<Self> {
        if shape.len().checked_mul(T::BYTES) != Some(bytes.len()) {
            return None;
        }
        let data = bytes.chunks_exact(T::BYTES).map(T::from_le_slice).collect();
        Some(NdArray { shape, data })
    }

    /// Reshape in place to `shape`, resetting every element to zero and
    /// reusing the existing allocation when capacity allows — the
    /// destination-side half of a zero-allocation decode loop. Returns
    /// `true` when the backing buffer had to grow.
    pub fn reset_zeros(&mut self, shape: Shape) -> bool {
        let grew = shape.len() > self.data.capacity();
        self.data.clear();
        self.data.resize(shape.len(), T::zero());
        self.shape = shape;
        grew
    }

    /// Element at a multi-index.
    #[inline(always)]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Overwrite the element at a multi-index.
    #[inline(always)]
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// Minimum and maximum over all finite elements.
    ///
    /// Returns `None` when the array contains no finite values.
    pub fn finite_min_max(&self) -> Option<(T, T)> {
        let mut it = self.data.iter().copied().filter(|v| v.is_finite());
        let first = it.next()?;
        let mut min = first;
        let mut max = first;
        for v in it {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        Some((min, max))
    }

    /// `max - min` over finite elements as `f64`; 0.0 for constant or
    /// all-non-finite arrays.
    pub fn value_range(&self) -> f64 {
        match self.finite_min_max() {
            Some((lo, hi)) => hi.to_f64() - lo.to_f64(),
            None => 0.0,
        }
    }

    /// Copy the elements inside `region` into a fresh, dense array whose
    /// shape equals the region's size.
    pub fn extract_region(&self, region: &Region) -> NdArray<T> {
        region.validate(self.shape);
        let sub_shape = Shape::new(region.size());
        let row = region.size()[sub_shape.ndim() - 1];
        let mut out = Vec::with_capacity(sub_shape.len());
        for_each_row(self.shape, region, |off| {
            out.extend_from_slice(&self.data[off..off + row]);
        });
        NdArray::from_vec(sub_shape, out)
    }

    /// Write a dense block back into `region` (inverse of
    /// [`NdArray::extract_region`]).
    pub fn insert_region(&mut self, region: &Region, block: &NdArray<T>) {
        region.validate(self.shape);
        assert_eq!(
            block.shape().dims(),
            region.size(),
            "block shape does not match region size"
        );
        let row = region.size()[region.ndim() - 1];
        let mut rows = block.data.chunks_exact(row);
        for_each_row(self.shape, region, |off| {
            let src = rows.next().expect("one block row per region row");
            self.data[off..off + row].copy_from_slice(src);
        });
    }

    /// Maximum absolute pointwise difference against another array of the
    /// same shape, in `f64`.
    pub fn max_abs_diff(&self, other: &NdArray<T>) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// Call `f` with the flat offset in an array of `shape` of the first
/// element of every row of `region`, in row-major order. A row runs
/// along the last dimension; the outer dimensions advance as an
/// odometer, one add per row.
fn for_each_row(shape: Shape, region: &Region, mut f: impl FnMut(usize)) {
    let outer = shape.ndim() - 1;
    let (size, strides) = (region.size(), shape.strides());
    let mut idx = [0usize; crate::MAX_NDIM];
    let mut off = shape.offset(region.origin());
    'rows: loop {
        f(off);
        for d in (0..outer).rev() {
            idx[d] += 1;
            off += strides[d];
            if idx[d] < size[d] {
                continue 'rows;
            }
            idx[d] = 0;
            off -= size[d] * strides[d];
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_array(shape: Shape) -> NdArray<f64> {
        let mut k = 0.0;
        NdArray::from_fn(shape, |_| {
            k += 1.0;
            k
        })
    }

    #[test]
    fn zeros_has_right_len() {
        let a = NdArray::<f32>::zeros(Shape::d3(2, 3, 4));
        assert_eq!(a.len(), 24);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = NdArray::<f64>::zeros(Shape::d2(3, 4));
        a.set(&[1, 2], 7.5);
        assert_eq!(a.get(&[1, 2]), 7.5);
        assert_eq!(a.as_slice()[4 + 2], 7.5);
    }

    #[test]
    fn from_fn_row_major() {
        let a = NdArray::from_fn(Shape::d2(2, 2), |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn min_max_skips_non_finite() {
        let a = NdArray::from_vec(Shape::d1(4), vec![f32::NAN, -2.0, 5.0, f32::INFINITY]);
        assert_eq!(a.finite_min_max(), Some((-2.0, 5.0)));
        assert_eq!(a.value_range(), 7.0);
    }

    #[test]
    fn value_range_constant_is_zero() {
        let a = NdArray::from_vec(Shape::d1(3), vec![4.0f64; 3]);
        assert_eq!(a.value_range(), 0.0);
    }

    /// The per-element `extract_region`: one multi-index offset per
    /// element. The oracle for the row copies.
    fn extract_region_per_element(a: &NdArray<f64>, region: &Region) -> NdArray<f64> {
        region.validate(a.shape);
        let sub_shape = Shape::new(region.size());
        let mut out = Vec::with_capacity(sub_shape.len());
        for idx in sub_shape.indices() {
            let mut src = [0usize; crate::MAX_NDIM];
            for d in 0..a.shape.ndim() {
                src[d] = region.origin()[d] + idx[d];
            }
            out.push(a.data[a.shape.offset(&src[..a.shape.ndim()])]);
        }
        NdArray::from_vec(sub_shape, out)
    }

    /// The per-element `insert_region`, the oracle for the row copies.
    fn insert_region_per_element(a: &mut NdArray<f64>, region: &Region, block: &NdArray<f64>) {
        region.validate(a.shape);
        assert_eq!(block.shape().dims(), region.size());
        for (i, idx) in block.shape().indices().enumerate() {
            let mut dst = [0usize; crate::MAX_NDIM];
            for d in 0..a.shape.ndim() {
                dst[d] = region.origin()[d] + idx[d];
            }
            let off = a.shape.offset(&dst[..a.shape.ndim()]);
            a.data[off] = block.data[i];
        }
    }

    /// Every region whose extent in each dimension is one of: the whole
    /// axis, its first or last element, a half touching either edge, or
    /// the interior.
    fn edge_regions(shape: Shape) -> Vec<Region> {
        let spans: Vec<Vec<(usize, usize)>> = shape
            .dims()
            .iter()
            .map(|&n| {
                let mut v = vec![
                    (0, n),
                    (0, 1),
                    (n - 1, 1),
                    (0, n.div_ceil(2)),
                    (n / 2, n - n / 2),
                ];
                if n >= 3 {
                    v.push((1, n - 2));
                }
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let count: usize = spans.iter().map(Vec::len).product();
        (0..count)
            .map(|mut k| {
                let (mut origin, mut size) = (Vec::new(), Vec::new());
                for dim in &spans {
                    let (o, s) = dim[k % dim.len()];
                    k /= dim.len();
                    origin.push(o);
                    size.push(s);
                }
                Region::new(&origin, &size)
            })
            .collect()
    }

    /// Region copies move exactly the elements of the per-element
    /// oracles, on rank 1–4 shapes: single elements, whole arrays and
    /// regions touching each edge.
    #[test]
    fn extract_insert_region_roundtrip() {
        let a = seq_array(Shape::d2(4, 5));
        let r = Region::new(&[1, 2], &[2, 3]);
        let block = a.extract_region(&r);
        assert_eq!(block.shape().dims(), &[2, 3]);
        assert_eq!(block.get(&[0, 0]), a.get(&[1, 2]));
        assert_eq!(block.get(&[1, 2]), a.get(&[2, 4]));

        let mut b = NdArray::<f64>::zeros(Shape::d2(4, 5));
        b.insert_region(&r, &block);
        assert_eq!(b.get(&[2, 4]), a.get(&[2, 4]));
        assert_eq!(b.get(&[0, 0]), 0.0);

        let shapes = [
            Shape::d1(1),
            Shape::d1(7),
            Shape::d2(1, 1),
            Shape::d2(4, 5),
            Shape::d3(3, 1, 4),
            Shape::d3(4, 5, 6),
            Shape::new(&[1, 1, 1, 1]),
            Shape::new(&[3, 4, 2, 5]),
        ];
        for shape in shapes {
            let a = seq_array(shape);
            for region in edge_regions(shape) {
                let block = a.extract_region(&region);
                let oracle = extract_region_per_element(&a, &region);
                assert_eq!(block, oracle, "{region:?} of {shape:?}");
                let neg = NdArray::from_vec(block.shape(), block.data.iter().map(|v| -v).collect());
                let mut rows = a.clone();
                rows.insert_region(&region, &neg);
                let mut oracle = a.clone();
                insert_region_per_element(&mut oracle, &region, &neg);
                assert_eq!(rows, oracle, "{region:?} into {shape:?}");
            }
        }
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = seq_array(Shape::d1(5));
        let mut b = a.clone();
        b.set(&[3], b.get(&[3]) + 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    /// Values whose bits a careless conversion loses: NaN payloads of
    /// both signs, −0.0, the smallest and largest subnormals, ±MAX, ±∞.
    fn awkward_f32() -> Vec<f32> {
        vec![
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFFA0_BEEF),
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -12.625,
        ]
    }

    fn awkward_f64() -> Vec<f64> {
        vec![
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF4_0000_DEAD_BEEF),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ]
    }

    #[test]
    fn le_bytes_roundtrip_is_bit_exact() {
        let vals = awkward_f32();
        let a = NdArray::from_vec(Shape::d2(3, 4), vals.clone());
        let bytes = a.to_le_bytes();
        let oracle: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, oracle);
        let back = NdArray::<f32>::from_le_bytes(a.shape(), &bytes).unwrap();
        assert_eq!(back.shape(), a.shape());
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.as_slice()), bits(&vals));

        let vals = awkward_f64();
        let a = NdArray::from_vec(Shape::d3(2, 3, 2), vals.clone());
        let bytes = a.to_le_bytes();
        let oracle: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, oracle);
        let back = NdArray::<f64>::from_le_bytes(a.shape(), &bytes).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.as_slice()), bits(&vals));
    }

    #[test]
    fn from_le_bytes_refuses_a_count_that_disagrees_with_the_shape() {
        let shape = Shape::d2(3, 4);
        let bytes = NdArray::<f64>::zeros(shape).to_le_bytes();
        assert!(NdArray::<f64>::from_le_bytes(shape, &bytes).is_some());
        assert!(NdArray::<f32>::from_le_bytes(shape, &bytes[..48]).is_some());
        // Empty input: no shape has zero elements.
        assert!(NdArray::<f32>::from_le_bytes(Shape::d1(1), &[]).is_none());
        for n in [0, 1, 47, 49, 95] {
            let cut = &bytes[..n];
            assert!(NdArray::<f32>::from_le_bytes(shape, cut).is_none(), "{n} B");
            assert!(NdArray::<f64>::from_le_bytes(shape, cut).is_none(), "{n} B");
        }
        let long = [bytes.as_slice(), &[0]].concat();
        assert!(NdArray::<f64>::from_le_bytes(shape, &long).is_none());
        assert!(NdArray::<f64>::from_le_bytes(Shape::d2(4, 4), &bytes).is_none());
    }

    #[test]
    #[should_panic]
    fn from_vec_len_mismatch_panics() {
        let _ = NdArray::from_vec(Shape::d1(3), vec![1.0f32; 4]);
    }
}
