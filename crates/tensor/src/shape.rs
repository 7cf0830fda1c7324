//! Dimension and stride bookkeeping.
//!
//! A [`Shape`] describes a dense row-major array of up to [`MAX_NDIM`]
//! dimensions. It pre-computes strides so compressors can translate between
//! multi-indices and linear offsets without repeated multiplication chains.

/// Maximum number of dimensions supported by the workspace.
///
/// The paper evaluates 2D and 3D scientific data; 1D is needed for the
/// innermost interpolation passes and 4D headroom covers time-varying 3D
/// fields treated as independent snapshots.
pub const MAX_NDIM: usize = 4;

/// Largest element count [`Shape::try_new`] accepts (2^36, ~275 GB of
/// f32). Shapes read from bytes (stream headers, plan files, archive
/// TOCs, wire requests) are plaintext anyone can edit, and decoders
/// size allocations from them, so anything larger is corruption.
pub const MAX_ELEMS: u64 = 1 << 36;

/// The dimensions (and derived strides) of a dense row-major array.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_NDIM],
    strides: [usize; MAX_NDIM],
    ndim: usize,
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl Shape {
    /// Create a shape from a dimension list.
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than [`MAX_NDIM`], or contains a
    /// zero extent — none of those describe a compressible array.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_NDIM,
            "shape must have 1..={MAX_NDIM} dims, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-extent dimension in {dims:?}"
        );
        let mut d = [1usize; MAX_NDIM];
        d[..dims.len()].copy_from_slice(dims);
        let mut strides = [1usize; MAX_NDIM];
        // Row-major: the last dimension is contiguous.
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * d[i + 1];
        }
        Shape {
            dims: d,
            strides,
            ndim: dims.len(),
        }
    }

    /// [`Shape::new`] for dimensions read from untrusted bytes: `None`
    /// instead of a panic (or a wrapped stride product) when the rank is
    /// out of range, an extent is zero, or the element count overflows
    /// or exceeds [`MAX_ELEMS`].
    pub fn try_new(dims: &[usize]) -> Option<Self> {
        if dims.is_empty() || dims.len() > MAX_NDIM || dims.contains(&0) {
            return None;
        }
        let elems = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))?;
        // Every stride divides the element count, so `new` cannot
        // overflow below the cap.
        (elems as u64 <= MAX_ELEMS).then(|| Shape::new(dims))
    }

    /// 1D convenience constructor.
    pub fn d1(n: usize) -> Self {
        Shape::new(&[n])
    }
    /// 2D convenience constructor (`rows`, `cols`).
    pub fn d2(r: usize, c: usize) -> Self {
        Shape::new(&[r, c])
    }
    /// 3D convenience constructor.
    pub fn d3(a: usize, b: usize, c: usize) -> Self {
        Shape::new(&[a, b, c])
    }

    /// Number of dimensions.
    #[inline(always)]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Extents of each dimension.
    #[inline(always)]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim]
    }

    /// Extent of dimension `d`.
    #[inline(always)]
    pub fn dim(&self, d: usize) -> usize {
        debug_assert!(d < self.ndim);
        self.dims[d]
    }

    /// Row-major strides of each dimension, in elements.
    #[inline(always)]
    pub fn strides(&self) -> &[usize] {
        &self.strides[..self.ndim]
    }

    /// Stride of dimension `d`, in elements.
    #[inline(always)]
    pub fn stride(&self, d: usize) -> usize {
        debug_assert!(d < self.ndim);
        self.strides[d]
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// `true` when the shape has no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear row-major offset of a multi-index.
    ///
    /// `idx.len()` must equal `ndim`; each component must be in range
    /// (checked in debug builds).
    #[inline(always)]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim);
        let mut off = 0;
        for d in 0..self.ndim {
            debug_assert!(
                idx[d] < self.dims[d],
                "index {idx:?} out of bounds for {self:?}"
            );
            off += idx[d] * self.strides[d];
        }
        off
    }

    /// Inverse of [`Shape::offset`]: the multi-index of a linear offset.
    pub fn multi_index(&self, mut off: usize) -> [usize; MAX_NDIM] {
        debug_assert!(off < self.len());
        let mut idx = [0usize; MAX_NDIM];
        for d in 0..self.ndim {
            idx[d] = off / self.strides[d];
            off %= self.strides[d];
        }
        idx
    }

    /// Iterate over all multi-indices in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: *self,
            next: [0; MAX_NDIM],
            remaining: self.len(),
        }
    }
}

/// Row-major iterator over the multi-indices of a [`Shape`].
pub struct IndexIter {
    shape: Shape,
    next: [usize; MAX_NDIM],
    remaining: usize,
}

impl Iterator for IndexIter {
    type Item = [usize; MAX_NDIM];

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.next;
        self.remaining -= 1;
        // Increment like an odometer, last dimension fastest.
        for d in (0..self.shape.ndim()).rev() {
            self.next[d] += 1;
            if self.next[d] < self.shape.dim(d) {
                break;
            }
            self.next[d] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for IndexIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_caps_the_element_count() {
        assert_eq!(Shape::try_new(&[4, 5, 6]), Some(Shape::d3(4, 5, 6)));
        assert_eq!(
            Shape::try_new(&[16, 1 << 32]).map(|s| s.len()),
            Some(1 << 36)
        );
        for dims in [
            &[32, 1 << 32][..],
            &[4096; 4],
            &[1, 1 << 32, 1 << 32],
            &[usize::MAX, 2],
            &[],
            &[3, 0],
            &[1; MAX_NDIM + 1],
        ] {
            assert_eq!(Shape::try_new(dims), None, "{dims:?}");
        }
    }

    #[test]
    fn strides_row_major_3d() {
        let s = Shape::d3(4, 5, 6);
        assert_eq!(s.strides(), &[30, 6, 1]);
        assert_eq!(s.len(), 120);
    }

    #[test]
    fn strides_2d_and_1d() {
        assert_eq!(Shape::d2(7, 3).strides(), &[3, 1]);
        assert_eq!(Shape::d1(9).strides(), &[1]);
    }

    #[test]
    fn offset_roundtrips_multi_index() {
        let s = Shape::d3(3, 4, 5);
        for off in 0..s.len() {
            let idx = s.multi_index(off);
            assert_eq!(s.offset(&idx[..3]), off);
        }
    }

    #[test]
    fn index_iter_visits_all_in_order() {
        let s = Shape::d2(2, 3);
        let v: Vec<_> = s.indices().map(|i| (i[0], i[1])).collect();
        assert_eq!(v, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn index_iter_len_matches() {
        let s = Shape::d3(3, 2, 4);
        assert_eq!(s.indices().count(), s.len());
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[4, 0, 2]);
    }

    #[test]
    #[should_panic]
    fn too_many_dims_rejected() {
        let _ = Shape::new(&[2, 2, 2, 2, 2]);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Shape::d2(2, 3)), "Shape[2, 3]");
    }
}
