//! Rectangular sub-boxes of an array.
//!
//! Regions describe anchor-point blocks and sampled blocks without copying
//! data. A region is an origin plus a size in each dimension; both use the
//! dimensionality of the array they index into.

use crate::shape::{Shape, MAX_NDIM};

/// A rectangular, axis-aligned box inside an [`crate::NdArray`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    origin: [usize; MAX_NDIM],
    size: [usize; MAX_NDIM],
    ndim: usize,
}

impl Region {
    /// Create a region at `origin` with the given `size`.
    ///
    /// # Panics
    /// Panics if lengths mismatch, exceed [`MAX_NDIM`], or any extent is 0.
    pub fn new(origin: &[usize], size: &[usize]) -> Self {
        assert_eq!(origin.len(), size.len(), "origin/size rank mismatch");
        assert!(
            !size.is_empty() && size.len() <= MAX_NDIM,
            "region rank out of range"
        );
        assert!(size.iter().all(|&s| s > 0), "zero-extent region");
        let mut o = [0usize; MAX_NDIM];
        let mut s = [1usize; MAX_NDIM];
        o[..origin.len()].copy_from_slice(origin);
        s[..size.len()].copy_from_slice(size);
        Region {
            origin: o,
            size: s,
            ndim: size.len(),
        }
    }

    /// Region covering an entire shape.
    pub fn full(shape: Shape) -> Self {
        Region::new(&vec![0; shape.ndim()], shape.dims())
    }

    /// The region's rank.
    #[inline(always)]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Starting index in each dimension.
    #[inline(always)]
    pub fn origin(&self) -> &[usize] {
        &self.origin[..self.ndim]
    }

    /// Extent in each dimension.
    #[inline(always)]
    pub fn size(&self) -> &[usize] {
        &self.size[..self.ndim]
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.size().iter().product()
    }

    /// `true` when the region covers no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Panic unless the region fits inside `shape` with matching rank.
    pub fn validate(&self, shape: Shape) {
        assert_eq!(self.ndim, shape.ndim(), "region rank != array rank");
        for d in 0..self.ndim {
            assert!(
                self.origin[d] + self.size[d] <= shape.dim(d),
                "region {:?}+{:?} exceeds shape {:?} in dim {}",
                self.origin(),
                self.size(),
                shape,
                d
            );
        }
    }

    /// Clip this region to another, returning the overlap.
    ///
    /// Both regions must have the same rank (coordinates are in the same
    /// array's index space). Returns `None` when they do not overlap in
    /// some dimension — regions are half-open boxes `[origin,
    /// origin+size)`, so mere edge adjacency is *not* an overlap.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.ndim, other.ndim, "region rank mismatch");
        let mut origin = [0usize; MAX_NDIM];
        let mut size = [1usize; MAX_NDIM];
        for d in 0..self.ndim {
            let lo = self.origin[d].max(other.origin[d]);
            // Saturating: a half-open box clipped at usize::MAX cannot
            // extend past it, so saturation never invents an overlap —
            // while wrapping addition would fabricate or drop one.
            let hi = self.origin[d]
                .saturating_add(self.size[d])
                .min(other.origin[d].saturating_add(other.size[d]));
            if lo >= hi {
                return None;
            }
            origin[d] = lo;
            size[d] = hi - lo;
        }
        Some(Region {
            origin,
            size,
            ndim: self.ndim,
        })
    }

    /// Number of blocks [`Region::tile`] cuts `shape` into, without
    /// building them (decoders compare it with a stream's counts before
    /// allocating anything for a declared shape).
    pub fn tile_count(shape: Shape, block: usize) -> usize {
        assert!(block > 0, "block size must be positive");
        shape.dims().iter().map(|&d| d.div_ceil(block)).product()
    }

    /// Split a shape into a grid of regions of at most `block` elements
    /// per side. This is the anchor-block partitioning used by QoZ and
    /// the chunk grid of `qoz_archive`.
    ///
    /// Edge behaviour (relied upon by the archive chunk index):
    ///
    /// * The grid has `ceil(dim / block)` regions along each dimension —
    ///   every element is covered by exactly one region.
    /// * Interior regions are exactly `block` long per side; only the
    ///   *last* region along a dimension shrinks to `dim % block` when
    ///   the extent does not divide evenly (it is never 0).
    /// * A `block` larger than every extent yields a single region equal
    ///   to `Region::full(shape)`; `block == 1` yields one region per
    ///   element.
    /// * Regions are returned in row-major order of their grid position,
    ///   so the k-th region's grid coordinate is `grid.multi_index(k)`
    ///   where `grid` is the shape of per-dimension counts. Callers may
    ///   index chunk tables by this ordering.
    pub fn tile(shape: Shape, block: usize) -> Vec<Region> {
        assert!(block > 0, "block size must be positive");
        let nd = shape.ndim();
        let counts: Vec<usize> = (0..nd).map(|d| shape.dim(d).div_ceil(block)).collect();
        let grid = Shape::new(&counts);
        let mut out = Vec::with_capacity(grid.len());
        for gidx in grid.indices() {
            let mut origin = vec![0usize; nd];
            let mut size = vec![0usize; nd];
            for d in 0..nd {
                origin[d] = gidx[d] * block;
                size[d] = block.min(shape.dim(d) - origin[d]);
            }
            out.push(Region::new(&origin, &size));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_region_covers_shape() {
        let s = Shape::d3(3, 4, 5);
        let r = Region::full(s);
        assert_eq!(r.len(), s.len());
        r.validate(s);
    }

    #[test]
    fn tile_covers_exactly_once() {
        let s = Shape::d2(10, 7);
        let tiles = Region::tile(s, 4);
        // 3 x 2 grid.
        assert_eq!(tiles.len(), 6);
        let total: usize = tiles.iter().map(|r| r.len()).sum();
        assert_eq!(total, s.len());
        // Edge tiles shrink.
        assert_eq!(tiles.last().unwrap().size(), &[2, 3]);
    }

    #[test]
    fn tile_block_larger_than_shape() {
        let s = Shape::d2(3, 3);
        let tiles = Region::tile(s, 16);
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].size(), &[3, 3]);
    }

    #[test]
    #[should_panic]
    fn oversized_region_fails_validation() {
        Region::new(&[2, 2], &[3, 3]).validate(Shape::d2(4, 4));
    }

    #[test]
    #[should_panic]
    fn rank_mismatch_fails_validation() {
        Region::new(&[0], &[2]).validate(Shape::d2(4, 4));
    }

    #[test]
    fn tile_3d_counts() {
        let s = Shape::d3(8, 8, 8);
        assert_eq!(Region::tile(s, 4).len(), 8);
    }

    /// Every element is covered exactly once, whatever the divisibility.
    fn assert_exact_cover(shape: Shape, block: usize) {
        let tiles = Region::tile(shape, block);
        let mut seen = vec![0u32; shape.len()];
        for t in &tiles {
            t.validate(shape);
            let sub = Shape::new(t.size());
            for idx in sub.indices() {
                let mut g = [0usize; MAX_NDIM];
                for d in 0..shape.ndim() {
                    g[d] = t.origin()[d] + idx[d];
                }
                seen[shape.offset(&g[..shape.ndim()])] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "tile({shape:?}, {block}) does not cover exactly once"
        );
    }

    #[test]
    fn tile_non_divisible_shapes_cover_exactly() {
        // Prime extents against a non-dividing block: every interior
        // region is full-sized, only the trailing ones shrink.
        let s = Shape::d2(13, 7);
        assert_exact_cover(s, 5);
        let tiles = Region::tile(s, 5);
        assert_eq!(tiles.len(), 3 * 2);
        assert_eq!(tiles[0].size(), &[5, 5]);
        assert_eq!(tiles.last().unwrap().size(), &[3, 2]); // 13%5, 7%5
        assert_exact_cover(Shape::d3(9, 10, 11), 4);
    }

    #[test]
    fn tile_rank4_grid() {
        let s = Shape::new(&[5, 4, 6, 3]);
        let tiles = Region::tile(s, 3);
        // ceil(5/3)*ceil(4/3)*ceil(6/3)*ceil(3/3) = 2*2*2*1.
        assert_eq!(tiles.len(), 8);
        assert_exact_cover(s, 3);
        // Row-major grid order: the last tile sits at the high corner.
        assert_eq!(tiles.last().unwrap().origin(), &[3, 3, 3, 0]);
        assert_eq!(tiles.last().unwrap().size(), &[2, 1, 3, 3]);
    }

    #[test]
    fn tile_one_element_blocks() {
        let s = Shape::d2(3, 2);
        let tiles = Region::tile(s, 1);
        assert_eq!(tiles.len(), 6);
        assert!(tiles.iter().all(|t| t.len() == 1));
        assert_exact_cover(s, 1);
    }

    #[test]
    fn intersect_basic_and_disjoint() {
        let a = Region::new(&[0, 0], &[4, 4]);
        let b = Region::new(&[2, 3], &[5, 5]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.origin(), &[2, 3]);
        assert_eq!(i.size(), &[2, 1]);
        // Symmetric.
        assert_eq!(b.intersect(&a).unwrap(), i);
        // Adjacent boxes (half-open) do not overlap.
        let c = Region::new(&[4, 0], &[2, 4]);
        assert_eq!(a.intersect(&c), None);
        // Fully disjoint.
        let d = Region::new(&[10, 10], &[1, 1]);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn intersect_containment() {
        let outer = Region::new(&[0, 0, 0], &[8, 8, 8]);
        let inner = Region::new(&[2, 3, 4], &[2, 2, 2]);
        assert_eq!(outer.intersect(&inner).unwrap(), inner);
        assert_eq!(inner.intersect(&outer).unwrap(), inner);
        assert_eq!(outer.intersect(&outer).unwrap(), outer);
    }

    #[test]
    fn intersect_with_tiles_partitions_query() {
        // Intersecting a query region with every tile partitions the
        // query — this is exactly the archive read_region invariant.
        let s = Shape::d3(10, 9, 8);
        let query = Region::new(&[1, 2, 3], &[7, 6, 4]);
        let total: usize = Region::tile(s, 4)
            .iter()
            .filter_map(|t| t.intersect(&query))
            .map(|r| r.len())
            .sum();
        assert_eq!(total, query.len());
    }

    #[test]
    fn intersect_near_usize_max_does_not_wrap() {
        // origin + size overflowing usize must neither panic (debug) nor
        // wrap into a bogus answer (release).
        let huge = Region::new(&[usize::MAX - 1], &[4]);
        let low = Region::new(&[0], &[10]);
        assert_eq!(huge.intersect(&low), None);
        let touching = Region::new(&[usize::MAX - 1], &[usize::MAX]);
        assert_eq!(
            touching
                .intersect(&Region::new(&[usize::MAX - 2], &[2]))
                .unwrap(),
            Region::new(&[usize::MAX - 1], &[1])
        );
    }

    #[test]
    #[should_panic]
    fn intersect_rank_mismatch_panics() {
        let _ = Region::new(&[0], &[2]).intersect(&Region::new(&[0, 0], &[2, 2]));
    }
}
