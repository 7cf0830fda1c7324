//! N-dimensional strided array support for the QoZ compression workspace.
//!
//! Scientific lossy compressors operate on dense 1D/2D/3D floating-point
//! arrays in row-major (C) order. This crate provides the small set of
//! tensor primitives every other crate in the workspace builds on:
//!
//! * [`Shape`] — dimension/stride bookkeeping for up to [`MAX_NDIM`] axes,
//! * [`NdArray`] — an owned, row-major dense array of [`Scalar`] values,
//! * [`Region`] — a rectangular sub-box of an array (used for anchor blocks
//!   and sampling),
//! * [`sample`] — the uniform block sampler of QoZ §VI-A.
//!
//! The crate is deliberately dependency-free and keeps indexing logic in one
//! place so that the prediction kernels in `qoz-predict` can be written
//! against raw linear offsets without re-deriving stride math.

pub mod array;
pub mod region;
pub mod sample;
pub mod scalar;
pub mod shape;

pub use array::NdArray;
pub use region::Region;
pub use sample::{sample_blocks, SamplePlan};
pub use scalar::Scalar;
pub use shape::{Shape, MAX_NDIM};
