//! Data predictors for error-bounded lossy compression.
//!
//! Prediction is the core of the SZ compression model: each point is
//! predicted from already-reconstructed neighbours and only the quantized
//! residual is stored. This crate implements every predictor the paper's
//! compressors need:
//!
//! * [`interp`] — 1D linear and cubic-spline interpolation kernels with
//!   boundary fallbacks (paper §V-A),
//! * [`traverse`] — the multi-level interpolation traversal engine shared
//!   by the SZ3 baseline (global, unbounded span) and QoZ (anchored,
//!   level-adapted). Compression and decompression use the *same*
//!   deterministic traversal, which is what guarantees symmetric
//!   reconstruction,
//! * [`lorenzo`] — 1/2/3D Lorenzo extrapolation (SZ2's default),
//! * [`regression`] — block-wise linear regression (SZ2's second
//!   predictor).

pub mod interp;
pub mod lorenzo;
pub mod regression;
pub mod traverse;

pub use interp::{DimOrder, InterpKind, LevelConfig};
pub use lorenzo::{lorenzo2_predict, lorenzo_predict};
pub use regression::RegressionModel;
pub use traverse::{
    base_point_count, base_stride, for_each_base_point, level_point_count, max_level,
    traverse_level,
};
