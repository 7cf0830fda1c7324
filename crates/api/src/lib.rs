//! `qoz_api` — the unified, quality-first compression facade.
//!
//! The paper's headline contribution is *quality-metric-oriented*
//! compression: the user states what they need — a PSNR, an SSIM, a
//! compression ratio, or a hard error bound — and the system tunes
//! itself. This crate is the one public door to that capability:
//!
//! * [`Session`] / [`SessionBuilder`] — a validated, reusable
//!   compression configuration: one backend, one [`Target`], built once
//!   and applied to any number of arrays (`f32` or `f64`);
//! * [`Target`] — the quality-first request:
//!   [`Bound`](Target::Bound), [`Psnr`](Target::Psnr),
//!   [`Ssim`](Target::Ssim) or [`Ratio`](Target::Ratio), routed through
//!   `qoz_core::fixed_quality` so *every* backend — not just QoZ — can
//!   be driven to a quality target;
//! * [`BackendRegistry`] — the single
//!   `BackendId -> Box<dyn Compressor<T>>` mapping in the workspace. The
//!   archive reader, the CLI and the benchmark harness all dispatch
//!   through it, and its two decode calls,
//!   [`decompress`](BackendRegistry::decompress) and
//!   [`decompress_into`](BackendRegistry::decompress_into), are
//!   header-driven, so they read any workspace stream;
//! * streaming — [`Session::compress_into`] writes the stream to an
//!   `io::Write` and [`Session::decompress_from`] reads one from an
//!   `io::Read`; both buffer the whole stream, as every backend codes
//!   it in memory;
//! * [`Pipeline`] — the stateful handle for time-series workloads:
//!   [`Session::pipeline`] pairs the session with a cached tuning plan
//!   and a reusable scratch arena, so repeated same-shape snapshots
//!   skip QoZ's online tuning and all stage-buffer allocation (warm
//!   output is byte-identical to cold on unchanged data; a sampled
//!   drift check re-tunes when the data changes character).
//!
//! # Quick start
//! ```
//! use qoz_api::{BackendId, Session, Target};
//! use qoz_codec::ErrorBound;
//! use qoz_tensor::{NdArray, Shape};
//!
//! let data = NdArray::from_fn(Shape::d2(64, 64), |i| {
//!     ((i[0] as f32) * 0.1).sin() + ((i[1] as f32) * 0.08).cos()
//! });
//!
//! // Bound-first: classic error-bounded compression.
//! let session = Session::builder()
//!     .backend(BackendId::Qoz)
//!     .bound(ErrorBound::Rel(1e-3))
//!     .build()
//!     .unwrap();
//! let out = session.compress(&data).unwrap();
//! let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
//! let abs = ErrorBound::Rel(1e-3).absolute(&data);
//! assert!(data.max_abs_diff(&recon) <= abs);
//!
//! // Quality-first: ask for 60 dB and let the system find the bound.
//! let session = Session::builder().psnr(60.0).build().unwrap();
//! let out = session.compress(&data).unwrap();
//! assert!(out.achieved.unwrap() >= 60.0);
//! ```
//!
//! # Target tolerances
//!
//! | [`Target`]   | guarantee on [`Compressed::achieved`]                         |
//! |--------------|---------------------------------------------------------------|
//! | `Bound(b)`   | hard: `max|err| <= b` on every point (backend contract)       |
//! | `Psnr(dB)`   | met or exceeded when reachable at a relative bound ≥ 1e-8     |
//! | `Ssim(s)`    | met or exceeded when reachable at a relative bound ≥ 1e-8     |
//! | `Ratio(r)`   | closest probe of a 12-step bisection; typically within a few  |
//! |              | percent, worst case ~±50% where ratio steps with the bound    |
//!
//! Quality targets are verified on the **full** reconstruction, never
//! only on sampled estimates; unreachable targets converge to the
//! tightest searched bound and report the shortfall in `achieved`.

mod pipeline;
mod registry;
mod session;

pub use pipeline::{Pipeline, PipelineStats};
pub use registry::{peek_header, BackendRegistry};
pub use session::{Compressed, Session, SessionBuilder, Target};

/// Re-export of the plan-cache outcome reported by
/// [`Pipeline::last_outcome`].
pub use qoz_core::PlanOutcome;

/// Re-exports of the temporal-chain types surfaced by
/// [`Pipeline::compress_next`] (see `qoz_temporal` for the residual
/// model and the composed-bound contract).
pub use qoz_temporal::{TemporalMode, TemporalOutcome};

/// Identifies a compression backend (re-export of the stream-header id:
/// a registry id *is* the id stored in every stream the backend emits).
pub use qoz_codec::CompressorId as BackendId;

use qoz_codec::{CodecError, ErrorBound};

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The requested error bound is NaN, non-finite or non-positive.
    InvalidBound(ErrorBound),
    /// A quality target is outside its meaningful range.
    InvalidTarget(&'static str),
    /// The backend name is not in the registry.
    UnknownBackend(String),
    /// Compression/decompression failed underneath the facade.
    Codec(CodecError),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::InvalidBound(b) => {
                let (kind, v) = match b {
                    ErrorBound::Abs(v) => ("absolute", v),
                    ErrorBound::Rel(v) => ("relative", v),
                };
                write!(
                    f,
                    "invalid {kind} error bound {v}: bounds must be finite and > 0"
                )
            }
            ApiError::InvalidTarget(what) => write!(f, "invalid target: {what}"),
            ApiError::UnknownBackend(name) => write!(
                f,
                "unknown backend '{name}' (expected qoz|sz3|sz2|zfp|mgard)"
            ),
            ApiError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<CodecError> for ApiError {
    fn from(e: CodecError) -> Self {
        ApiError::Codec(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ApiError>;
