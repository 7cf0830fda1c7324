//! Plan caching for repeated, same-shape compression (time series).
//!
//! QoZ's online tuning (sampling, Algorithm-1 level-interpolator
//! selection, `(alpha, beta)` auto-tuning) is the dominant cost of a
//! compression call, yet scientific workloads dump the *same* variables
//! every timestep: consecutive snapshots are statistically near-identical
//! and re-derive the same plan. A [`PlanCache`] remembers the last tuned
//! [`QozPlan`] per `(shape, scalar type)` and replays it while a cheap
//! sampled drift check says the data, and the bound resolved against
//! it, still look like what the plan was tuned for.
//!
//! The bound *specification* is deliberately not part of the key: it
//! enters only through the resolved absolute bound, whose drift is
//! checked like the data's. A temporal chain codes each delta at
//! `Abs(e_t)`, a value that moves slightly with every snapshot's range;
//! keyed on the exact spec, every delta would tune cold.
//!
//! # Warm-path semantics
//!
//! [`Qoz::plan_cached`] returns one of four [`PlanOutcome`]s:
//!
//! * **`ColdTuned`** — first call: full tuning ran, plan cached.
//! * **`WarmHit`** — shape and scalar type matched, drift within
//!   tolerance, and the resolved absolute bound is bit-identical to the
//!   cached plan's. The cached plan is replayed as-is, so compressing
//!   *unchanged data* warm produces a stream byte-identical to the cold
//!   path.
//! * **`WarmRescaled`** — tuning decisions (anchor stride, per-level
//!   interpolators, `(alpha, beta)`) are replayed but the per-level
//!   error bounds are rebuilt from *this call's* resolved absolute
//!   bound (a relative bound resolves against each snapshot's value
//!   range; a chain's deltas each bring their own absolute bound). This
//!   keeps the hard error-bound contract exact on every call — reuse
//!   never loosens a bound.
//! * **`Retuned`** — the cache held a plan but it could not be reused:
//!   the shape or scalar type changed, the data drifted, or the resolved
//!   bound moved beyond tolerance (`|abs / cached - 1| > tolerance`).
//!   Full tuning ran again and the cache was refreshed.
//!
//! The drift check compresses the standard sampled blocks with a fixed
//! cheap spec and compares the mean absolute prediction error against
//! the value recorded when the cached plan was tuned; departure beyond
//! the configurable tolerance means the field's predictability changed
//! enough that the cached `(alpha, beta)`/interpolator choices are
//! suspect.

use crate::config::level_error_bounds;
use crate::{Qoz, QozPlan};
use qoz_codec::stream::ErrorBound;
use qoz_codec::{ByteReader, ByteWriter, CodecError};
use qoz_predict::{DimOrder, InterpKind, LevelConfig};
use qoz_sz3::{compress_with_spec_into, InterpSpec};
use qoz_tensor::{sample_blocks, NdArray, SamplePlan, Scalar, Shape};

/// Default relative tolerance of the sampled drift check.
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.2;

/// Anchor stride of the fixed drift-probe spec (matches the sampled
/// estimator in `fixed_quality`).
const PROBE_ANCHOR: u32 = 16;

/// What [`Qoz::plan_cached`] did to satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// Empty cache: full tuning ran and the plan was stored.
    ColdTuned,
    /// Cached plan replayed verbatim (resolved bound bit-identical).
    WarmHit,
    /// Cached tuning decisions replayed with level bounds rebuilt from
    /// this call's resolved absolute bound.
    WarmRescaled,
    /// The cached plan could not be reused (shape or scalar type
    /// changed, or the data or the resolved bound drifted beyond
    /// tolerance): full tuning ran again.
    Retuned,
}

impl PlanOutcome {
    /// `true` when the expensive tuning stage was skipped.
    pub fn is_warm(self) -> bool {
        matches!(self, PlanOutcome::WarmHit | PlanOutcome::WarmRescaled)
    }
}

#[derive(Debug, Clone)]
struct CachedPlan {
    shape: Shape,
    scalar_tag: u8,
    /// The bound spec the plan was tuned for; carried into snapshots
    /// only, never compared.
    bound: ErrorBound,
    plan: QozPlan,
    /// Sampled mean absolute prediction error at tuning time — the
    /// drift reference.
    ref_pred_err: f64,
}

/// A portable copy of one cache entry: everything needed to re-seed a
/// [`PlanCache`] in another process so its first call replays the plan
/// warm instead of re-tuning — the `qoz-serve` warm-restart path.
///
/// Snapshots serialize with [`PlanSnapshot::encode`] /
/// [`PlanSnapshot::decode`]; whole collections (one file next to the
/// served archives) go through [`encode_snapshots`] /
/// [`decode_snapshots`]. The drift reference travels with the plan, so
/// a restarted daemon applies the same reuse policy as a resident one:
/// drifted data still retunes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSnapshot {
    /// Shape the plan was tuned for.
    pub shape: Shape,
    /// Element type the plan was tuned for (`Scalar::TYPE_TAG`).
    pub scalar_tag: u8,
    /// Bound *specification* (not the resolved absolute value) the plan
    /// was tuned for. Not part of the cache key — a bound enters only
    /// through the resolved-bound drift check — but `qoz-serve` keys its
    /// persisted plans by it.
    pub bound: ErrorBound,
    /// The tuned plan itself.
    pub plan: QozPlan,
    /// Sampled mean absolute prediction error at tuning time.
    pub ref_pred_err: f64,
}

/// Caches the last tuned [`QozPlan`] for reuse across same-shape,
/// same-type calls whose resolved bounds stay within the drift
/// tolerance.
///
/// One cache belongs to one logical compression stream (one variable of
/// one simulation); it assumes the [`Qoz`] configuration it is used with
/// does not change between calls.
#[derive(Debug, Clone)]
pub struct PlanCache {
    tolerance: f64,
    entry: Option<CachedPlan>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(DEFAULT_DRIFT_TOLERANCE)
    }
}

impl PlanCache {
    /// Create a cache with an explicit drift tolerance (relative
    /// departure of the sampled prediction-error estimate, and of the
    /// resolved absolute bound, that forces a retune).
    ///
    /// # Panics
    /// Panics unless `tolerance` is finite and non-negative.
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "drift tolerance must be finite and >= 0, got {tolerance}"
        );
        PlanCache {
            tolerance,
            entry: None,
        }
    }

    /// The configured drift tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The cached plan, if any (inspection/testing).
    pub fn cached_plan(&self) -> Option<&QozPlan> {
        self.entry.as_ref().map(|e| &e.plan)
    }

    /// Drop the cached plan; the next call tunes from scratch.
    pub fn invalidate(&mut self) {
        self.entry = None;
    }

    /// A portable copy of the cache entry, for persistence (`None` when
    /// the cache is cold).
    pub fn snapshot(&self) -> Option<PlanSnapshot> {
        self.entry.as_ref().map(|e| PlanSnapshot {
            shape: e.shape,
            scalar_tag: e.scalar_tag,
            bound: e.bound,
            plan: e.plan.clone(),
            ref_pred_err: e.ref_pred_err,
        })
    }

    /// Seed the cache from a persisted snapshot, replacing any current
    /// entry. The next [`Qoz::plan_cached`] call whose shape and type
    /// match and whose data and bound pass the drift check replays the
    /// seeded plan warm —
    /// this is how a restarted `qoz-serve` skips its first cold tune.
    pub fn seed(&mut self, snap: PlanSnapshot) {
        self.entry = Some(CachedPlan {
            shape: snap.shape,
            scalar_tag: snap.scalar_tag,
            bound: snap.bound,
            plan: snap.plan,
            ref_pred_err: snap.ref_pred_err,
        });
    }
}

/// Sampled mean absolute prediction error of `data` under a fixed cheap
/// probe spec — the drift statistic. Costs one engine pass over the
/// standard sampled blocks (a fraction of a percent of the data), far
/// below the many trial compressions of full tuning.
fn sampled_pred_err<T: Scalar>(qoz: &Qoz, data: &NdArray<T>, abs_eb: f64) -> f64 {
    let shape = data.shape();
    let plan = SamplePlan::from_rate(
        shape,
        qoz.config.effective_sample_block(shape),
        qoz.config.effective_sample_rate(shape),
    );
    let blocks = sample_blocks(data, &plan);
    let mut scratch = qoz_codec::Scratch::new();
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for block in &blocks {
        let spec = InterpSpec::anchored(PROBE_ANCHOR, abs_eb, Default::default());
        let stats = compress_with_spec_into(block, &spec, &mut scratch);
        sum += stats.sum_abs_pred_err;
        count += stats.pred_count;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

impl Qoz {
    /// [`Qoz::plan`] with caching: replay the cached tuning decisions
    /// when shape and scalar type match the cache and neither the data
    /// nor the resolved bound has drifted, otherwise tune and refresh
    /// the cache. See the module docs for the
    /// exact warm/rescale/retune semantics.
    ///
    /// Every returned plan derives its per-level error bounds from *this
    /// call's* resolved absolute bound, so the hard error-bound
    /// guarantee is identical to the uncached path.
    pub fn plan_cached<T: Scalar>(
        &self,
        data: &NdArray<T>,
        bound: ErrorBound,
        cache: &mut PlanCache,
    ) -> (QozPlan, PlanOutcome) {
        let abs_eb = bound.absolute(data);
        let pred_err = sampled_pred_err(self, data, abs_eb);

        if let Some(e) = &cache.entry {
            if e.shape == data.shape() && e.scalar_tag == T::TYPE_TAG {
                let abs_drift = (abs_eb / e.plan.abs_eb - 1.0).abs();
                // Guard the ratio against a near-zero reference (constant
                // or perfectly predictable fields).
                let denom = e.ref_pred_err.max(abs_eb * 1e-3);
                let err_drift = (pred_err - e.ref_pred_err).abs() / denom;
                if abs_drift <= cache.tolerance && err_drift <= cache.tolerance {
                    let mut plan = e.plan.clone();
                    if abs_eb.to_bits() == plan.abs_eb.to_bits() {
                        return (plan, PlanOutcome::WarmHit);
                    }
                    plan.abs_eb = abs_eb;
                    plan.spec.level_ebs =
                        level_error_bounds(abs_eb, plan.alpha, plan.beta, plan.spec.max_level);
                    return (plan, PlanOutcome::WarmRescaled);
                }
            }
        }

        let outcome = if cache.entry.is_some() {
            PlanOutcome::Retuned
        } else {
            PlanOutcome::ColdTuned
        };
        let plan = self.plan(data, bound);
        cache.entry = Some(CachedPlan {
            shape: data.shape(),
            scalar_tag: T::TYPE_TAG,
            bound,
            plan: plan.clone(),
            ref_pred_err: pred_err,
        });
        (plan, outcome)
    }
}

// ---------------------------------------------------------------------------
// Plan persistence: PlanSnapshot <-> bytes.
// ---------------------------------------------------------------------------

/// Magic prefix of a persisted plan-snapshot file ("QZPL").
pub const PLAN_FILE_MAGIC: [u8; 4] = *b"QZPL";
/// Current plan-snapshot serialization version.
pub const PLAN_FILE_VERSION: u8 = 1;
/// Cap on a decoded plan's table lengths, checked before allocating
/// (real plans have < 10 levels; `InterpSpec::validate` checks the rest).
const MAX_PLAN_LEVELS: u64 = 64;

fn encode_bound(w: &mut ByteWriter, bound: ErrorBound) {
    match bound {
        ErrorBound::Abs(v) => {
            w.put_u8(0);
            w.put_f64(v);
        }
        ErrorBound::Rel(v) => {
            w.put_u8(1);
            w.put_f64(v);
        }
    }
}

fn decode_bound(r: &mut ByteReader) -> qoz_codec::Result<ErrorBound> {
    let kind = r.get_u8()?;
    let v = r.get_f64()?;
    let bound = match kind {
        0 => ErrorBound::Abs(v),
        1 => ErrorBound::Rel(v),
        _ => return Err(CodecError::Corrupt("bad bound kind in plan snapshot")),
    };
    if !bound.is_valid() {
        return Err(CodecError::Corrupt("bad bound value in plan snapshot"));
    }
    Ok(bound)
}

impl PlanSnapshot {
    /// Serialize one snapshot (key + plan + drift reference).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(self.scalar_tag);
        w.put_u8(self.shape.ndim() as u8);
        for &d in self.shape.dims() {
            w.put_varint(d as u64);
        }
        encode_bound(&mut w, self.bound);
        w.put_f64(self.ref_pred_err);
        w.put_f64(self.plan.abs_eb);
        w.put_f64(self.plan.alpha);
        w.put_f64(self.plan.beta);
        let spec = &self.plan.spec;
        match spec.anchor_stride {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                w.put_varint(s as u64);
            }
        }
        w.put_varint(spec.max_level as u64);
        w.put_varint(spec.level_configs.len() as u64);
        for cfg in &spec.level_configs {
            w.put_u8(match cfg.kind {
                InterpKind::Linear => 0,
                InterpKind::Cubic => 1,
                InterpKind::Quadratic => 2,
            });
            w.put_u8(match cfg.order {
                DimOrder::Ascending => 0,
                DimOrder::Descending => 1,
            });
        }
        w.put_varint(spec.level_ebs.len() as u64);
        for &eb in &spec.level_ebs {
            w.put_f64(eb);
        }
        w.put_varint(spec.quant_radius as u64);
        w.finish()
    }

    /// Parse one snapshot. Every field is validated — a persisted plan
    /// file is ordinary mutable state on disk, so a corrupt or
    /// hand-edited entry must surface as [`CodecError::Corrupt`], never
    /// as a panic (or a plan that violates the bound contract) later.
    pub fn decode(bytes: &[u8]) -> qoz_codec::Result<PlanSnapshot> {
        let mut r = ByteReader::new(bytes);
        let scalar_tag = r.get_u8()?;
        let ndim = r.get_u8()? as usize;
        if ndim == 0 || ndim > qoz_tensor::MAX_NDIM {
            return Err(CodecError::Corrupt("bad rank in plan snapshot"));
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            let d = r.get_varint()? as usize;
            if d == 0 || d > (1 << 32) {
                return Err(CodecError::Corrupt("bad dimension in plan snapshot"));
            }
            dims.push(d);
        }
        let bound = decode_bound(&mut r)?;
        let ref_pred_err = r.get_f64()?;
        if !(ref_pred_err.is_finite() && ref_pred_err >= 0.0) {
            return Err(CodecError::Corrupt("bad drift reference in plan snapshot"));
        }
        let abs_eb = r.get_f64()?;
        if !(abs_eb.is_finite() && abs_eb > 0.0) {
            return Err(CodecError::Corrupt("bad absolute bound in plan snapshot"));
        }
        let alpha = r.get_f64()?;
        let beta = r.get_f64()?;
        // Eq. 5 needs alpha, beta >= 1 (`level_error_bounds` asserts it).
        if !(alpha.is_finite() && alpha >= 1.0 && beta.is_finite() && beta >= 1.0) {
            return Err(CodecError::Corrupt("bad (alpha, beta) in plan snapshot"));
        }
        let anchor_stride = match r.get_u8()? {
            0 => None,
            1 => Some(
                u32::try_from(r.get_varint()?)
                    .map_err(|_| CodecError::Corrupt("bad anchor stride in plan snapshot"))?,
            ),
            _ => return Err(CodecError::Corrupt("bad anchor flag in plan snapshot")),
        };
        let max_level = u32::try_from(r.get_varint()?)
            .map_err(|_| CodecError::Corrupt("bad level count in plan snapshot"))?;
        let n_configs = r.get_varint()?;
        if n_configs > MAX_PLAN_LEVELS {
            return Err(CodecError::Corrupt("bad config count in plan snapshot"));
        }
        let mut level_configs = Vec::with_capacity(n_configs as usize);
        for _ in 0..n_configs {
            let kind = match r.get_u8()? {
                0 => InterpKind::Linear,
                1 => InterpKind::Cubic,
                2 => InterpKind::Quadratic,
                _ => return Err(CodecError::Corrupt("bad interp kind in plan snapshot")),
            };
            let order = match r.get_u8()? {
                0 => DimOrder::Ascending,
                1 => DimOrder::Descending,
                _ => return Err(CodecError::Corrupt("bad dim order in plan snapshot")),
            };
            level_configs.push(LevelConfig { kind, order });
        }
        let n_ebs = r.get_varint()?;
        if n_ebs > MAX_PLAN_LEVELS {
            return Err(CodecError::Corrupt("bad bound count in plan snapshot"));
        }
        let mut level_ebs = Vec::with_capacity(n_ebs as usize);
        for _ in 0..n_ebs {
            level_ebs.push(r.get_f64()?);
        }
        let quant_radius = u32::try_from(r.get_varint()?)
            .map_err(|_| CodecError::Corrupt("bad quantizer radius in plan snapshot"))?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes in plan snapshot"));
        }
        let shape = Shape::try_new(&dims)
            .ok_or(CodecError::Corrupt("implausible shape in plan snapshot"))?;
        let spec = InterpSpec {
            anchor_stride,
            max_level,
            level_configs,
            level_ebs,
            quant_radius,
        };
        spec.validate(shape)?;
        // A replayed plan's level bounds are trusted as-is, so they must be
        // exactly the ones `Qoz::plan` derives from (abs_eb, alpha, beta).
        // `validate` ruled out NaN and zero, so `!=` compares bits.
        if spec.level_ebs != level_error_bounds(abs_eb, alpha, beta, max_level) {
            return Err(CodecError::Corrupt("level bounds disagree with plan"));
        }
        Ok(PlanSnapshot {
            shape,
            scalar_tag,
            bound,
            plan: QozPlan {
                abs_eb,
                alpha,
                beta,
                spec,
            },
            ref_pred_err,
        })
    }
}

/// Serialize a collection of snapshots into one self-describing blob
/// (the `qoz-serve` plan file persisted next to served archives).
pub fn encode_snapshots(snaps: &[PlanSnapshot]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&PLAN_FILE_MAGIC);
    w.put_u8(PLAN_FILE_VERSION);
    w.put_varint(snaps.len() as u64);
    for snap in snaps {
        w.put_len_prefixed(&snap.encode());
    }
    w.finish()
}

/// Parse a blob written by [`encode_snapshots`].
pub fn decode_snapshots(bytes: &[u8]) -> qoz_codec::Result<Vec<PlanSnapshot>> {
    let mut r = ByteReader::new(bytes);
    if r.get_bytes(4)? != PLAN_FILE_MAGIC {
        return Err(CodecError::Corrupt("not a plan snapshot file"));
    }
    let version = r.get_u8()?;
    if version != PLAN_FILE_VERSION {
        return Err(CodecError::BadVersion {
            found: version,
            supported: PLAN_FILE_VERSION,
        });
    }
    let count = r.get_varint()?;
    if count > bytes.len() as u64 {
        return Err(CodecError::Corrupt("implausible snapshot count"));
    }
    let mut snaps = Vec::with_capacity(count as usize);
    for _ in 0..count {
        snaps.push(PlanSnapshot::decode(r.get_len_prefixed()?)?);
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes in plan snapshot file"));
    }
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_codec::{Compressor, Scratch};
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_tensor::NdArray;

    #[test]
    fn identical_data_hits_warm_and_matches_cold_plan() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::default();

        let (p0, o0) = qoz.plan_cached(&data, bound, &mut cache);
        assert_eq!(o0, PlanOutcome::ColdTuned);
        let (p1, o1) = qoz.plan_cached(&data, bound, &mut cache);
        assert_eq!(o1, PlanOutcome::WarmHit);

        // The warm plan replays the cold one exactly, and both equal the
        // uncached planner's output.
        let fresh = qoz.plan(&data, bound);
        for p in [&p0, &p1] {
            assert_eq!(p.abs_eb, fresh.abs_eb);
            assert_eq!((p.alpha, p.beta), (fresh.alpha, fresh.beta));
            assert_eq!(p.spec.level_ebs, fresh.spec.level_ebs);
            assert_eq!(p.spec.level_configs, fresh.spec.level_configs);
            assert_eq!(p.spec.anchor_stride, fresh.spec.anchor_stride);
        }
    }

    #[test]
    fn shape_change_retunes() {
        let a = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let b = a.extract_region(&qoz_tensor::Region::new(
            &[0; 3],
            &[a.shape().dim(0) / 2, a.shape().dim(1), a.shape().dim(2)],
        ));
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::default();
        qoz.plan_cached(&a, bound, &mut cache);
        let (_, o) = qoz.plan_cached(&b, bound, &mut cache);
        assert_eq!(o, PlanOutcome::Retuned);
        // And back: the cache now holds b's shape.
        let (_, o) = qoz.plan_cached(&a, bound, &mut cache);
        assert_eq!(o, PlanOutcome::Retuned);
    }

    #[test]
    fn bound_change_retunes() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let mut cache = PlanCache::default();
        qoz.plan_cached(&data, ErrorBound::Rel(1e-3), &mut cache);
        let (_, o) = qoz.plan_cached(&data, ErrorBound::Rel(1e-2), &mut cache);
        assert_eq!(o, PlanOutcome::Retuned);
    }

    #[test]
    fn small_bound_change_rescales() {
        // A delta chain's `Abs(e_t)` moves a little every snapshot: the
        // bound spec changed, but the resolved bound stays within the
        // drift tolerance, so the tuning decisions replay.
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let mut cache = PlanCache::default();
        let (first, _) = qoz.plan_cached(&data, ErrorBound::Abs(1e-3), &mut cache);
        let (plan, o) = qoz.plan_cached(&data, ErrorBound::Abs(1.05e-3), &mut cache);
        assert_eq!(o, PlanOutcome::WarmRescaled);
        assert_eq!((plan.alpha, plan.beta), (first.alpha, first.beta));
        assert_eq!(plan.spec.level_configs, first.spec.level_configs);
        assert_eq!(plan.abs_eb, 1.05e-3);
        assert_eq!(
            plan.spec.level_ebs,
            level_error_bounds(1.05e-3, plan.alpha, plan.beta, plan.spec.max_level)
        );
    }

    #[test]
    fn drifted_data_retunes() {
        let qoz = Qoz::default();
        let bound = ErrorBound::Abs(1e-3);
        let mut cache = PlanCache::new(0.1);
        let smooth = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        qoz.plan_cached(&smooth, bound, &mut cache);
        // Replace the field with same-shape white noise: prediction error
        // explodes, so the drift check must force a retune.
        let noisy = NdArray::from_fn(smooth.shape(), |i| {
            let h = qoz_datagen::noise::splitmix64(
                ((i[0] * 73_856_093) ^ (i[1] * 19_349_663) ^ (i[2] * 83_492_791)) as u64,
            );
            (h as f32 / u64::MAX as f32) * 8.0
        });
        let (_, o) = qoz.plan_cached(&noisy, bound, &mut cache);
        assert_eq!(o, PlanOutcome::Retuned);
    }

    #[test]
    fn small_range_drift_rescales_and_keeps_hard_bound() {
        let base = Dataset::Hurricane.generate(SizeClass::Tiny, 0);
        // A gently scaled snapshot: same structure, value range up 5%.
        let scaled = NdArray::from_vec(
            base.shape(),
            base.as_slice().iter().map(|&v| v * 1.05).collect(),
        );
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::default();
        qoz.plan_cached(&base, bound, &mut cache);
        let (plan, o) = qoz.plan_cached(&scaled, bound, &mut cache);
        assert_eq!(o, PlanOutcome::WarmRescaled);
        // The rescaled plan's bounds come from the *new* snapshot.
        let abs = bound.absolute(&scaled);
        assert_eq!(plan.abs_eb, abs);
        assert_eq!(plan.spec.level_ebs[0], abs);
        // And the compressed stream honors it.
        let blob = qoz.compress_with_plan_scratched(&scaled, &plan, &mut Scratch::new());
        let recon: NdArray<f32> = qoz.decompress(&blob).unwrap();
        assert!(scaled.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    }

    #[test]
    fn zero_tolerance_only_accepts_identical_data() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::new(0.0);
        qoz.plan_cached(&data, bound, &mut cache);
        let (_, o) = qoz.plan_cached(&data, bound, &mut cache);
        assert_eq!(o, PlanOutcome::WarmHit);
    }

    #[test]
    #[should_panic]
    fn invalid_tolerance_rejected() {
        let _ = PlanCache::new(f64::NAN);
    }

    #[test]
    fn invalidate_forces_cold() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::default();
        qoz.plan_cached(&data, bound, &mut cache);
        assert!(cache.cached_plan().is_some());
        cache.invalidate();
        assert!(cache.cached_plan().is_none());
        let (_, o) = qoz.plan_cached(&data, bound, &mut cache);
        assert_eq!(o, PlanOutcome::ColdTuned);
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let mut cache = PlanCache::default();
        qoz.plan_cached(&data, ErrorBound::Rel(1e-3), &mut cache);
        let snap = cache.snapshot().expect("tuned cache has a snapshot");
        let decoded = PlanSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        let blob = encode_snapshots(&[snap.clone(), decoded]);
        let snaps = decode_snapshots(&blob).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0], snap);
        assert_eq!(snaps[1], snap);
        // Empty collections roundtrip too (a daemon that never tuned).
        assert!(decode_snapshots(&encode_snapshots(&[])).unwrap().is_empty());
    }

    #[test]
    fn seeded_cache_replays_warm_and_respects_drift() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let bound = ErrorBound::Rel(1e-3);
        let mut cache = PlanCache::default();
        let (cold_plan, _) = qoz.plan_cached(&data, bound, &mut cache);
        let snap = cache.snapshot().unwrap();

        // A fresh cache seeded from the snapshot serves its first call
        // warm, with the same plan the resident cache would replay.
        let mut restarted = PlanCache::default();
        restarted.seed(PlanSnapshot::decode(&snap.encode()).unwrap());
        let (plan, outcome) = qoz.plan_cached(&data, bound, &mut restarted);
        assert_eq!(outcome, PlanOutcome::WarmHit);
        assert_eq!(plan, cold_plan);

        // But drifted data still retunes: the reference travels along.
        let drifted: Vec<f32> = data.as_slice().iter().map(|v| v * v + 7.0).collect();
        let drifted = NdArray::from_vec(data.shape(), drifted);
        let mut restarted = PlanCache::default();
        restarted.seed(snap);
        let (_, outcome) = qoz.plan_cached(&drifted, bound, &mut restarted);
        assert_eq!(outcome, PlanOutcome::Retuned);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let qoz = Qoz::default();
        let bound = ErrorBound::Abs(1e-3);
        let mut cache = PlanCache::default();
        qoz.plan_cached(&data, bound, &mut cache);
        let snap = cache.snapshot().unwrap();
        let good = snap.encode();

        // One-field edits that parse but would panic a worker on replay,
        // compress to streams the decoder rejects, or break the bound.
        type Edit = fn(&mut PlanSnapshot);
        let edits: [(&str, Edit); 7] = [
            ("quant_radius = 1", |s| s.plan.spec.quant_radius = 1),
            ("configs shorter than max_level", |s| {
                s.plan.spec.level_configs.pop();
            }),
            ("alpha = 0.5", |s| s.plan.alpha = 0.5),
            ("quant_radius = 2^25", |s| {
                s.plan.spec.quant_radius = 1 << 25
            }),
            ("anchor_stride = 3", |s| s.plan.spec.anchor_stride = Some(3)),
            ("level_ebs x100", |s| {
                for eb in &mut s.plan.spec.level_ebs {
                    *eb *= 100.0;
                }
            }),
            ("max_level - 1", |s| s.plan.spec.max_level -= 1),
        ];
        for (what, edit) in edits {
            let mut bad = snap.clone();
            edit(&mut bad);
            match PlanSnapshot::decode(&bad.encode()) {
                Err(CodecError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }

        // Truncation at every prefix length must error, never panic.
        for n in 0..good.len() {
            assert!(PlanSnapshot::decode(&good[..n]).is_err(), "prefix {n}");
        }
        // Trailing garbage is rejected.
        let mut long = good.clone();
        long.push(0);
        assert!(PlanSnapshot::decode(&long).is_err());
        // Single-byte corruption either errors or still parses (payload
        // bytes of a float); a plan that parses must replay within the
        // bound: seeded, replayed, compressed and decoded.
        let abs = bound.absolute(&data);
        let mut replayed = 0;
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let Ok(flipped) = PlanSnapshot::decode(&bad) else {
                continue;
            };
            let mut seeded = PlanCache::default();
            seeded.seed(flipped);
            let (plan, _) = qoz.plan_cached(&data, bound, &mut seeded);
            let blob = qoz.compress_with_plan_scratched(&data, &plan, &mut Scratch::new());
            let recon: NdArray<f32> = qoz
                .decompress(&blob)
                .unwrap_or_else(|e| panic!("byte {i}: replayed stream rejected: {e}"));
            assert_eq!(
                qoz_metrics::verify_error_bound(&data, &recon, abs),
                None,
                "byte {i}: replayed plan breaks the bound"
            );
            replayed += 1;
        }
        assert!(
            replayed > 0,
            "no flipped snapshot decoded; the replay check is vacuous"
        );

        // File-level rejections: bad magic, newer version, bogus count.
        let file = encode_snapshots(&[snap]);
        let mut bad_magic = file.clone();
        bad_magic[0] ^= 0xff;
        assert!(decode_snapshots(&bad_magic).is_err());
        let mut newer = file.clone();
        newer[4] = PLAN_FILE_VERSION + 1;
        match decode_snapshots(&newer) {
            Err(CodecError::BadVersion { found, supported }) => {
                assert_eq!(found, PLAN_FILE_VERSION + 1);
                assert_eq!(supported, PLAN_FILE_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
        for n in 0..file.len() {
            assert!(decode_snapshots(&file[..n]).is_err(), "prefix {n}");
        }
    }
}
