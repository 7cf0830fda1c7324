//! Stateful compression pipelines: one session, many snapshots, warm.
//!
//! A [`Session`] is a validated *configuration*; a [`Pipeline`] is that
//! configuration plus the mutable state that makes repeated compression
//! fast:
//!
//! * a [`qoz_core::PlanCache`] — QoZ's tuned plan is replayed across
//!   same-shape calls, guarded by a cheap sampled drift check on the
//!   data and the resolved bound (see `qoz_core::pipeline` for the
//!   exact semantics), and
//! * a [`qoz_codec::Scratch`] arena — every stage buffer (working copy,
//!   quantization bins, side streams, Huffman/LZSS staging) is recycled
//!   between calls instead of reallocated.
//!
//! Compressing *unchanged* data through a warm pipeline produces a
//! stream byte-identical to the cold path — caching never changes the
//! format, only the time it takes to emit it. Hard error bounds are
//! resolved against every snapshot individually, so reuse never loosens
//! the bound contract.

use crate::session::{Compressed, Session, Target};
use crate::{ApiError, BackendId, Result};
use qoz_codec::{CompressStats, Compressor, Scratch};
use qoz_core::{PlanCache, PlanOutcome, Qoz};
use qoz_temporal::{TemporalOutcome, TemporalSession};
use qoz_tensor::{NdArray, Scalar, Shape};
use std::cell::Cell;

/// Counters describing how a [`Pipeline`] has served its calls.
///
/// Only QoZ bound-target calls exercise the plan cache; other backends
/// and quality-target searches count as neither warm nor cold here.
/// The two `*_grow_events` fields make arena behaviour observable
/// through the same struct: each counts stage-buffer growth events
/// attributed to that direction of traffic, so a steady-state warm loop
/// can assert both stay flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Full tunes on an empty cache.
    pub cold_tunes: u64,
    /// Cached plan replayed verbatim.
    pub warm_hits: u64,
    /// Cached tuning decisions replayed with rescaled level bounds.
    pub warm_rescales: u64,
    /// A cached plan could not be reused and tuning ran again: new
    /// shape or scalar type, drifted data, or a resolved bound that
    /// moved beyond the drift tolerance (a bound-spec change alone is
    /// not a retune).
    pub retunes: u64,
    /// Stage buffers that had to grow during [`Pipeline::compress`]
    /// calls (capacity-profile deltas over the arena).
    pub compress_grow_events: u64,
    /// Stage buffers that had to grow during
    /// [`Pipeline::decompress_into`] calls (decode-side grow counters).
    pub decode_grow_events: u64,
    /// Chain members coded independently by [`Pipeline::compress_next`]
    /// because no usable predecessor existed (chain start, shape change).
    pub chain_keyframes: u64,
    /// Chain members delta-coded against the prior reconstruction.
    pub chain_deltas: u64,
    /// Chain members that were delta-eligible but coded independently
    /// because the sampled estimate judged the residual denser than the
    /// spatial stream.
    pub chain_fallbacks: u64,
}

impl PipelineStats {
    /// Calls that skipped the tuning stage.
    pub fn warm(&self) -> u64 {
        self.warm_hits + self.warm_rescales
    }

    /// Chain members coded via [`Pipeline::compress_next`] so far.
    pub fn chain_total(&self) -> u64 {
        self.chain_keyframes + self.chain_deltas + self.chain_fallbacks
    }

    fn record(&mut self, outcome: PlanOutcome) {
        let name = match outcome {
            PlanOutcome::ColdTuned => {
                self.cold_tunes += 1;
                "cold_tuned"
            }
            PlanOutcome::WarmHit => {
                self.warm_hits += 1;
                "warm_hit"
            }
            PlanOutcome::WarmRescaled => {
                self.warm_rescales += 1;
                "warm_rescaled"
            }
            PlanOutcome::Retuned => {
                self.retunes += 1;
                "retuned"
            }
        };
        qoz_telemetry::global()
            .counter("qoz_plan_outcomes_total", &[("outcome", name)])
            .inc();
    }
}

/// A stateful compression handle for repeated (time-series) workloads.
///
/// Obtained from [`Session::pipeline`]. Element-type specific (the
/// scratch arena holds a typed working buffer); spawn one pipeline per
/// variable you stream. Not `Sync` by design — one pipeline, one serving
/// loop. For parallel chunk workloads use `qoz_pario`, which keeps one
/// arena per worker internally.
pub struct Pipeline<T: Scalar> {
    session: Session,
    engine: Engine<T>,
    scratch: Scratch<T>,
    temporal: TemporalSession<T>,
    stats: PipelineStats,
    last: Option<PlanOutcome>,
}

/// The per-backend warm machinery: only QoZ has a plan cache; every
/// other backend holds its codec once and relies on scratch reuse.
/// Both variants are boxed-sized (the `Qoz` arm carries the tuning
/// config and cached plan, the other a trait object).
enum Engine<T: Scalar> {
    Qoz(Box<(Qoz, PlanCache)>),
    Other(Box<dyn Compressor<T>>),
}

impl<T: Scalar> Pipeline<T> {
    /// Build a pipeline over `session` (prefer [`Session::pipeline`]).
    pub fn new(session: Session) -> Self {
        let engine = if session.backend() == BackendId::Qoz {
            Engine::Qoz(Box::new((
                session.registry().qoz(),
                PlanCache::new(session.drift_tolerance()),
            )))
        } else {
            Engine::Other(session.codec::<T>())
        };
        Pipeline {
            engine,
            scratch: Scratch::new(),
            temporal: TemporalSession::new(),
            stats: PipelineStats::default(),
            last: None,
            session,
        }
    }

    /// The underlying (immutable) session configuration.
    pub fn session(&self) -> Session {
        self.session
    }

    /// Warm/cold accounting so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// What the plan cache did on the most recent [`Pipeline::compress`]
    /// call (`None` when the call did not touch the cache: non-QoZ
    /// backend or quality/ratio target).
    pub fn last_outcome(&self) -> Option<PlanOutcome> {
        self.last
    }

    /// Drop the cached plan; the next call tunes from scratch. A no-op
    /// for backends without a plan cache.
    pub fn invalidate(&mut self) {
        if let Engine::Qoz(inner) = &mut self.engine {
            inner.1.invalidate();
        }
    }

    /// A portable copy of the current cached plan for persistence
    /// (`None` when the cache is cold or the backend has no plan cache).
    /// `qoz-serve` snapshots every pipeline at graceful shutdown and
    /// writes the collection next to the served archives.
    pub fn plan_snapshot(&self) -> Option<qoz_core::PlanSnapshot> {
        match &self.engine {
            Engine::Qoz(inner) => inner.1.snapshot(),
            Engine::Other(_) => None,
        }
    }

    /// Seed the plan cache from a persisted snapshot so the first
    /// matching [`Pipeline::compress`] call replays it warm instead of
    /// cold-tuning — the `qoz-serve` warm-restart path. A no-op for
    /// backends without a plan cache.
    pub fn prime_plan(&mut self, snap: qoz_core::PlanSnapshot) {
        if let Engine::Qoz(inner) = &mut self.engine {
            inner.1.seed(snap);
        }
    }

    /// Compress one snapshot toward the session target.
    ///
    /// [`Target::Bound`] sessions run the warm path: QoZ consults the
    /// plan cache and every backend stages its buffers in the pipeline's
    /// scratch arena. Quality and ratio targets are bound *searches* —
    /// they re-probe per snapshot by definition and are delegated to
    /// [`Session::compress`] unchanged.
    pub fn compress(&mut self, data: &NdArray<T>) -> Result<Compressed> {
        match self.session.target() {
            Target::Bound(bound) => {
                let raw_bytes = (data.len() * T::BYTES) as u64;
                let caps_before = self.scratch.capacities();
                let blob = match &mut self.engine {
                    Engine::Qoz(inner) => {
                        let (qoz, cache) = &mut **inner;
                        let (plan, outcome) = qoz.plan_cached(data, bound, cache);
                        self.stats.record(outcome);
                        self.last = Some(outcome);
                        qoz.compress_with_plan_scratched(data, &plan, &mut self.scratch)
                    }
                    Engine::Other(codec) => {
                        self.last = None;
                        codec.compress_with_scratch(data, bound, &mut self.scratch)
                    }
                };
                self.stats.compress_grow_events += self
                    .scratch
                    .capacities()
                    .iter()
                    .zip(caps_before.iter())
                    .filter(|(now, before)| now > before)
                    .count() as u64;
                Ok(Compressed {
                    stats: CompressStats {
                        raw_bytes,
                        compressed_bytes: blob.len() as u64,
                    },
                    blob,
                    rel_bound: None,
                    achieved: None,
                })
            }
            _ => {
                self.last = None;
                self.session.compress(data)
            }
        }
    }

    /// Compress one snapshot straight into a byte sink (bytes identical
    /// to [`Pipeline::compress`]).
    pub fn compress_into(
        &mut self,
        data: &NdArray<T>,
        sink: &mut dyn std::io::Write,
    ) -> Result<CompressStats> {
        let out = self.compress(data)?;
        sink.write_all(&out.blob)
            .map_err(qoz_codec::CodecError::from)?;
        Ok(out.stats)
    }

    /// Compress one snapshot as the next member of a temporal chain.
    ///
    /// The pipeline holds a [`TemporalSession`]: the first call (and any
    /// call after a shape change or [`Pipeline::reset_chain`]) emits an
    /// independent *keyframe*; subsequent calls code the residual
    /// against the previous snapshot's **reconstruction** whenever a
    /// cheap sampled estimate says the residual is the cheaper stream,
    /// falling back to a keyframe otherwise. Either way every member is
    /// a self-describing temporal frame and honors the session bound
    /// against its own raw input — the composed-bound contract (see
    /// `qoz_temporal`) means error never accumulates along the chain.
    ///
    /// Inner streams run the same warm path as [`Pipeline::compress`]
    /// (plan cache + scratch arena); because a delta's bound is only
    /// the snapshot's resolved bound, consecutive deltas replay one
    /// tuned plan. On the QoZ backend the chain state is the engine's
    /// own reconstruction, so no snapshot is decoded again; other
    /// backends decode their output once. Only [`Target::Bound`]
    /// sessions can chain: quality targets re-search the bound per
    /// snapshot, which has no stable composed-error story.
    pub fn compress_next(&mut self, data: &NdArray<T>) -> Result<(TemporalOutcome, Compressed)> {
        let Target::Bound(bound) = self.session.target() else {
            return Err(ApiError::InvalidTarget(
                "temporal chains require a bound target",
            ));
        };
        let raw_bytes = (data.len() * T::BYTES) as u64;
        let caps_before = self.scratch.capacities();
        let Pipeline {
            engine,
            scratch,
            temporal,
            stats,
            last,
            session,
        } = self;
        let registry = session.registry();
        // The QoZ engine predicts from reconstructed values, so after a
        // pass `scratch.work` already holds what a decoder of the stream
        // would produce; the encoder hands a copy to the chain state
        // instead of decoding its own output. Other backends decode.
        let recon: Cell<Option<NdArray<T>>> = Cell::new(None);
        let (outcome, blob) = temporal.compress_next(
            data,
            bound,
            |field, field_bound| match engine {
                Engine::Qoz(inner) => {
                    let (qoz, cache) = &mut **inner;
                    let (plan, outcome) = qoz.plan_cached(field, field_bound, cache);
                    stats.record(outcome);
                    *last = Some(outcome);
                    let blob = qoz.compress_with_plan_scratched(field, &plan, &mut *scratch);
                    recon.set(Some(NdArray::from_vec(field.shape(), scratch.work.clone())));
                    blob
                }
                Engine::Other(codec) => {
                    *last = None;
                    codec.compress_with_scratch(field, field_bound, &mut *scratch)
                }
            },
            |inner| match recon.take() {
                Some(r) => Ok(r),
                None => registry.decompress(inner),
            },
        )?;
        match outcome {
            TemporalOutcome::Keyframe => self.stats.chain_keyframes += 1,
            TemporalOutcome::Delta => self.stats.chain_deltas += 1,
            TemporalOutcome::Fallback => self.stats.chain_fallbacks += 1,
        }
        self.stats.compress_grow_events += self
            .scratch
            .capacities()
            .iter()
            .zip(caps_before.iter())
            .filter(|(now, before)| now > before)
            .count() as u64;
        Ok((
            outcome,
            Compressed {
                stats: CompressStats {
                    raw_bytes,
                    compressed_bytes: blob.len() as u64,
                },
                blob,
                rel_bound: None,
                achieved: None,
            },
        ))
    }

    /// Decode the next member of a temporal chain and return its
    /// reconstruction (borrowed from the pipeline's chain state; clone
    /// to keep it past the next call).
    ///
    /// Feed chain members in order starting at a keyframe. Plain
    /// (non-temporal) streams are accepted as chain resets, so archives
    /// mixing independent and chained snapshots decode seamlessly; a
    /// delta without a predecessor is a clean error, never a wrong
    /// answer. Stage buffers ride the pipeline's scratch arena.
    pub fn decompress_next(&mut self, blob: &[u8]) -> Result<&NdArray<T>> {
        let Pipeline {
            temporal,
            scratch,
            stats,
            session,
            ..
        } = self;
        let registry = session.registry();
        let grows_before = scratch.decode_grow_events();
        let recon = temporal.decompress_next(blob, |inner| {
            let mut out = NdArray::zeros(Shape::d1(1));
            registry.decompress_into(inner, &mut *scratch, &mut out)?;
            Ok(out)
        })?;
        stats.decode_grow_events += scratch.decode_grow_events() - grows_before;
        Ok(recon)
    }

    /// Forget the temporal chain: the next [`Pipeline::compress_next`]
    /// emits a keyframe and the next [`Pipeline::decompress_next`]
    /// requires one. Does not touch the plan cache or scratch arena.
    pub fn reset_chain(&mut self) {
        self.temporal.reset();
    }

    /// Decompress any workspace stream (header-driven dispatch, same as
    /// [`Session::decompress`]).
    pub fn decompress(&self, blob: &[u8]) -> Result<NdArray<T>> {
        self.session.decompress(blob)
    }

    /// Decompress any workspace stream into a caller-provided array,
    /// staging every stage buffer in the pipeline's scratch arena — the
    /// read-path mirror of [`Pipeline::compress`]. The destination is
    /// reshaped in place; with a warm arena and a previously-seen shape
    /// the whole decode performs zero stage-buffer allocations
    /// (`stats().decode_grow_events` stays flat). Dispatch is
    /// header-driven, so any workspace stream decodes here.
    pub fn decompress_into(&mut self, blob: &[u8], out: &mut NdArray<T>) -> Result<()> {
        let grows_before = self.scratch.decode_grow_events();
        self.session
            .registry()
            .decompress_into(blob, &mut self.scratch, out)?;
        self.stats.decode_grow_events += self.scratch.decode_grow_events() - grows_before;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoz_codec::ErrorBound;
    use qoz_datagen::{Dataset, SizeClass};

    #[test]
    fn warm_bytes_equal_cold_bytes_on_unchanged_data() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let cold = session.compress(&data).unwrap();
        let mut pipe = session.pipeline::<f32>();
        let first = pipe.compress(&data).unwrap();
        let second = pipe.compress(&data).unwrap();
        assert_eq!(
            first.blob, cold.blob,
            "pipeline cold call must match session"
        );
        assert_eq!(second.blob, cold.blob, "warm call must be byte-identical");
        assert_eq!(pipe.stats().cold_tunes, 1);
        assert_eq!(pipe.stats().warm_hits, 1);
        assert_eq!(pipe.last_outcome(), Some(PlanOutcome::WarmHit));
        let recon = pipe.decompress(&second.blob).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&data);
        assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    }

    #[test]
    fn non_qoz_backends_reuse_scratch_with_identical_bytes() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        for backend in [BackendId::Sz3, BackendId::Zfp] {
            let session = Session::builder()
                .backend(backend)
                .bound(ErrorBound::Rel(1e-3))
                .build()
                .unwrap();
            let cold = session.compress(&data).unwrap();
            let mut pipe = session.pipeline::<f32>();
            for _ in 0..2 {
                let out = pipe.compress(&data).unwrap();
                assert_eq!(out.blob, cold.blob, "{backend:?}");
            }
            assert_eq!(pipe.last_outcome(), None);
        }
    }

    #[test]
    fn differently_shaped_inputs_regrow_safely() {
        let big = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let small = big.extract_region(&qoz_tensor::Region::new(
            &[0; 3],
            &[
                big.shape().dim(0) / 2,
                big.shape().dim(1),
                big.shape().dim(2),
            ],
        ));
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        // big -> small -> big: every call must equal its cold stream.
        for data in [&big, &small, &big] {
            let warmed = pipe.compress(data).unwrap();
            let cold = session.compress(data).unwrap();
            assert_eq!(warmed.blob, cold.blob);
        }
        assert_eq!(pipe.stats().retunes, 2, "shape flips retune");
    }

    #[test]
    fn quality_targets_delegate_to_session() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let session = Session::builder().psnr(50.0).build().unwrap();
        let mut pipe = session.pipeline::<f32>();
        let out = pipe.compress(&data).unwrap();
        assert!(out.achieved.unwrap() >= 50.0);
        assert_eq!(pipe.last_outcome(), None);
        assert_eq!(pipe.stats(), PipelineStats::default());
    }

    #[test]
    fn primed_pipeline_serves_first_call_warm() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let mut cold_pipe = session.pipeline::<f32>();
        assert!(cold_pipe.plan_snapshot().is_none(), "cold cache: no snap");
        let cold = cold_pipe.compress(&data).unwrap();
        let snap = cold_pipe.plan_snapshot().expect("tuned cache snapshots");

        // A fresh pipeline primed with the snapshot skips the cold tune
        // and still emits byte-identical output.
        let mut primed = session.pipeline::<f32>();
        primed.prime_plan(snap);
        let out = primed.compress(&data).unwrap();
        assert_eq!(primed.last_outcome(), Some(PlanOutcome::WarmHit));
        assert_eq!(out.blob, cold.blob);
        assert_eq!(primed.stats().cold_tunes, 0);
    }

    fn drifting_series(snapshots: usize) -> Vec<NdArray<f32>> {
        let shape = qoz_tensor::Shape::new(&[snapshots, 24, 24, 24]);
        let field = qoz_datagen::time_series_like(shape, 0xC0FFEE);
        (0..snapshots)
            .map(|t| {
                field.extract_region(&qoz_tensor::Region::new(&[t, 0, 0, 0], &[1, 24, 24, 24]))
            })
            .collect()
    }

    #[test]
    fn chain_roundtrip_honors_bound_and_counts_outcomes() {
        let snaps = drifting_series(5);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let mut enc = session.pipeline::<f32>();
        let mut frames = Vec::new();
        for s in &snaps {
            let (_, out) = enc.compress_next(s).unwrap();
            frames.push(out.blob);
        }
        assert_eq!(enc.stats().chain_total(), snaps.len() as u64);
        assert!(
            enc.stats().chain_keyframes >= 1,
            "chains start at a keyframe"
        );

        let mut dec = session.pipeline::<f32>();
        for (s, frame) in snaps.iter().zip(&frames) {
            let abs = ErrorBound::Rel(1e-3).absolute(s);
            let recon = dec.decompress_next(frame).unwrap();
            assert!(s.max_abs_diff(recon) <= abs * (1.0 + 1e-9) + 4.0 * f32::EPSILON as f64);
        }
    }

    #[test]
    fn chain_bytes_identical_on_repeat() {
        let snaps = drifting_series(3);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let run = || {
            let mut pipe = session.pipeline::<f32>();
            snaps
                .iter()
                .map(|s| pipe.compress_next(s).unwrap().1.blob)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "chain coding must be deterministic");
    }

    #[test]
    fn keyframe_decodes_standalone_but_delta_does_not() {
        let snaps = drifting_series(3);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        let mut frames = Vec::new();
        let mut outcomes = Vec::new();
        for s in &snaps {
            let (o, out) = pipe.compress_next(s).unwrap();
            outcomes.push(o);
            frames.push(out.blob);
        }
        assert_eq!(outcomes[0], qoz_temporal::TemporalOutcome::Keyframe);
        // A keyframe is a complete stream: Session::decompress strips
        // the frame transparently...
        let recon: NdArray<f32> = session.decompress(&frames[0]).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&snaps[0]);
        assert!(snaps[0].max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
        // ...and the keyframe's inner bytes equal the independent encode
        // of the same snapshot (the frame only adds the outer header).
        let plain = session.compress(&snaps[0]).unwrap();
        let (_, inner) = qoz_codec::stream::unwrap_temporal(&frames[0]).unwrap();
        assert_eq!(inner, &plain.blob[..], "keyframe payload = plain stream");
        // A delta member without its chain is a clean error everywhere.
        if let Some(delta) = outcomes
            .iter()
            .position(|&o| o == qoz_temporal::TemporalOutcome::Delta)
        {
            assert!(session.decompress::<f32>(&frames[delta]).is_err());
            let mut out = NdArray::zeros(qoz_tensor::Shape::d1(1));
            assert!(pipe.decompress_into(&frames[delta], &mut out).is_err());
        }
    }

    #[test]
    fn reset_chain_forces_a_keyframe() {
        let snaps = drifting_series(3);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        for s in &snaps {
            pipe.compress_next(s).unwrap();
        }
        pipe.reset_chain();
        let (o, _) = pipe.compress_next(&snaps[0]).unwrap();
        assert_eq!(o, qoz_temporal::TemporalOutcome::Keyframe);
    }

    #[test]
    fn quality_targets_cannot_chain() {
        let snaps = drifting_series(1);
        let session = Session::builder().psnr(50.0).build().unwrap();
        let mut pipe = session.pipeline::<f32>();
        assert!(matches!(
            pipe.compress_next(&snaps[0]),
            Err(crate::ApiError::InvalidTarget(_))
        ));
    }

    #[test]
    fn compress_into_streams_identical_bytes() {
        let data = Dataset::Nyx.generate(SizeClass::Tiny, 0);
        let session = Session::builder()
            .bound(ErrorBound::Rel(1e-2))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        let direct = pipe.compress(&data).unwrap();
        let mut sink = Vec::new();
        let stats = pipe.compress_into(&data, &mut sink).unwrap();
        assert_eq!(sink, direct.blob);
        assert_eq!(stats.compressed_bytes, direct.blob.len() as u64);
    }
}
