//! End-to-end contract for temporal residual chains.
//!
//! The temporal coder's promise is pointwise and per-snapshot: because
//! each residual is formed against the *previous reconstruction* (never
//! the previous raw input) and quantized to the bound resolved against
//! its own snapshot, decoding a chain of any length reproduces every
//! snapshot within that snapshot's bound — errors do not accumulate.
//! These tests pin that promise across long chains, both scalar widths,
//! chains where the estimator falls back to keyframes mid-stream, and
//! chains holding a NaN or ±Inf. They also pin that a chain's deltas
//! replay one tuned plan, and that the reconstruction the encoder keeps
//! equals a real decode of its output.

use qoz_suite::api::{Session, TemporalMode};
use qoz_suite::archive::{snapshot_name, ArchiveAppender, ArchiveReader, ArchiveWriter};
use qoz_suite::codec::{Compressor, ErrorBound, Scratch};
use qoz_suite::datagen;
use qoz_suite::qoz::PlanCache;
use qoz_suite::temporal::TemporalSession;
use qoz_suite::tensor::{NdArray, Scalar, Shape};

const SNAPSHOTS: usize = 10;
const EPS: f64 = 1e-3;

/// Consecutive same-shape 3D snapshots of one slowly evolving field.
fn series_f32(count: usize, seed: u64) -> Vec<NdArray<f32>> {
    snapshots(&datagen::time_series_like(
        Shape::new(&[count, 20, 24, 24]),
        seed,
    ))
}

fn widen(s: &NdArray<f32>) -> NdArray<f64> {
    NdArray::from_vec(s.shape(), s.as_slice().iter().map(|&v| v as f64).collect())
}

/// Per-snapshot bound plus a couple of ULPs for the chain accumulate.
fn slack(abs: f64, ulp: f64) -> f64 {
    abs * (1.0 + 1e-9) + 4.0 * ulp
}

#[test]
fn long_chain_decodes_every_snapshot_within_bound_f32() {
    let snaps = series_f32(SNAPSHOTS, 0xA11CE);
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f32>();
    let frames: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| enc.compress_next(s).unwrap().1.blob)
        .collect();
    let stats = enc.stats();
    assert!(stats.chain_keyframes >= 1, "a chain starts at a keyframe");
    assert!(
        stats.chain_deltas >= SNAPSHOTS as u64 / 2,
        "a slowly evolving series should mostly delta-code, got {stats:?}"
    );

    let mut dec = session.pipeline::<f32>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f32::EPSILON as f64),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

#[test]
fn long_chain_decodes_every_snapshot_within_bound_f64() {
    let snaps: Vec<NdArray<f64>> = series_f32(SNAPSHOTS, 0xB0B).iter().map(widen).collect();
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f64>();
    let frames: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| enc.compress_next(s).unwrap().1.blob)
        .collect();
    assert!(enc.stats().chain_deltas >= 1, "f64 chains delta-code too");

    let mut dec = session.pipeline::<f64>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f64::EPSILON),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

#[test]
fn regime_change_falls_back_to_keyframe_and_chain_still_holds() {
    // Eight snapshots: a smooth series that flips sign halfway through.
    // The flipped snapshot's residual is ~2x the data itself, so the
    // estimator must refuse to delta-code it (a fallback keyframe), and
    // the bound must hold on every snapshot either side of the break.
    let mut snaps = series_f32(8, 0xF1A5);
    for s in snaps.iter_mut().skip(4) {
        let flipped: Vec<f32> = s.as_slice().iter().map(|v| -v).collect();
        *s = NdArray::from_vec(s.shape(), flipped);
    }
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();

    let mut enc = session.pipeline::<f32>();
    let mut frames = Vec::new();
    let mut outcomes = Vec::new();
    for s in &snaps {
        let (outcome, out) = enc.compress_next(s).unwrap();
        outcomes.push(outcome);
        frames.push(out.blob);
    }
    assert!(
        enc.stats().chain_fallbacks >= 1,
        "the sign flip must trigger an estimator fallback, got {outcomes:?}"
    );
    assert_eq!(
        outcomes[4].mode(),
        TemporalMode::Keyframe,
        "the regime-change snapshot must restart the chain"
    );

    let mut dec = session.pipeline::<f32>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, f32::EPSILON as f64),
            "snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
}

/// Temporal coding beats independent coding of the same snapshots at an
/// equal bound. The advecting series moves structure through the volume
/// without decaying it, so its win is from motion coherence alone. The
/// checkpoint-like series (12 snapshots of the tiny Miranda shape) must
/// come out at least 1.5x smaller.
#[test]
fn advecting_series_delta_codes_and_beats_independent() {
    let advect = datagen::time_series_advect(Shape::new(&[8, 16, 24, 24]), 7);
    let checkpoint = datagen::time_series_like(Shape::new(&[12, 24, 32, 32]), 0xC0FFEE);
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();
    // (name, series, minimum CR gain over independent coding)
    for (name, field, min_gain) in [("advect", advect, 1.0), ("checkpoint", checkpoint, 1.5)] {
        let snaps = snapshots(&field);

        let mut ind = session.pipeline::<f32>();
        let ind_bytes: usize = snaps
            .iter()
            .map(|s| ind.compress(s).unwrap().blob.len())
            .sum();

        let mut enc = session.pipeline::<f32>();
        let chain_bytes: usize = snaps
            .iter()
            .map(|s| enc.compress_next(s).unwrap().1.blob.len())
            .sum();
        assert!(
            enc.stats().chain_deltas >= 4,
            "{name}: the series should delta-code, got {:?}",
            enc.stats()
        );
        let gain = ind_bytes as f64 / chain_bytes as f64;
        assert!(
            chain_bytes < ind_bytes && gain >= min_gain,
            "{name}: temporal coding should beat independent by {min_gain}x, \
             got {gain:.3}x ({chain_bytes} vs {ind_bytes} bytes)"
        );
    }
}

/// The snapshots of a 4-D `[t, x, y, z]` field, each as a 3-D array.
fn snapshots(field: &NdArray<f32>) -> Vec<NdArray<f32>> {
    let shape = field.shape();
    let base = Shape::d3(shape.dim(1), shape.dim(2), shape.dim(3));
    field
        .as_slice()
        .chunks_exact(base.len())
        .map(|s| NdArray::from_vec(base, s.to_vec()))
        .collect()
}

/// The chain `Pipeline::compress_next` codes, rebuilt from its public
/// parts with a decode closure that really decodes each inner stream.
fn decoding_reference<T: Scalar>(session: &Session, snaps: &[NdArray<T>]) -> Vec<Vec<u8>> {
    let qoz = session.registry().qoz();
    let mut cache = PlanCache::new(session.drift_tolerance());
    let mut scratch = Scratch::new();
    let mut chain = TemporalSession::new();
    snaps
        .iter()
        .map(|s| {
            chain
                .compress_next(
                    s,
                    ErrorBound::Rel(EPS),
                    |field, bound| {
                        let (plan, _) = qoz.plan_cached(field, bound, &mut cache);
                        qoz.compress_with_plan_scratched(field, &plan, &mut scratch)
                    },
                    |inner| qoz.decompress(inner),
                )
                .unwrap()
                .1
        })
        .collect()
}

/// Code `snaps` through a pipeline, decode them back, and check the
/// warm count, the bound and the bytes against [`decoding_reference`].
fn check_replayed_chain<T: Scalar>(snaps: &[NdArray<T>], what: &str) {
    let session = Session::builder()
        .bound(ErrorBound::Rel(EPS))
        .build()
        .unwrap();
    let mut enc = session.pipeline::<T>();
    let frames: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| enc.compress_next(s).unwrap().1.blob)
        .collect();
    let stats = enc.stats();
    assert!(
        stats.warm() >= 8,
        "{what}: deltas should replay the tuned plan, got {stats:?}"
    );
    let mut dec = session.pipeline::<T>();
    for (t, (s, frame)) in snaps.iter().zip(&frames).enumerate() {
        let recon = dec.decompress_next(frame).unwrap();
        let abs = ErrorBound::Rel(EPS).absolute(s);
        let ulp = if T::BYTES == 4 {
            f32::EPSILON as f64
        } else {
            f64::EPSILON
        };
        let err = s.max_abs_diff(recon);
        assert!(
            err <= slack(abs, ulp),
            "{what} snapshot {t}: max error {err:e} exceeds bound {abs:e}"
        );
    }
    assert!(
        frames == decoding_reference(&session, snaps),
        "{what}: the handed-over reconstruction must equal a real decode"
    );
}

#[test]
fn chains_replay_tuned_plans_and_match_a_decoding_chain() {
    let shape4 = Shape::new(&[12, 16, 32, 32]);
    for (what, field) in [
        ("like", datagen::time_series_like(shape4, 0x5EED)),
        ("advect", datagen::time_series_advect(shape4, 7)),
    ] {
        let snaps = snapshots(&field);
        check_replayed_chain(&snaps, &format!("{what} f32"));
        let wide: Vec<NdArray<f64>> = snaps.iter().map(widen).collect();
        check_replayed_chain(&wide, &format!("{what} f64"));
    }
}

/// Four 24x48x48 snapshots; snapshot 1 holds `bad` at one point the
/// keyframe estimator's ~1K strided probes skip, so that snapshot is
/// still delta-coded.
fn chain_with_one_non_finite(bad: f32) -> (Vec<NdArray<f32>>, usize) {
    let mut snaps = snapshots(&datagen::time_series_like(
        Shape::new(&[4, 24, 48, 48]),
        0xBAD,
    ));
    let stride = snaps[1].len() / 1024;
    let at = 1 + stride / 2;
    snaps[1].as_mut_slice()[at] = bad;
    (snaps, at)
}

/// Invariant 1 with non-finite inputs: finite points decode finite and
/// within `abs`, non-finite points decode to the same class.
fn assert_within_bound(orig: &NdArray<f32>, recon: &NdArray<f32>, abs: f64, what: &str) {
    for (i, (&x, &y)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
        let ok = if x.is_nan() {
            y.is_nan()
        } else if x.is_infinite() {
            x == y
        } else {
            y.is_finite() && (x as f64 - y as f64).abs() <= slack(abs, f32::EPSILON as f64)
        };
        assert!(ok, "{what}: point {i} is {x} but decodes as {y}");
    }
}

#[test]
fn non_finite_point_does_not_poison_the_pipeline_chain() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let (snaps, at) = chain_with_one_non_finite(bad);
        let session = Session::builder()
            .bound(ErrorBound::Rel(EPS))
            .build()
            .unwrap();
        let mut enc = session.pipeline::<f32>();
        let mut dec = session.pipeline::<f32>();
        for (t, s) in snaps.iter().enumerate() {
            let (outcome, out) = enc.compress_next(s).unwrap();
            let recon = dec.decompress_next(&out.blob).unwrap();
            let abs = ErrorBound::Rel(EPS).absolute(s);
            assert_within_bound(s, recon, abs, &format!("{bad} snapshot {t} (point {at})"));
            if t == 2 {
                assert_eq!(
                    outcome.mode(),
                    TemporalMode::Keyframe,
                    "{bad}: a non-finite predecessor forces a keyframe"
                );
            }
        }
    }
}

#[test]
fn non_finite_point_does_not_poison_the_archive_chain() {
    let codec = qoz_suite::sz3::Sz3::default();
    let empty = ArchiveWriter::new().finish();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let (snaps, at) = chain_with_one_non_finite(bad);
        let mut app = ArchiveAppender::from_bytes(&empty)
            .unwrap()
            .with_chunk_side(16);
        for (t, s) in snaps.iter().enumerate() {
            app.add_snapshot_chained("u", t as u64, s, &codec, ErrorBound::Rel(EPS))
                .unwrap();
        }
        let bytes = app.finish();
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        for (t, s) in snaps.iter().enumerate() {
            let recon: NdArray<f32> = r.read_full(&snapshot_name("u", t as u64)).unwrap();
            let abs = ErrorBound::Rel(EPS).absolute(s);
            assert_within_bound(s, &recon, abs, &format!("{bad} snapshot {t} (point {at})"));
        }
    }
}
