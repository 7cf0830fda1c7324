//! Golden-bitstream regression tests.
//!
//! The compressed stream format is a compatibility contract: the
//! line-kernel traversal, the table-driven Huffman coder, and the
//! parallel chunk pipeline are all required to produce output
//! byte-identical to the original scalar implementations. These tests
//! pin the exact bytes (FNV-1a hash + length) of the streams produced
//! from a fixed datagen seed, so any refactor that perturbs traversal
//! order, canonical code assignment, or bit packing fails loudly here
//! rather than silently breaking archived data.
//!
//! The recorded constants were captured from the pre-refactor
//! (odometer-traversal, bit-at-a-time Huffman) implementation.

use qoz_suite::codec::{Compressor, ErrorBound};
use qoz_suite::datagen::{Dataset, SizeClass};

/// FNV-1a, 64-bit. Dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn golden_case<C: Compressor<f32>>(c: &C, ds: Dataset, eps: f64) -> (usize, u64) {
    let data = ds.generate(SizeClass::Tiny, 0);
    let blob = c.compress(&data, ErrorBound::Rel(eps));
    // The stream must still round-trip within bound — a hash match on a
    // broken stream would be meaningless.
    let recon = c.decompress(&blob).expect("golden blob must decode");
    let abs = ErrorBound::Rel(eps).absolute(&data);
    assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    (blob.len(), fnv1a(&blob))
}

#[test]
fn sz3_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::sz3::Sz3::default();
    let expect: [(Dataset, f64, usize, u64); 4] = [
        (Dataset::Miranda, 1e-3, 12836, 0xa60626d62c4385a4),
        (Dataset::Miranda, 1e-2, 3729, 0x0120643a2f223cca),
        (Dataset::CesmAtm, 1e-3, 6130, 0x3f8ccbf2c4fb0557),
        (Dataset::Nyx, 1e-3, 25639, 0x625f05a81f3e63a4),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "sz3 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

#[test]
fn qoz_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::qoz::Qoz::default();
    let expect: [(Dataset, f64, usize, u64); 3] = [
        (Dataset::Miranda, 1e-3, 12809, 0xf09f5ff06c6c54f4),
        (Dataset::CesmAtm, 1e-3, 6143, 0x1a46cc7eb06a1027),
        (Dataset::Hurricane, 1e-2, 8246, 0x096d288f9fe01d4e),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "qoz stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

/// Deterministic f64 field: the seeded f32 dataset widened per element
/// (exact, so the stream depends only on the datagen seed).
fn wide_field(ds: Dataset) -> qoz_suite::tensor::NdArray<f64> {
    let f = ds.generate(SizeClass::Tiny, 0);
    qoz_suite::tensor::NdArray::from_vec(
        f.shape(),
        f.as_slice().iter().map(|&v| v as f64).collect(),
    )
}

fn golden_case_f64<C: Compressor<f64>>(c: &C, ds: Dataset, eps: f64) -> (usize, u64) {
    let data = wide_field(ds);
    let blob = c.compress(&data, ErrorBound::Rel(eps));
    let recon = c.decompress(&blob).expect("golden blob must decode");
    let abs = ErrorBound::Rel(eps).absolute(&data);
    assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));
    (blob.len(), fnv1a(&blob))
}

/// The f64 side of the format contract: the double-precision encode path
/// (8-byte unpredictable/anchor records, f64 Kraft accounting in the
/// Huffman table check) is pinned with its own golden constants.
#[test]
fn sz3_f64_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::sz3::Sz3::default();
    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12852, 0xa2b3a336bc7e5a8e),
        (Dataset::CesmAtm, 1e-3, 6130, 0x912a9908483c668d),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case_f64(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "sz3 f64 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

#[test]
fn qoz_f64_streams_are_byte_identical_to_seed() {
    let c = qoz_suite::qoz::Qoz::default();
    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12813, 0xd7806195949d9ed7),
        (Dataset::Hurricane, 1e-2, 8262, 0xb44c6fab85a98c7a),
    ];
    for (ds, eps, len, hash) in expect {
        let (got_len, got_hash) = golden_case_f64(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "qoz f64 stream changed for {ds:?} eps={eps:e}: got ({got_len}, {got_hash:#x})"
        );
    }
}

/// The warm pipeline path (cached plan + reused scratch arena) must emit
/// the same pinned bytes as the cold path: caching changes when work
/// happens, never what is written. Both the cold (first) and warm
/// (second) pipeline calls are checked against the golden constants of
/// the allocating implementation above.
#[test]
fn warm_pipeline_streams_match_cold_golden() {
    use qoz_suite::api::Session;

    let expect: [(Dataset, f64, usize, u64); 2] = [
        (Dataset::Miranda, 1e-3, 12809, 0xf09f5ff06c6c54f4),
        (Dataset::CesmAtm, 1e-3, 6143, 0x1a46cc7eb06a1027),
    ];
    for (ds, eps, len, hash) in expect {
        let data = ds.generate(SizeClass::Tiny, 0);
        let session = Session::builder()
            .bound(ErrorBound::Rel(eps))
            .build()
            .unwrap();
        let mut pipe = session.pipeline::<f32>();
        for (pass, label) in [(0, "cold"), (1, "warm")] {
            let blob = pipe.compress(&data).unwrap().blob;
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, hash),
                "{label} pipeline stream changed for {ds:?} eps={eps:e} (pass {pass})"
            );
        }
        assert_eq!(
            pipe.stats().warm_hits,
            1,
            "{ds:?}: second pass must be warm"
        );
    }
}

/// QoZ tuned for PSNR, SSIM and autocorrelation: unlike the CR tuner
/// pinned above, these walks run the Table-I probe trials at shifted
/// bounds, so every tuner decision they make, and through it every byte
/// of the trial kernels, shows in the stream.
#[test]
fn metric_tuned_qoz_streams_are_byte_identical_to_seed() {
    use qoz_suite::metrics::QualityMetric;

    // PSNR and SSIM are pinned at 1e-2, where they tune Miranda away
    // from (alpha, beta) = (1, 1); at 1e-3 both keep the CR pins' bytes.
    let expect: [(QualityMetric, Dataset, f64, usize, u64); 6] = [
        (
            QualityMetric::Psnr,
            Dataset::Miranda,
            1e-2,
            3659,
            0xcfdc377e28bf1a64,
        ),
        (
            QualityMetric::Psnr,
            Dataset::CesmAtm,
            1e-2,
            2259,
            0x31503bfd52c3b217,
        ),
        (
            QualityMetric::Ssim,
            Dataset::Miranda,
            1e-2,
            3542,
            0x5266fdca18d07a0b,
        ),
        (
            QualityMetric::Ssim,
            Dataset::CesmAtm,
            1e-2,
            2259,
            0x31503bfd52c3b217,
        ),
        (
            QualityMetric::AutoCorrelation,
            Dataset::Miranda,
            1e-3,
            13404,
            0x6fb6a1d7ef345cd6,
        ),
        (
            QualityMetric::AutoCorrelation,
            Dataset::CesmAtm,
            1e-3,
            6857,
            0x13d053ad85e36de5,
        ),
    ];
    for (metric, ds, eps, len, hash) in expect {
        let c = qoz_suite::qoz::Qoz::for_metric(metric);
        let (got_len, got_hash) = golden_case(&c, ds, eps);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "{metric:?}-tuned qoz stream changed for {ds:?} eps={eps:e}: \
             got ({got_len}, {got_hash:#x})"
        );
    }
}

/// Quality-target streams: the sampled bisection, the tuner at the
/// bound it settles on, and the verifying full passes. Miranda at 70 dB
/// passes on its first pass; CESM at 60 dB misses it (59.99 dB) and
/// returns its second, at half the bound.
#[test]
fn psnr_target_stream_is_byte_identical_to_seed() {
    use qoz_suite::api::Session;

    let expect = [
        (Dataset::Miranda, 70.0, 16164, 0xa25874ea329ac0ad),
        (Dataset::CesmAtm, 60.0, 6425, 0xafe635c258379c91),
    ];
    for (ds, db, len, hash) in expect {
        let data = ds.generate(SizeClass::Tiny, 0);
        let session = Session::builder().psnr(db).build().unwrap();
        let out = session.compress(&data).unwrap();
        let recon: qoz_suite::tensor::NdArray<f32> = session.decompress(&out.blob).unwrap();
        assert!(qoz_suite::metrics::psnr(&data, &recon) >= db);
        assert_eq!(
            (out.blob.len(), fnv1a(&out.blob)),
            (len, hash),
            "{ds:?} Psnr({db}) stream changed: got ({}, {:#x})",
            out.blob.len(),
            fnv1a(&out.blob)
        );
    }
}

/// The SZ2 and MGARD+ baselines share the quantizer and the entropy
/// stage with the interpolation codecs but run their own predictors.
#[test]
fn sz2_and_mgard_streams_are_byte_identical_to_seed() {
    let sz2 = golden_case(&qoz_suite::sz2::Sz2::default(), Dataset::Miranda, 1e-3);
    assert_eq!(
        sz2,
        (14018, 0x4aab33d731f29303),
        "sz2 stream changed: got {sz2:x?}"
    );
    let mgard = golden_case(&qoz_suite::mgard::Mgard, Dataset::CesmAtm, 1e-3);
    assert_eq!(
        mgard,
        (7631, 0xddef87a6c46f1cb7),
        "mgard stream changed: got {mgard:x?}"
    );
}

/// The members of a four-snapshot temporal chain after its keyframe:
/// residual streams coded with a replayed plan.
#[test]
fn temporal_delta_members_are_byte_identical_to_seed() {
    use qoz_suite::api::{Session, TemporalMode};
    use qoz_suite::tensor::{NdArray, Shape};

    let series = qoz_suite::datagen::time_series_like(Shape::new(&[4, 20, 24, 24]), 0x5EED);
    let snap = Shape::d3(20, 24, 24);
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let mut pipe = session.pipeline::<f32>();
    let expect: [(usize, u64); 3] = [
        (4771, 0x729887dbb2571e13),
        (5847, 0xa22b6e700a47eb72),
        (6874, 0xeb05044e2b68983f),
    ];
    let mut got = Vec::new();
    for (t, s) in series.as_slice().chunks_exact(snap.len()).enumerate() {
        let (outcome, out) = pipe
            .compress_next(&NdArray::from_vec(snap, s.to_vec()))
            .unwrap();
        if t > 0 {
            assert_eq!(outcome.mode(), TemporalMode::Delta, "member {t}");
            got.push((out.blob.len(), fnv1a(&out.blob)));
        }
    }
    assert_eq!(got, expect, "delta members changed: got {got:x?}");
}

/// A QZAR container built the way qozbench's `region-reads` builds its
/// archive: a QoZ `Rel(1e-3)` variable through `ArchiveWriter`, then a
/// chained `time_series_advect` series through `ArchiveAppender`. Delta
/// members hold residuals against the appender's rebuild of their
/// predecessor, so the pin covers that rebuild as well as the chunk
/// blobs, TOC and container layout: snapshots 0–2 go in one append, so
/// snapshot 2's predecessor is a staged delta, and snapshot 3 in a
/// second, over a stored chain.
#[test]
fn chained_archive_container_is_byte_identical_to_seed() {
    use qoz_suite::api::Session;
    use qoz_suite::archive::{
        snapshot_name, ArchiveAppender, ArchiveReader, ArchiveWriter, TemporalKind,
    };
    use qoz_suite::tensor::{NdArray, Shape};

    let bound = ErrorBound::Rel(1e-3);
    let codec = Session::builder()
        .bound(bound)
        .build()
        .unwrap()
        .codec::<f32>();
    let mut w = ArchiveWriter::new().with_chunk_side(16);
    let v = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    w.add_variable("v", &v, &*codec, bound).unwrap();
    let mut bytes = w.finish();

    let snap = Shape::d3(16, 20, 20);
    let series = qoz_suite::datagen::time_series_advect(Shape::new(&[4, 16, 20, 20]), 0x5EED);
    let snapshots: Vec<NdArray<f32>> = series
        .as_slice()
        .chunks_exact(snap.len())
        .map(|s| NdArray::from_vec(snap, s.to_vec()))
        .collect();
    let mut kinds = Vec::new();
    for steps in [0..3, 3..4] {
        let mut app = ArchiveAppender::from_bytes(&bytes)
            .unwrap()
            .with_chunk_side(16);
        for t in steps {
            let kind = app.add_snapshot_chained("ts", t as u64, &snapshots[t], &*codec, bound);
            kinds.push(kind.unwrap());
        }
        bytes = app.finish();
    }
    let delta = |t: u64| TemporalKind::Delta {
        prev: snapshot_name("ts", t),
    };
    assert_eq!(
        kinds,
        [TemporalKind::Keyframe, delta(0), delta(1), delta(2)]
    );

    // Every member must still decode within its bound.
    let r = ArchiveReader::from_bytes(&bytes).unwrap();
    let got: NdArray<f32> = r.read_full("v").unwrap();
    assert!(v.max_abs_diff(&got) <= bound.absolute(&v) * (1.0 + 1e-9));
    for (t, orig) in snapshots.iter().enumerate() {
        let got: NdArray<f32> = r.read_full(&snapshot_name("ts", t as u64)).unwrap();
        let abs = bound.absolute(orig);
        assert!(orig.max_abs_diff(&got) <= abs * (1.0 + 1e-9), "ts@t{t}");
    }
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (42566, 0xe11ccef47b2cec13),
        "QZAR container changed: got ({}, {:#x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}
