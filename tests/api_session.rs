//! Integration tests for the `qoz_api` facade: every backend × every
//! `Target` variant, plus streaming/buffered equivalence and f64
//! coverage through the registry.
//!
//! Tolerances asserted here are the documented ones (see the `qoz_api`
//! crate docs): bounds are hard; PSNR/SSIM targets are met or exceeded
//! when reachable; ratio targets land within ±50% worst case.

use qoz_suite::api::{ApiError, BackendId, BackendRegistry, Session};
use qoz_suite::codec::{CodecError, ErrorBound};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::metrics;
use qoz_suite::tensor::NdArray;

fn field() -> NdArray<f32> {
    Dataset::CesmAtm.generate(SizeClass::Tiny, 0)
}

#[test]
fn every_backend_bound_target_roundtrips() {
    let data = field();
    let bound = ErrorBound::Rel(1e-3);
    let abs = bound.absolute(&data);
    for id in BackendRegistry::ALL {
        let session = Session::builder().backend(id).bound(bound).build().unwrap();
        let out = session.compress(&data).unwrap();
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        assert_eq!(recon.shape(), data.shape(), "{id:?}");
        assert!(
            data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "{id:?} violated the bound"
        );
        assert_eq!(out.stats.compressed_bytes, out.blob.len() as u64);
    }
}

#[test]
fn every_backend_psnr_target_achieved() {
    let data = field();
    for id in BackendRegistry::ALL {
        let session = Session::builder().backend(id).psnr(50.0).build().unwrap();
        let out = session.compress(&data).unwrap();
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        let measured = metrics::psnr(&data, &recon);
        let achieved = out.achieved.expect("quality sessions report achieved");
        assert!(achieved >= 50.0, "{id:?}: achieved {achieved:.2} dB");
        // The reported value is the real full-reconstruction PSNR.
        assert!(
            (measured - achieved).abs() < 1e-6,
            "{id:?}: reported {achieved:.3} but measured {measured:.3}"
        );
        // Bisection should not wildly overshoot a reachable target.
        assert!(achieved <= 50.0 + 30.0, "{id:?}: overshoot {achieved:.2}");
        assert!(out.rel_bound.unwrap() > 0.0);
    }
}

#[test]
fn every_backend_ssim_target_achieved() {
    let data = field();
    for id in BackendRegistry::ALL {
        let session = Session::builder().backend(id).ssim(0.9).build().unwrap();
        let out = session.compress(&data).unwrap();
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        let achieved = out.achieved.unwrap();
        assert!(achieved >= 0.9, "{id:?}: achieved SSIM {achieved:.4}");
        assert!(
            (metrics::ssim(&data, &recon) - achieved).abs() < 1e-6,
            "{id:?}: reported SSIM diverges from measured"
        );
    }
}

#[test]
fn every_backend_ratio_target_within_tolerance() {
    let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
    for id in BackendRegistry::ALL {
        let session = Session::builder().backend(id).ratio(20.0).build().unwrap();
        let out = session.compress(&data).unwrap();
        let achieved = out.achieved.unwrap();
        let actual = out.stats.ratio();
        assert!(
            (actual - achieved).abs() < 1e-9,
            "{id:?}: reported CR {achieved:.2} vs actual {actual:.2}"
        );
        // Documented worst-case tolerance: within ±50% of the request.
        assert!(
            achieved > 10.0 && achieved < 30.0,
            "{id:?}: CR {achieved:.2} too far from target 20"
        );
        // The stream stays decodable at the bound the search chose.
        let recon: NdArray<f32> = session.decompress(&out.blob).unwrap();
        let abs = out.rel_bound.unwrap() * data.value_range();
        assert!(data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9), "{id:?}");
    }
}

#[test]
fn streaming_and_buffered_paths_are_byte_identical() {
    let data = field();
    for id in BackendRegistry::ALL {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let out = session.compress(&data).unwrap();
        let mut sink = Vec::new();
        let stats = session.compress_into(&data, &mut sink).unwrap();
        assert_eq!(sink, out.blob, "{id:?}: compress_into diverged");
        assert_eq!(stats, out.stats, "{id:?}: stats diverged");

        let direct: NdArray<f32> = session.decompress(&out.blob).unwrap();
        let mut cursor = std::io::Cursor::new(&sink);
        let streamed: NdArray<f32> = session.decompress_from(&mut cursor).unwrap();
        assert_eq!(direct.as_slice(), streamed.as_slice(), "{id:?}");
    }
    // A quality-target session streams the same bytes it would buffer.
    let session = Session::builder().psnr(50.0).build().unwrap();
    let out = session.compress(&data).unwrap();
    let mut sink = Vec::new();
    session.compress_into(&data, &mut sink).unwrap();
    assert_eq!(sink, out.blob, "quality-target compress_into diverged");
    // A sink that refuses every write surfaces as a typed I/O error,
    // not a panic.
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let err = session.compress_into(&data, &mut FailingSink).unwrap_err();
    assert!(matches!(err, ApiError::Codec(CodecError::Io(_))), "{err:?}");
}

/// A sink whose every write fails, like a full disk.
struct FailingSink;

impl std::io::Write for FailingSink {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("disk full"))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_backend_f64_roundtrips_through_api() {
    let f32_data = field();
    let data = NdArray::from_vec(
        f32_data.shape(),
        f32_data.as_slice().iter().map(|&v| v as f64).collect(),
    );
    let bound = ErrorBound::Rel(1e-3);
    let abs = bound.absolute(&data);
    for id in BackendRegistry::ALL {
        let session = Session::builder().backend(id).bound(bound).build().unwrap();
        let out = session.compress(&data).unwrap();
        let recon: NdArray<f64> = session.decompress(&out.blob).unwrap();
        assert!(
            data.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
            "{id:?} f64 roundtrip violated the bound"
        );
        // The registry dispatches on the header alone, f64 included.
        let again: NdArray<f64> = BackendRegistry::new().decompress(&out.blob).unwrap();
        assert_eq!(again.as_slice(), recon.as_slice(), "{id:?}");
    }
}

#[test]
fn sessions_decode_streams_from_other_backends() {
    // Decompression dispatches on the stream header, so a session built
    // for one backend reads any workspace stream.
    let data = field();
    let sz3_out = Session::builder()
        .backend(BackendId::Sz3)
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap()
        .compress(&data)
        .unwrap();
    let qoz_session = Session::builder()
        .backend(BackendId::Qoz)
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let recon: NdArray<f32> = qoz_session.decompress(&sz3_out.blob).unwrap();
    assert_eq!(recon.shape(), data.shape());
}
