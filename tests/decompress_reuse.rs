//! Scratch-arena reuse across the whole *read* path.
//!
//! The symmetric-read-path refactor's contract, pinned here:
//!
//! 1. **Value identity** — decoding through a scratch arena (registry,
//!    pipeline, archive reader) returns arrays bitwise identical to the
//!    allocating path, for every backend and both scalar types.
//! 2. **Arena safety** — one arena serves arbitrary interleavings of
//!    shapes and stream sizes; nothing stale ever leaks into a decode.
//! 3. **Zero-allocation steady state** — a warm `Pipeline::decompress_into`
//!    (same shape as the previous decode, reused destination) records
//!    zero stage-buffer growth events.
//! 4. **Appendable container** — a QZAR grown by `ArchiveAppender`
//!    serves the old payload byte-for-byte and the new variables
//!    correctly, including through concurrent region queries over one
//!    shared reader handle.
//!
//! The `#[ignore]`d smoke at the bottom is the CI append + concurrent
//! read check (run explicitly with `--ignored`).

use qoz_suite::api::{BackendId, BackendRegistry, Session};
use qoz_suite::archive::{snapshot_name, ArchiveAppender, ArchiveReader, ArchiveWriter};
use qoz_suite::codec::{ErrorBound, Scratch};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::tensor::{NdArray, Region, Shape};

const ALL_BACKENDS: [BackendId; 5] = [
    BackendId::Qoz,
    BackendId::Sz3,
    BackendId::Sz2,
    BackendId::Zfp,
    BackendId::Mgard,
];

fn field_f32() -> NdArray<f32> {
    Dataset::Miranda.generate(SizeClass::Tiny, 0)
}

fn field_f64() -> NdArray<f64> {
    let f = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
    NdArray::from_vec(f.shape(), f.as_slice().iter().map(|&v| v as f64).collect())
}

#[test]
fn scratch_decode_identical_to_allocating_for_every_backend() {
    let reg = BackendRegistry::new();
    let data32 = field_f32();
    let data64 = field_f64();
    for backend in ALL_BACKENDS {
        let session = Session::builder()
            .backend(backend)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        // f32: allocating vs into a fresh destination vs into a reused
        // destination through a warm arena.
        let blob = session.compress(&data32).unwrap().blob;
        let cold: NdArray<f32> = reg.decompress(&blob).unwrap();
        let mut scratch = Scratch::<f32>::new();
        let mut dest = NdArray::<f32>::zeros(Shape::d1(1));
        reg.decompress_into(&blob, &mut scratch, &mut dest).unwrap();
        assert_eq!(dest.shape(), cold.shape(), "{backend:?} f32 into-shape");
        assert_eq!(cold.as_slice(), dest.as_slice(), "{backend:?} f32 into");
        reg.decompress_into(&blob, &mut scratch, &mut dest).unwrap();
        assert_eq!(cold.as_slice(), dest.as_slice(), "{backend:?} f32 warm");

        // f64 through the same machinery.
        let blob = session.compress(&data64).unwrap().blob;
        let cold: NdArray<f64> = reg.decompress(&blob).unwrap();
        let mut scratch = Scratch::<f64>::new();
        let mut dest = NdArray::<f64>::zeros(Shape::d1(1));
        reg.decompress_into(&blob, &mut scratch, &mut dest).unwrap();
        assert_eq!(dest.shape(), cold.shape(), "{backend:?} f64 into-shape");
        assert_eq!(cold.as_slice(), dest.as_slice(), "{backend:?} f64 into");
    }
}

#[test]
fn one_arena_survives_shape_and_size_interleavings() {
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let reg = BackendRegistry::new();
    let big = field_f32();
    let small = big.extract_region(&Region::new(
        &[0, 0, 0],
        &[big.shape().dim(0) / 2, big.shape().dim(1) / 2, 3],
    ));
    let tiny = NdArray::from_fn(Shape::d1(7), |i| i[0] as f32 * 0.5);
    let blobs: Vec<Vec<u8>> = [&big, &small, &tiny, &big, &tiny, &small]
        .iter()
        .map(|d| session.compress(d).unwrap().blob)
        .collect();
    let mut scratch = Scratch::<f32>::new();
    let mut dest = NdArray::<f32>::zeros(Shape::d1(1));
    for (i, blob) in blobs.iter().enumerate() {
        let cold: NdArray<f32> = reg.decompress(blob).unwrap();
        reg.decompress_into(blob, &mut scratch, &mut dest).unwrap();
        assert_eq!(dest.shape(), cold.shape(), "decode {i}");
        assert_eq!(dest.as_slice(), cold.as_slice(), "decode {i}");
    }
}

#[test]
fn corrupt_stream_does_not_poison_the_arena() {
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let reg = BackendRegistry::new();
    let data = field_f32();
    let blob = session.compress(&data).unwrap().blob;
    let mut scratch = Scratch::<f32>::new();
    let mut dest = NdArray::<f32>::zeros(Shape::d1(1));
    reg.decompress_into(&blob, &mut scratch, &mut dest).unwrap();
    // Truncations at several depths fail cleanly...
    for cut in [8, blob.len() / 3, blob.len() - 2] {
        assert!(reg
            .decompress_into(&blob[..cut], &mut scratch, &mut dest)
            .is_err());
    }
    // ...and the same arena still decodes the intact stream exactly.
    reg.decompress_into(&blob, &mut scratch, &mut dest).unwrap();
    let cold: NdArray<f32> = reg.decompress(&blob).unwrap();
    assert_eq!(dest.as_slice(), cold.as_slice());
}

/// The acceptance criterion of the read-path refactor: with the arena
/// and the destination already grown, a repeated same-shape
/// `Pipeline::decompress_into` performs **zero** stage-buffer
/// allocations on every backend, observed through the arena's growth
/// counters.
#[test]
fn warm_pipeline_decode_allocates_nothing() {
    let data = field_f32();
    for backend in ALL_BACKENDS {
        let session = Session::builder()
            .backend(backend)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        let blob = session.compress(&data).unwrap().blob;
        let mut pipe = session.pipeline::<f32>();
        let mut dest = NdArray::<f32>::zeros(Shape::d1(1));
        // Cold decode: buffers grow (that's what the counter counts).
        // SZ2 and ZFP stage nothing in the arena, so only the other
        // three have growth to show.
        pipe.decompress_into(&blob, &mut dest).unwrap();
        if matches!(backend, BackendId::Qoz | BackendId::Sz3 | BackendId::Mgard) {
            assert!(
                pipe.stats().decode_grow_events > 0,
                "{backend:?}: cold decode must have grown stage buffers"
            );
        }
        // Warm decodes: same stream, same destination — zero growth.
        for pass in 0..3 {
            let before = pipe.stats().decode_grow_events;
            pipe.decompress_into(&blob, &mut dest).unwrap();
            assert_eq!(
                pipe.stats().decode_grow_events,
                before,
                "{backend:?} warm pass {pass} allocated a stage buffer"
            );
        }
        let cold: NdArray<f32> = session.decompress(&blob).unwrap();
        assert_eq!(dest.as_slice(), cold.as_slice(), "{backend:?} values");
    }
}

/// The chain read path: once one pass over a chain has grown the arena,
/// `Pipeline::decompress_next` over the same chain grows nothing (its
/// per-snapshot result array is not an arena buffer).
#[test]
fn warm_chain_decode_allocates_no_stage_buffer() {
    let field = qoz_suite::datagen::time_series_like(Shape::new(&[4, 16, 24, 24]), 3);
    let base = Shape::d3(16, 24, 24);
    let session = Session::builder()
        .bound(ErrorBound::Rel(1e-3))
        .build()
        .unwrap();
    let mut enc = session.pipeline::<f32>();
    let frames: Vec<Vec<u8>> = field
        .as_slice()
        .chunks_exact(base.len())
        .map(|s| {
            let snap = NdArray::from_vec(base, s.to_vec());
            enc.compress_next(&snap).unwrap().1.blob
        })
        .collect();
    let mut dec = session.pipeline::<f32>();
    for pass in 0..2 {
        let before = dec.stats().decode_grow_events;
        for frame in &frames {
            dec.decompress_next(frame).unwrap();
        }
        dec.reset_chain();
        if pass == 1 {
            assert_eq!(dec.stats().decode_grow_events, before, "warm chain decode");
        }
    }
}

fn tiled_archive() -> (Vec<u8>, NdArray<f32>, NdArray<f32>) {
    let rho = field_f32();
    let vel = NdArray::from_fn(rho.shape(), |i| {
        (i[0] as f32 * 0.21).cos() + (i[1] as f32 + i[2] as f32) * 0.03
    });
    let codec = BackendRegistry::new().codec::<f32>(BackendId::Sz3);
    let mut w = ArchiveWriter::new().with_chunk_side(8);
    w.add_variable("rho", &rho, &*codec, ErrorBound::Abs(1e-3))
        .unwrap();
    let bytes = w.finish();
    (bytes, rho, vel)
}

#[test]
fn append_then_read_roundtrip() {
    let (bytes, rho, vel) = tiled_archive();
    let codec = BackendRegistry::new().codec::<f32>(BackendId::Qoz);
    let mut app = ArchiveAppender::from_bytes(&bytes)
        .unwrap()
        .with_chunk_side(8);
    app.add_variable("vel", &vel, &*codec, ErrorBound::Abs(1e-3))
        .unwrap();
    app.add_snapshot("rho", 1, &vel, &*codec, ErrorBound::Abs(1e-3))
        .unwrap();
    let grown = app.finish();

    let old = ArchiveReader::from_bytes(&bytes).unwrap();
    let new = ArchiveReader::from_bytes(&grown).unwrap();
    // The old variable's bytes were kept in place: identical index
    // entries, identical decoded values.
    assert_eq!(old.toc().vars[0], new.toc().vars[0]);
    let a: NdArray<f32> = old.read_full("rho").unwrap();
    let b: NdArray<f32> = new.read_full("rho").unwrap();
    assert_eq!(a.as_slice(), b.as_slice());
    // New variables decode within bound; snapshots list back.
    let v: NdArray<f32> = new.read_full("vel").unwrap();
    assert!(vel.max_abs_diff(&v) <= 1e-3 * (1.0 + 1e-9));
    assert_eq!(rho.shape(), v.shape());
    let snaps = new.toc().snapshots("rho");
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].0, 1);
    assert_eq!(snaps[0].1.name, snapshot_name("rho", 1));
    // Every chunk of the grown archive verifies.
    assert_eq!(new.verify().unwrap().vars, 3);
}

#[test]
fn concurrent_region_reads_match_serial_over_one_shared_reader() {
    let (bytes, _, vel) = tiled_archive();
    let codec = BackendRegistry::new().codec::<f32>(BackendId::Sz3);
    let mut app = ArchiveAppender::from_bytes(&bytes)
        .unwrap()
        .with_chunk_side(8);
    app.add_variable("vel", &vel, &*codec, ErrorBound::Abs(1e-3))
        .unwrap();
    let grown = app.finish();
    let reader = ArchiveReader::from_bytes(&grown).unwrap();
    let shape = reader.toc().vars[0].shape;

    // Overlapping probe regions spanning chunk interiors and borders.
    let regions: Vec<Region> = (0..12)
        .map(|k| {
            let o = [k % 5, (k * 3) % 4, (k * 7) % 3];
            let s = [
                (3 + k % 6).min(shape.dim(0) - o[0]),
                (2 + k % 7).min(shape.dim(1) - o[1]),
                (1 + k % 5).min(shape.dim(2) - o[2]),
            ];
            Region::new(&o, &s)
        })
        .collect();
    let names = ["rho", "vel"];

    // Serial baseline through the allocating path.
    let baseline: Vec<Vec<f32>> = names
        .iter()
        .flat_map(|name| {
            regions
                .iter()
                .map(|r| reader.read_region::<f32>(name, r).unwrap().into_vec())
        })
        .collect();

    // Many threads, one shared reader, one scratch arena per thread.
    std::thread::scope(|s| {
        let reader = &reader;
        let regions = &regions;
        let baseline = &baseline;
        for t in 0..4usize {
            s.spawn(move || {
                let mut scratch = Scratch::<f32>::new();
                for round in 0..3 {
                    for (n, name) in names.iter().enumerate() {
                        for (i, region) in regions.iter().enumerate() {
                            let got = reader
                                .read_region_with::<f32>(name, region, &mut scratch)
                                .unwrap();
                            assert_eq!(
                                got.as_slice(),
                                &baseline[n * regions.len() + i][..],
                                "thread {t} round {round} {name} region {i}"
                            );
                        }
                    }
                }
            });
        }
    });
}

/// CI smoke (`cargo test --release --test decompress_reuse -- --ignored`):
/// append a timestep to an archive on disk, then hammer the grown file
/// with concurrent region queries through one shared handle and check
/// them against single-threaded reads.
#[test]
#[ignore]
fn append_and_concurrent_read_smoke() {
    let (bytes, rho, vel) = tiled_archive();
    let dir = std::env::temp_dir();
    let path = dir
        .join(format!("qoz_decomp_reuse_{}.qza", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, &bytes).unwrap();

    let codec = BackendRegistry::new().codec::<f32>(BackendId::Sz3);
    let mut app = ArchiveAppender::open(&path).unwrap().with_chunk_side(8);
    app.add_snapshot("rho", 1, &vel, &*codec, ErrorBound::Abs(1e-3))
        .unwrap();
    app.write_to(&path).unwrap();

    let reader = ArchiveReader::open(&path).unwrap();
    let t1 = snapshot_name("rho", 1);
    let full0: NdArray<f32> = reader.read_full("rho").unwrap();
    let full1: NdArray<f32> = reader.read_full(&t1).unwrap();
    assert!(rho.max_abs_diff(&full0) <= 1e-3 * (1.0 + 1e-9));
    assert!(vel.max_abs_diff(&full1) <= 1e-3 * (1.0 + 1e-9));

    let region = Region::new(&[2, 1, 1], &[7, 6, 5]);
    let want0 = full0.extract_region(&region);
    let want1 = full1.extract_region(&region);
    std::thread::scope(|s| {
        let reader = &reader;
        let (want0, want1, t1) = (&want0, &want1, &t1);
        for _ in 0..4 {
            s.spawn(move || {
                let mut scratch = Scratch::<f32>::new();
                for _ in 0..5 {
                    let a = reader
                        .read_region_with::<f32>("rho", &region, &mut scratch)
                        .unwrap();
                    assert_eq!(a.as_slice(), want0.as_slice());
                    let b = reader
                        .read_region_with::<f32>(t1, &region, &mut scratch)
                        .unwrap();
                    assert_eq!(b.as_slice(), want1.as_slice());
                }
            });
        }
    });
    std::fs::remove_file(&path).ok();
}
