//! Malformed-stream robustness: corrupted, truncated, or cross-codec
//! blobs must produce errors, never panics or silent garbage.

use qoz_suite::archive::{ArchiveReader, ArchiveWriter};
use qoz_suite::codec::{Compressor, ErrorBound};
use qoz_suite::datagen::{Dataset, SizeClass};
use qoz_suite::tensor::NdArray;

fn compressors() -> Vec<(&'static str, Box<dyn Compressor<f32>>)> {
    vec![
        ("SZ2.1", Box::new(qoz_suite::sz2::Sz2::default())),
        ("SZ3", Box::new(qoz_suite::sz3::Sz3::default())),
        ("ZFP", Box::new(qoz_suite::zfp::Zfp)),
        ("MGARD+", Box::new(qoz_suite::mgard::Mgard)),
        ("QoZ", Box::new(qoz_suite::qoz::Qoz::default())),
    ]
}

fn sample_blob(c: &dyn Compressor<f32>) -> Vec<u8> {
    let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
    c.compress(&data, ErrorBound::Rel(1e-3))
}

#[test]
fn truncation_at_every_eighth_byte_errors() {
    for (name, c) in compressors() {
        let blob = sample_blob(c.as_ref());
        for cut in (0..blob.len()).step_by(8) {
            let r = c.decompress(&blob[..cut]);
            assert!(r.is_err(), "{name}: truncation at {cut} accepted");
        }
    }
}

#[test]
fn cross_codec_streams_rejected() {
    let comps = compressors();
    let blobs: Vec<Vec<u8>> = comps.iter().map(|(_, c)| sample_blob(c.as_ref())).collect();
    for (i, (name_i, c)) in comps.iter().enumerate() {
        for (j, blob) in blobs.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                c.decompress(blob).is_err(),
                "{name_i} accepted a stream from {}",
                comps[j].0
            );
        }
    }
}

#[test]
fn single_byte_corruptions_never_panic() {
    // Flip one byte at a spread of positions; decoding may succeed with
    // different data (payload bits), may error — but must never panic.
    for (name, c) in compressors() {
        let blob = sample_blob(c.as_ref());
        let step = (blob.len() / 64).max(1);
        for pos in (0..blob.len()).step_by(step) {
            let mut bad = blob.clone();
            bad[pos] ^= 0xA5;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = c.decompress(&bad);
            }));
            assert!(result.is_ok(), "{name}: panic on corruption at byte {pos}");
        }
    }
}

#[test]
fn garbage_input_rejected() {
    for (name, c) in compressors() {
        assert!(c.decompress(&[]).is_err(), "{name} accepted empty");
        assert!(
            c.decompress(b"not a stream").is_err(),
            "{name} accepted garbage"
        );
        let zeros = vec![0u8; 1024];
        assert!(c.decompress(&zeros).is_err(), "{name} accepted zeros");
    }
}

/// A small archive whose superblock + TOC can be fuzzed exhaustively.
fn sample_archive() -> (Vec<u8>, usize) {
    let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
    let mut w = ArchiveWriter::new().with_chunk_side(32);
    w.add_variable(
        "v",
        &data,
        &qoz_suite::sz3::Sz3::default(),
        ErrorBound::Rel(1e-3),
    )
    .unwrap();
    let bytes = w.finish();
    let payload: u64 = {
        let r = ArchiveReader::from_bytes(&bytes).unwrap();
        r.toc().vars[0].compressed_len()
    };
    let header_len = bytes.len() - payload as usize;
    (bytes, header_len)
}

/// Exercise one mutated archive end-to-end; must error, never panic.
fn archive_must_reject(bytes: &[u8], what: &str) {
    let outcome = std::panic::catch_unwind(|| match ArchiveReader::from_bytes(bytes) {
        Err(_) => true,
        Ok(r) => {
            let read = r.read_full::<f32>("v").is_err();
            // verify() reports damage instead of erroring: "rejected"
            // means the scan found at least one fault (or itself died).
            let verified = r.verify().map(|rep| !rep.is_clean()).unwrap_or(true);
            read && verified
        }
    });
    match outcome {
        Err(_) => panic!("panic on {what}"),
        Ok(rejected) => assert!(rejected, "{what} accepted"),
    }
}

#[test]
fn container_truncation_at_every_boundary_errors() {
    let (bytes, _) = sample_archive();
    for cut in 0..bytes.len() {
        archive_must_reject(&bytes[..cut], &format!("truncation at {cut}"));
    }
}

#[test]
fn container_superblock_and_index_bitflip_fuzz() {
    // Every single-bit flip in the superblock, TOC, or TOC checksum must
    // be detected: the magic/version/flags are validated field by field
    // and everything else is covered by the TOC's FNV-1a checksum.
    let (bytes, header_len) = sample_archive();
    for pos in 0..header_len {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            archive_must_reject(&bad, &format!("bit flip at byte {pos} bit {bit}"));
        }
    }
}

// ---------------------------------------------------------------------
// Serve protocol: the daemon's wire layer under the same discipline as
// the codecs — malformed bytes earn typed errors and the server stays
// up, whatever a client throws at it.

mod serve_wire {
    use super::*;
    use qoz_suite::serve::protocol::{self, kind, read_frame, write_frame};
    use qoz_suite::serve::{
        Channel, Client, ClientConfig, Endpoint, ErrorCode, Request, Response, Server, ServerConfig,
    };
    use std::io::Write;
    use std::time::Duration;

    fn unix_ep(tag: &str) -> Endpoint {
        Endpoint::Unix(
            std::env::temp_dir()
                .join(format!("qoz_wire_{tag}_{}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned(),
        )
    }

    /// SplitMix64 — deterministic frame mutations from a seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn seeded_frame_fuzz_gets_typed_errors_and_server_survives() {
        let server = Server::start(ServerConfig::new(unix_ep("fuzz"))).unwrap();
        let ep = server.endpoint();

        // A sound PING frame as the mutation substrate.
        let mut sound = Vec::new();
        write_frame(&mut sound, kind::PING, &[]).unwrap();

        // Bytes of a PING frame that are NOT the payload length: the
        // magic (0–3), the kind (4), and the payload checksum (9–16).
        // Flips there always provoke an immediate typed reply; flips in
        // the length field are covered by the oversized case below (a
        // *small* length lie just leaves the server waiting for payload
        // bytes — a stall for the client, nothing for the server).
        const REPLY_SAFE_FLIPS: [usize; 13] = [0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16];

        for seed in 0..48u64 {
            let mut s = seed;
            let mut wire = sound.clone();
            let expect_reply = match mix(&mut s) % 4 {
                // Truncated header/frame: the server sees a dead
                // connection mid-frame; no response is owed.
                0 => {
                    wire.truncate((mix(&mut s) as usize) % wire.len());
                    false
                }
                // Oversized declared length: typed BadFrame, rejected
                // before any allocation.
                1 => {
                    let len = protocol::MAX_PAYLOAD as u32 + 1 + (mix(&mut s) as u32 % 1024);
                    wire[5..9].copy_from_slice(&len.to_le_bytes());
                    true
                }
                // Garbage frame: random bytes, with byte 0 forced off
                // the real magic so the rejection is immediate.
                2 => {
                    wire = (0..16 + mix(&mut s) % 48)
                        .map(|_| mix(&mut s) as u8)
                        .collect();
                    wire[0] = b'X';
                    true
                }
                // Single bit flip at a position that guarantees a reply.
                _ => {
                    let pos = REPLY_SAFE_FLIPS[(mix(&mut s) as usize) % REPLY_SAFE_FLIPS.len()];
                    wire[pos] ^= 1 << (mix(&mut s) % 8);
                    true
                }
            };

            let mut chan = ep.connect().unwrap();
            chan.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            if chan.write_all(&wire).is_err() {
                continue; // server already hung up — fine
            }
            if expect_reply {
                let (k, payload) = read_frame(&mut chan, protocol::MAX_PAYLOAD)
                    .unwrap_or_else(|e| panic!("seed {seed}: no reply: {e}"));
                match Response::decode(k, &payload) {
                    Ok(Response::Error { code, .. }) => {
                        assert_eq!(code, ErrorCode::BadFrame, "seed {seed}")
                    }
                    Ok(other) => panic!("seed {seed}: accepted fuzzed frame: {other:?}"),
                    Err(e) => panic!("seed {seed}: undecodable response: {e}"),
                }
            } else {
                // Sever mid-frame: the daemon must treat it as a dead
                // peer, not die with it.
                chan.shutdown().unwrap();
            }
        }

        // The one invariant every seed shares: the daemon still serves.
        let mut config = ClientConfig::new(ep);
        config.base_backoff = Duration::from_millis(1);
        let mut client = Client::with_config(config);
        client.ping().expect("daemon survives the fuzz sweep");
        assert!(client.stats().unwrap().bad_frames >= 1);
        server.shutdown().unwrap();
    }

    /// Read the reply to a damaged frame: a typed `BadFrame`, after which
    /// the server has dropped the connection.
    fn expect_bad_frame_and_hang_up(chan: &mut Box<dyn Channel>, what: &str) {
        let (k, payload) = read_frame(chan, protocol::MAX_PAYLOAD)
            .unwrap_or_else(|e| panic!("{what}: no reply: {e}"));
        match Response::decode(k, &payload) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame, "{what}"),
            other => panic!("{what}: wanted BadFrame, got {other:?}"),
        }
        match read_frame(chan, protocol::MAX_PAYLOAD) {
            Err(protocol::FrameError::Io(_)) => {}
            other => panic!("{what}: connection still open: {other:?}"),
        }
    }

    #[test]
    fn payload_bit_flips_and_old_format_frames_get_bad_frame() {
        let server = Server::start(ServerConfig::new(unix_ep("payload"))).unwrap();
        let ep = server.endpoint();

        // A DECOMPRESS request carrying a real QoZ stream of a few KiB.
        let blob = sample_blob(&qoz_suite::qoz::Qoz::default());
        let request = Request::Decompress { budget_ms: 0, blob };
        let payload = request.encode();
        let n = payload.len();
        assert!((2 << 10..64 << 10).contains(&n), "{n} B");
        let mut sound = Vec::new();
        write_frame(&mut sound, kind::DECOMPRESS, &payload).unwrap();

        // Unmutated, the substrate is served.
        let mut chan = ep.connect().unwrap();
        chan.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        chan.write_all(&sound).unwrap();
        let (k, reply) = read_frame(&mut chan, protocol::MAX_PAYLOAD).unwrap();
        assert!(matches!(
            Response::decode(k, &reply),
            Ok(Response::Decompressed { .. })
        ));

        // One flipped payload bit: the checksum catches it.
        for seed in 0..16u64 {
            let mut s = seed;
            let mut wire = sound.clone();
            let pos = protocol::FRAME_HEADER_LEN + (mix(&mut s) as usize) % payload.len();
            wire[pos] ^= 1 << (mix(&mut s) % 8);
            let mut chan = ep.connect().unwrap();
            chan.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            chan.write_all(&wire).unwrap();
            expect_bad_frame_and_hang_up(&mut chan, &format!("seed {seed}, byte {pos}"));
        }

        // A well-formed frame of the first protocol version: "QZRP"
        // magic and an FNV-1a-64 checksum.
        let mut old = b"QZRP".to_vec();
        old.push(kind::DECOMPRESS);
        old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        old.extend_from_slice(&payload);
        old.extend_from_slice(&qoz_suite::archive::fnv1a(&payload).to_le_bytes());
        let mut chan = ep.connect().unwrap();
        chan.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        chan.write_all(&old).unwrap();
        expect_bad_frame_and_hang_up(&mut chan, "old-format frame");

        let mut config = ClientConfig::new(ep);
        config.base_backoff = Duration::from_millis(1);
        let mut client = Client::with_config(config);
        client.ping().expect("daemon keeps serving");
        assert!(client.stats().unwrap().bad_frames >= 17);
        server.shutdown().unwrap();
    }

    /// Kill-and-restart smoke across the full stack (slow: two daemon
    /// generations + two tunes' worth of work). Run with `--ignored`.
    #[test]
    #[ignore]
    fn kill_and_restart_smoke_reuses_warm_plan() {
        let plan_path =
            std::env::temp_dir().join(format!("qoz_wire_plans_{}.qzpl", std::process::id()));
        let _ = std::fs::remove_file(&plan_path);
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);

        let mut config = ServerConfig::new(unix_ep("smoke1"));
        config.plan_path = Some(plan_path.clone());
        let server = Server::start(config).unwrap();
        let mut client = Client::connect(server.endpoint());
        let (outcome, cold_blob) = client
            .compress("smoke", &data, ErrorBound::Rel(1e-3), 0)
            .unwrap();
        assert_eq!(outcome, 1, "first generation cold-tunes");
        assert!(server.shutdown().unwrap() >= 1);

        let mut config = ServerConfig::new(unix_ep("smoke2"));
        config.plan_path = Some(plan_path.clone());
        let server = Server::start(config).unwrap();
        let mut client = Client::connect(server.endpoint());
        let (outcome, warm_blob) = client
            .compress("smoke", &data, ErrorBound::Rel(1e-3), 0)
            .unwrap();
        assert_eq!(outcome, 2, "second generation serves its first call warm");
        assert_eq!(warm_blob, cold_blob, "warm restart is byte-identical");
        server.shutdown().unwrap();
        let _ = std::fs::remove_file(&plan_path);
    }
}

#[test]
fn header_shape_mismatch_on_giant_dims_rejected() {
    // A hand-built header with absurd dimensions must not cause a huge
    // allocation or a panic — headers cap dimension sizes.
    let mut w = qoz_suite::codec::ByteWriter::new();
    w.put_bytes(b"QZWS");
    w.put_u8(1); // version
    w.put_u8(2); // SZ3
    w.put_u8(0x32); // f32
    w.put_u8(2); // 2D
    w.put_varint(u64::MAX); // absurd dim
    w.put_varint(4);
    w.put_f64(1e-3);
    let blob = w.finish();
    let c = qoz_suite::sz3::Sz3::default();
    let r: Result<NdArray<f32>, _> = c.decompress(&blob);
    assert!(r.is_err());
}

/// A plain-stream header declaring `dims`, written field by field so it
/// can declare shapes no `Shape` could hold.
fn crafted_header(id: qoz_suite::api::BackendId, dims: &[u64]) -> qoz_suite::codec::ByteWriter {
    let mut w = qoz_suite::codec::ByteWriter::new();
    w.put_bytes(&qoz_suite::codec::stream::MAGIC);
    w.put_u8(qoz_suite::codec::stream::VERSION);
    w.put_u8(id as u8);
    w.put_u8(0x32); // f32
    w.put_u8(dims.len() as u8);
    for &d in dims {
        w.put_varint(d);
    }
    w.put_f64(1e-3);
    w
}

/// The smallest well-formed body each backend parses: every section
/// present and empty, except that `bins` stands in for the first
/// entropy-coded bin section (ZFP has none and ignores it).
fn body(id: qoz_suite::api::BackendId, w: &mut qoz_suite::codec::ByteWriter, bins: &[u8]) {
    use qoz_suite::api::BackendId;
    use qoz_suite::codec::{encode_bins, lossless_compress};
    match id {
        BackendId::Qoz | BackendId::Sz3 => {
            qoz_suite::sz3::InterpSpec::anchored(32, 1e-3, Default::default()).write(w);
            w.put_len_prefixed(bins);
            w.put_len_prefixed(&lossless_compress(&[]));
            w.put_len_prefixed(&lossless_compress(&[]));
        }
        BackendId::Mgard => {
            w.put_len_prefixed(bins);
            w.put_len_prefixed(&lossless_compress(&[]));
        }
        BackendId::Sz2 => {
            w.put_varint(8); // block side
            w.put_len_prefixed(bins);
            w.put_len_prefixed(&lossless_compress(&[]));
            w.put_len_prefixed(&encode_bins(&[]));
            w.put_len_prefixed(&lossless_compress(&[]));
        }
        BackendId::Zfp => {
            w.put_len_prefixed(&lossless_compress(&[]));
            w.put_len_prefixed(&[]);
            w.put_len_prefixed(&[]);
        }
    }
}

/// A bin section (`encode_bins` layout: tag 1, then the packed Huffman
/// stream) whose LZSS layer claims 2^34 bytes from no flags, literals or
/// matches.
fn lzss_bomb_bins() -> Vec<u8> {
    let mut lz = qoz_suite::codec::ByteWriter::new();
    lz.put_varint(1 << 34);
    lz.put_len_prefixed(&[]);
    lz.put_len_prefixed(&[]);
    lz.put_varint(0);
    let mut w = qoz_suite::codec::ByteWriter::new();
    w.put_u8(1);
    w.put_len_prefixed(&lz.finish());
    w.finish()
}

/// A bin section whose Huffman layer (one 1-bit code) claims 2^28
/// symbols over an empty payload.
fn huffman_bomb_bins() -> Vec<u8> {
    let mut h = qoz_suite::codec::ByteWriter::new();
    h.put_varint(1);
    h.put_varint(7);
    h.put_u8(1);
    h.put_varint(1 << 28);
    h.put_len_prefixed(&[]);
    let mut w = qoz_suite::codec::ByteWriter::new();
    w.put_u8(1);
    w.put_len_prefixed(&qoz_suite::codec::lossless_compress(&h.finish()));
    w.finish()
}

#[test]
fn crafted_header_shapes_error_without_allocating() {
    use qoz_suite::api::{BackendId, Session};
    // 4096^4 passes the per-dimension cap (2^48 elements); 1 x 2^32 x
    // 2^32 overflows the stride product; 16 x 2^16 x 2^16 sits exactly at
    // the element cap, so the header parses and each decoder must notice
    // that the payload cannot fill it before allocating 256 GiB. The
    // last two inputs declare a small shape and lie one layer down, in
    // the bin section: its LZSS layer claims 2^34 bytes, or its Huffman
    // layer 2^28 symbols, from empty sections.
    let empty_bins = qoz_suite::codec::encode_bins(&[]);
    let (lzss_bomb, huffman_bomb) = (lzss_bomb_bins(), huffman_bomb_bins());
    let inputs: [(&[u64], &[u8]); 5] = [
        (&[4096; 4], &empty_bins),
        (&[1, 1 << 32, 1 << 32], &empty_bins),
        (&[16, 1 << 16, 1 << 16], &empty_bins),
        (&[16, 16, 16], &lzss_bomb),
        (&[16, 16, 16], &huffman_bomb),
    ];
    for id in [
        BackendId::Sz2,
        BackendId::Sz3,
        BackendId::Zfp,
        BackendId::Mgard,
        BackendId::Qoz,
    ] {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();
        for (k, &(dims, bins)) in inputs.iter().enumerate() {
            let mut w = crafted_header(id, dims);
            body(id, &mut w, bins);
            let blob = w.finish();
            assert!(
                session.decompress::<f32>(&blob).is_err(),
                "{id:?} input {k}: Session::decompress"
            );
            let mut out = NdArray::zeros(qoz_suite::tensor::Shape::d1(1));
            assert!(
                session
                    .pipeline::<f32>()
                    .decompress_into(&blob, &mut out)
                    .is_err(),
                "{id:?} input {k}: Pipeline::decompress_into"
            );
            let capacity = out.into_vec().capacity();
            assert!(capacity <= 1, "{id:?} input {k}: out grew to {capacity}");
        }
    }
}
