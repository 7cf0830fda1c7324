//! Fault-injection suite: drive the real daemon through the failures
//! it claims to survive.
//!
//! Every test starts an actual [`Server`] (in-process, Unix socket or
//! TCP) and talks to it over the real wire protocol. The invariants
//! under test are the robustness contract of the crate:
//!
//! 1. the daemon never exits on client-induced failure,
//! 2. it never returns corrupt payloads — damaged inputs earn typed
//!    errors (or explicit zero-filled degraded reads),
//! 3. a killed-and-restarted daemon serves its first repeat request
//!    from the persisted plan, byte-identical to the cold path.
//!
//! Transport faults come from [`chaos::ChaosChannel`], which wraps the
//! client end of a real connection.

mod chaos;

use qoz_codec::ErrorBound;
use qoz_serve::protocol::{kind, read_frame, write_frame, FrameError, FRAME_MAGIC, MAX_PAYLOAD};
use qoz_serve::{
    Client, ClientConfig, Endpoint, ErrorCode, Request, Response, Server, ServerConfig,
};
use qoz_tensor::{NdArray, Shape};
use std::io::Write;
use std::time::Duration;

fn unix_ep(tag: &str) -> Endpoint {
    Endpoint::Unix(
        std::env::temp_dir()
            .join(format!("qoz_fi_{tag}_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned(),
    )
}

fn quick_client(ep: Endpoint) -> Client {
    let mut config = ClientConfig::new(ep);
    config.base_backoff = Duration::from_millis(1);
    Client::with_config(config)
}

fn test_field() -> NdArray<f32> {
    NdArray::from_fn(Shape::d2(48, 40), |i| {
        ((i[0] as f32) * 0.21).sin() + ((i[1] as f32) * 0.13).cos()
    })
}

fn compress_request(data: &NdArray<f32>, budget_ms: u64) -> Request {
    let raw: Vec<u8> = data
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    Request::Compress {
        name: "field".into(),
        scalar_tag: 0x32,
        dims: data.shape().dims().to_vec(),
        bound: ErrorBound::Abs(1e-3),
        budget_ms,
        raw,
    }
}

/// Local (no daemon) reference blob for byte-identity assertions.
fn local_blob(data: &NdArray<f32>) -> Vec<u8> {
    qoz_api::Session::builder()
        .backend(qoz_api::BackendId::Qoz)
        .bound(ErrorBound::Abs(1e-3))
        .build()
        .unwrap()
        .compress(data)
        .unwrap()
        .blob
}

#[test]
fn round_trip_is_byte_identical_to_local_over_unix_and_tcp() {
    let data = test_field();
    let reference = local_blob(&data);
    for ep in [unix_ep("rt"), Endpoint::Tcp("127.0.0.1:0".into())] {
        let server = Server::start(ServerConfig::new(ep)).unwrap();
        let mut client = quick_client(server.endpoint());
        client.ping().unwrap();

        let (outcome, blob) = client
            .compress("field", &data, ErrorBound::Abs(1e-3), 0)
            .unwrap();
        assert_eq!(outcome, 1, "first call cold-tunes");
        assert_eq!(blob, reference, "served bytes == local bytes");

        let (outcome, warm) = client
            .compress("field", &data, ErrorBound::Abs(1e-3), 0)
            .unwrap();
        assert_eq!(outcome, 2, "second call replays warm");
        assert_eq!(warm, reference, "warm bytes still identical");

        let recon: NdArray<f32> = client.decompress(&blob, 0).unwrap();
        assert_eq!(recon.shape().dims(), data.shape().dims());
        assert!(data.max_abs_diff(&recon) <= 1e-3 * (1.0 + 1e-9));

        let stats = client.stats().unwrap();
        assert!(stats.served >= 4);
        assert_eq!(stats.cold_tunes, 1);
        assert!(stats.warm_hits >= 1);

        // The wire snapshot carries the full telemetry extension:
        // per-kind request counters, plan-cache outcomes, and latency /
        // payload histograms whose counts agree with the traffic.
        let t = stats.telemetry.expect("server sends telemetry extension");
        assert_eq!(
            t.counter("qoz_requests_total", &[("kind", "compress")]),
            Some(2)
        );
        assert_eq!(
            t.counter("qoz_plan_cache_total", &[("outcome", "cold_tuned")]),
            Some(1)
        );
        assert_eq!(
            t.counter("qoz_plan_cache_total", &[("outcome", "warm_hit")]),
            Some(1)
        );
        let lat = t
            .histogram("qoz_request_latency_ns", &[("kind", "compress")])
            .expect("compress latency histogram exists");
        assert_eq!(lat.count, 2);
        assert!(lat.sum > 0, "compress latency sums to nonzero ns");
        let pay = t
            .histogram("qoz_request_payload_bytes", &[("kind", "compress")])
            .expect("compress payload histogram exists");
        assert_eq!(pay.count, 2);
        server.shutdown().unwrap();
    }
}

#[test]
fn overload_sheds_with_typed_error_and_daemon_survives() {
    let mut config = ServerConfig::new(unix_ep("overload"));
    config.workers = 1;
    config.queue_depth = 1;
    config.worker_delay = Duration::from_millis(150);
    let server = Server::start(config).unwrap();
    let ep = server.endpoint();

    let data = test_field();
    let req = compress_request(&data, 0);
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let ep = ep.clone();
            let req = req.clone();
            std::thread::spawn(move || quick_client(ep).call_once(&req))
        })
        .collect();
    let mut overloaded = 0;
    let mut ok = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(Response::Compressed { .. }) => ok += 1,
            Ok(Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }) => overloaded += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(ok >= 1, "some requests are served");
    assert!(overloaded >= 1, "excess load is shed, not buffered");

    // The daemon shed load; it did not die or wedge.
    let mut client = quick_client(ep);
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.shed >= overloaded as u64);
    // Sheds land on their own dedicated error counter.
    let t = stats.telemetry.unwrap();
    assert!(
        t.counter("qoz_errors_total", &[("code", "overloaded")])
            .unwrap_or(0)
            >= overloaded as u64
    );
    server.shutdown().unwrap();
}

#[test]
fn deadline_exceeded_is_typed_and_counted() {
    let mut config = ServerConfig::new(unix_ep("deadline"));
    config.worker_delay = Duration::from_millis(50);
    let server = Server::start(config).unwrap();
    let mut client = quick_client(server.endpoint());

    let data = test_field();
    match client.compress("field", &data, ErrorBound::Abs(1e-3), 1) {
        Err(qoz_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded)
        }
        other => panic!("wanted DeadlineExceeded, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.deadline_missed >= 1);
    // Deadline misses land on their own dedicated error counter.
    assert!(
        stats
            .telemetry
            .unwrap()
            .counter("qoz_errors_total", &[("code", "deadline_exceeded")])
            .unwrap_or(0)
            >= 1
    );
    // A request with a sane budget still succeeds afterwards.
    client
        .compress("field", &data, ErrorBound::Abs(1e-3), 30_000)
        .unwrap();
    server.shutdown().unwrap();
}

#[test]
fn corrupt_frames_earn_typed_errors_and_daemon_stays_up() {
    let server = Server::start(ServerConfig::new(unix_ep("corrupt"))).unwrap();
    let ep = server.endpoint();

    // (a) garbage magic: answered with BadFrame, connection dropped.
    let mut chan = ep.connect().unwrap();
    chan.write_all(b"XXXXXXXXXXXXXXXXXXXXX").unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    match Response::decode(k, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("wanted BadFrame, got {other:?}"),
    }

    // (b) checksum flip: also BadFrame.
    let mut chan = ep.connect().unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, kind::PING, &[]).unwrap();
    let last = wire.len() - 1;
    wire[last] ^= 0xFF;
    chan.write_all(&wire).unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    match Response::decode(k, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("wanted BadFrame, got {other:?}"),
    }

    // (c) oversized declared length: rejected before allocation.
    let mut chan = ep.connect().unwrap();
    let mut head = Vec::new();
    head.extend_from_slice(&FRAME_MAGIC);
    head.push(kind::DECOMPRESS);
    head.extend_from_slice(&u32::MAX.to_le_bytes());
    chan.write_all(&head).unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    match Response::decode(k, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("wanted BadFrame, got {other:?}"),
    }

    // (d) sound frame, structurally-lying payload: BadRequest, and the
    // *same connection* keeps working.
    let mut chan = ep.connect().unwrap();
    let garbage: Vec<u8> = (0..24).map(|i| (i * 31 + 7) as u8).collect();
    write_frame(&mut chan, kind::COMPRESS, &garbage).unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    match Response::decode(k, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("wanted BadRequest, got {other:?}"),
    }
    write_frame(&mut chan, kind::PING, &[]).unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    assert_eq!(Response::decode(k, &payload).unwrap(), Response::Pong);

    // (e) mid-frame disconnect: no response owed; the daemon survives.
    let mut chan = ep.connect().unwrap();
    chan.write_all(&[FRAME_MAGIC.as_slice(), &[kind::PING]].concat())
        .unwrap();
    drop(chan);

    // (f) sound frame of kind 0x7E, which once asked a worker to panic:
    // no request kind does that, so it is an unknown kind like any
    // other, answered BadFrame.
    let mut chan = ep.connect().unwrap();
    write_frame(&mut chan, 0x7E, &[]).unwrap();
    let (k, payload) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
    match Response::decode(k, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("wanted BadFrame for kind 0x7E, got {other:?}"),
    }

    // After all of the above, the daemon is healthy.
    let mut client = quick_client(ep);
    client.ping().unwrap();
    let data = test_field();
    client
        .compress("field", &data, ErrorBound::Abs(1e-3), 0)
        .unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.bad_frames >= 5);
    assert_eq!(stats.worker_panics, 0);
    // The legacy aggregate splits into dedicated counters: (a)-(c) and
    // (f) are frame-level damage, (d) is a structurally-lying payload.
    let t = stats.telemetry.unwrap();
    assert!(
        t.counter("qoz_errors_total", &[("code", "bad_frame")])
            .unwrap_or(0)
            >= 4
    );
    assert!(
        t.counter("qoz_errors_total", &[("code", "bad_request")])
            .unwrap_or(0)
            >= 1
    );
    server.shutdown().unwrap();
}

#[test]
fn crafted_stream_shapes_earn_corrupt_input_and_daemon_stays_up() {
    // Decompress requests whose stream header declares more than any
    // payload fills: 4096^4 elements (over the shape cap), and
    // 16 x 2^16 x 2^16 (exactly at it) over an empty QoZ body. Then two
    // 16^3 streams whose bin section lies instead: its LZSS layer claims
    // 2^34 bytes, or its Huffman layer 2^28 symbols, from empty
    // sections. None may size an allocation; all answer CorruptInput.
    let header = |dims: &[u64]| {
        let mut w = qoz_codec::ByteWriter::new();
        w.put_bytes(&qoz_codec::stream::MAGIC);
        w.put_u8(qoz_codec::stream::VERSION);
        w.put_u8(qoz_codec::CompressorId::Qoz as u8);
        w.put_u8(0x32); // f32
        w.put_u8(dims.len() as u8);
        for &d in dims {
            w.put_varint(d);
        }
        w.put_f64(1e-3);
        w
    };
    let over_cap = header(&[4096; 4]).finish();
    let mut at_cap = header(&[16, 1 << 16, 1 << 16]);
    qoz_sz3::InterpSpec::anchored(32, 1e-3, Default::default()).write(&mut at_cap);
    at_cap.put_len_prefixed(&qoz_codec::encode_bins(&[]));
    at_cap.put_len_prefixed(&qoz_codec::lossless_compress(&[]));
    at_cap.put_len_prefixed(&qoz_codec::lossless_compress(&[]));
    let at_cap = at_cap.finish();
    let with_bins = |bins: &[u8]| {
        let mut w = header(&[16, 16, 16]);
        qoz_sz3::InterpSpec::anchored(32, 1e-3, Default::default()).write(&mut w);
        w.put_len_prefixed(bins);
        w.put_len_prefixed(&qoz_codec::lossless_compress(&[]));
        w.put_len_prefixed(&qoz_codec::lossless_compress(&[]));
        w.finish()
    };
    // Bin sections in the `encode_bins` layout: tag 1, then the packed
    // Huffman stream.
    let mut lz = qoz_codec::ByteWriter::new();
    lz.put_varint(1 << 34);
    lz.put_len_prefixed(&[]);
    lz.put_len_prefixed(&[]);
    lz.put_varint(0);
    let mut lzss_bomb = qoz_codec::ByteWriter::new();
    lzss_bomb.put_u8(1);
    lzss_bomb.put_len_prefixed(&lz.finish());
    let lzss_bomb = with_bins(&lzss_bomb.finish());
    let mut huff = qoz_codec::ByteWriter::new();
    huff.put_varint(1);
    huff.put_varint(7);
    huff.put_u8(1);
    huff.put_varint(1 << 28);
    huff.put_len_prefixed(&[]);
    let mut huffman_bomb = qoz_codec::ByteWriter::new();
    huffman_bomb.put_u8(1);
    huffman_bomb.put_len_prefixed(&qoz_codec::lossless_compress(&huff.finish()));
    let huffman_bomb = with_bins(&huffman_bomb.finish());

    let server = Server::start(ServerConfig::new(unix_ep("shape"))).unwrap();
    let mut client = quick_client(server.endpoint());
    for blob in [over_cap, at_cap, lzss_bomb, huffman_bomb] {
        let req = Request::Decompress { budget_ms: 0, blob };
        match client.call_once(&req).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::CorruptInput),
            other => panic!("wanted CorruptInput, got {other:?}"),
        }
    }
    client.ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn draining_daemon_rejects_new_work_with_shutting_down() {
    let server = Server::start(ServerConfig::new(unix_ep("drain"))).unwrap();
    let mut client = quick_client(server.endpoint());
    client.ping().unwrap();
    server.begin_shutdown();
    let data = test_field();
    match client.call_once(&compress_request(&data, 0)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("wanted ShuttingDown, got {other:?}"),
    }
    // Control plane still answers while draining.
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.shutdown_rejects >= 1);
    assert!(
        stats
            .telemetry
            .unwrap()
            .counter("qoz_errors_total", &[("code", "shutting_down")])
            .unwrap_or(0)
            >= 1
    );
    server.shutdown().unwrap();
}

#[test]
fn kill_and_restart_serves_first_repeat_request_warm_from_persisted_plans() {
    let plan_path = std::env::temp_dir().join(format!("qoz_fi_plans_{}.qzpl", std::process::id()));
    let _ = std::fs::remove_file(&plan_path);
    let data = test_field();
    let reference = local_blob(&data);

    // Generation 1: cold tune, then graceful shutdown persists plans.
    let mut config = ServerConfig::new(unix_ep("warm1"));
    config.plan_path = Some(plan_path.clone());
    let server = Server::start(config).unwrap();
    let mut client = quick_client(server.endpoint());
    let (outcome, blob) = client
        .compress("field", &data, ErrorBound::Abs(1e-3), 0)
        .unwrap();
    assert_eq!(outcome, 1, "generation 1 cold-tunes");
    assert_eq!(blob, reference);
    client.shutdown().unwrap();
    assert!(server.wait_until_draining(Duration::from_secs(5)));
    let persisted = server.shutdown().unwrap();
    assert!(persisted >= 1, "tuned plan written at shutdown");
    assert!(plan_path.exists());
    // Written through `qoz_archive::write_atomically`: the temp file it
    // renamed over the plan path is gone.
    let mut tmp = plan_path.clone().into_os_string();
    tmp.push(format!(".{}.qztmp", std::process::id()));
    assert!(!std::path::Path::new(&tmp).exists());

    // Generation 2: a brand-new process-equivalent primed from disk.
    let mut config = ServerConfig::new(unix_ep("warm2"));
    config.plan_path = Some(plan_path.clone());
    let server = Server::start(config).unwrap();
    let mut client = quick_client(server.endpoint());
    let (outcome, blob) = client
        .compress("field", &data, ErrorBound::Abs(1e-3), 0)
        .unwrap();
    assert_eq!(outcome, 2, "restarted daemon serves its FIRST call warm");
    assert_eq!(blob, reference, "warm restart bytes == cold bytes");
    assert_eq!(client.stats().unwrap().cold_tunes, 0);
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&plan_path);
}

#[test]
fn corrupt_plan_file_means_cold_start_not_crash() {
    let plan_path =
        std::env::temp_dir().join(format!("qoz_fi_badplan_{}.qzpl", std::process::id()));
    std::fs::write(&plan_path, b"QZPLgarbage that is not a plan file").unwrap();
    let mut config = ServerConfig::new(unix_ep("badplan"));
    config.plan_path = Some(plan_path.clone());
    let server = Server::start(config).unwrap();
    let mut client = quick_client(server.endpoint());
    let data = test_field();
    let (outcome, _) = client
        .compress("field", &data, ErrorBound::Abs(1e-3), 0)
        .unwrap();
    assert_eq!(outcome, 1, "corrupt plan file degrades to a cold start");
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&plan_path);
}

#[test]
fn region_reads_serve_degraded_with_faults_and_strict_with_typed_error() {
    // Build a small archive under the server's root.
    let root = std::env::temp_dir().join(format!("qoz_fi_root_{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let archive_path = root.join("dump.qzar");
    let field = NdArray::from_fn(Shape::d3(13, 11, 9), |i| {
        (i[0] as f32 * 0.3).sin() + (i[1] as f32 * 0.2).cos() + i[2] as f32 * 0.01
    });
    let mut w = qoz_archive::ArchiveWriter::new().with_chunk_side(4);
    w.add_variable(
        "rho",
        &field,
        &qoz_sz3::Sz3::default(),
        ErrorBound::Abs(1e-3),
    )
    .unwrap();
    w.write_to(&archive_path.to_string_lossy()).unwrap();

    let mut config = ServerConfig::new(unix_ep("region"));
    config.archive_root = Some(root.clone());
    config.workers = 1; // deterministic reader cache
    let server = Server::start(config).unwrap();
    let mut client = quick_client(server.endpoint());

    // Clean read matches a local read bit-for-bit.
    let origin = [0usize, 0, 0];
    let size = [8usize, 8, 8];
    let (slab, faults) = client
        .region_read::<f32>("dump.qzar", "rho", &origin, &size, false, 0)
        .unwrap();
    assert_eq!(faults, 0);
    let local = qoz_archive::ArchiveReader::open(&archive_path.to_string_lossy())
        .unwrap()
        .read_region::<f32>("rho", &qoz_tensor::Region::new(&origin, &size))
        .unwrap();
    assert_eq!(slab.as_slice(), local.as_slice());

    // Containment: escapes are refused before touching the filesystem.
    match client.region_read::<f32>("../etc/passwd", "rho", &origin, &size, false, 0) {
        Err(qoz_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BadRequest)
        }
        other => panic!("wanted BadRequest for path escape, got {other:?}"),
    }

    // Corrupt the first chunk's first payload byte on disk.
    let bytes = std::fs::read(&archive_path).unwrap();
    let reader = qoz_archive::ArchiveReader::from_bytes(&bytes).unwrap();
    let payload_start = bytes.len() as u64 - reader.payload_len();
    let chunk0 = payload_start + reader.toc().vars[0].chunks[0].offset;
    drop(reader);
    let mut damaged = bytes.clone();
    damaged[chunk0 as usize] ^= 0xFF;
    std::fs::write(&archive_path, &damaged).unwrap();

    // Strict read: typed CorruptInput, never silent garbage.
    match client.region_read::<f32>("dump.qzar", "rho", &origin, &size, false, 0) {
        Err(qoz_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::CorruptInput)
        }
        other => panic!("wanted CorruptInput, got {other:?}"),
    }

    // Tolerant read: degraded slab + explicit fault count.
    let (degraded, faults) = client
        .region_read::<f32>("dump.qzar", "rho", &origin, &size, true, 0)
        .unwrap();
    assert!(faults >= 1, "damage is reported, not hidden");
    assert_eq!(degraded.shape().dims(), &[8, 8, 8]);

    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&archive_path);
    let _ = std::fs::remove_dir(&root);
}

mod chaos_suite {
    use super::*;
    use crate::chaos::ChaosChannel;

    #[test]
    fn torn_writes_and_short_reads_never_kill_the_daemon() {
        let server = Server::start(ServerConfig::new(unix_ep("chaoswire"))).unwrap();
        let ep = server.endpoint();
        for seed in 0..12u64 {
            let inner = ep.connect().unwrap();
            let mut chan = ChaosChannel::from_seed(inner, seed);
            let mut wire = Vec::new();
            write_frame(&mut wire, kind::PING, &[]).unwrap();
            // Whatever the fault does to this exchange — torn write,
            // injected EOF, stall, flipped bit — it must stay a typed
            // client-side failure; the daemon must not care.
            let _ = chan.write_all(&wire).and_then(|_| {
                read_frame(&mut chan, MAX_PAYLOAD).map_err(|e| match e {
                    FrameError::Io(io) => io,
                    other => std::io::Error::other(other.to_string()),
                })
            });
        }
        let mut client = quick_client(ep);
        client.ping().unwrap();
        server.shutdown().unwrap();
    }
}
