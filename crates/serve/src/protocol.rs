//! The qoz-serve wire protocol: length-prefixed, checksummed frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +--------+------+----------------+-----------+----------------+
//! | "QZR2" | kind | payload_len u32| payload   | xxh64(payload) |
//! | 4 B    | 1 B  | LE             | len bytes | seed 0, u64 LE |
//! +--------+------+----------------+-----------+----------------+
//! ```
//!
//! The fixed 9-byte header is read first, validated (magic, known kind,
//! sane length), then exactly `payload_len + 8` more bytes. A frame can
//! therefore fail in only four typed ways — bad magic, unknown kind,
//! oversized declared length, checksum mismatch — and every one of them
//! is distinguishable from "the peer hung up" (`Io`). Nothing in this
//! module trusts a single byte it hasn't validated: a malicious or
//! fault-injected peer can at worst earn itself a [`FrameError`],
//! never a panic or an allocation proportional to a lied-about length.
//!
//! The checksum is XXH64 with seed 0, the content checksum of the zstd
//! frame format. Both ends run it over every payload, so its speed is
//! part of every request's latency: it hashes four independent 8-byte
//! lanes per 32-byte stripe, where the FNV-1a-64 of the first protocol
//! version (magic `"QZRP"`) took a multiply per byte, one after the
//! other. A peer that still speaks that version fails its first frame
//! with [`FrameError::BadMagic`], never with a checksum mismatch.
//!
//! Payload encodings reuse the workspace byte toolkit
//! ([`ByteWriter`]/[`ByteReader`]), so request decoding inherits the
//! same varint/length-prefix validation the codec streams use.

use qoz_codec::stream::ErrorBound;
use qoz_codec::{ByteReader, ByteWriter, CodecError};
use std::io::{Read, Write};

/// Frame magic: "QZR2" (QoZ Request protocol, version 2: XXH64
/// checksums).
pub const FRAME_MAGIC: [u8; 4] = *b"QZR2";
/// Fixed frame header length: magic + kind + payload length.
pub const FRAME_HEADER_LEN: usize = 9;
/// Hard cap on a frame payload. A declared length above this is
/// rejected *before* any allocation — the first line of defense against
/// a peer that lies about its payload size.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// Request frame kinds.
pub mod kind {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// Compress one snapshot through a warm pipeline.
    pub const COMPRESS: u8 = 0x02;
    /// Decompress any workspace stream.
    pub const DECOMPRESS: u8 = 0x03;
    /// Region query against an archive file the server can reach.
    pub const REGION_READ: u8 = 0x04;
    /// Graceful shutdown: drain, persist plans, stop.
    pub const SHUTDOWN: u8 = 0x05;
    /// Server counters.
    pub const STATS: u8 = 0x06;

    /// Response kinds mirror requests with the high bit set.
    pub const PONG: u8 = 0x81;
    /// Successful compress: outcome + blob.
    pub const COMPRESSED: u8 = 0x82;
    /// Successful decompress: scalar/shape/raw bytes.
    pub const DECOMPRESSED: u8 = 0x83;
    /// Successful region read: shape, fault count, raw bytes.
    pub const REGION: u8 = 0x84;
    /// Typed failure: code + message.
    pub const ERROR: u8 = 0x85;
    /// Server counters snapshot.
    pub const STATS_OK: u8 = 0x86;
    /// Shutdown acknowledged; the server is draining.
    pub const SHUTDOWN_OK: u8 = 0x87;
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes EOF mid-frame and read timeouts).
    Io(std::io::Error),
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The kind byte is not one this build knows.
    BadKind(u8),
    /// Declared payload length exceeds the cap.
    Oversized(usize),
    /// Payload bytes do not hash to the trailing checksum.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Oversized(n) => write!(f, "declared payload of {n} bytes exceeds cap"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn known_kind(k: u8) -> bool {
    matches!(
        k,
        kind::PING
            | kind::COMPRESS
            | kind::DECOMPRESS
            | kind::REGION_READ
            | kind::SHUTDOWN
            | kind::STATS
            | kind::PONG
            | kind::COMPRESSED
            | kind::DECOMPRESSED
            | kind::REGION
            | kind::ERROR
            | kind::STATS_OK
            | kind::SHUTDOWN_OK
    )
}

/// Write one frame.
pub fn write_frame(w: &mut dyn Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut head = [0u8; FRAME_HEADER_LEN];
    head[..4].copy_from_slice(&FRAME_MAGIC);
    head[4] = kind;
    head[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&xxh64(payload).to_le_bytes())?;
    w.flush()
}

/// Read one frame, returning `(kind, payload)`.
///
/// `max_payload` lets a server cap request sizes below [`MAX_PAYLOAD`];
/// the declared length is checked against it before any allocation.
pub fn read_frame(r: &mut dyn Read, max_payload: usize) -> Result<(u8, Vec<u8>), FrameError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head)?;
    if head[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = head[4];
    if !known_kind(kind) {
        return Err(FrameError::BadKind(kind));
    }
    let len = u32::from_le_bytes([head[5], head[6], head[7], head[8]]) as usize;
    if len > max_payload.min(MAX_PAYLOAD) {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if xxh64(&payload) != u64::from_le_bytes(sum) {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

fn xxh64_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh64_round(0, acc))
        .wrapping_mul(PRIME1)
        .wrapping_add(PRIME4)
}

/// XXH64 of `bytes` with seed 0 (the frame checksum).
fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            PRIME1.wrapping_add(PRIME2),
            PRIME2,
            0,
            PRIME1.wrapping_neg(),
        ];
        for s in &mut stripes {
            acc[0] = xxh64_round(acc[0], read_u64(&s[0..]));
            acc[1] = xxh64_round(acc[1], read_u64(&s[8..]));
            acc[2] = xxh64_round(acc[2], read_u64(&s[16..]));
            acc[3] = xxh64_round(acc[3], read_u64(&s[24..]));
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| xxh64_merge(h, a))
    } else {
        PRIME5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h ^= xxh64_round(0, read_u64(w));
        h = h.rotate_left(27).wrapping_mul(PRIME1).wrapping_add(PRIME4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let word = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        h ^= u64::from(word).wrapping_mul(PRIME1);
        h = h.rotate_left(23).wrapping_mul(PRIME2).wrapping_add(PRIME3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(PRIME5);
        h = h.rotate_left(11).wrapping_mul(PRIME1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME3);
    h ^ (h >> 32)
}

/// Typed failure codes carried by [`kind::ERROR`] responses. The
/// numeric values are wire format — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame itself was malformed.
    BadFrame = 1,
    /// The frame was sound but the request inside it was not.
    BadRequest = 2,
    /// Admission queue full — retry with backoff.
    Overloaded = 3,
    /// The request's deadline expired before (or while) serving it.
    DeadlineExceeded = 4,
    /// The handling worker panicked; its state has been rebuilt.
    WorkerPanic = 5,
    /// The server is draining for shutdown.
    ShuttingDown = 6,
    /// Input data (stream or archive) is damaged.
    CorruptInput = 7,
    /// Input was written by a newer format than this server reads.
    NewerFormat = 8,
    /// Server-side I/O failure.
    Io = 9,
    /// Anything else.
    Internal = 10,
}

impl ErrorCode {
    /// Parse a wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::WorkerPanic,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::CorruptInput,
            8 => ErrorCode::NewerFormat,
            9 => ErrorCode::Io,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// `true` for failures worth retrying after a backoff (the server
    /// is healthy, just busy or draining).
    pub fn is_transient(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }

    /// Every code, in wire order. Servers use this to pre-register one
    /// error counter per code so the exposition always shows the full
    /// family, zeros included.
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::BadFrame,
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::WorkerPanic,
        ErrorCode::ShuttingDown,
        ErrorCode::CorruptInput,
        ErrorCode::NewerFormat,
        ErrorCode::Io,
        ErrorCode::Internal,
    ];

    /// Stable snake_case name, used as the `code` label on the
    /// `qoz_errors_total` metric family. Part of the exposition format:
    /// rename only with a metrics version bump.
    pub fn as_label(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::WorkerPanic => "worker_panic",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::CorruptInput => "corrupt_input",
            ErrorCode::NewerFormat => "newer_format",
            ErrorCode::Io => "io",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compress one raw snapshot.
    Compress {
        /// Pipeline key: which variable this snapshot belongs to.
        name: String,
        /// Element type tag (`Scalar::TYPE_TAG`).
        scalar_tag: u8,
        /// Array dimensions.
        dims: Vec<usize>,
        /// Error bound to honor.
        bound: ErrorBound,
        /// Per-request deadline budget in ms (0 = server default).
        budget_ms: u64,
        /// Raw little-endian element bytes.
        raw: Vec<u8>,
    },
    /// Decompress a workspace stream.
    Decompress {
        /// Per-request deadline budget in ms (0 = server default).
        budget_ms: u64,
        /// The compressed stream.
        blob: Vec<u8>,
    },
    /// Region query against an archive file.
    RegionRead {
        /// Archive path (resolved under the server's archive root).
        archive: String,
        /// Variable name inside the archive.
        var: String,
        /// Region origin.
        origin: Vec<usize>,
        /// Region extent.
        size: Vec<usize>,
        /// Per-request deadline budget in ms (0 = server default).
        budget_ms: u64,
        /// Serve around damaged chunks (zero-filled) instead of failing.
        tolerant: bool,
    },
    /// Graceful shutdown.
    Shutdown,
    /// Server counters.
    Stats,
}

impl Request {
    /// Wire kind byte of this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => kind::PING,
            Request::Compress { .. } => kind::COMPRESS,
            Request::Decompress { .. } => kind::DECOMPRESS,
            Request::RegionRead { .. } => kind::REGION_READ,
            Request::Shutdown => kind::SHUTDOWN,
            Request::Stats => kind::STATS,
        }
    }

    /// Serialize the payload (the frame kind travels in the header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Ping | Request::Shutdown | Request::Stats => {}
            Request::Compress {
                name,
                scalar_tag,
                dims,
                bound,
                budget_ms,
                raw,
            } => {
                w.put_len_prefixed(name.as_bytes());
                w.put_u8(*scalar_tag);
                put_dims(&mut w, dims);
                put_bound(&mut w, *bound);
                w.put_varint(*budget_ms);
                w.put_len_prefixed(raw);
            }
            Request::Decompress { budget_ms, blob } => {
                w.put_varint(*budget_ms);
                w.put_len_prefixed(blob);
            }
            Request::RegionRead {
                archive,
                var,
                origin,
                size,
                budget_ms,
                tolerant,
            } => {
                w.put_len_prefixed(archive.as_bytes());
                w.put_len_prefixed(var.as_bytes());
                put_dims(&mut w, origin);
                put_dims(&mut w, size);
                w.put_varint(*budget_ms);
                w.put_u8(u8::from(*tolerant));
            }
        }
        w.finish()
    }

    /// Parse a request payload for frame `kind`. Every structural
    /// invariant is enforced here so handlers downstream can trust the
    /// value.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> qoz_codec::Result<Request> {
        let mut r = ByteReader::new(payload);
        let req = match kind_byte {
            kind::PING => Request::Ping,
            kind::SHUTDOWN => Request::Shutdown,
            kind::STATS => Request::Stats,
            kind::COMPRESS => {
                let name = get_string(&mut r, "variable name")?;
                let scalar_tag = r.get_u8()?;
                let dims = get_dims(&mut r)?;
                let bound = get_bound(&mut r)?;
                let budget_ms = r.get_varint()?;
                let raw = r.get_len_prefixed()?.to_vec();
                let elems: usize = dims.iter().product();
                let elem_bytes = match scalar_tag {
                    t if t == <f32 as qoz_tensor::Scalar>::TYPE_TAG => 4,
                    t if t == <f64 as qoz_tensor::Scalar>::TYPE_TAG => 8,
                    _ => return Err(CodecError::Corrupt("unknown scalar tag in request")),
                };
                if elems.checked_mul(elem_bytes) != Some(raw.len()) {
                    return Err(CodecError::Corrupt("raw byte count disagrees with shape"));
                }
                Request::Compress {
                    name,
                    scalar_tag,
                    dims,
                    bound,
                    budget_ms,
                    raw,
                }
            }
            kind::DECOMPRESS => Request::Decompress {
                budget_ms: r.get_varint()?,
                blob: r.get_len_prefixed()?.to_vec(),
            },
            kind::REGION_READ => {
                let archive = get_string(&mut r, "archive path")?;
                let var = get_string(&mut r, "variable name")?;
                let origin = get_dims_allow_zero(&mut r)?;
                let size = get_dims(&mut r)?;
                if origin.len() != size.len() {
                    return Err(CodecError::Corrupt("region rank mismatch"));
                }
                Request::RegionRead {
                    archive,
                    var,
                    origin,
                    size,
                    budget_ms: r.get_varint()?,
                    tolerant: match r.get_u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(CodecError::Corrupt("bad tolerant flag")),
                    },
                }
            }
            _ => return Err(CodecError::Corrupt("not a request kind")),
        };
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes in request"));
        }
        Ok(req)
    }
}

/// Server counters, as carried by a [`Response::Stats`] frame.
///
/// **Wire forward-compatibility contract.** The payload is the eight
/// legacy varints below, in order, optionally followed by a
/// length-prefixed telemetry snapshot blob, optionally followed by
/// further extension bytes this version does not know about. Old
/// clients stop after the eight varints (their decoder has always
/// tolerated what the frame checksum already covers); this decoder
/// parses the telemetry extension when present and *skips* any trailing
/// extension bytes instead of rejecting them, so the next extension can
/// be appended the same way. New fields must only ever be appended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted and answered (any outcome).
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests that missed their deadline.
    pub deadline_missed: u64,
    /// Handler panics caught (== worker states rebuilt).
    pub worker_panics: u64,
    /// Malformed frames answered with `BadFrame`.
    pub bad_frames: u64,
    /// Compress calls served from a warm plan.
    pub warm_hits: u64,
    /// Compress calls that cold-tuned or retuned.
    pub cold_tunes: u64,
    /// Requests rejected because the server was draining.
    pub shutdown_rejects: u64,
    /// Full per-instance telemetry (counters, error tallies, latency
    /// and payload-size histograms, plan-cache outcomes). `None` when
    /// the server predates the extension.
    pub telemetry: Option<qoz_telemetry::Snapshot>,
}

impl StatsSnapshot {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for v in [
            self.served,
            self.shed,
            self.deadline_missed,
            self.worker_panics,
            self.bad_frames,
            self.warm_hits,
            self.cold_tunes,
            self.shutdown_rejects,
        ] {
            w.put_varint(v);
        }
        if let Some(t) = &self.telemetry {
            w.put_len_prefixed(&t.encode());
        }
        w.finish()
    }

    /// Decode, consuming the entire remaining payload (unknown future
    /// extension bytes are skipped — see the type-level contract).
    fn decode(r: &mut ByteReader) -> qoz_codec::Result<StatsSnapshot> {
        let mut snap = StatsSnapshot {
            served: r.get_varint()?,
            shed: r.get_varint()?,
            deadline_missed: r.get_varint()?,
            worker_panics: r.get_varint()?,
            bad_frames: r.get_varint()?,
            warm_hits: r.get_varint()?,
            cold_tunes: r.get_varint()?,
            shutdown_rejects: r.get_varint()?,
            telemetry: None,
        };
        if r.remaining() > 0 {
            let blob = r.get_len_prefixed()?;
            snap.telemetry = Some(
                qoz_telemetry::Snapshot::decode(blob)
                    .map_err(|_| CodecError::Corrupt("bad telemetry extension"))?,
            );
        }
        // Skip extensions newer than this decoder.
        let trailing = r.remaining();
        if trailing > 0 {
            r.get_bytes(trailing)?;
        }
        Ok(snap)
    }
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Compressed stream.
    Compressed {
        /// What the plan cache did: 0 = not applicable, 1 = cold tune,
        /// 2 = warm hit, 3 = warm rescale, 4 = retune.
        outcome: u8,
        /// The compressed bytes (identical to the local path).
        blob: Vec<u8>,
    },
    /// Reconstructed raw data.
    Decompressed {
        /// Element type tag.
        scalar_tag: u8,
        /// Array dimensions.
        dims: Vec<usize>,
        /// Raw little-endian element bytes.
        raw: Vec<u8>,
    },
    /// Region slab (possibly degraded when `faults > 0`).
    Region {
        /// Element type tag.
        scalar_tag: u8,
        /// Slab dimensions.
        dims: Vec<usize>,
        /// Damaged chunks zero-filled in the slab (tolerant mode).
        faults: u64,
        /// Raw little-endian element bytes.
        raw: Vec<u8>,
    },
    /// Typed failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Counters snapshot.
    Stats(StatsSnapshot),
    /// Shutdown acknowledged.
    ShutdownOk,
}

impl Response {
    /// Wire kind byte of this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong => kind::PONG,
            Response::Compressed { .. } => kind::COMPRESSED,
            Response::Decompressed { .. } => kind::DECOMPRESSED,
            Response::Region { .. } => kind::REGION,
            Response::Error { .. } => kind::ERROR,
            Response::Stats(_) => kind::STATS_OK,
            Response::ShutdownOk => kind::SHUTDOWN_OK,
        }
    }

    /// Serialize the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Pong | Response::ShutdownOk => {}
            Response::Compressed { outcome, blob } => {
                w.put_u8(*outcome);
                w.put_len_prefixed(blob);
            }
            Response::Decompressed {
                scalar_tag,
                dims,
                raw,
            } => {
                w.put_u8(*scalar_tag);
                put_dims(&mut w, dims);
                w.put_len_prefixed(raw);
            }
            Response::Region {
                scalar_tag,
                dims,
                faults,
                raw,
            } => {
                w.put_u8(*scalar_tag);
                put_dims(&mut w, dims);
                w.put_varint(*faults);
                w.put_len_prefixed(raw);
            }
            Response::Error { code, message } => {
                w.put_u8(*code as u8);
                w.put_len_prefixed(message.as_bytes());
            }
            Response::Stats(s) => w.put_bytes(&s.encode()),
        }
        w.finish()
    }

    /// Parse a response payload for frame `kind`.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> qoz_codec::Result<Response> {
        let mut r = ByteReader::new(payload);
        let resp = match kind_byte {
            kind::PONG => Response::Pong,
            kind::SHUTDOWN_OK => Response::ShutdownOk,
            kind::COMPRESSED => {
                let outcome = r.get_u8()?;
                if outcome > 4 {
                    return Err(CodecError::Corrupt("bad plan outcome byte"));
                }
                Response::Compressed {
                    outcome,
                    blob: r.get_len_prefixed()?.to_vec(),
                }
            }
            kind::DECOMPRESSED => Response::Decompressed {
                scalar_tag: r.get_u8()?,
                dims: get_dims(&mut r)?,
                raw: r.get_len_prefixed()?.to_vec(),
            },
            kind::REGION => Response::Region {
                scalar_tag: r.get_u8()?,
                dims: get_dims(&mut r)?,
                faults: r.get_varint()?,
                raw: r.get_len_prefixed()?.to_vec(),
            },
            kind::ERROR => {
                let code = ErrorCode::from_u8(r.get_u8()?)
                    .ok_or(CodecError::Corrupt("unknown error code"))?;
                Response::Error {
                    code,
                    message: get_string(&mut r, "error message")?,
                }
            }
            kind::STATS_OK => Response::Stats(StatsSnapshot::decode(&mut r)?),
            _ => return Err(CodecError::Corrupt("not a response kind")),
        };
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes in response"));
        }
        Ok(resp)
    }
}

const MAX_NAME: usize = 4096;

fn get_string(r: &mut ByteReader, what: &'static str) -> qoz_codec::Result<String> {
    let bytes = r.get_len_prefixed()?;
    if bytes.len() > MAX_NAME {
        return Err(CodecError::Corrupt("string field implausibly long"));
    }
    String::from_utf8(bytes.to_vec()).map_err(|_| {
        let _ = what;
        CodecError::Corrupt("string field is not UTF-8")
    })
}

fn put_dims(w: &mut ByteWriter, dims: &[usize]) {
    w.put_u8(dims.len() as u8);
    for &d in dims {
        w.put_varint(d as u64);
    }
}

fn get_dims_with(r: &mut ByteReader, allow_zero: bool) -> qoz_codec::Result<Vec<usize>> {
    let nd = r.get_u8()? as usize;
    if nd == 0 || nd > qoz_tensor::MAX_NDIM {
        return Err(CodecError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(nd);
    for _ in 0..nd {
        let d = r.get_varint()?;
        if (!allow_zero && d == 0) || d > (1 << 40) {
            return Err(CodecError::Corrupt("bad dimension"));
        }
        dims.push(d as usize);
    }
    Ok(dims)
}

/// A shape: every extent non-zero and the element count within
/// [`qoz_tensor::MAX_ELEMS`], since both ends size buffers from it.
fn get_dims(r: &mut ByteReader) -> qoz_codec::Result<Vec<usize>> {
    let dims = get_dims_with(r, false)?;
    qoz_tensor::Shape::try_new(&dims).ok_or(CodecError::Corrupt("implausible shape"))?;
    Ok(dims)
}

fn get_dims_allow_zero(r: &mut ByteReader) -> qoz_codec::Result<Vec<usize>> {
    get_dims_with(r, true)
}

fn put_bound(w: &mut ByteWriter, bound: ErrorBound) {
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

fn get_bound(r: &mut ByteReader) -> qoz_codec::Result<ErrorBound> {
    let kind_byte = r.get_u8()?;
    let v = r.get_f64()?;
    let bound = match kind_byte {
        0 => ErrorBound::Abs(v),
        1 => ErrorBound::Rel(v),
        _ => return Err(CodecError::Corrupt("bad bound kind")),
    };
    if !bound.is_valid() {
        return Err(CodecError::Corrupt("bad bound value"));
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut wire = Vec::new();
        write_frame(&mut wire, req.kind(), &req.encode()).unwrap();
        let (k, payload) = read_frame(&mut wire.as_slice(), MAX_PAYLOAD).unwrap();
        assert_eq!(k, req.kind());
        assert_eq!(Request::decode(k, &payload).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Compress {
            name: "rho".into(),
            scalar_tag: 0x32,
            dims: vec![4, 3, 2],
            bound: ErrorBound::Rel(1e-3),
            budget_ms: 250,
            raw: vec![0u8; 4 * 3 * 2 * 4],
        });
        roundtrip_req(Request::Decompress {
            budget_ms: 0,
            blob: vec![1, 2, 3],
        });
        roundtrip_req(Request::RegionRead {
            archive: "dump.qza".into(),
            var: "v@t3".into(),
            origin: vec![0, 8],
            size: vec![4, 4],
            budget_ms: 1000,
            tolerant: true,
        });
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Pong,
            Response::ShutdownOk,
            Response::Compressed {
                outcome: 2,
                blob: vec![9; 17],
            },
            Response::Decompressed {
                scalar_tag: 0x32,
                dims: vec![5, 5],
                raw: vec![0; 100],
            },
            Response::Region {
                scalar_tag: 0x64,
                dims: vec![2, 2, 2],
                faults: 1,
                raw: vec![0; 64],
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
            Response::Stats(StatsSnapshot {
                served: 10,
                shed: 2,
                warm_hits: 7,
                ..Default::default()
            }),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, resp.kind(), &resp.encode()).unwrap();
            let (k, payload) = read_frame(&mut wire.as_slice(), MAX_PAYLOAD).unwrap();
            assert_eq!(Response::decode(k, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn stats_telemetry_extension_roundtrips_and_stays_forward_compatible() {
        let reg = qoz_telemetry::Registry::new();
        reg.counter("qoz_requests_total", &[("kind", "compress")])
            .add(3);
        reg.histogram("qoz_request_latency_ns", &[("kind", "compress")], &[1000])
            .observe(10);
        let snap = StatsSnapshot {
            served: 3,
            warm_hits: 2,
            telemetry: Some(reg.snapshot()),
            ..Default::default()
        };
        let resp = Response::Stats(snap.clone());

        // Extended payload round-trips exactly.
        let decoded = Response::decode(kind::STATS_OK, &resp.encode()).unwrap();
        assert_eq!(decoded, resp);

        // An old-format payload (eight varints only) still parses:
        // that is what a pre-extension server sends.
        let legacy = Response::Stats(StatsSnapshot {
            served: 3,
            warm_hits: 2,
            ..Default::default()
        });
        let mut legacy_payload = resp.encode();
        legacy_payload.truncate(8); // the eight varints are one byte each here
        assert_eq!(
            Response::decode(kind::STATS_OK, &legacy_payload).unwrap(),
            legacy
        );

        // Bytes appended after the telemetry extension (a future,
        // newer-than-us extension) are skipped, not rejected.
        let mut future = resp.encode();
        future.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        assert_eq!(Response::decode(kind::STATS_OK, &future).unwrap(), resp);

        // A corrupt telemetry blob is still an error, not a panic.
        let mut corrupt = resp.encode();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        let _ = Response::decode(kind::STATS_OK, &corrupt);
    }

    #[test]
    fn frame_failures_are_typed() {
        let mut good = Vec::new();
        write_frame(&mut good, kind::PING, &[]).unwrap();

        // Truncation at every prefix is an Io error, never a panic.
        for n in 0..good.len() {
            match read_frame(&mut &good[..n], MAX_PAYLOAD) {
                Err(FrameError::Io(_)) => {}
                other => panic!("prefix {n}: {other:?}"),
            }
        }

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAX_PAYLOAD),
            Err(FrameError::BadMagic)
        ));

        let mut bad = good.clone();
        bad[4] = 0x55;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAX_PAYLOAD),
            Err(FrameError::BadKind(0x55))
        ));

        // An oversized declared length is rejected before allocation.
        let mut bad = good.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAX_PAYLOAD),
            Err(FrameError::Oversized(_))
        ));

        // And against a caller-tightened cap.
        let mut framed = Vec::new();
        write_frame(&mut framed, kind::DECOMPRESS, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame(&mut framed.as_slice(), 50),
            Err(FrameError::Oversized(100))
        ));

        // Flipped payload byte → checksum mismatch.
        let mut framed = Vec::new();
        write_frame(&mut framed, kind::DECOMPRESS, &[7u8; 16]).unwrap();
        framed[FRAME_HEADER_LEN + 3] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut framed.as_slice(), MAX_PAYLOAD),
            Err(FrameError::BadChecksum)
        ));
    }

    #[test]
    fn xxh64_matches_the_published_seed_zero_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Lengths 0..=96 take every path: under one stripe, one to three
        // stripes, and each mix of 8-, 4- and 1-byte tails.
        let data: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let mut buf = data[..len].to_vec();
            let sound = xxh64(&buf);
            for bit in 0..len * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(xxh64(&buf), sound, "length {len}, bit {bit}");
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn request_decode_validates_structure() {
        // Shape/byte-count mismatch.
        let req = Request::Compress {
            name: "v".into(),
            scalar_tag: 0x32,
            dims: vec![4, 4],
            bound: ErrorBound::Abs(1e-3),
            budget_ms: 0,
            raw: vec![0u8; 5],
        };
        assert!(Request::decode(kind::COMPRESS, &req.encode()).is_err());

        // Unknown scalar tag.
        let req = Request::Compress {
            name: "v".into(),
            scalar_tag: 0x99,
            dims: vec![1],
            bound: ErrorBound::Abs(1e-3),
            budget_ms: 0,
            raw: vec![0u8; 4],
        };
        assert!(Request::decode(kind::COMPRESS, &req.encode()).is_err());

        // Garbage payloads error, never panic.
        for kind_byte in [
            kind::COMPRESS,
            kind::DECOMPRESS,
            kind::REGION_READ,
            kind::ERROR,
        ] {
            for len in 0..32usize {
                let garbage: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                let _ = Request::decode(kind_byte, &garbage);
                let _ = Response::decode(kind_byte | 0x80, &garbage);
            }
        }

        // Trailing bytes rejected.
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(Request::decode(kind::PING, &p).is_err());
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        for v in 1..=10u8 {
            let c = ErrorCode::from_u8(v).unwrap();
            assert_eq!(c as u8, v);
        }
        assert!(ErrorCode::from_u8(0).is_none());
        assert!(ErrorCode::from_u8(11).is_none());
        assert!(ErrorCode::Overloaded.is_transient());
        assert!(ErrorCode::ShuttingDown.is_transient());
        assert!(!ErrorCode::CorruptInput.is_transient());
        assert!(!ErrorCode::WorkerPanic.is_transient());
    }
}
