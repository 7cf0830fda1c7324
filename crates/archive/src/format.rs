//! On-disk layout of the QZAR container.
//!
//! ```text
//! offset 0   magic "QZAR"                      (4 bytes)
//!        4   container version                 (u8)
//!        5   flags, reserved, must be 0        (u8)
//!        6   toc_len                           (u64 LE)
//!       14   TOC                               (toc_len bytes, see below)
//!  14+toc_len  fnv1a64(TOC bytes)              (u64 LE)
//!  22+toc_len  payload: chunk blobs, back to back
//! ```
//!
//! TOC serialization (via `ByteWriter`, LEB128 varints):
//!
//! ```text
//! var_count varint
//! per variable:
//!   name          len-prefixed UTF-8
//!   scalar_tag    u8  (Scalar::TYPE_TAG)
//!   ndim          u8, then ndim dims as varints
//!   abs_eb        f64 (absolute bound all chunks were compressed with)
//!   compressor    u8  (CompressorId)
//!   chunk_side    varint (Region::tile block size)
//!   chunk_count   varint (must equal the tile-grid size)
//!   per chunk (row-major grid order, matching Region::tile):
//!     offset varint   relative to payload start
//!     len    varint
//!     fnv1a64(blob)   u64
//! ```
//!
//! Invariants the reader enforces:
//!
//! * chunks are byte-independent `qoz_codec::stream` blobs — each one
//!   decodes on its own, with its own header, so any subset of chunks
//!   can be fetched and decompressed without touching the rest;
//! * the TOC is covered by its own FNV-1a checksum, every chunk by the
//!   checksum recorded in its index entry;
//! * chunk `offset + len` never exceeds the payload extent, and chunk
//!   count always equals the `Region::tile` grid size for the recorded
//!   shape and `chunk_side`.

use crate::{ArchiveError, Result};
use qoz_codec::stream::CompressorId;
use qoz_codec::{ByteReader, ByteWriter};
use qoz_tensor::{Region, Shape};

/// 4-byte container magic: "QZAR" (QoZ archive).
pub const MAGIC: [u8; 4] = *b"QZAR";
/// Container version that adds per-variable temporal-chain records:
/// each var record carries a [`TemporalKind`] tag (and, for deltas, the
/// predecessor's name) right after the compressor byte. Archives whose
/// variables are all [`TemporalKind::Independent`] keep emitting
/// [`VERSION`], byte-identical to pre-temporal builds.
pub const VERSION_TEMPORAL: u8 = 2;
/// Current container format version.
pub const VERSION: u8 = 1;
/// Bytes before the TOC: magic + version + flags + toc_len.
pub const SUPERBLOCK_LEN: usize = 4 + 1 + 1 + 8;

/// FNV-1a, 64-bit. Dependency-free, stable across platforms; used for
/// both the TOC and the per-chunk integrity checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Write a container's head to `sink`: the superblock, `toc` encoded,
/// and the TOC checksum. Every writer emits its head here and its
/// payload right after; returns the bytes written.
pub(crate) fn write_head(toc: &Toc, sink: &mut dyn std::io::Write) -> Result<u64> {
    let toc_bytes = toc.encode();
    let mut head = ByteWriter::with_capacity(SUPERBLOCK_LEN + toc_bytes.len() + 8);
    head.put_bytes(&MAGIC);
    head.put_u8(toc.version());
    head.put_u8(0); // flags, reserved
    head.put_u64(toc_bytes.len() as u64);
    head.put_bytes(&toc_bytes);
    head.put_u64(fnv1a(&toc_bytes));
    let head = head.finish();
    sink.write_all(&head).map_err(sink_error)?;
    Ok(head.len() as u64)
}

/// The error a failed write to an archive sink reports.
pub(crate) fn sink_error(e: std::io::Error) -> ArchiveError {
    ArchiveError::Io(format!("archive sink: {e}"))
}

/// Index entry for one stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the blob, relative to the payload start.
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u64,
    /// FNV-1a 64 of the blob bytes.
    pub checksum: u64,
}

/// A variable's role in a temporal snapshot chain.
///
/// Delta variables store the **residual field** against the prior
/// snapshot's reconstruction, chunked and compressed exactly like any
/// other variable (each chunk is still an independent plain stream).
/// The chain structure lives here, in the TOC, so
/// `ArchiveReader::read_region` can resolve `x̂_t[R] = x̂_{t-1}[R] +
/// r̂_t[R]` — residual addition commutes with region extraction, so
/// chained region reads touch only the chunks each member's region
/// intersects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TemporalKind {
    /// An ordinary variable, no chain membership.
    #[default]
    Independent,
    /// A chain anchor: stored independently, deltas may reference it.
    Keyframe,
    /// Residual against `prev`'s reconstruction (`prev` is the full
    /// variable name of the chain predecessor, which must appear
    /// *earlier* in the TOC — chains are acyclic by construction).
    Delta {
        /// Name of the predecessor variable.
        prev: String,
    },
}

impl TemporalKind {
    /// Serialized tag byte.
    fn tag(&self) -> u8 {
        match self {
            TemporalKind::Independent => 0,
            TemporalKind::Keyframe => 1,
            TemporalKind::Delta { .. } => 2,
        }
    }
}

/// Metadata for one archived variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarMeta {
    /// Variable name (unique within the archive).
    pub name: String,
    /// Element type tag (`Scalar::TYPE_TAG`).
    pub scalar_tag: u8,
    /// Full-variable shape.
    pub shape: Shape,
    /// Absolute error bound every chunk was compressed with.
    pub abs_eb: f64,
    /// Backend that produced the chunk streams.
    pub compressor: CompressorId,
    /// `Region::tile` block size of the chunk grid.
    pub chunk_side: usize,
    /// One entry per chunk, in `Region::tile` (row-major grid) order.
    pub chunks: Vec<ChunkEntry>,
    /// Temporal-chain role ([`TemporalKind::Independent`] for ordinary
    /// variables; anything else upgrades the container to
    /// [`VERSION_TEMPORAL`]).
    pub temporal: TemporalKind,
}

impl VarMeta {
    /// The chunk grid regions, in the same order as [`VarMeta::chunks`].
    pub fn chunk_regions(&self) -> Vec<Region> {
        Region::tile(self.shape, self.chunk_side)
    }

    /// Total compressed payload bytes of this variable.
    pub fn compressed_len(&self) -> u64 {
        self.chunks.iter().map(|c| c.len).sum()
    }
}

/// Compose the variable name of `base` at timestep `t` in the
/// multi-snapshot layout (`"{base}@t{t}"`).
///
/// A time series is stored as one ordinary variable per timestep, all
/// sharing the archive's single TOC — no separate snapshot table, so
/// every existing reader, region query and integrity check works on
/// snapshot variables unchanged. [`Toc::snapshots`] lists them back.
pub fn snapshot_name(base: &str, t: u64) -> String {
    format!("{base}@t{t}")
}

/// Split a multi-snapshot variable name into `(base, timestep)`;
/// `None` for names that are not of the `"{base}@t{t}"` form.
pub fn parse_snapshot_name(name: &str) -> Option<(&str, u64)> {
    let (base, t) = name.rsplit_once("@t")?;
    if base.is_empty() || t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, t.parse().ok()?))
}

/// Parsed table of contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Toc {
    /// Archived variables, in insertion order.
    pub vars: Vec<VarMeta>,
}

impl Toc {
    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Result<&VarMeta> {
        self.vars
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| ArchiveError::UnknownVariable(name.to_string()))
    }

    /// The timesteps stored for `base` under the multi-snapshot naming
    /// convention, sorted ascending by timestep.
    pub fn snapshots(&self, base: &str) -> Vec<(u64, &VarMeta)> {
        let mut out: Vec<(u64, &VarMeta)> = self
            .vars
            .iter()
            .filter_map(|v| match parse_snapshot_name(&v.name) {
                Some((b, t)) if b == base => Some((t, v)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// The container version this TOC requires: [`VERSION`] while every
    /// variable is [`TemporalKind::Independent`] (the serialization is
    /// then byte-identical to pre-temporal builds), [`VERSION_TEMPORAL`]
    /// as soon as any chain record is present.
    pub fn version(&self) -> u8 {
        if self
            .vars
            .iter()
            .any(|v| v.temporal != TemporalKind::Independent)
        {
            VERSION_TEMPORAL
        } else {
            VERSION
        }
    }

    /// Serialize the TOC body (without superblock or checksum) in the
    /// layout of [`Toc::version`].
    pub fn encode(&self) -> Vec<u8> {
        let version = self.version();
        let mut w = ByteWriter::new();
        w.put_varint(self.vars.len() as u64);
        for v in &self.vars {
            w.put_len_prefixed(v.name.as_bytes());
            w.put_u8(v.scalar_tag);
            w.put_u8(v.shape.ndim() as u8);
            for &d in v.shape.dims() {
                w.put_varint(d as u64);
            }
            w.put_f64(v.abs_eb);
            w.put_u8(v.compressor as u8);
            if version == VERSION_TEMPORAL {
                w.put_u8(v.temporal.tag());
                if let TemporalKind::Delta { prev } = &v.temporal {
                    w.put_len_prefixed(prev.as_bytes());
                }
            }
            w.put_varint(v.chunk_side as u64);
            w.put_varint(v.chunks.len() as u64);
            for c in &v.chunks {
                w.put_varint(c.offset);
                w.put_varint(c.len);
                w.put_u64(c.checksum);
            }
        }
        w.finish()
    }

    /// Parse and validate a TOC body against the payload extent.
    /// `version` is the container version from the superblock and
    /// selects the variable-record layout.
    pub fn decode(bytes: &[u8], payload_len: u64, version: u8) -> Result<Toc> {
        let mut r = ByteReader::new(bytes);
        let var_count = r.get_varint()?;
        // One chunk entry is >= 10 bytes; an absurd count is corruption,
        // not something to try allocating for.
        if var_count > bytes.len() as u64 {
            return Err(ArchiveError::Corrupt("implausible variable count"));
        }
        let mut vars = Vec::with_capacity(var_count as usize);
        for _ in 0..var_count {
            let name = std::str::from_utf8(r.get_len_prefixed()?)
                .map_err(|_| ArchiveError::Corrupt("variable name is not UTF-8"))?
                .to_string();
            if name.is_empty() {
                return Err(ArchiveError::Corrupt("empty variable name"));
            }
            let scalar_tag = r.get_u8()?;
            let ndim = r.get_u8()? as usize;
            if ndim == 0 || ndim > qoz_tensor::MAX_NDIM {
                return Err(ArchiveError::Corrupt("bad variable rank"));
            }
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                let d = r.get_varint()? as usize;
                if d == 0 || d > (1 << 32) {
                    return Err(ArchiveError::Corrupt("bad variable dimension"));
                }
                dims.push(d);
            }
            // Dims are each <= 2^32, so four of them can wrap usize. A TOC
            // is ~30 bytes of trivially re-checksummable plaintext —
            // declared sizes must be validated, not trusted, before any
            // consumer allocates for them.
            let shape =
                Shape::try_new(&dims).ok_or(ArchiveError::Corrupt("implausible variable size"))?;
            let abs_eb = r.get_f64()?;
            if !(abs_eb.is_finite() && abs_eb > 0.0) {
                return Err(ArchiveError::Corrupt("bad error bound"));
            }
            let compressor = CompressorId::from_u8(r.get_u8()?)?;
            let temporal = if version == VERSION_TEMPORAL {
                match r.get_u8()? {
                    0 => TemporalKind::Independent,
                    1 => TemporalKind::Keyframe,
                    2 => {
                        let prev = std::str::from_utf8(r.get_len_prefixed()?)
                            .map_err(|_| ArchiveError::Corrupt("predecessor name is not UTF-8"))?
                            .to_string();
                        // The predecessor must already be parsed (chains
                        // are stored keyframe-first), share the member's
                        // shape and element type, and anchor an acyclic
                        // chain — earlier-only references cannot cycle.
                        let p = vars.iter().find(|v: &&VarMeta| v.name == prev).ok_or(
                            ArchiveError::Corrupt("delta predecessor not found earlier in TOC"),
                        )?;
                        if p.shape != shape || p.scalar_tag != scalar_tag {
                            return Err(ArchiveError::Corrupt(
                                "delta predecessor shape/type mismatch",
                            ));
                        }
                        TemporalKind::Delta { prev }
                    }
                    _ => return Err(ArchiveError::Corrupt("unknown temporal kind")),
                }
            } else {
                TemporalKind::Independent
            };
            let chunk_side = r.get_varint()? as usize;
            if chunk_side == 0 {
                return Err(ArchiveError::Corrupt("zero chunk side"));
            }
            let expected_chunks = shape
                .dims()
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d.div_ceil(chunk_side)))
                .ok_or(ArchiveError::Corrupt("chunk grid overflow"))?;
            let chunk_count = r.get_varint()? as usize;
            if chunk_count != expected_chunks {
                return Err(ArchiveError::Corrupt("chunk count does not match grid"));
            }
            // Every entry takes >= 10 encoded bytes (two varints + u64);
            // a count the remaining TOC cannot possibly hold is corruption
            // — reject it before allocating the index.
            if chunk_count > r.remaining() / 10 {
                return Err(ArchiveError::Corrupt("implausible chunk count"));
            }
            let mut chunks = Vec::with_capacity(chunk_count);
            for _ in 0..chunk_count {
                let offset = r.get_varint()?;
                let len = r.get_varint()?;
                let checksum = r.get_u64()?;
                if len == 0 {
                    return Err(ArchiveError::Corrupt("zero-length chunk"));
                }
                let end = offset
                    .checked_add(len)
                    .ok_or(ArchiveError::Corrupt("chunk extent overflow"))?;
                if end > payload_len {
                    return Err(ArchiveError::Corrupt("chunk extends past payload"));
                }
                chunks.push(ChunkEntry {
                    offset,
                    len,
                    checksum,
                });
            }
            if vars.iter().any(|v: &VarMeta| v.name == name) {
                return Err(ArchiveError::Corrupt("duplicate variable name"));
            }
            vars.push(VarMeta {
                name,
                scalar_tag,
                shape,
                abs_eb,
                compressor,
                chunk_side,
                chunks,
                temporal,
            });
        }
        if r.remaining() != 0 {
            return Err(ArchiveError::Corrupt("trailing bytes after TOC"));
        }
        Ok(Toc { vars })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_toc() -> Toc {
        Toc {
            vars: vec![VarMeta {
                name: "temperature".into(),
                scalar_tag: 0x32,
                shape: Shape::d3(10, 12, 14),
                abs_eb: 1e-3,
                compressor: CompressorId::Qoz,
                chunk_side: 8,
                chunks: (0..8)
                    .map(|k| ChunkEntry {
                        offset: k * 100,
                        len: 100,
                        checksum: 0xDEAD_0000 + k,
                    })
                    .collect(),
                temporal: TemporalKind::Independent,
            }],
        }
    }

    #[test]
    fn toc_roundtrip() {
        let toc = sample_toc();
        let bytes = toc.encode();
        assert_eq!(Toc::decode(&bytes, 800, VERSION).unwrap(), toc);
    }

    #[test]
    fn toc_rejects_chunk_past_payload() {
        let toc = sample_toc();
        let bytes = toc.encode();
        assert!(matches!(
            Toc::decode(&bytes, 799, VERSION),
            Err(ArchiveError::Corrupt(_))
        ));
    }

    #[test]
    fn toc_rejects_wrong_chunk_count() {
        let mut toc = sample_toc();
        toc.vars[0].chunks.pop();
        let bytes = toc.encode();
        assert!(Toc::decode(&bytes, 800, VERSION).is_err());
    }

    #[test]
    fn toc_rejects_duplicate_names() {
        let mut toc = sample_toc();
        let dup = toc.vars[0].clone();
        toc.vars.push(dup);
        assert!(Toc::decode(&toc.encode(), 1600, VERSION).is_err());
    }

    #[test]
    fn toc_truncation_always_errors() {
        let bytes = sample_toc().encode();
        for cut in 0..bytes.len() {
            assert!(
                Toc::decode(&bytes[..cut], 800, VERSION).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    /// Hand-encode a minimal single-variable TOC prefix up to and
    /// including the dims, so tests can probe size validation with dims
    /// no legitimate `Shape` could represent.
    fn encode_var_prefix(dims: &[u64]) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_varint(1); // var_count
        w.put_len_prefixed(b"v");
        w.put_u8(0x32); // f32
        w.put_u8(dims.len() as u8);
        for &d in dims {
            w.put_varint(d);
        }
        w
    }

    #[test]
    fn giant_declared_dims_rejected_before_allocation() {
        // Dims of 2^32 each wrap the usize element product; the decoder
        // must refuse such a TOC (which is ~40 bytes of plaintext with a
        // recomputable checksum — not trustworthy) instead of letting a
        // reader allocate for it.
        let bytes = encode_var_prefix(&[1 << 32, 1 << 32, 1 << 32]).finish();
        assert_eq!(
            Toc::decode(&bytes, 800, VERSION),
            Err(ArchiveError::Corrupt("implausible variable size"))
        );
        // Above the per-variable cap with individually-legal dims.
        let bytes = encode_var_prefix(&[32, 1 << 32]).finish();
        assert_eq!(
            Toc::decode(&bytes, 800, VERSION),
            Err(ArchiveError::Corrupt("implausible variable size"))
        );
        // At the cap is still structurally acceptable (fails later on
        // truncation, not on size).
        let bytes = encode_var_prefix(&[16, 1 << 32]).finish();
        assert_ne!(
            Toc::decode(&bytes, 800, VERSION),
            Err(ArchiveError::Corrupt("implausible variable size"))
        );
    }

    #[test]
    fn implausible_chunk_count_rejected_before_allocation() {
        // A grid the TOC's remaining bytes could never index must be
        // rejected up front rather than pre-allocating the entry table:
        // 2^10 cubed elements passes the size cap, chunk_side 1 makes the
        // grid 2^30 chunks, and the TOC holds zero entry bytes.
        let mut w = encode_var_prefix(&[1 << 10, 1 << 10, 1 << 10]);
        w.put_f64(1e-3);
        w.put_u8(CompressorId::Sz3 as u8);
        w.put_varint(1); // chunk_side
        w.put_varint(1 << 30); // chunk_count matches the grid
        let bytes = w.finish();
        assert_eq!(
            Toc::decode(&bytes, u64::MAX, VERSION),
            Err(ArchiveError::Corrupt("implausible chunk count"))
        );
    }

    #[test]
    fn snapshot_names_roundtrip() {
        assert_eq!(snapshot_name("rho", 12), "rho@t12");
        assert_eq!(parse_snapshot_name("rho@t12"), Some(("rho", 12)));
        // Base names may themselves contain '@t': the *last* marker wins,
        // so composed names always parse back to what composed them.
        assert_eq!(parse_snapshot_name("a@t1@t2"), Some(("a@t1", 2)));
        for bad in ["rho", "rho@t", "@t3", "rho@tx7", "rho@t-1", "rho@t+1"] {
            assert_eq!(parse_snapshot_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn toc_lists_snapshots_sorted() {
        let mut toc = sample_toc();
        let base = toc.vars[0].clone();
        for (i, t) in [(0, 10u64), (1, 2), (2, 7)] {
            let mut v = base.clone();
            v.name = snapshot_name("temperature", t);
            v.abs_eb = 1e-3 + i as f64;
            toc.vars.push(v);
        }
        let snaps = toc.snapshots("temperature");
        assert_eq!(
            snaps.iter().map(|&(t, _)| t).collect::<Vec<u64>>(),
            vec![2, 7, 10]
        );
        // The plain variable itself is not a snapshot.
        assert_eq!(toc.snapshots("nope"), vec![]);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of the empty string and of "a" are published constants.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn chunk_regions_match_entry_count() {
        let toc = sample_toc();
        assert_eq!(toc.vars[0].chunk_regions().len(), toc.vars[0].chunks.len());
    }

    #[test]
    fn temporal_toc_roundtrips_and_bumps_version() {
        let mut toc = sample_toc();
        assert_eq!(toc.version(), VERSION, "all-independent stays v1");
        let mut key = toc.vars[0].clone();
        key.name = "u@t0".into();
        key.temporal = TemporalKind::Keyframe;
        let mut delta = toc.vars[0].clone();
        delta.name = "u@t1".into();
        delta.temporal = TemporalKind::Delta {
            prev: "u@t0".into(),
        };
        toc.vars.push(key);
        toc.vars.push(delta);
        assert_eq!(toc.version(), VERSION_TEMPORAL);
        let bytes = toc.encode();
        assert_eq!(Toc::decode(&bytes, 800, VERSION_TEMPORAL).unwrap(), toc);
    }

    #[test]
    fn delta_predecessor_must_appear_earlier_in_toc() {
        let mut toc = sample_toc();
        toc.vars[0].temporal = TemporalKind::Delta {
            prev: "missing".into(),
        };
        assert_eq!(
            Toc::decode(&toc.encode(), 800, VERSION_TEMPORAL),
            Err(ArchiveError::Corrupt(
                "delta predecessor not found earlier in TOC"
            ))
        );
    }

    #[test]
    fn delta_predecessor_shape_mismatch_rejected() {
        let mut toc = sample_toc();
        let mut delta = toc.vars[0].clone();
        delta.name = "d".into();
        // Same chunk grid (2x2x2 at side 8), different extent — the
        // temporal check must fire before chunk validation would pass.
        delta.shape = Shape::d3(10, 12, 13);
        delta.temporal = TemporalKind::Delta {
            prev: "temperature".into(),
        };
        toc.vars.push(delta);
        assert_eq!(
            Toc::decode(&toc.encode(), 1600, VERSION_TEMPORAL),
            Err(ArchiveError::Corrupt(
                "delta predecessor shape/type mismatch"
            ))
        );
    }

    #[test]
    fn unknown_temporal_kind_byte_rejected() {
        let mut toc = sample_toc();
        toc.vars[0].temporal = TemporalKind::Keyframe;
        let v2 = toc.encode();
        toc.vars[0].temporal = TemporalKind::Independent;
        let v1 = toc.encode();
        // The encodings first diverge exactly at the inserted kind byte.
        let idx = v1.iter().zip(&v2).position(|(a, b)| a != b).unwrap();
        let mut bytes = v2.clone();
        bytes[idx] = 9;
        assert_eq!(
            Toc::decode(&bytes, 800, VERSION_TEMPORAL),
            Err(ArchiveError::Corrupt("unknown temporal kind"))
        );
    }
}
