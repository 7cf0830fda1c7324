//! The facade calls the workloads make, rebuilt from the public calls
//! of the layers below them, each call wrapped in a [`trace::span`].
//!
//! Every function here mirrors one facade path call for call (same
//! calls, same order, same buffer reuse) so that its output bytes and
//! values equal the facade's; the traced runs check that for every
//! operation. Spans are named `<crate>.<call>`; the `api.*` span around
//! each facade replacement is the operation root whose self time is
//! the glue the layers do not cover.

use crate::trace::{count, span};
use qoz_api::BackendRegistry;
use qoz_archive::{fnv1a, ArchiveError, ArchiveReader, ByteSource, FileSource, TemporalKind, Toc};
use qoz_codec::huffman::{HuffmanDecoder, HuffmanEncoder};
use qoz_codec::lz::{lzss_compress_with, lzss_decompress_with};
use qoz_codec::simd::KernelPath;
use qoz_codec::stream::{self, CompressorId, ErrorBound, Header};
use qoz_codec::{ByteReader, ByteWriter, CodecError, Scratch};
use qoz_core::{PlanCache, Qoz, QozPlan};
use qoz_sz3::{engine, InterpSpec};
use qoz_temporal::{TemporalOutcome, TemporalSession};
use qoz_tensor::{sample_blocks, NdArray, Region, SamplePlan, Scalar};
use std::cell::RefCell;
use std::time::Instant;

/// Tag bytes of an entropy-coded bin section (`qoz_codec::backend`).
const TAG_EMPTY: u8 = 0;
const TAG_DATA: u8 = 1;

/// `Session::compress` for a QoZ bound target.
pub fn compress<T: Scalar>(qoz: &Qoz, data: &NdArray<T>, bound: ErrorBound) -> Vec<u8> {
    span("api.compress", || {
        let plan = span("core.tune", || qoz.plan(data, bound));
        compress_with_plan(qoz, data, &plan, &mut Scratch::new())
    })
}

/// `Session::compress` for a `Target::Psnr(db)` session, which runs
/// `Qoz::compress_to_quality`: a bisection on the relative bound
/// against a PSNR estimated on sampled blocks, then full passes (tune,
/// compress, decode, measure), halving the bound until the PSNR holds.
pub fn compress_to_psnr<T: Scalar>(
    qoz: &Qoz,
    data: &NdArray<T>,
    db: f64,
) -> qoz_codec::Result<Vec<u8>> {
    span("api.target_compress", || {
        count("core.target_compresses", 1.0);
        let range = data.value_range();
        let mut eps = span("core.target_estimate", || {
            let shape = data.shape();
            let cfg = &qoz.config;
            let plan = SamplePlan::from_rate(
                shape,
                cfg.effective_sample_block(shape),
                cfg.effective_sample_rate(shape),
            );
            let blocks = sample_blocks(data, &plan);
            let (mut lo, mut hi) = (1e-8f64, 1e-1f64);
            for _ in 0..14 {
                let mid = (lo * hi).sqrt();
                if sampled_psnr(&blocks, range, mid) >= db {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        });
        // Four verified attempts, then one at the tightest bound tried.
        for attempt in 0..5 {
            count("core.target_passes", 1.0);
            let plan = span("core.tune", || qoz.plan(data, ErrorBound::Rel(eps)));
            let blob = compress_with_plan(qoz, data, &plan, &mut Scratch::new());
            let recon = decompress_with::<T>(qoz, &blob, &mut Scratch::new())?;
            let achieved = span("core.target_verify", || qoz_metrics::psnr(data, &recon));
            if achieved >= db || eps <= 2e-8 || attempt == 4 {
                return Ok(blob);
            }
            eps /= 2.0;
        }
        unreachable!("the last attempt returns")
    })
}

/// PSNR of the sampled blocks compressed at relative bound `eps`, as
/// `compress_to_quality` estimates it.
fn sampled_psnr<T: Scalar>(blocks: &[NdArray<T>], range: f64, eps: f64) -> f64 {
    let spec = InterpSpec::anchored(16, eps * range, Default::default());
    let (mut se, mut n) = (0.0f64, 0usize);
    for b in blocks {
        let out = qoz_sz3::compress_with_spec(b, &spec);
        se += qoz_metrics::mse(b, &out.recon) * b.len() as f64;
        n += b.len();
    }
    let mse = se / n.max(1) as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (range / mse.sqrt()).log10()
    }
}

/// `Qoz::compress_with_plan_scratched`.
pub fn compress_with_plan<T: Scalar>(
    qoz: &Qoz,
    data: &NdArray<T>,
    plan: &QozPlan,
    scratch: &mut Scratch<T>,
) -> Vec<u8> {
    let path = qoz.config.kernels.resolve();
    span("sz3.predict_quantize", || {
        engine::compress_with_spec_path(data, &plan.spec, scratch, path)
    });
    count("sz3.points", scratch.bins.len() as f64);
    count(
        "sz3.unpred",
        scratch.bins.iter().filter(|&&b| b == 0).count() as f64,
    );
    let header = Header {
        compressor: CompressorId::Qoz,
        scalar_tag: T::TYPE_TAG,
        shape: data.shape(),
        abs_eb: plan.abs_eb,
        temporal: None,
    };
    span("sz3.write_stream", || {
        write_stream(&header, &plan.spec, scratch)
    })
}

/// `qoz_sz3::engine::write_stream` with `encode_bins_with` and
/// `lossless_compress_with` opened up into their Huffman and LZSS calls.
fn write_stream<T: Scalar>(header: &Header, spec: &InterpSpec, s: &mut Scratch<T>) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(s.bins.len() / 4 + 64);
    stream::write_header(&mut w, header);
    spec.write(&mut w);
    let mut sec = ByteWriter::from_vec(std::mem::take(&mut s.section));
    sec.reserve(s.bins.len() / 4 + 16);
    let enc = span("codec.huffman_encode", || {
        HuffmanEncoder::from_symbols_with(&s.bins, &mut s.entropy.huffman).map(|enc| {
            let mut huff = ByteWriter::from_vec(std::mem::take(&mut s.entropy.huff));
            enc.encode_with(&s.bins, &mut s.entropy.bits, &mut huff);
            enc.recycle(&mut s.entropy.huffman);
            s.entropy.huff = huff.into_vec();
        })
    });
    match enc {
        None => sec.put_u8(TAG_EMPTY),
        Some(()) => {
            sec.put_u8(TAG_DATA);
            let e = &mut s.entropy;
            span("codec.lzss_encode", || {
                lzss_compress_with(&e.huff, &mut e.lz, &mut e.packed)
            });
            count("codec.huffman_bytes", e.huff.len() as f64);
            count("codec.lzss_bytes", e.packed.len() as f64);
            sec.put_len_prefixed(&e.packed);
        }
    }
    s.section = sec.finish();
    w.put_len_prefixed(&s.section);
    for side in [&s.unpred, &s.anchors] {
        span("codec.lzss_encode", || {
            lzss_compress_with(side, &mut s.entropy.lz, &mut s.section)
        });
        w.put_len_prefixed(&s.section);
    }
    w.finish()
}

/// `Session::decompress` of a plain QoZ stream (fresh arena per call,
/// as the facade does).
pub fn decompress<T: Scalar>(blob: &[u8]) -> qoz_codec::Result<NdArray<T>> {
    span("api.decompress", || {
        decompress_with(&Qoz::default(), standalone(blob)?, &mut Scratch::new())
    })
}

/// `Qoz::decompress_typed_scratched`.
pub fn decompress_with<T: Scalar>(
    qoz: &Qoz,
    blob: &[u8],
    scratch: &mut Scratch<T>,
) -> qoz_codec::Result<NdArray<T>> {
    let mut r = ByteReader::new(blob);
    let header = engine::check_stream_header::<T>(&mut r, CompressorId::Qoz, "not a QoZ stream")?;
    let mut out = NdArray::<T>::zeros(header.shape);
    let path = qoz.config.kernels.resolve();
    span("sz3.read_stream", || {
        read_stream(&mut r, &header, scratch, &mut out, path)
    })?;
    Ok(out)
}

/// `qoz_sz3::engine::read_stream_into_path` with `decode_bins_with` and
/// `lossless_decompress_with` opened up into their LZSS and Huffman calls.
fn read_stream<T: Scalar>(
    r: &mut ByteReader,
    header: &Header,
    s: &mut Scratch<T>,
    out: &mut NdArray<T>,
    path: KernelPath,
) -> qoz_codec::Result<()> {
    let spec = InterpSpec::read(r, header.shape)?;
    let mut bins = ByteReader::new(r.get_len_prefixed()?);
    match bins.get_u8()? {
        TAG_EMPTY => s.bins.clear(),
        TAG_DATA => {
            let packed = bins.get_len_prefixed()?;
            let mut huff = std::mem::take(&mut s.entropy.huff);
            let e = &mut s.entropy;
            let res = span("codec.lzss_decode", || {
                lzss_decompress_with(packed, &mut e.lz, &mut huff)
            })
            .and_then(|()| {
                span("codec.huffman_decode", || {
                    HuffmanDecoder::decode_with(
                        &mut ByteReader::new(&huff),
                        &mut e.huffman,
                        &mut s.bins,
                    )
                })
            });
            s.entropy.huff = huff;
            res?;
        }
        _ => return Err(CodecError::Corrupt("unknown bin stream tag")),
    }
    for side in [&mut s.unpred, &mut s.anchors] {
        let packed = r.get_len_prefixed()?;
        span("codec.lzss_decode", || {
            lzss_decompress_with(packed, &mut s.entropy.lz, side)
        })?;
    }
    let grew = span("sz3.reconstruct", || {
        engine::decompress_with_spec_path(
            header.shape,
            &spec,
            &s.bins,
            &s.unpred,
            &s.anchors,
            out,
            path,
        )
    })?;
    if grew {
        s.grows.bump();
    }
    Ok(())
}

/// `qoz_api::Pipeline` for a QoZ bound target, rebuilt from its parts:
/// plan cache, scratch arena and temporal session.
pub struct ChainCoder<T: Scalar> {
    qoz: Qoz,
    cache: PlanCache,
    scratch: Scratch<T>,
    temporal: TemporalSession<T>,
}

impl<T: Scalar> ChainCoder<T> {
    /// Same configuration as `session.pipeline()`.
    pub fn new(session: &qoz_api::Session) -> Self {
        ChainCoder {
            qoz: session.registry().qoz(),
            cache: PlanCache::new(session.drift_tolerance()),
            scratch: Scratch::new(),
            temporal: TemporalSession::new(),
        }
    }

    /// `Pipeline::compress_next`.
    pub fn compress_next(
        &mut self,
        data: &NdArray<T>,
        bound: ErrorBound,
    ) -> qoz_codec::Result<(TemporalOutcome, Vec<u8>)> {
        let ChainCoder {
            qoz,
            cache,
            scratch,
            temporal,
        } = self;
        span("api.compress_next", || {
            let res = span("temporal.compress_next", || {
                temporal.compress_next(
                    data,
                    bound,
                    |field, field_bound| {
                        let (plan, outcome) =
                            span("core.tune", || qoz.plan_cached(field, field_bound, cache));
                        count("core.plans", 1.0);
                        if outcome.is_warm() {
                            count("core.warm_plans", 1.0);
                        }
                        compress_with_plan(qoz, field, &plan, scratch)
                    },
                    |inner| span("temporal.redecode", || decompress::<T>(inner)),
                )
            });
            if let Ok((outcome, _)) = &res {
                count("temporal.snapshots", 1.0);
                if *outcome == TemporalOutcome::Delta {
                    count("temporal.deltas", 1.0);
                }
            }
            res
        })
    }

    /// `Pipeline::decompress_next`.
    pub fn decompress_next(&mut self, blob: &[u8]) -> qoz_codec::Result<&NdArray<T>> {
        let ChainCoder {
            qoz,
            scratch,
            temporal,
            ..
        } = self;
        span("api.decompress_next", || {
            span("temporal.decompress_next", || {
                temporal.decompress_next(blob, |inner| {
                    decompress_with(qoz, standalone(inner)?, scratch)
                })
            })
        })
    }
}

/// The plain stream inside a keyframe (what the registry decodes).
fn standalone(blob: &[u8]) -> qoz_codec::Result<&[u8]> {
    match qoz_api::peek_header(blob)?.temporal {
        None => Ok(blob),
        Some(stream::TemporalMode::Keyframe) => Ok(stream::unwrap_temporal(blob)?.1),
        Some(stream::TemporalMode::Delta) => Err(CodecError::Corrupt(
            "delta chain member requires chain decode",
        )),
    }
}

/// `ArchiveReader::read_region` rebuilt from the archive's public
/// pieces: its TOC, positioned reads through a [`FileSource`] of its
/// own, `fnv1a` checks, `qoz_pario::decompress_chunks` and the stitch.
pub struct RegionReader {
    src: FileSource,
    toc: Toc,
    payload_start: u64,
    threads: usize,
    /// Chunk blobs of the last read, kept for [`RegionReader::serial_decode_ns`].
    last_blobs: RefCell<Vec<Vec<u8>>>,
}

impl RegionReader {
    /// Open `path` next to an already opened facade reader of it.
    pub fn open<S: ByteSource>(
        path: &str,
        facade: &ArchiveReader<S>,
    ) -> Result<Self, ArchiveError> {
        Ok(RegionReader {
            src: FileSource::open(path)?,
            toc: facade.toc().clone(),
            payload_start: facade.archive_len() - facade.payload_len(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            last_blobs: RefCell::new(Vec::new()),
        })
    }

    /// `ArchiveReader::read_region`.
    pub fn read_region<T: Scalar>(
        &self,
        name: &str,
        region: &Region,
    ) -> Result<NdArray<T>, ArchiveError> {
        span("api.read_region", || {
            self.last_blobs.borrow_mut().clear();
            let chain = self.chain(name)?;
            let mut acc = self.member::<T>(chain[0], region)?;
            for &idx in &chain[1..] {
                let residual = self.member::<T>(idx, region)?;
                span("temporal.accumulate", || {
                    qoz_temporal::accumulate_residual(&mut acc, &residual)
                })?;
            }
            count("archive.reads", 1.0);
            count("archive.bytes_served", (acc.len() * T::BYTES) as f64);
            Ok(acc)
        })
    }

    /// Variable indices from the chain's base to `name`.
    fn chain(&self, name: &str) -> Result<Vec<usize>, ArchiveError> {
        let index = |n: &str| {
            self.toc
                .vars
                .iter()
                .position(|v| v.name == n)
                .ok_or_else(|| ArchiveError::UnknownVariable(n.to_string()))
        };
        let mut chain = vec![index(name)?];
        while let TemporalKind::Delta { prev } =
            &self.toc.vars[*chain.last().expect("non-empty")].temporal
        {
            if chain.len() > self.toc.vars.len() {
                return Err(ArchiveError::Corrupt("temporal chain cycle"));
            }
            chain.push(index(prev)?);
        }
        chain.reverse();
        Ok(chain)
    }

    /// One chain member's slab: fetch, parallel decode, stitch.
    fn member<T: Scalar>(&self, var: usize, region: &Region) -> Result<NdArray<T>, ArchiveError> {
        let meta = &self.toc.vars[var];
        if meta.scalar_tag != T::TYPE_TAG {
            return Err(ArchiveError::TypeMismatch {
                stored: meta.scalar_tag,
                requested: T::TYPE_TAG,
            });
        }
        let grid = meta.chunk_regions();
        let hits: Vec<(usize, Region)> = grid
            .iter()
            .enumerate()
            .filter_map(|(k, cr)| cr.intersect(region).map(|o| (k, o)))
            .collect();
        let blobs = span("archive.fetch", || {
            hits.iter()
                .map(|&(k, _)| {
                    let e = meta.chunks[k];
                    let blob = self
                        .src
                        .read_at(self.payload_start + e.offset, e.len as usize)?;
                    if fnv1a(&blob) != e.checksum {
                        return Err(ArchiveError::ChecksumMismatch {
                            var: meta.name.clone(),
                            chunk: k,
                        });
                    }
                    Ok(blob)
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        count("archive.chunks", blobs.len() as f64);
        count(
            "archive.bytes_fetched",
            blobs.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let codec = BackendRegistry::new().codec::<T>(meta.compressor);
        let t = Instant::now();
        let chunks = span("pario.decompress_chunks", || {
            qoz_pario::decompress_chunks(&*codec, &blobs, self.threads)
        })?;
        let used = self.threads.min(blobs.len()).max(1);
        count(
            "pario.capacity_ns",
            (used as u128 * t.elapsed().as_nanos()) as f64,
        );
        self.last_blobs.borrow_mut().extend(blobs);
        span("archive.stitch", || stitch(region, &grid, &hits, &chunks))
    }

    /// Decode the last read's chunk blobs one after another on this
    /// thread (untraced) and return the time it took: the serial work
    /// `qoz_pario` spread over its threads.
    pub fn serial_decode_ns<T: Scalar>(&self) -> Result<u64, ArchiveError> {
        let t = Instant::now();
        for blob in self.last_blobs.borrow().iter() {
            let header = qoz_api::peek_header(blob)?;
            BackendRegistry::new()
                .codec::<T>(header.compressor)
                .decompress(blob)?;
        }
        Ok(t.elapsed().as_nanos() as u64)
    }
}

/// The archive reader's stitch: copy each decoded chunk's overlap with
/// `region` into a dense slab of the region's size.
fn stitch<T: Scalar>(
    region: &Region,
    grid: &[Region],
    hits: &[(usize, Region)],
    chunks: &[NdArray<T>],
) -> Result<NdArray<T>, ArchiveError> {
    let nd = region.ndim();
    let mut out = NdArray::<T>::zeros(qoz_tensor::Shape::new(region.size()));
    for (&(k, ref overlap), chunk) in hits.iter().zip(chunks) {
        let chunk_region = &grid[k];
        if chunk.shape().dims() != chunk_region.size() {
            return Err(ArchiveError::Corrupt("chunk stream disagrees with index"));
        }
        let mut local_o = [0usize; qoz_tensor::MAX_NDIM];
        let mut dest_o = [0usize; qoz_tensor::MAX_NDIM];
        for d in 0..nd {
            local_o[d] = overlap.origin()[d] - chunk_region.origin()[d];
            dest_o[d] = overlap.origin()[d] - region.origin()[d];
        }
        let dest = Region::new(&dest_o[..nd], overlap.size());
        if overlap.size() == chunk_region.size() {
            out.insert_region(&dest, chunk);
        } else {
            let piece = chunk.extract_region(&Region::new(&local_o[..nd], overlap.size()));
            out.insert_region(&dest, &piece);
        }
    }
    Ok(out)
}
