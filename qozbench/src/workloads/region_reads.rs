//! `region-reads`: the analysis read path, with no compression work.
//!
//! A QZAR archive holds `v`, a Miranda field stored as 32-sided QoZ
//! chunks at `Rel(1e-3)`, and `ts@t0..t3`, a chained `time_series_advect`
//! series, both in the seed's [`Variant`]. It is opened once with
//! `ArchiveReader::open` (positioned reads) and one thread issues a
//! seeded mix of `read_region::<f32>` calls: cubes, ~1% boxes and thin
//! full slabs of `v`, and ~1% boxes of the chain member `ts@t3`. Only
//! the archive, pario, entropy-decode and reconstruct layers can move
//! it.

use super::{
    closed_loop, guarded, layer_metrics, repeat_setup, report_failure, timed, Config, OpRecord,
    Outcome, Rng, Variant, WorkDir,
};
use crate::layers::RegionReader;
use crate::trace;
use qoz_api::Session;
use qoz_archive::{ArchiveAppender, ArchiveReader, ArchiveWriter, FileSource};
use qoz_codec::ErrorBound;
use qoz_datagen::fields::miranda_like;
use qoz_tensor::{NdArray, Region, Shape};
use std::collections::BTreeMap;

const NAME: &str = "region-reads";
const BOUND: ErrorBound = ErrorBound::Rel(1e-3);
/// Reads in one pass of the schedule (the loop wraps around).
const READS: usize = 4000;

/// Shapes of `v` and of one `ts` snapshot, and the chunk side.
fn dims(quick: bool) -> ([usize; 3], [usize; 3], usize) {
    if quick {
        ([32, 32, 32], [16, 24, 24], 16)
    } else {
        ([64, 96, 96], [32, 48, 48], 32)
    }
}

/// Number of `ts` snapshots; the last is a four-member chain.
const TS_STEPS: usize = 4;

/// A written archive, the data that went in, and the full decodes the
/// region reads are checked against.
pub struct Archive {
    /// Keeps the archive file alive.
    pub dir: WorkDir,
    /// Path of the archive file.
    pub path: String,
    /// `(name, original, full decode)` of every variable.
    pub vars: Vec<(String, NdArray<f32>, NdArray<f32>)>,
    /// Raw bytes of all variables over the archive's size.
    pub compression_ratio: f64,
    /// Mean PSNR of the full decodes.
    pub psnr_db: f64,
}

impl Archive {
    /// The full decode of `name`.
    pub fn full(&self, name: &str) -> &NdArray<f32> {
        &self
            .vars
            .iter()
            .find(|v| v.0 == name)
            .expect("known variable")
            .2
    }
}

/// Generator seeds of `v` and of the `ts` series (the fields are fixed;
/// the seed picks their [`Variant`]).
const DATA_SEEDS: [u64; 2] = [0xA2C1_0F1E, 0xA2C1_75E5];

/// Write `v` (shape `v_dims`), and when `ts_dims` is given the chained
/// `ts@t0..t3` series, in the seed's variants, into a QoZ archive under
/// a fresh work directory.
pub fn write_archive(
    workload: &str,
    seed: u64,
    v_dims: [usize; 3],
    ts_dims: Option<[usize; 3]>,
    chunk_side: usize,
) -> Result<Archive, String> {
    let err = |e: qoz_archive::ArchiveError| e.to_string();
    let dir = WorkDir::new(workload)?;
    let path = dir.file("data.qza");
    let mut rng = Rng::new(seed, 0xA2C1);
    let codec = Session::builder()
        .bound(BOUND)
        .build()
        .map_err(|e| e.to_string())?
        .codec::<f32>();
    let [a, b, c] = v_dims;
    let v = Variant::draw(&mut rng).apply(&miranda_like(Shape::d3(a, b, c), DATA_SEEDS[0]));
    let mut w = ArchiveWriter::new().with_chunk_side(chunk_side);
    w.add_variable("v", &v, &*codec, BOUND).map_err(err)?;
    w.write_to(&path).map_err(err)?;
    let mut originals = vec![("v".to_string(), v)];
    if let Some([x, y, z]) = ts_dims {
        let series = Variant::draw(&mut rng).apply(&qoz_datagen::time_series_advect(
            Shape::new(&[TS_STEPS, x, y, z]),
            DATA_SEEDS[1],
        ));
        let mut app = ArchiveAppender::open(&path)
            .map_err(err)?
            .with_chunk_side(chunk_side);
        for t in 0..TS_STEPS {
            let snap = series.extract_region(&Region::new(&[t, 0, 0, 0], &[1, x, y, z]));
            let snap = NdArray::from_vec(Shape::d3(x, y, z), snap.into_vec());
            app.add_snapshot_chained("ts", t as u64, &snap, &*codec, BOUND)
                .map_err(err)?;
            originals.push((qoz_archive::snapshot_name("ts", t as u64), snap));
        }
        app.write_to(&path).map_err(err)?;
    }
    let reader = ArchiveReader::open(&path).map_err(err)?;
    let mut vars = Vec::new();
    let (mut raw, mut psnr_sum) = (0usize, 0.0);
    for (name, orig) in originals {
        let full: NdArray<f32> = reader.read_full(&name).map_err(err)?;
        super::check_chain_bound(&orig, &full, BOUND.absolute(&orig))?;
        raw += orig.len() * 4;
        psnr_sum += qoz_metrics::psnr(&orig, &full);
        vars.push((name, orig, full));
    }
    Ok(Archive {
        compression_ratio: raw as f64 / reader.archive_len() as f64,
        psnr_db: psnr_sum / vars.len() as f64,
        vars,
        path,
        dir,
    })
}

/// One read of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Variable name.
    pub var: &'static str,
    /// Region origin.
    pub origin: [usize; 3],
    /// Region size.
    pub size: [usize; 3],
}

/// A box of `size` at a random origin inside `shape`.
fn random_box(rng: &mut Rng, shape: [usize; 3], size: [usize; 3]) -> [usize; 3] {
    std::array::from_fn(|d| rng.below(shape[d] - size[d] + 1))
}

/// Side lengths of a box holding ~1% of `shape`.
fn one_percent(shape: [usize; 3]) -> [usize; 3] {
    shape.map(|n| ((n as f64 * 0.01f64.cbrt()).round() as usize).max(1))
}

/// One block of read kinds: 45% 32³ cubes, 30% ~1% boxes and 15%
/// 4-thick full slabs of `v`, 10% ~1% boxes of `ts@t3`.
const MIX: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3];

/// The seeded reads at random positions, each block of [`MIX`] in a
/// fresh random order.
pub fn schedule(seed: u64, quick: bool) -> Vec<Read> {
    let (v, ts, _) = dims(quick);
    let cube = [32.min(v[0]), 32.min(v[1]), 32.min(v[2])];
    let mut rng = Rng::new(seed, 0x4EAD);
    rng.shuffled_blocks(&MIX, READS / MIX.len())
        .into_iter()
        .map(|kind| {
            let (var, shape, size) = match kind {
                0 => ("v", v, cube),
                1 => ("v", v, one_percent(v)),
                2 => ("v", v, [4, v[1], v[2]]),
                _ => ("ts@t3", ts, one_percent(ts)),
            };
            Read {
                var,
                origin: random_box(&mut rng, shape, size),
                size,
            }
        })
        .collect()
}

fn setup(cfg: &Config) -> Result<(Archive, ArchiveReader<FileSource>), String> {
    let (v, ts, side) = dims(cfg.quick);
    let archive = write_archive(NAME, cfg.seed, v, Some(ts), side)?;
    let reader = ArchiveReader::open(&archive.path).map_err(|e| e.to_string())?;
    Ok((archive, reader))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let ((archive, reader), setup_s) = repeat_setup(cfg, || setup(cfg))?;
    let reads = schedule(cfg.seed, cfg.quick);
    let split = if cfg.trace {
        Some(RegionReader::open(&archive.path, &reader).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut facade_ms = BTreeMap::new();
    if cfg.trace {
        trace::install();
    }
    let (ops, wall_s) = closed_loop(cfg.seconds, MIX.len(), |i| {
        let r = &reads[i % reads.len()];
        let region = Region::new(&r.origin, &r.size);
        let res = guarded(|| {
            let e = |e: qoz_archive::ArchiveError| e.to_string();
            let split_slab = match &split {
                Some(s) if i % 2 == 1 => Some(s.read_region::<f32>(r.var, &region).map_err(e)?),
                _ => None,
            };
            let (slab, ms) = timed(|| reader.read_region::<f32>(r.var, &region));
            let slab = slab.map_err(e)?;
            if slab.as_slice() != archive.full(r.var).extract_region(&region).as_slice() {
                return Err("slab differs from the same region of the full decode".into());
            }
            if let Some(s) = &split {
                let split_slab = match split_slab {
                    Some(x) => x,
                    None => s.read_region::<f32>(r.var, &region).map_err(e)?,
                };
                if split_slab.as_slice() != slab.as_slice() {
                    return Err("traced split path read a different slab".into());
                }
                trace::count(
                    "pario.serial_decode_ns",
                    s.serial_decode_ns::<f32>().map_err(e)? as f64,
                );
                *facade_ms.entry("decode").or_default() += ms;
            }
            Ok((ms, slab.len() * 4))
        });
        if let Err(err) = &res {
            report_failure(NAME, i, &format!("{r:?}: {err}"));
        }
        let (ms, bytes) = res.as_ref().map_or((0.0, 0), |&x| x);
        OpRecord {
            ms,
            raw_bytes: bytes as u64,
            ok: res.is_ok(),
            ..OpRecord::default()
        }
    });
    let mut out = Outcome {
        setup_s,
        ops,
        round: MIX.len(),
        wall_s,
        compression_ratio: archive.compression_ratio,
        psnr_db: archive.psnr_db,
        quality_n: archive.vars.len(),
        ..Outcome::default()
    };
    if cfg.trace {
        let t = trace::take();
        out.layers = layer_metrics(&t, &facade_ms);
        out.trace = Some(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_in_bounds() {
        assert_eq!(schedule(1, false), schedule(1, false));
        assert_ne!(schedule(1, false), schedule(2, false));
        let (v, ts, _) = dims(false);
        for r in schedule(1, false) {
            let shape = if r.var == "v" { v } else { ts };
            let ends = r.origin.iter().zip(r.size).map(|(o, s)| o + s);
            assert!(ends.zip(shape).all(|(end, n)| end <= n), "{r:?}");
        }
    }
}
