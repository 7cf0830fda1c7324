//! `series-chain`: checkpoints of a running simulation.
//!
//! Two 12-snapshot chains, one decaying checkpoint series
//! (`time_series_like`) and one advecting series (`time_series_advect`),
//! each in the seed's [`Variant`]. At this size both code every
//! snapshot after the first as a delta. Each pass over a chain
//! uses a fresh encoding and a fresh decoding `Pipeline`; one operation
//! is one snapshot written with `compress_next` and read back with
//! `decompress_next`. This is the only workload on the temporal
//! residual and re-decode path, and the one where the pipelines' plan
//! cache should save the tuner's work after a pass's first snapshot.

use super::{
    check_chain_bound, closed_loop, guarded, hash_bytes, hash_values, layer_metrics, repeat_setup,
    report_failure, timed, Config, OpRecord, Outcome, Rng, Variant,
};
use crate::layers::ChainCoder;
use crate::trace;
use qoz_api::{Pipeline, Session};
use qoz_codec::ErrorBound;
use qoz_tensor::{NdArray, Region, Shape};
use std::collections::BTreeMap;
use std::time::Instant;

const NAME: &str = "series-chain";
const BOUND: ErrorBound = ErrorBound::Rel(1e-3);

/// Snapshots per chain and snapshot shape.
fn dims(quick: bool) -> (usize, [usize; 3]) {
    if quick {
        (4, [16, 24, 24])
    } else {
        (12, [24, 48, 48])
    }
}

/// Generator seeds of the two (fixed) chains.
const CHAIN_SEEDS: [u64; 2] = [0x5E41_E5C4, 0xAD7E_C7ED];

/// The seeded part of the inputs: each chain's variant.
pub fn schedule(seed: u64) -> [Variant; 2] {
    let mut rng = Rng::new(seed, 0x5E41E5);
    [Variant::draw(&mut rng), Variant::draw(&mut rng)]
}

fn setup(cfg: &Config) -> Vec<Vec<NdArray<f32>>> {
    let (steps, [x, y, z]) = dims(cfg.quick);
    let shape = Shape::new(&[steps, x, y, z]);
    let [a, b] = CHAIN_SEEDS;
    let [va, vb] = schedule(cfg.seed);
    [
        va.apply(&qoz_datagen::time_series_like(shape, a)),
        vb.apply(&qoz_datagen::time_series_advect(shape, b)),
    ]
    .iter()
    .map(|series| {
        (0..steps)
            .map(|t| {
                let snap = series.extract_region(&Region::new(&[t, 0, 0, 0], &[1, x, y, z]));
                NdArray::from_vec(Shape::d3(x, y, z), snap.into_vec())
            })
            .collect()
    })
    .collect()
}

fn session() -> Result<Session, String> {
    Session::builder()
        .bound(BOUND)
        .build()
        .map_err(|e| e.to_string())
}

/// Encoder and decoder state of one pass over one chain.
struct Pass {
    enc: Pipeline<f32>,
    dec: Pipeline<f32>,
    split: Option<(ChainCoder<f32>, ChainCoder<f32>)>,
    seen_grows: u64,
}

impl Pass {
    fn new(s: &Session, traced: bool) -> Pass {
        Pass {
            enc: s.pipeline(),
            dec: s.pipeline(),
            split: traced.then(|| (ChainCoder::new(s), ChainCoder::new(s))),
            seen_grows: 0,
        }
    }

    /// Facade round trip of one snapshot: frame and reconstruction.
    fn roundtrip(&mut self, snap: &NdArray<f32>) -> Result<(Vec<u8>, &NdArray<f32>), String> {
        let frame = self
            .enc
            .compress_next(snap)
            .map_err(|e| e.to_string())?
            .1
            .blob;
        let recon = self
            .dec
            .decompress_next(&frame)
            .map_err(|e| e.to_string())?;
        Ok((frame, recon))
    }

    fn grow_events(&self) -> u64 {
        let (e, d) = (self.enc.stats(), self.dec.stats());
        e.compress_grow_events
            + e.decode_grow_events
            + d.compress_grow_events
            + d.decode_grow_events
    }
}

/// Facade and traced split path side by side on one snapshot; returns
/// the facade's frame hash, reconstruction hash and wall time.
fn traced_roundtrip(
    pass: &mut Pass,
    snap: &NdArray<f32>,
    split_first: bool,
    facade_ms: &mut BTreeMap<&'static str, f64>,
) -> Result<([u64; 2], f64), String> {
    let e = |e: qoz_api::ApiError| e.to_string();
    let c = |e: qoz_codec::CodecError| e.to_string();
    let Pass {
        enc, dec, split, ..
    } = pass;
    let (s_enc, s_dec) = split.as_mut().expect("traced pass");
    let mut facade_enc = || timed(|| enc.compress_next(snap));
    let mut split_enc = || s_enc.compress_next(snap, BOUND);
    let ((f, cms), s) = if split_first {
        let s = split_enc();
        (facade_enc(), s)
    } else {
        let f = facade_enc();
        (f, split_enc())
    };
    let frame = f.map_err(e)?.1.blob;
    if s.map_err(c)?.1 != frame {
        return Err("traced split path wrote a different frame".into());
    }
    let mut split_dec = || s_dec.decompress_next(&frame).map(hash_values).map_err(c);
    let split_recon = if split_first {
        Some(split_dec()?)
    } else {
        None
    };
    let (recon, dms) = timed(|| dec.decompress_next(&frame));
    let recon = hash_values(recon.map_err(e)?);
    let split_recon = match split_recon {
        Some(h) => h,
        None => split_dec()?,
    };
    if recon != split_recon {
        return Err("traced split path decoded different values".into());
    }
    *facade_ms.entry("compress").or_default() += cms;
    *facade_ms.entry("decode").or_default() += dms;
    Ok(([hash_bytes(&frame), recon], cms + dms))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (chains, setup_s) = repeat_setup(cfg, || Ok(setup(cfg)))?;
    let s = session()?;
    let steps = chains[0].len();
    let snap_bytes = chains[0][0].len() * 4;

    // Warm-up and reference round: both chains once, every snapshot's
    // reconstruction checked against its bound.
    let mut refs = vec![Vec::with_capacity(steps); chains.len()];
    let (mut stored, mut psnr_sum) = (0usize, 0.0);
    for (c, chain) in chains.iter().enumerate() {
        let mut pass = Pass::new(&s, false);
        for snap in chain {
            let (frame, recon) = guarded(|| pass.roundtrip(snap))?;
            check_chain_bound(snap, recon, BOUND.absolute(snap))?;
            psnr_sum += qoz_metrics::psnr(snap, recon);
            stored += frame.len();
            refs[c].push([hash_bytes(&frame), hash_values(recon)]);
        }
    }
    let total = chains.len() * steps;

    let mut facade_ms = BTreeMap::new();
    if cfg.trace {
        trace::install();
    }
    let mut pass: Option<Pass> = None;
    let (ops, wall_s) = closed_loop(cfg.seconds, total, |i| {
        let (c, t) = ((i / steps) % chains.len(), i % steps);
        if t == 0 {
            pass = Some(Pass::new(&s, cfg.trace));
        }
        let p = pass.as_mut().expect("a pass starts at t = 0");
        let snap = &chains[c][t];
        let res = guarded(|| {
            let (got, ms) = if cfg.trace {
                traced_roundtrip(p, snap, i % 2 == 1, &mut facade_ms)?
            } else {
                let t0 = Instant::now();
                let (frame, recon) = p.roundtrip(snap)?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                ([hash_bytes(&frame), hash_values(recon)], ms)
            };
            if got != refs[c][t] {
                return Err("output differs from the checked reference".into());
            }
            Ok(ms)
        });
        if cfg.trace {
            // Arena growth after the first snapshot of a pass means the
            // warm path still allocates.
            let grown = p.grow_events();
            if t > 0 {
                trace::count("api.grow_events", (grown - p.seen_grows) as f64);
                trace::count("api.warm_calls", 1.0);
            }
            p.seen_grows = grown;
        }
        if let Err(err) = &res {
            report_failure(NAME, i, &format!("chain {c} snapshot {t}: {err}"));
        }
        OpRecord {
            ms: *res.as_ref().unwrap_or(&0.0),
            raw_bytes: snap_bytes as u64,
            ok: res.is_ok(),
            ..OpRecord::default()
        }
    });
    let mut out = Outcome {
        setup_s,
        ops,
        round: total,
        wall_s,
        compression_ratio: (total * snap_bytes) as f64 / stored as f64,
        psnr_db: psnr_sum / total as f64,
        quality_n: total,
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
    fn variants_depend_only_on_the_seed() {
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(schedule(1), schedule(2));
    }
}
