//! `field-dump`: the paper's dump-then-analyse use.
//!
//! Twelve fields, two of each `Dataset::ALL` application (the NYX and
//! Hurricane second fields as f64), in the seed's [`Variant`]. One
//! operation is one field's dump cycle: a fresh PSNR-tuned QoZ session
//! at `Rel(1e-3)` compresses the field, a fresh `Psnr(70)` session
//! compresses it to that target, and the bound stream is decoded four
//! times. Every compress tunes cold, so the tuner (`core`) and the
//! PSNR-target search show here far more than in `series-chain`.

use super::{
    check_bound, closed_loop, guarded, hash_bytes, hash_values, layer_metrics, repeat_setup,
    report_failure, timed, Config, OpRecord, Outcome, Rng, Variant,
};
use crate::layers;
use crate::trace;
use qoz_api::Session;
use qoz_codec::ErrorBound;
use qoz_datagen::{Dataset, SizeClass};
use qoz_metrics::QualityMetric;
use qoz_tensor::{NdArray, Scalar, Shape};
use std::collections::BTreeMap;

const NAME: &str = "field-dump";
const BOUND: ErrorBound = ErrorBound::Rel(1e-3);
const TARGET_DB: f64 = 70.0;
const DECODES: usize = 4;
const FIELDS: usize = 12;

/// One input field.
pub enum Field {
    /// Single precision.
    F32(NdArray<f32>),
    /// Double precision.
    F64(NdArray<f64>),
}

/// `(dataset, field index, as f64)` of the twelve inputs.
fn fields() -> impl Iterator<Item = (Dataset, u64, bool)> {
    (0..FIELDS as u64).map(|k| {
        let ds = Dataset::ALL[(k % 6) as usize];
        let second = k >= 6;
        (
            ds,
            2 + k / 6,
            second && matches!(ds, Dataset::Nyx | Dataset::Hurricane),
        )
    })
}

/// The seeded part of the inputs: each field's variant, and the order in
/// which the rounds visit the fields (every round holds each field once).
pub fn schedule(seed: u64) -> (Vec<Variant>, Vec<usize>) {
    let mut rng = Rng::new(seed, 0xF1E1D);
    let variants = (0..FIELDS).map(|_| Variant::draw(&mut rng)).collect();
    let kinds: Vec<usize> = (0..FIELDS).collect();
    (variants, rng.shuffled_blocks(&kinds, 500))
}

/// Field shapes: roughly `Small`'s aspect ratios, all at ~74 K points
/// (0.3 MB as f32), so that a cycle takes tens of milliseconds, a run
/// measures hundreds of them, and no field is slow merely for being
/// bigger (the median cycle then falls between fields of similar cost).
fn field_shape(ds: Dataset, quick: bool) -> Shape {
    if quick {
        return ds.shape(SizeClass::Tiny);
    }
    match ds {
        Dataset::CesmAtm => Shape::d2(192, 384),
        Dataset::Miranda => Shape::d3(32, 48, 48),
        Dataset::Rtm => Shape::d3(56, 56, 24),
        Dataset::Nyx => Shape::d3(42, 42, 42),
        Dataset::Hurricane => Shape::d3(18, 64, 64),
        Dataset::ScaleLetkf => Shape::d3(12, 78, 78),
    }
}

/// Field number `field` of `ds` at `shape`, seeded as
/// `Dataset::generate` seeds it.
fn generate(ds: Dataset, shape: Shape, field: u64) -> NdArray<f32> {
    use qoz_datagen::fields::*;
    let seed = 0x51C0_FFEE ^ field.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match ds {
        Dataset::CesmAtm => cesm_like(shape, seed),
        Dataset::Miranda => miranda_like(shape, seed),
        Dataset::Rtm => rtm_like(shape, seed),
        Dataset::Nyx => nyx_like(shape, seed),
        Dataset::Hurricane => hurricane_like(shape, seed),
        Dataset::ScaleLetkf => scale_letkf_like(shape, seed),
    }
}

fn setup(cfg: &Config, variants: &[Variant]) -> Vec<Field> {
    fields()
        .zip(variants)
        .map(|((ds, field, as_f64), v)| {
            let data = generate(ds, field_shape(ds, cfg.quick), field);
            if as_f64 {
                let wide = data.as_slice().iter().map(|&x| f64::from(x)).collect();
                Field::F64(v.apply(&NdArray::from_vec(data.shape(), wide)))
            } else {
                Field::F32(v.apply(&data))
            }
        })
        .collect()
}

fn session() -> Result<Session, String> {
    Session::builder()
        .bound(BOUND)
        .metric(QualityMetric::Psnr)
        .build()
        .map_err(|e| e.to_string())
}

fn target_session() -> Result<Session, String> {
    Session::builder()
        .psnr(TARGET_DB)
        .build()
        .map_err(|e| e.to_string())
}

/// What a cycle produces: the bound stream, its (last) decode and the
/// PSNR-target stream.
type CycleOut<T> = (Vec<u8>, NdArray<T>, Vec<u8>);

/// The facade cycle.
fn cycle<T: Scalar>(data: &NdArray<T>) -> Result<CycleOut<T>, String> {
    let e = |e: qoz_api::ApiError| e.to_string();
    let s = session()?;
    let blob = s.compress(data).map_err(e)?.blob;
    let target = target_session()?.compress(data).map_err(e)?.blob;
    let mut recon = s.decompress::<T>(&blob).map_err(e)?;
    for _ in 1..DECODES {
        recon = s.decompress::<T>(&blob).map_err(e)?;
    }
    Ok((blob, recon, target))
}

fn hashes<T: Scalar>((blob, recon, target): &CycleOut<T>) -> [u64; 3] {
    [hash_bytes(blob), hash_values(recon), hash_bytes(target)]
}

/// The first cycle of a field, fully checked: the bound holds and the
/// target stream decodes to at least the target PSNR. Returns the
/// hashes later cycles must reproduce, the bound stream's size and its
/// PSNR.
fn reference<T: Scalar>(data: &NdArray<T>) -> Result<([u64; 3], usize, f64), String> {
    let out = cycle(data)?;
    let (blob, recon, target) = &out;
    check_bound(data, recon, BOUND.absolute(data))?;
    let t_recon: NdArray<T> = target_session()?
        .decompress(target)
        .map_err(|e| e.to_string())?;
    let got = qoz_metrics::psnr(data, &t_recon);
    if got < TARGET_DB {
        return Err(format!("PSNR target {TARGET_DB} dB missed: {got:.3} dB"));
    }
    let psnr = qoz_metrics::psnr(data, recon);
    Ok((hashes(&out), blob.len(), psnr))
}

/// One measured cycle, compared with the field's reference off the
/// clock; returns the cycle's wall time.
fn measured<T: Scalar>(data: &NdArray<T>, reference: &[u64; 3]) -> Result<f64, String> {
    let (out, ms) = timed(|| cycle(data));
    if hashes(&out?) == *reference {
        Ok(ms)
    } else {
        Err("output differs from the checked reference".into())
    }
}

/// Facade and traced split path side by side on one field: the split
/// path must give the facade's bytes and values. Facade time per
/// direction is added to `facade_ms`; returns the facade cycle time.
fn traced_cycle<T: Scalar>(
    data: &NdArray<T>,
    split_first: bool,
    facade_ms: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let (s, t) = (session()?, target_session()?);
    let (qoz, t_qoz) = (s.registry().qoz(), t.registry().qoz());
    let facade = |ms: &mut BTreeMap<&'static str, f64>| -> Result<[u64; 3], String> {
        let e = |e: qoz_api::ApiError| e.to_string();
        let (blob, c) = timed(|| s.compress(data));
        let blob = blob.map_err(e)?.blob;
        let (target, tc) = timed(|| t.compress(data));
        let target = target.map_err(e)?.blob;
        let mut recon = 0;
        let mut d = 0.0;
        for _ in 0..DECODES {
            let (r, ms) = timed(|| s.decompress::<T>(&blob));
            recon = hash_values(&r.map_err(e)?);
            d += ms;
        }
        *ms.entry("compress").or_default() += c + tc;
        *ms.entry("decode").or_default() += d;
        Ok([hash_bytes(&blob), recon, hash_bytes(&target)])
    };
    let split = || -> Result<[u64; 3], String> {
        let c = |e: qoz_codec::CodecError| e.to_string();
        let blob = layers::compress(&qoz, data, BOUND);
        let target = layers::compress_to_psnr(&t_qoz, data, TARGET_DB).map_err(c)?;
        let mut recon = 0;
        for _ in 0..DECODES {
            recon = hash_values(&layers::decompress::<T>(&blob).map_err(c)?);
        }
        Ok([hash_bytes(&blob), recon, hash_bytes(&target)])
    };
    let before: f64 = facade_ms.values().sum();
    let (a, b) = if split_first {
        let b = split()?;
        (facade(facade_ms)?, b)
    } else {
        let a = facade(facade_ms)?;
        (a, split()?)
    };
    if a != b {
        return Err("traced split path differs from the facade".into());
    }
    Ok(facade_ms.values().sum::<f64>() - before)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (variants, order) = schedule(cfg.seed);
    let (fields, setup_s) = repeat_setup(cfg, || Ok(setup(cfg, &variants)))?;
    let raw = |f: &Field| match f {
        Field::F32(d) => d.len() * 4,
        Field::F64(d) => d.len() * 8,
    };

    // Warm-up and reference round: every field once, fully checked.
    let mut refs = Vec::with_capacity(fields.len());
    let (mut raw_total, mut stored, mut psnr_sum) = (0usize, 0usize, 0.0);
    for f in &fields {
        let (p, len, db) = match f {
            Field::F32(d) => guarded(|| reference(d)),
            Field::F64(d) => guarded(|| reference(d)),
        }?;
        refs.push(p);
        raw_total += raw(f);
        stored += len;
        psnr_sum += db;
    }

    let mut facade_ms = BTreeMap::new();
    if cfg.trace {
        trace::install();
    }
    let (ops, wall_s) = closed_loop(cfg.seconds, FIELDS, |i| {
        let k = order[i % order.len()];
        let f = &fields[k];
        let split_first = i % 2 == 1;
        let res = guarded(|| match (f, cfg.trace) {
            (Field::F32(d), false) => measured(d, &refs[k]),
            (Field::F64(d), false) => measured(d, &refs[k]),
            (Field::F32(d), true) => traced_cycle(d, split_first, &mut facade_ms),
            (Field::F64(d), true) => traced_cycle(d, split_first, &mut facade_ms),
        });
        if let Err(err) = &res {
            report_failure(NAME, i, &format!("field {k}: {err}"));
        }
        OpRecord {
            ms: *res.as_ref().unwrap_or(&0.0),
            raw_bytes: raw(f) as u64,
            ok: res.is_ok(),
            ..OpRecord::default()
        }
    });
    let mut out = Outcome {
        setup_s,
        ops,
        round: FIELDS,
        wall_s,
        compression_ratio: raw_total as f64 / stored as f64,
        psnr_db: psnr_sum / fields.len() as f64,
        quality_n: fields.len(),
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
    fn schedule_depends_only_on_the_seed() {
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(schedule(1), schedule(2));
        let (variants, order) = schedule(1);
        assert_eq!(variants.len(), FIELDS);
        for round in order.chunks(FIELDS) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(
                r,
                (0..FIELDS).collect::<Vec<_>>(),
                "each field once a round"
            );
        }
        assert_eq!(fields().filter(|f| f.2).count(), 2, "two f64 fields");
    }
}
