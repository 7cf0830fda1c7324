//! Kernel probe: the per-point and per-byte cost of the encode kernels
//! that every tuner trial and every SZ-family compress runs, and of the
//! two decode kernels every SZ-family decompress runs.
//!
//! ```text
//! cargo run --release --example kernel_probe [-- REPS]
//! ```
//!
//! Inputs are the twelve fields of qozbench's `field-dump` workload
//! (same generators, shapes and field seeds; every field as f32 and
//! without the seeded variant). For each field the probe tunes a
//! PSNR-oriented QoZ plan at `Rel(1e-3)`, samples the blocks the tuner
//! samples, and stages one tuner trial at the chosen `(alpha, beta)`:
//! the engine over every sampled block, the concatenated bins, their
//! Huffman serialization and its LZSS pass. Each kernel is then timed
//! over all twelve inputs, best of `REPS` (default 15) rounds, and
//! reported per point, per bin or per input byte:
//!
//! - `engine, trial blocks` / `engine, full field`: predict + quantize
//!   (`compress_with_spec_into`), ns per point;
//! - `huffman build`: `HuffmanEncoder::from_symbols_with`, ns per bin;
//! - `huffman encode`: `HuffmanEncoder::encode_with`, ns per bin;
//! - `lzss`: `lzss_compress_with` over the Huffman bytes, ns per byte;
//! - `encode_bins_with`: the whole bin section, ns per bin;
//! - `plan`: the whole cold tune, `Qoz::plan`, ms per plan. Its trials
//!   run on as many cores as `available_parallelism()` reports, so
//!   `taskset -c 0` gives the one-worker time.
//!
//! The decode rows run over two sets of bound streams: the twelve
//! fields compressed with their plans (`field-dump`'s bound streams),
//! and the eighteen 32^3 chunks of a 64x96x96 `miranda_like` field at
//! `Rel(1e-3)` of the whole field, each with its own compression-ratio
//! plan, as `region-reads` stores them. The probe prints each set's
//! Huffman payload bits per bin, then:
//!
//! - `huffman decode`: `HuffmanDecoder::decode_with` over the stream's
//!   Huffman serialization, ns per bin;
//! - `reconstruct`: `decompress_with_spec_into` from the decoded
//!   sections, ns per point.
//!
//! The probe calls only public items that predate it, so the same file
//! runs against older checkouts for a before/after comparison.

use qoz_suite::codec::huffman::{HuffmanDecoder, HuffmanEncoder, HuffmanScratch};
use qoz_suite::codec::lz::{lzss_compress_with, LzScratch};
use qoz_suite::codec::{
    ByteReader, ByteWriter, EntropyScratch, ErrorBound, LinearQuantizer, Scratch,
};
use qoz_suite::datagen::fields::*;
use qoz_suite::datagen::Dataset;
use qoz_suite::metrics::QualityMetric;
use qoz_suite::qoz::{level_error_bounds, Qoz};
use qoz_suite::sz3::{compress_with_spec_into, decompress_with_spec_into, InterpSpec};
use qoz_suite::tensor::{sample_blocks, NdArray, Region, SamplePlan, Shape};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of each kernel over all inputs; the fastest round is reported.
const DEFAULT_REPS: usize = 15;
/// Passes over all inputs inside one timed round, so a round lasts long
/// enough for the clock.
const PASSES: usize = 4;

/// `field-dump`'s shapes: ~74 K points each.
fn field_shape(ds: Dataset) -> Shape {
    match ds {
        Dataset::CesmAtm => Shape::d2(192, 384),
        Dataset::Miranda => Shape::d3(32, 48, 48),
        Dataset::Rtm => Shape::d3(56, 56, 24),
        Dataset::Nyx => Shape::d3(42, 42, 42),
        Dataset::Hurricane => Shape::d3(18, 64, 64),
        Dataset::ScaleLetkf => Shape::d3(12, 78, 78),
    }
}

/// Field number `field` of `ds`, seeded as `field-dump` seeds it.
fn generate(ds: Dataset, field: u64) -> NdArray<f32> {
    let shape = field_shape(ds);
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

/// A bound stream's sections, as its decoder stages them.
struct Stream {
    shape: Shape,
    spec: InterpSpec,
    bins: Vec<u32>,
    unpred: Vec<u8>,
    anchors: Vec<u8>,
    /// The bins' Huffman serialization.
    huff: Vec<u8>,
    /// Bits of the Huffman payload.
    payload_bits: usize,
}

/// `data` compressed with `spec`, split into its decode-side sections.
fn stream(data: &NdArray<f32>, spec: InterpSpec) -> Stream {
    let mut s = Scratch::new();
    compress_with_spec_into(data, &spec, &mut s);
    let enc = HuffmanEncoder::from_symbols(&s.bins).expect("a stream has bins");
    let mut w = ByteWriter::new();
    enc.encode(&s.bins, &mut w);
    Stream {
        shape: data.shape(),
        spec,
        payload_bits: enc.payload_bits(&s.bins).expect("every bin is coded"),
        bins: s.bins,
        unpred: s.unpred,
        anchors: s.anchors,
        huff: w.finish(),
    }
}

/// The eighteen 32^3 chunks of `region-reads`' 64x96x96 Miranda field,
/// each planned for compression ratio at the whole field's `Rel(1e-3)`.
fn chunk_streams() -> Vec<Stream> {
    let field = miranda_like(Shape::d3(64, 96, 96), 0xA2C1_0F1E);
    let bound = ErrorBound::Abs(ErrorBound::Rel(1e-3).absolute(&field));
    let qoz = Qoz::for_metric(QualityMetric::CompressionRatio);
    let mut streams = Vec::new();
    for i in 0..2 {
        for j in 0..3 {
            for k in 0..3 {
                let region = Region::new(&[32 * i, 32 * j, 32 * k], &[32, 32, 32]);
                let chunk = field.extract_region(&region);
                streams.push(stream(&chunk, qoz.plan(&chunk, bound).spec));
            }
        }
    }
    streams
}

/// One field's inputs to every kernel.
struct Input {
    field: NdArray<f32>,
    blocks: Vec<NdArray<f32>>,
    trial_spec: InterpSpec,
    bins: Vec<u32>,
    huff: Vec<u8>,
    /// The field's bound stream.
    full: Stream,
}

fn prepare(ds: Dataset, field: u64) -> Input {
    let data = generate(ds, field);
    let qoz = Qoz::for_metric(QualityMetric::Psnr);
    let plan = qoz.plan(&data, ErrorBound::Rel(1e-3));
    // The tuner's sampling and its trial spec (`qoz_core::tuning`).
    let shape = data.shape();
    let cfg = &qoz.config;
    let anchor = cfg.effective_anchor_stride(shape);
    let block = cfg.effective_sample_block(shape);
    let sample = SamplePlan::from_rate(shape, block, cfg.effective_sample_rate(shape));
    let blocks = sample_blocks(&data, &sample);
    let levels = (block.min(anchor as usize) as u32)
        .next_power_of_two()
        .trailing_zeros()
        .min(anchor.trailing_zeros().max(1))
        .max(1);
    let trial_spec = InterpSpec {
        anchor_stride: Some(1u32 << levels),
        max_level: levels,
        level_configs: plan.spec.level_configs[..levels as usize].to_vec(),
        level_ebs: level_error_bounds(plan.abs_eb, plan.alpha, plan.beta, levels),
        quant_radius: LinearQuantizer::DEFAULT_RADIUS,
    };
    let mut s = Scratch::new();
    let mut bins = Vec::new();
    for b in &blocks {
        compress_with_spec_into(b, &trial_spec, &mut s);
        bins.extend_from_slice(&s.bins);
    }
    let enc = HuffmanEncoder::from_symbols(&bins).expect("a trial has bins");
    let mut w = ByteWriter::new();
    enc.encode(&bins, &mut w);
    Input {
        full: stream(&data, plan.spec),
        field: data,
        blocks,
        trial_spec,
        bins,
        huff: w.finish(),
    }
}

/// Fastest of `reps` rounds of Huffman decode and of reconstruct over
/// `streams`, in ns.
fn decode_ns(reps: usize, streams: &[&Stream]) -> (f64, f64) {
    let (mut hs, mut symbols) = (HuffmanScratch::new(), Vec::new());
    let huffman = best_ns(reps, || {
        for st in streams {
            let mut r = ByteReader::new(black_box(&st.huff));
            HuffmanDecoder::decode_with(&mut r, &mut hs, &mut symbols).expect("a valid stream");
            black_box(&symbols);
        }
    });
    let mut out = NdArray::<f32>::zeros(Shape::d1(1));
    let reconstruct = best_ns(reps, || {
        for st in streams {
            let (bins, unpred, anchors) = (&st.bins, &st.unpred, &st.anchors);
            decompress_with_spec_into(st.shape, &st.spec, bins, unpred, anchors, &mut out)
                .expect("valid sections");
            black_box(&out);
        }
    });
    (huffman, reconstruct)
}

/// Fastest of `reps` rounds of `round`, in ns.
fn best_ns(reps: usize, mut round: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PASSES {
                round();
            }
            t.elapsed().as_nanos() as f64 / PASSES as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let reps = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("REPS must be a positive integer"))
        .unwrap_or(DEFAULT_REPS);
    let inputs: Vec<Input> = (0..12u64)
        .map(|k| prepare(Dataset::ALL[(k % 6) as usize], 2 + k / 6))
        .collect();
    let trial_points: usize = inputs
        .iter()
        .flat_map(|i| &i.blocks)
        .map(NdArray::len)
        .sum();
    let field_points: usize = inputs.iter().map(|i| i.field.len()).sum();
    let bins: usize = inputs.iter().map(|i| i.bins.len()).sum();
    let huff_bytes: usize = inputs.iter().map(|i| i.huff.len()).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "12 field-dump fields: {field_points} points; one trial each: {trial_points} points, \
         {bins} bins, {huff_bytes} Huffman bytes; best of {reps} rounds x {PASSES} passes; \
         {cores} cores available"
    );

    let mut s = Scratch::<f32>::new();
    let engine_trial = best_ns(reps, || {
        for i in &inputs {
            for b in &i.blocks {
                black_box(compress_with_spec_into(b, &i.trial_spec, &mut s));
            }
        }
    });
    let engine_full = best_ns(reps, || {
        for i in &inputs {
            black_box(compress_with_spec_into(&i.field, &i.full.spec, &mut s));
        }
    });
    let mut hs = HuffmanScratch::new();
    let build = best_ns(reps, || {
        for i in &inputs {
            let enc = HuffmanEncoder::from_symbols_with(black_box(&i.bins), &mut hs);
            enc.expect("a trial has bins").recycle(&mut hs);
        }
    });
    let encoders: Vec<HuffmanEncoder> = inputs
        .iter()
        .map(|i| HuffmanEncoder::from_symbols(&i.bins).expect("a trial has bins"))
        .collect();
    let (mut bit_buf, mut staged) = (Vec::new(), Vec::new());
    let encode = best_ns(reps, || {
        for (i, enc) in inputs.iter().zip(&encoders) {
            let mut w = ByteWriter::from_vec(std::mem::take(&mut staged));
            enc.encode_with(black_box(&i.bins), &mut bit_buf, &mut w);
            staged = black_box(w.into_vec());
        }
    });
    let (mut lz, mut packed) = (LzScratch::new(), Vec::new());
    let lzss = best_ns(reps, || {
        for i in &inputs {
            lzss_compress_with(black_box(&i.huff), &mut lz, &mut packed);
            black_box(&packed);
        }
    });
    let (mut es, mut section) = (EntropyScratch::new(), Vec::new());
    let bin_section = best_ns(reps, || {
        for i in &inputs {
            qoz_suite::codec::encode_bins_with(black_box(&i.bins), &mut es, &mut section);
            black_box(&section);
        }
    });

    let qoz = Qoz::for_metric(QualityMetric::Psnr);
    let plan = best_ns(reps, || {
        for i in &inputs {
            black_box(qoz.plan(black_box(&i.field), ErrorBound::Rel(1e-3)));
        }
    });

    println!("{:<24} {:>10}", "kernel", "best");
    for (name, ns, per, unit) in [
        (
            "engine, trial blocks",
            engine_trial,
            trial_points,
            "ns/point",
        ),
        ("engine, full field", engine_full, field_points, "ns/point"),
        ("huffman build", build, bins, "ns/bin"),
        ("huffman encode", encode, bins, "ns/bin"),
        ("lzss", lzss, huff_bytes, "ns/byte"),
        ("encode_bins_with", bin_section, bins, "ns/bin"),
    ] {
        println!("{name:<24} {:>10.3} {unit}", ns / per as f64);
    }
    let per_plan_ms = plan / inputs.len() as f64 / 1e6;
    println!("{:<24} {per_plan_ms:>10.3} ms/plan", "plan");

    let chunks = chunk_streams();
    for (set, streams) in [
        (
            "field-dump",
            inputs.iter().map(|i| &i.full).collect::<Vec<_>>(),
        ),
        ("32^3 chunks", chunks.iter().collect()),
    ] {
        let bins: usize = streams.iter().map(|st| st.bins.len()).sum();
        let bits: usize = streams.iter().map(|st| st.payload_bits).sum();
        let points: usize = streams.iter().map(|st| st.shape.len()).sum();
        let (huffman, reconstruct) = decode_ns(reps, &streams);
        println!(
            "{set}: {} bound streams, {points} points, {bins} bins, {:.2} bits/bin",
            streams.len(),
            bits as f64 / bins as f64
        );
        println!(
            "{:<24} {:>10.3} ns/bin",
            "huffman decode",
            huffman / bins as f64
        );
        println!(
            "{:<24} {:>10.3} ns/point",
            "reconstruct",
            reconstruct / points as f64
        );
    }
}
