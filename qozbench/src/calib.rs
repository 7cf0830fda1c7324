//! The machine's speed, measured while a workload runs.
//!
//! On a host shared with other tenants the same code runs up to 1.5×
//! slower in busy phases than in quiet ones, and the phases come and go
//! within a run. So after every operation the closed loop runs a fixed
//! reference job for a fifth of the operation's time, and the timings
//! are divided by how slow the reference job ran around them. The job
//! is the benchmark's own code: no change to the repository's crates
//! changes what it measures.
//!
//! Busy phases do not slow all code alike. Vectorised streaming code was
//! slowed by up to 20% where scalar code with a serial dependency chain
//! was slowed by 3%, and at other times the other way round; each
//! workload mixes both. So the job has two kernels, taken in turn, and
//! the machine's slowness is the geometric mean of their two slowdowns:
//!
//! - `lorenzo`: the core of an error-bounded predictive codec on one
//!   16×32×32 `f32` block, a 3-D Lorenzo prediction from reconstructed
//!   neighbours, linear quantization, reconstruction and a histogram of
//!   the codes (scalar, one serial chain). Successive units take
//!   successive blocks of a 1 MiB field.
//! - `stream`: quantize-and-blend passes over 256 KiB arrays, which the
//!   compiler vectorises.

use std::hint::black_box;
use std::time::Instant;

const SIDES: [usize; 3] = [16, 32, 32];
const BLOCK: usize = SIDES[0] * SIDES[1] * SIDES[2];
const BLOCKS: usize = 16;
const RADIUS: i64 = 1 << 11;
/// `f32` values per array of the `stream` kernel.
const STREAM: usize = 64 << 10;

/// Kernels of the reference job.
pub const KERNELS: [&str; 2] = ["lorenzo", "stream"];

/// Time of one unit of each kernel at nominal speed, in ms: their
/// medians over a quiet stretch of the machine the README describes.
/// They only set the scale of the normalised timings.
pub const NOMINAL_MS: [f64; 2] = [0.42, 0.48];

/// How fast the reference job ran at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Index into [`KERNELS`].
    pub kernel: usize,
    /// Time per unit over the kernel's nominal time per unit.
    pub slowdown: f64,
}

/// The machine's slowness over a stretch of samples: the geometric mean
/// over the kernels of each kernel's mean slowdown (1 = nominal speed).
/// A kernel without samples is left out; `1.0` when there are none.
pub fn slowness(samples: impl IntoIterator<Item = Sample>) -> f64 {
    let mut sum = [0.0; KERNELS.len()];
    let mut n = [0usize; KERNELS.len()];
    for s in samples {
        sum[s.kernel] += s.slowdown;
        n[s.kernel] += 1;
    }
    let logs: Vec<f64> = (0..KERNELS.len())
        .filter(|&k| n[k] > 0)
        .map(|k| (sum[k] / n[k] as f64).ln())
        .collect();
    if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// The reference job: its input, buffers and whose turn it is.
pub struct Reference {
    field: Vec<f32>,
    recon: Vec<f32>,
    hist: Vec<u32>,
    next_block: usize,
    turn: usize,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A smooth field with a little deterministic noise.
    pub fn new() -> Reference {
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        let [_, ny, nz] = SIDES;
        let field = (0..BLOCK * BLOCKS)
            .map(|i| {
                let (x, y, z) = (
                    (i / (ny * nz)) as f32,
                    ((i / nz) % ny) as f32,
                    (i % nz) as f32,
                );
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                let noise = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                (0.21 * x).sin() * (0.13 * y).cos()
                    + 0.5 * (0.17 * z + 0.05 * x).sin()
                    + 0.01 * noise
            })
            .collect();
        Reference {
            field,
            recon: vec![0.0; BLOCK * BLOCKS],
            hist: vec![0; 2 * RADIUS as usize],
            next_block: 0,
            turn: 0,
        }
    }

    /// Run the kernel whose turn it is for at least `ms` (at least one
    /// unit) and say how slow it ran.
    pub fn sample(&mut self, ms: f64) -> Sample {
        let kernel = self.turn;
        self.turn = (self.turn + 1) % KERNELS.len();
        let t = Instant::now();
        let mut units = 0u32;
        let elapsed = loop {
            black_box(match kernel {
                0 => self.lorenzo(),
                _ => self.stream(),
            });
            units += 1;
            let el = t.elapsed().as_secs_f64() * 1e3;
            if el >= ms {
                break el;
            }
        };
        Sample {
            kernel,
            slowdown: elapsed / f64::from(units) / NOMINAL_MS[kernel],
        }
    }

    /// One unit of `lorenzo`, on the next block; returns a checksum.
    fn lorenzo(&mut self) -> u64 {
        let eb = 1e-3f32;
        let span = self.next_block * BLOCK..(self.next_block + 1) * BLOCK;
        self.next_block = (self.next_block + 1) % BLOCKS;
        let f = black_box(&self.field[span.clone()]);
        let r = &mut self.recon[span];
        self.hist.iter_mut().for_each(|c| *c = 0);
        let [nx, ny, nz] = SIDES;
        let at = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
        let mut unpred = 0u64;
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let g = |dx: usize, dy: usize, dz: usize| {
                        if x < dx || y < dy || z < dz {
                            0.0
                        } else {
                            r[at(x - dx, y - dy, z - dz)]
                        }
                    };
                    let pred =
                        g(1, 0, 0) + g(0, 1, 0) + g(0, 0, 1) - g(1, 1, 0) - g(1, 0, 1) - g(0, 1, 1)
                            + g(1, 1, 1);
                    let i = at(x, y, z);
                    let q = ((f[i] - pred) / (2.0 * eb)).round() as i64;
                    if q.abs() < RADIUS {
                        r[i] = pred + q as f32 * 2.0 * eb;
                        self.hist[(q + RADIUS) as usize] += 1;
                    } else {
                        r[i] = f[i];
                        unpred += 1;
                    }
                }
            }
        }
        let nonzero = self.hist.iter().filter(|&&c| c > 0).count() as u64;
        unpred ^ nonzero << 32 ^ u64::from(r[BLOCK / 2].to_bits())
    }

    /// One unit of `stream`; returns a checksum.
    fn stream(&mut self) -> u64 {
        let f = black_box(&self.field[..STREAM]);
        let r = &mut self.recon[..STREAM];
        let mut acc = 0u32;
        for _ in 0..2 {
            for (a, b) in f.iter().zip(r.iter_mut()) {
                let q = (a * 500.0).round();
                *b = q * 0.002 + *b * 0.5;
                acc = acc.wrapping_add(q as i32 as u32);
            }
        }
        u64::from(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_take_turns_and_report_a_slowdown() {
        let mut r = Reference::new();
        let a = r.sample(0.0);
        let b = r.sample(0.0);
        assert_eq!((a.kernel, b.kernel), (0, 1));
        assert_eq!(r.sample(0.0).kernel, 0);
        assert!(a.slowdown > 0.0 && b.slowdown > 0.0);
    }

    #[test]
    fn slowness_is_the_geometric_mean_of_kernel_means() {
        let s = |kernel, slowdown| Sample { kernel, slowdown };
        assert_eq!(slowness([]), 1.0);
        assert!((slowness([s(0, 2.0), s(0, 4.0)]) - 3.0).abs() < 1e-12);
        // Kernel means 3 and 1/3: geometric mean 1.
        let v = [s(0, 2.0), s(1, 0.25), s(0, 4.0), s(1, 0.5 - 1.0 / 12.0)];
        assert!((slowness(v) - 1.0).abs() < 1e-12);
    }
}
