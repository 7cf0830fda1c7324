//! Online tuning: level-wise interpolator selection (Algorithm 1) and
//! quality-metric-driven `(alpha, beta)` auto-tuning (§VI-C, Table I).
//!
//! All tuning runs on the uniformly sampled blocks only. An `(alpha,
//! beta)` trial really compresses: the shared engine runs over every
//! sampled block and the concatenated bins go through the same
//! Huffman + LZSS backend a stream uses, so the bit-rate each Table-I
//! comparison sees is an exact coded size, and a change to any byte of
//! that backend can flip a tuner decision (the golden bitstream pins see
//! it). A trial is a deterministic function of its level-bound vector,
//! so one [`autotune_params`] call runs each distinct vector once.
//!
//! The distinct unscaled vectors of the candidate grid are known before
//! the Table-I walk starts, so they are claim-scheduled work items
//! ([`qoz_codec::Claims`]): helper threads from the process-wide budget
//! ([`qoz_codec::HelperLease`]) run them in candidate order, each in its
//! own arena, while the calling thread walks, runs the walk's probes and
//! fills any trial the walk reaches before a helper has claimed it.
//! [`select_level_interps`] sweeps each level's candidates the same way,
//! each worker on its own copy of one block at a time. Results are
//! reduced in candidate order, so the plan is the same with any number
//! of helpers, none included.

use crate::config::level_error_bounds;
use qoz_codec::{claim_each, Claims, HelperLease, LinearQuantizer, Scratch};
use qoz_metrics::{autocorr, ssim, QualityMetric};
use qoz_predict::{traverse_level, LevelConfig};
use qoz_sz3::{compress_with_spec_into, InterpSpec};
use qoz_tensor::{NdArray, Scalar};

/// One trial compression outcome on the sampled blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Coded bits per data point: the entropy-coded bins plus the raw
    /// unpredictable and anchor bytes.
    pub bits_per_point: f64,
    /// Metric score in larger-is-better orientation.
    pub metric: f64,
}

/// Level-adapted selection of the best-fit interpolator (Algorithm 1).
///
/// For each level from `sel_levels` down to 1, every candidate
/// `(kernel, order)` runs a trial on every sampled block given the
/// interpolators already fixed for higher levels; the candidate with the
/// lowest total absolute prediction error wins. Returns configs for
/// levels `1..=total_levels` (levels above `sel_levels` inherit the
/// highest selected config, per the paper's fallback).
pub fn select_level_interps<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    sel_levels: u32,
    total_levels: u32,
) -> Vec<LevelConfig> {
    let lease = HelperLease::take(LevelConfig::candidates().len() - 1);
    select_with_helpers(blocks, abs_eb, sel_levels, total_levels, lease.count())
}

/// [`select_level_interps`] with `helpers` helper threads.
fn select_with_helpers<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    sel_levels: u32,
    total_levels: u32,
    helpers: usize,
) -> Vec<LevelConfig> {
    let total = total_levels.max(1) as usize;
    if blocks.is_empty() || sel_levels == 0 {
        return vec![LevelConfig::default(); total];
    }
    let quant = LinearQuantizer::new(abs_eb);

    // Working buffers: anchors (base grid of each block) stay lossless,
    // mirroring QoZ's anchored full-array pass.
    let mut works: Vec<NdArray<T>> = blocks.to_vec();
    let mut selected = vec![LevelConfig::default(); total];

    // Evaluate the default (cubic/ascending) first so that levels the
    // sampled blocks cannot discriminate (boundary-degenerate strides,
    // where every kernel falls back to the same formula) keep SZ3's
    // default instead of tie-breaking to an arbitrary candidate that the
    // full array's interior would regret.
    let mut cands = LevelConfig::candidates();
    cands.sort_by_key(|c| (*c != LevelConfig::default()) as u8);

    let largest = blocks.iter().map(NdArray::len).max().unwrap_or(0);
    for level in (1..=sel_levels).rev() {
        // Each worker runs its candidates on its own copy of one working
        // buffer at a time.
        let errs = claim_each(
            cands.len(),
            helpers,
            || vec![T::default(); largest],
            |i, trial| level_error(&works, trial, level, cands[i], &quant),
        );
        let mut best = LevelConfig::default();
        let mut best_err = f64::INFINITY;
        for (&cand, &err) in cands.iter().zip(&errs) {
            // Strict-improvement threshold: a candidate must beat the
            // incumbent by a measurable margin, not a rounding artifact.
            if err < best_err * (1.0 - 1e-9) {
                best_err = err;
                best = cand;
            }
        }
        selected[(level - 1) as usize] = best;
        // Commit the winning interpolator to the working buffers.
        for work in &mut works {
            let shape = work.shape();
            traverse_level(
                work.as_mut_slice(),
                shape,
                level,
                best,
                &mut |buf, off, pred| {
                    buf[off] = quant.quantize(buf[off], pred).reconstructed;
                },
            );
        }
    }

    // Levels above the block-selectable range inherit the top selection.
    let top = selected[(sel_levels - 1) as usize];
    for l in sel_levels as usize..total {
        selected[l] = top;
    }
    selected
}

/// Total absolute prediction error of `cand` at `level` over every
/// working buffer, each run on a copy in `trial` (at least as long as
/// the longest buffer).
fn level_error<T: Scalar>(
    works: &[NdArray<T>],
    trial: &mut [T],
    level: u32,
    cand: LevelConfig,
    quant: &LinearQuantizer,
) -> f64 {
    let mut err = 0.0f64;
    for work in works {
        let trial = &mut trial[..work.len()];
        trial.copy_from_slice(work.as_slice());
        traverse_level(trial, work.shape(), level, cand, &mut |buf, off, pred| {
            let v = buf[off];
            let d = v.to_f64() - pred;
            if d.is_finite() {
                err += d.abs();
            }
            buf[off] = quant.quantize(v, pred).reconstructed;
        });
    }
    err
}

/// Aggregate a metric over per-block (original, reconstruction) pairs in
/// larger-is-better orientation. `global_range` is the full dataset's
/// value range (PSNR must not use per-block ranges).
pub fn aggregate_metric<T: Scalar>(
    metric: QualityMetric,
    blocks: &[NdArray<T>],
    recons: &[NdArray<T>],
    global_range: f64,
) -> f64 {
    let mut sum = MetricSum::default();
    for (b, r) in blocks.iter().zip(recons) {
        sum.add(metric, b, r);
    }
    sum.finish(metric, global_range)
}

/// The running sum behind [`aggregate_metric`], fed one block at a time
/// so a trial can score each reconstruction while it is in the arena.
/// Blocks are weighted by their length and summed in the order given.
#[derive(Default)]
struct MetricSum {
    acc: f64,
    n: usize,
}

impl MetricSum {
    fn add<T: Scalar>(&mut self, metric: QualityMetric, block: &NdArray<T>, recon: &NdArray<T>) {
        let per_point = match metric {
            QualityMetric::CompressionRatio => return,
            QualityMetric::Psnr => qoz_metrics::mse(block, recon),
            QualityMetric::Ssim => ssim(block, recon),
            QualityMetric::AutoCorrelation => {
                autocorr::error_autocorrelation(block, recon, 1).abs()
            }
        };
        self.acc += per_point * block.len() as f64;
        self.n += block.len();
    }

    fn finish(self, metric: QualityMetric, global_range: f64) -> f64 {
        let mean = self.acc / self.n.max(1) as f64;
        match metric {
            QualityMetric::CompressionRatio => 0.0,
            QualityMetric::Psnr => {
                if mean == 0.0 || global_range == 0.0 {
                    f64::INFINITY
                } else {
                    20.0 * (global_range / mean.sqrt()).log10()
                }
            }
            QualityMetric::Ssim => mean,
            QualityMetric::AutoCorrelation => -mean,
        }
    }
}

/// The `(alpha, beta)` trials of one tuning call: the sampled blocks and
/// the settings they share.
struct Trials<'a, T: Scalar> {
    blocks: &'a [NdArray<T>],
    abs_eb: f64,
    level_configs: &'a [LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
}

/// One worker's staging for trials: the engine's stage buffers, and
/// every block's bins of the current trial, concatenated.
#[derive(Default)]
struct Arena<T: Scalar> {
    scratch: Scratch<T>,
    bins: Vec<u32>,
}

/// A candidate grid's distinct unscaled level-bound vectors, in order of
/// first appearance, and the vector each candidate has.
struct Grid {
    ebs: Vec<Vec<f64>>,
    of: Vec<usize>,
}

/// What one Table-I walk settled on, and the trials it ran (which only
/// the oracle tests read).
#[cfg_attr(not(test), allow(dead_code))]
struct Walk {
    best: (f64, f64),
    /// Outcome of each of the grid's distinct vectors.
    results: Vec<TrialResult>,
    /// Probe trials run at a shifted bound.
    probes: usize,
}

/// Level bounds compare as bit patterns: those determine a trial.
fn same_bounds(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|e| e.to_bits())
        .eq(b.iter().map(|e| e.to_bits()))
}

impl<T: Scalar> Trials<'_, T> {
    /// Level bounds of `(alpha, beta)` at error bound `abs_eb * eb_scale`.
    fn level_ebs(&self, alpha: f64, beta: f64, eb_scale: f64) -> Vec<f64> {
        level_error_bounds(self.abs_eb * eb_scale, alpha, beta, self.block_levels)
    }

    /// The distinct unscaled level-bound vectors of `candidates`.
    fn grid(&self, candidates: &[(f64, f64)]) -> Grid {
        let mut ebs: Vec<Vec<f64>> = Vec::new();
        let of = candidates
            .iter()
            .map(|&(a, b)| {
                let v = self.level_ebs(a, b, 1.0);
                ebs.iter()
                    .position(|e| same_bounds(e, &v))
                    .unwrap_or_else(|| {
                        ebs.push(v);
                        ebs.len() - 1
                    })
            })
            .collect();
        Grid { ebs, of }
    }

    /// The Table-I walk over `candidates`, first to last, with up to
    /// `helpers` helper threads running the grid's trials ahead of it.
    /// Probes run on the calling thread, each distinct one once.
    fn walk(&self, candidates: &[(f64, f64)], grid: &Grid, helpers: usize) -> Walk {
        assert!(!candidates.is_empty());
        if self.blocks.is_empty() {
            return Walk {
                best: candidates[0],
                results: Vec::new(),
                probes: 0,
            };
        }
        let claims = Claims::new(grid.ebs.len());
        let run_slot = |i: usize, arena: &mut Arena<T>| self.run(&grid.ebs[i], arena);
        let (best, probes) = claims.with_helpers(helpers, Arena::default, run_slot, || {
            let mut arena = Arena::default();
            let mut probes: Vec<(Vec<f64>, TrialResult)> = Vec::new();
            let mut best = candidates[0];
            let mut best_res = *claims.get(grid.of[0], |i| run_slot(i, &mut arena));
            for (&(a, b), &slot) in candidates.iter().zip(&grid.of).skip(1) {
                let res = *claims.get(slot, |i| run_slot(i, &mut arena));
                let probe = |scale| {
                    let ebs = self.level_ebs(a, b, scale);
                    if let Some(&(_, r)) = probes.iter().find(|(e, _)| same_bounds(e, &ebs)) {
                        return r;
                    }
                    let r = self.run(&ebs, &mut arena);
                    probes.push((ebs, r));
                    r
                };
                if solution_ii_better(self.metric, best_res, res, probe) {
                    best = (a, b);
                    best_res = res;
                }
            }
            (best, probes.len())
        });
        Walk {
            best,
            results: claims.into_vec(),
            probes,
        }
    }

    /// Compress every sampled block at `level_ebs`, then entropy-code the
    /// concatenated bins.
    fn run(&self, level_ebs: &[f64], arena: &mut Arena<T>) -> TrialResult {
        let spec = InterpSpec {
            anchor_stride: Some(1u32 << self.block_levels),
            max_level: self.block_levels,
            level_configs: self.level_configs[..self.block_levels as usize].to_vec(),
            level_ebs: level_ebs.to_vec(),
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        };
        let s = &mut arena.scratch;
        arena.bins.clear();
        let mut side_bytes = 0usize;
        let mut points = 0usize;
        let mut metric = MetricSum::default();
        for block in self.blocks {
            compress_with_spec_into(block, &spec, s);
            arena.bins.extend_from_slice(&s.bins);
            side_bytes += s.unpred.len() + s.anchors.len();
            points += block.len();
            let recon = NdArray::from_vec(block.shape(), std::mem::take(&mut s.work));
            metric.add(self.metric, block, &recon);
            s.work = recon.into_vec();
        }
        // Paper §VI-A: prediction runs per block, but the entropy stage is
        // applied to the *aggregated* bins for an accurate bit-rate estimate.
        qoz_codec::encode_bins_with(&arena.bins, &mut s.entropy, &mut s.section);
        let bins_bits = s.section.len() as f64 * 8.0;
        TrialResult {
            bits_per_point: (bins_bits + side_bytes as f64 * 8.0) / points.max(1) as f64,
            metric: metric.finish(self.metric, self.global_range),
        }
    }
}

/// Table-I comparison: is solution II better than solution I?
///
/// `trial_ii` produces II's result at a scaled error bound for the
/// "sophisticated" cases 3/4 (the two-point line construction).
pub fn solution_ii_better(
    metric: QualityMetric,
    i: TrialResult,
    ii: TrialResult,
    trial_ii: impl FnOnce(f64) -> TrialResult,
) -> bool {
    if metric == QualityMetric::CompressionRatio {
        return ii.bits_per_point < i.bits_per_point;
    }
    let (bi, mi) = (i.bits_per_point, i.metric);
    let (bii, mii) = (ii.bits_per_point, ii.metric);
    // Cases 1/2: dominance.
    if bi <= bii && mi >= mii {
        return false;
    }
    if bi >= bii && mi <= mii {
        return true;
    }
    // Cases 3/4: probe II at a shifted bound and interpolate its
    // rate-distortion line. e' = 1.2e when M_I > M_II, else 0.8e.
    let scale = if mi > mii { 1.2 } else { 0.8 };
    let probe = trial_ii(scale);
    let (bp, mp) = (probe.bits_per_point, probe.metric);
    if (bp - bii).abs() < 1e-9 || !mp.is_finite() || !mii.is_finite() {
        // Degenerate line; fall back to direct metric comparison.
        return mii > mi;
    }
    let slope = (mp - mii) / (bp - bii);
    let m_line = mii + slope * (bi - bii);
    // I sits below II's rate-distortion line => II is better.
    mi < m_line
}

/// Quality-metric-oriented `(alpha, beta)` auto-tuning (§VI-C).
///
/// Traverses the candidate grid, comparing each candidate against the
/// incumbent with the Table-I logic; sophisticated cases run one extra
/// sampled trial at a shifted error bound. Candidates (or probes) whose
/// level bounds equal an earlier trial's reuse its outcome: at the
/// default grid's 4 block levels only 13 of 17 candidates differ.
#[allow(clippy::too_many_arguments)]
pub fn autotune_params<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    level_configs: &[LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    candidates: &[(f64, f64)],
) -> (f64, f64) {
    let trials = Trials {
        blocks,
        abs_eb,
        level_configs,
        block_levels,
        metric,
        global_range,
    };
    let grid = trials.grid(candidates);
    let lease = HelperLease::take(grid.ebs.len().saturating_sub(1));
    trials.walk(candidates, &grid, lease.count()).best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QozConfig;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_predict::{base_point_count, InterpKind};
    use qoz_tensor::{sample_blocks, SamplePlan, Shape};

    fn smooth_blocks() -> Vec<NdArray<f64>> {
        (0..4)
            .map(|k| {
                NdArray::from_fn(Shape::d2(17, 17), |i| {
                    ((i[0] + k * 3) as f64 * 0.11).sin() * ((i[1] + k) as f64 * 0.09).cos()
                })
            })
            .collect()
    }

    #[test]
    fn selection_returns_requested_levels() {
        let blocks = smooth_blocks();
        let configs = select_level_interps(&blocks, 1e-4, 4, 6);
        assert_eq!(configs.len(), 6);
        // Levels above sel inherit level-4's config.
        assert_eq!(configs[4], configs[3]);
        assert_eq!(configs[5], configs[3]);
    }

    #[test]
    fn selection_prefers_higher_order_on_smooth_blocks() {
        let blocks = smooth_blocks();
        let configs = select_level_interps(&blocks, 1e-5, 4, 4);
        // The dense lowest level dominates quality; smooth trigonometric
        // data favours a higher-order kernel (cubic or quadratic) there.
        assert_ne!(configs[0].kind, InterpKind::Linear, "picked {configs:?}");
    }

    #[test]
    fn dominance_cases_direct() {
        let m = QualityMetric::Psnr;
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 60.0,
        };
        let worse = TrialResult {
            bits_per_point: 3.0,
            metric: 50.0,
        };
        let better = TrialResult {
            bits_per_point: 1.0,
            metric: 70.0,
        };
        assert!(!solution_ii_better(m, i, worse, |_| unreachable!()));
        assert!(solution_ii_better(m, i, better, |_| unreachable!()));
    }

    #[test]
    fn sophisticated_case_uses_line() {
        let m = QualityMetric::Psnr;
        // II: cheaper but lower quality than I.
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 60.0,
        };
        let ii = TrialResult {
            bits_per_point: 1.0,
            metric: 50.0,
        };
        // II's curve probed at 1.2e (M_I > M_II): suppose at 2.0 bits II
        // would reach 65 dB -> line passes above I -> II better.
        let probe_hi = TrialResult {
            bits_per_point: 2.0,
            metric: 65.0,
        };
        assert!(solution_ii_better(m, i, ii, |s| {
            assert!((s - 1.2).abs() < 1e-12);
            probe_hi
        }));
        // If II's curve only reaches 55 dB at 2.0 bits, I stays.
        let probe_lo = TrialResult {
            bits_per_point: 2.0,
            metric: 55.0,
        };
        assert!(!solution_ii_better(m, i, ii, |_| probe_lo));
    }

    #[test]
    fn cr_mode_compares_bits_only() {
        let m = QualityMetric::CompressionRatio;
        let i = TrialResult {
            bits_per_point: 2.0,
            metric: 0.0,
        };
        let ii = TrialResult {
            bits_per_point: 1.5,
            metric: 0.0,
        };
        assert!(solution_ii_better(m, i, ii, |_| unreachable!()));
    }

    #[test]
    fn autotune_picks_tighter_levels_on_smooth_data() {
        // On smooth data, tightening high-level bounds (alpha > 1)
        // improves rate-PSNR; the tuner should not pick (1, 1).
        let blocks = smooth_blocks();
        let configs = vec![LevelConfig::default(); 4];
        let cands = vec![(1.0, 1.0), (1.5, 2.0), (2.0, 4.0)];
        let (a, _b) = autotune_params(&blocks, 1e-3, &configs, 4, QualityMetric::Psnr, 2.0, &cands);
        assert!(a >= 1.0);
    }

    #[test]
    fn aggregate_psnr_uses_global_range() {
        let blocks = smooth_blocks();
        let recons: Vec<_> = blocks
            .iter()
            .map(|b| {
                let mut r = b.clone();
                for v in r.as_mut_slice() {
                    *v += 1e-3;
                }
                r
            })
            .collect();
        let p_small = aggregate_metric(QualityMetric::Psnr, &blocks, &recons, 1.0);
        let p_big = aggregate_metric(QualityMetric::Psnr, &blocks, &recons, 10.0);
        assert!((p_big - p_small - 20.0).abs() < 1e-9);
    }

    #[test]
    fn block_anchor_counts() {
        assert_eq!(base_point_count(Shape::d2(17, 17), 1 << 4), 4);
    }

    /// What `Qoz::plan` hands the tuner for `data` at `Rel(1e-3)`.
    struct Setup<T: Scalar> {
        blocks: Vec<NdArray<T>>,
        abs_eb: f64,
        configs: Vec<LevelConfig>,
        levels: u32,
        metric: QualityMetric,
        range: f64,
    }

    impl<T: Scalar> Setup<T> {
        fn new(data: &NdArray<T>, metric: QualityMetric) -> Self {
            let cfg = QozConfig::for_metric(metric);
            let shape = data.shape();
            let anchor = cfg.effective_anchor_stride(shape);
            let block = cfg.effective_sample_block(shape);
            let plan = SamplePlan::from_rate(shape, block, cfg.effective_sample_rate(shape));
            let blocks = sample_blocks(data, &plan);
            let levels = (block.min(anchor as usize) as u32).trailing_zeros();
            let abs_eb = 1e-3 * data.value_range();
            let configs = select_level_interps(&blocks, abs_eb, levels, levels);
            Setup {
                blocks,
                abs_eb,
                configs,
                levels,
                metric,
                range: data.value_range(),
            }
        }

        fn trials(&self) -> Trials<'_, T> {
            Trials {
                blocks: &self.blocks,
                abs_eb: self.abs_eb,
                level_configs: &self.configs,
                block_levels: self.levels,
                metric: self.metric,
                global_range: self.range,
            }
        }

        /// One trial as the tuner ran it before trials were shared: each
        /// block in a fresh arena, the bins through the allocating
        /// backend, the metric from the collected reconstructions.
        fn fresh_trial(&self, alpha: f64, beta: f64, eb_scale: f64) -> TrialResult {
            let ebs = level_error_bounds(self.abs_eb * eb_scale, alpha, beta, self.levels);
            let mut all_bins: Vec<u32> = Vec::new();
            let mut side_bytes = 0usize;
            let mut points = 0usize;
            let mut recons = Vec::new();
            for block in &self.blocks {
                let spec = InterpSpec {
                    anchor_stride: Some(1u32 << self.levels),
                    max_level: self.levels,
                    level_configs: self.configs.clone(),
                    level_ebs: ebs.clone(),
                    quant_radius: LinearQuantizer::DEFAULT_RADIUS,
                };
                let out = qoz_sz3::compress_with_spec(block, &spec);
                all_bins.extend_from_slice(&out.bins);
                side_bytes += out.unpred.len() + out.anchors.len();
                points += block.len();
                recons.push(out.recon);
            }
            let bins_bits = qoz_codec::encode_bins(&all_bins).len() as f64 * 8.0;
            TrialResult {
                bits_per_point: (bins_bits + side_bytes as f64 * 8.0) / points.max(1) as f64,
                metric: aggregate_metric(self.metric, &self.blocks, &recons, self.range),
            }
        }

        /// The plain per-candidate walk: every trial runs, duplicates
        /// included. Returns the winner and the number of trials run.
        fn oracle(&self, candidates: &[(f64, f64)]) -> ((f64, f64), usize) {
            let mut runs = 0;
            let mut trial = |a: f64, b: f64, scale: f64| {
                runs += 1;
                self.fresh_trial(a, b, scale)
            };
            let mut best = candidates[0];
            let mut best_res = trial(best.0, best.1, 1.0);
            for &(a, b) in &candidates[1..] {
                let res = trial(a, b, 1.0);
                if solution_ii_better(self.metric, best_res, res, |scale| trial(a, b, scale)) {
                    best = (a, b);
                    best_res = res;
                }
            }
            (best, runs)
        }
    }

    const METRICS: [QualityMetric; 4] = [
        QualityMetric::CompressionRatio,
        QualityMetric::Psnr,
        QualityMetric::Ssim,
        QualityMetric::AutoCorrelation,
    ];

    /// Shared trials pick the oracle's `(alpha, beta)` with bit-identical
    /// outcomes, with 0 to 3 helpers, and skip at least the grid's
    /// duplicate level bounds. In CR mode the winner also has the fewest
    /// bits of all candidates.
    fn check_against_oracle<T: Scalar>(data: &NdArray<T>, grid_duplicates: usize) {
        let cands = QozConfig::default().param_candidates();
        for metric in METRICS {
            let setup = Setup::new(data, metric);
            let (want, oracle_runs) = setup.oracle(&cands);
            let fresh: Vec<TrialResult> = cands
                .iter()
                .map(|&(a, b)| setup.fresh_trial(a, b, 1.0))
                .collect();
            let trials = setup.trials();
            let grid = trials.grid(&cands);
            for helpers in 0..=3 {
                let walk = trials.walk(&cands, &grid, helpers);
                assert_eq!(walk.best, want, "{metric:?}, {helpers} helpers");
                let runs = walk.results.len() + walk.probes;
                assert!(
                    runs + grid_duplicates <= oracle_runs,
                    "{metric:?}, {helpers} helpers: {runs} of {oracle_runs} trials run"
                );
                for ((&(a, b), &slot), fresh) in cands.iter().zip(&grid.of).zip(&fresh) {
                    let got = walk.results[slot];
                    assert_eq!(
                        (got.bits_per_point.to_bits(), got.metric.to_bits()),
                        (fresh.bits_per_point.to_bits(), fresh.metric.to_bits()),
                        "{metric:?} ({a}, {b}), {helpers} helpers"
                    );
                }
            }
            if metric == QualityMetric::CompressionRatio {
                let fewest = fresh
                    .iter()
                    .map(|r| r.bits_per_point)
                    .fold(f64::INFINITY, f64::min);
                let won = fresh[cands.iter().position(|&c| c == want).unwrap()];
                assert_eq!(won.bits_per_point, fewest, "CR winner {want:?}");
            }
        }
    }

    #[test]
    fn shared_trials_pick_the_oracles_params_in_2d() {
        let data = Dataset::CesmAtm.generate(SizeClass::Tiny, 0);
        let wide = NdArray::from_vec(
            data.shape(),
            data.as_slice().iter().map(|&v| f64::from(v)).collect(),
        );
        check_against_oracle(&data, 2);
        check_against_oracle(&wide, 2);
    }

    #[test]
    fn shared_trials_pick_the_oracles_params_in_3d() {
        let data = Dataset::Miranda.generate(SizeClass::Tiny, 0);
        let wide = NdArray::from_vec(
            data.shape(),
            data.as_slice().iter().map(|&v| f64::from(v)).collect(),
        );
        check_against_oracle(&data, 4);
        check_against_oracle(&wide, 4);
    }

    #[test]
    fn default_grid_collapses_to_distinct_level_bounds() {
        // CR mode runs no probes, so the walk runs exactly one trial per
        // distinct level-bound vector of the 17-candidate grid.
        let cands = QozConfig::default().param_candidates();
        assert_eq!(cands.len(), 17);
        let blocks = smooth_blocks();
        let configs = vec![LevelConfig::default(); 6];
        for (levels, distinct) in [(4, 13), (6, 15)] {
            let trials = Trials {
                blocks: &blocks,
                abs_eb: 1e-3,
                level_configs: &configs,
                block_levels: levels,
                metric: QualityMetric::CompressionRatio,
                global_range: 2.0,
            };
            let grid = trials.grid(&cands);
            assert_eq!(grid.ebs.len(), distinct, "{levels} levels");
            let walk = trials.walk(&cands, &grid, 0);
            assert_eq!((walk.results.len(), walk.probes), (distinct, 0));
        }
    }

    /// [`select_level_interps`] as it was before candidates were
    /// claim-scheduled: one thread, one set of trial buffers.
    fn select_serial<T: Scalar>(
        blocks: &[NdArray<T>],
        abs_eb: f64,
        sel_levels: u32,
        total_levels: u32,
    ) -> Vec<LevelConfig> {
        let total = total_levels.max(1) as usize;
        if blocks.is_empty() || sel_levels == 0 {
            return vec![LevelConfig::default(); total];
        }
        let quant = LinearQuantizer::new(abs_eb);
        let mut works: Vec<NdArray<T>> = blocks.to_vec();
        let mut trials: Vec<NdArray<T>> = blocks.to_vec();
        let mut selected = vec![LevelConfig::default(); total];
        let mut cands = LevelConfig::candidates();
        cands.sort_by_key(|c| (*c != LevelConfig::default()) as u8);
        for level in (1..=sel_levels).rev() {
            let mut best = LevelConfig::default();
            let mut best_err = f64::INFINITY;
            for &cand in &cands {
                let mut err = 0.0f64;
                for (work, trial) in works.iter().zip(&mut trials) {
                    trial.as_mut_slice().copy_from_slice(work.as_slice());
                    let shape = trial.shape();
                    traverse_level(
                        trial.as_mut_slice(),
                        shape,
                        level,
                        cand,
                        &mut |buf, off, pred| {
                            let v = buf[off];
                            let d = v.to_f64() - pred;
                            if d.is_finite() {
                                err += d.abs();
                            }
                            buf[off] = quant.quantize(v, pred).reconstructed;
                        },
                    );
                }
                if err < best_err * (1.0 - 1e-9) {
                    best_err = err;
                    best = cand;
                }
            }
            selected[(level - 1) as usize] = best;
            for work in &mut works {
                let shape = work.shape();
                traverse_level(
                    work.as_mut_slice(),
                    shape,
                    level,
                    best,
                    &mut |buf, off, pred| {
                        buf[off] = quant.quantize(buf[off], pred).reconstructed;
                    },
                );
            }
        }
        let top = selected[(sel_levels - 1) as usize];
        for l in sel_levels as usize..total {
            selected[l] = top;
        }
        selected
    }

    /// The claim-scheduled sweep picks the serial sweep's interpolators
    /// with 1 to 4 workers, on 2-D and 3-D sample blocks in f32 and f64
    /// across bounds, and on the synthetic smooth blocks.
    #[test]
    fn claimed_selection_matches_the_serial_sweep() {
        fn check<T: Scalar>(blocks: &[NdArray<T>], abs_eb: f64, levels: u32) {
            let want = select_serial(blocks, abs_eb, levels, levels + 1);
            for helpers in 0..=3 {
                let got = select_with_helpers(blocks, abs_eb, levels, levels + 1, helpers);
                assert_eq!(got, want, "eb {abs_eb}, {helpers} helpers");
            }
        }
        for ds in [Dataset::CesmAtm, Dataset::Miranda] {
            let data = ds.generate(SizeClass::Tiny, 0);
            let wide = NdArray::from_vec(
                data.shape(),
                data.as_slice().iter().map(|&v| f64::from(v)).collect(),
            );
            let setup = Setup::new(&data, QualityMetric::Psnr);
            let wide_setup = Setup::new(&wide, QualityMetric::Psnr);
            for rel in [1e-2, 1e-4] {
                let eb = rel * data.value_range();
                check(&setup.blocks, eb, setup.levels);
                check(&wide_setup.blocks, eb, wide_setup.levels);
            }
        }
        check(&smooth_blocks(), 1e-5, 4);
    }
}
