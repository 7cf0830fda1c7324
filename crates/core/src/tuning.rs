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
//! so one [`autotune_params`] call runs each distinct vector once and
//! stages every trial in one reused arena.

use crate::config::level_error_bounds;
use qoz_codec::{LinearQuantizer, Scratch};
use qoz_metrics::{autocorr, ssim, QualityMetric};
use qoz_predict::{base_point_count, traverse_level, LevelConfig};
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

/// Every `(alpha, beta)` candidate paired with its trial outcome.
pub type TrialTable = Vec<((f64, f64), TrialResult)>;

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
    let total = total_levels.max(1) as usize;
    if blocks.is_empty() || sel_levels == 0 {
        return vec![LevelConfig::default(); total];
    }
    let quant = LinearQuantizer::new(abs_eb);

    // Working buffers: anchors (base grid of each block) stay lossless,
    // mirroring QoZ's anchored full-array pass. Each candidate runs on a
    // copy of its block's working buffer, staged in a per-block buffer
    // allocated once.
    let mut works: Vec<NdArray<T>> = blocks.to_vec();
    let mut trials: Vec<NdArray<T>> = blocks.to_vec();
    let mut selected = vec![LevelConfig::default(); total];

    // Evaluate the default (cubic/ascending) first so that levels the
    // sampled blocks cannot discriminate (boundary-degenerate strides,
    // where every kernel falls back to the same formula) keep SZ3's
    // default instead of tie-breaking to an arbitrary candidate that the
    // full array's interior would regret.
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
/// settings they share, one arena they all stage in, and the outcomes
/// already run.
struct Trials<'a, T: Scalar> {
    blocks: &'a [NdArray<T>],
    abs_eb: f64,
    level_configs: &'a [LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    scratch: Scratch<T>,
    /// Every block's bins of the current trial, concatenated.
    bins: Vec<u32>,
    /// Outcomes keyed on the bit patterns of their level bounds, which
    /// determine a trial completely; a probe's shifted bound enters
    /// through them.
    done: Vec<(Vec<u64>, TrialResult)>,
}

impl<'a, T: Scalar> Trials<'a, T> {
    fn new(
        blocks: &'a [NdArray<T>],
        abs_eb: f64,
        level_configs: &'a [LevelConfig],
        block_levels: u32,
        metric: QualityMetric,
        global_range: f64,
    ) -> Self {
        Trials {
            blocks,
            abs_eb,
            level_configs,
            block_levels,
            metric,
            global_range,
            scratch: Scratch::new(),
            bins: Vec::new(),
            done: Vec::new(),
        }
    }

    /// The outcome of `(alpha, beta)` at error bound `abs_eb * eb_scale`,
    /// run only if no earlier trial of this call had the same level
    /// bounds.
    fn get(&mut self, alpha: f64, beta: f64, eb_scale: f64) -> TrialResult {
        let ebs = level_error_bounds(self.abs_eb * eb_scale, alpha, beta, self.block_levels);
        let key: Vec<u64> = ebs.iter().map(|e| e.to_bits()).collect();
        if let Some(&(_, res)) = self.done.iter().find(|(k, _)| *k == key) {
            return res;
        }
        let res = self.run(ebs);
        self.done.push((key, res));
        res
    }

    /// Compress every sampled block at `level_ebs`, then entropy-code the
    /// concatenated bins.
    fn run(&mut self, level_ebs: Vec<f64>) -> TrialResult {
        let spec = InterpSpec {
            anchor_stride: Some(1u32 << self.block_levels),
            max_level: self.block_levels,
            level_configs: self.level_configs[..self.block_levels as usize].to_vec(),
            level_ebs,
            quant_radius: LinearQuantizer::DEFAULT_RADIUS,
        };
        let s = &mut self.scratch;
        self.bins.clear();
        let mut side_bytes = 0usize;
        let mut points = 0usize;
        let mut metric = MetricSum::default();
        for block in self.blocks {
            compress_with_spec_into(block, &spec, s);
            self.bins.extend_from_slice(&s.bins);
            side_bytes += s.unpred.len() + s.anchors.len();
            points += block.len();
            let recon = NdArray::from_vec(block.shape(), std::mem::take(&mut s.work));
            metric.add(self.metric, block, &recon);
            s.work = recon.into_vec();
        }
        // Paper §VI-A: prediction runs per block, but the entropy stage is
        // applied to the *aggregated* bins for an accurate bit-rate estimate.
        qoz_codec::encode_bins_with(&self.bins, &mut s.entropy, &mut s.section);
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
    let mut trials = Trials::new(
        blocks,
        abs_eb,
        level_configs,
        block_levels,
        metric,
        global_range,
    );
    walk(&mut trials, candidates)
}

/// The Table-I walk over `candidates`, first to last.
fn walk<T: Scalar>(trials: &mut Trials<'_, T>, candidates: &[(f64, f64)]) -> (f64, f64) {
    assert!(!candidates.is_empty());
    if trials.blocks.is_empty() {
        return candidates[0];
    }
    let metric = trials.metric;
    let mut best = candidates[0];
    let mut best_res = trials.get(best.0, best.1, 1.0);
    for &(a, b) in &candidates[1..] {
        let res = trials.get(a, b, 1.0);
        if solution_ii_better(metric, best_res, res, |scale| trials.get(a, b, scale)) {
            best = (a, b);
            best_res = res;
        }
    }
    best
}

/// Debug/benchmark helper: evaluate every candidate and return the full
/// trial table alongside the winner.
#[allow(clippy::too_many_arguments)]
pub fn autotune_with_table<T: Scalar>(
    blocks: &[NdArray<T>],
    abs_eb: f64,
    level_configs: &[LevelConfig],
    block_levels: u32,
    metric: QualityMetric,
    global_range: f64,
    candidates: &[(f64, f64)],
) -> ((f64, f64), TrialTable) {
    let mut trials = Trials::new(
        blocks,
        abs_eb,
        level_configs,
        block_levels,
        metric,
        global_range,
    );
    let winner = walk(&mut trials, candidates);
    let table = candidates
        .iter()
        .map(|&(a, b)| ((a, b), trials.get(a, b, 1.0)))
        .collect();
    (winner, table)
}

/// Make blocks "anchored" for tuning: the engine treats their base grid
/// as lossless anchors, so nothing extra is needed; this helper exists to
/// document the invariant and is used by tests.
pub fn block_anchor_check<T: Scalar>(block: &NdArray<T>, levels: u32) -> usize {
    base_point_count(block.shape(), 1usize << levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QozConfig;
    use qoz_datagen::{Dataset, SizeClass};
    use qoz_predict::InterpKind;
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
    fn autotune_table_covers_all_candidates() {
        let blocks = smooth_blocks();
        let configs = vec![LevelConfig::default(); 4];
        let cands = vec![(1.0, 1.0), (1.5, 2.0)];
        let (winner, table) = autotune_with_table(
            &blocks,
            1e-3,
            &configs,
            4,
            QualityMetric::CompressionRatio,
            2.0,
            &cands,
        );
        assert_eq!(table.len(), 2);
        assert!(cands.contains(&winner));
        // CR mode: winner must have the minimum bits.
        let min = table
            .iter()
            .map(|(_, r)| r.bits_per_point)
            .fold(f64::INFINITY, f64::min);
        let w = table.iter().find(|(c, _)| *c == winner).unwrap().1;
        assert!(w.bits_per_point <= min + 1e-9);
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
        let b = NdArray::<f32>::zeros(Shape::d2(17, 17));
        assert_eq!(block_anchor_check(&b, 4), 4);
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
            Trials::new(
                &self.blocks,
                self.abs_eb,
                &self.configs,
                self.levels,
                self.metric,
                self.range,
            )
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
    /// outcomes, and skip at least the grid's duplicate level bounds.
    fn check_against_oracle<T: Scalar>(data: &NdArray<T>, grid_duplicates: usize) {
        let cands = QozConfig::default().param_candidates();
        for metric in METRICS {
            let setup = Setup::new(data, metric);
            let (want, oracle_runs) = setup.oracle(&cands);
            let mut trials = setup.trials();
            assert_eq!(walk(&mut trials, &cands), want, "{metric:?}");
            assert!(
                trials.done.len() + grid_duplicates <= oracle_runs,
                "{metric:?}: {} of {oracle_runs} trials run",
                trials.done.len()
            );
            for &(a, b) in &cands {
                let (got, fresh) = (trials.get(a, b, 1.0), setup.fresh_trial(a, b, 1.0));
                assert_eq!(
                    (got.bits_per_point.to_bits(), got.metric.to_bits()),
                    (fresh.bits_per_point.to_bits(), fresh.metric.to_bits()),
                    "{metric:?} ({a}, {b})"
                );
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
            let mut trials = Trials::new(
                &blocks,
                1e-3,
                &configs,
                levels,
                QualityMetric::CompressionRatio,
                2.0,
            );
            walk(&mut trials, &cands);
            assert_eq!(trials.done.len(), distinct, "{levels} levels");
        }
    }
}
