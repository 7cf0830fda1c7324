//! Stage-span accounting on the warm compress path.
//!
//! The `qoz_telemetry` stage timers (tune, predict+quantize, encode,
//! entropy) must account for the compress wall time and must be cheap
//! enough to leave on. Both are timing checks, so the one test here is
//! `#[ignore]`d and meant for the optimized build:
//!
//! ```text
//! cargo test --release --test stage_spans -- --ignored --nocapture
//! ```
//!
//! The timers are process-global. Keep this the only test in its file:
//! any other test in the same binary would add to them.

use qoz_suite::api::{BackendId, Session};
use qoz_suite::codec::ErrorBound;
use qoz_suite::datagen::{self, Dataset, SizeClass};
use qoz_suite::telemetry;
use qoz_suite::tensor::{NdArray, Shape};
use std::time::Instant;

const SNAPSHOTS: usize = 6;
const TRIALS: usize = 3;

/// Over a tiny six-snapshot series, per backend:
///
/// * **Coverage.** Warm repeats of an unchanged snapshot (the daemon's
///   plan-cache-hit path) record no tune span, and the remaining spans
///   cover 75–102% of the measured wall time. Only stream assembly runs
///   outside a span. The evolving series is not used here: a retune
///   mid-series runs engine passes inside the tune span, and the sums
///   would double-count.
/// * **Overhead.** A warm steady-state loop, best of three with spans on
///   and off, may cost at most 2% more with spans on, plus a 2 ms floor
///   so timer jitter does not decide at this size.
#[test]
#[ignore]
fn warm_spans_cover_the_wall_time_and_cost_at_most_two_percent() {
    let base = Dataset::Miranda.shape(SizeClass::Tiny);
    let shape4 = Shape::new(&[SNAPSHOTS, base.dim(0), base.dim(1), base.dim(2)]);
    let field = datagen::time_series_like(shape4, 0xC0FFEE);
    let snapshots: Vec<NdArray<f32>> = field
        .as_slice()
        .chunks_exact(base.len())
        .map(|s| NdArray::from_vec(base, s.to_vec()))
        .collect();
    let stages = telemetry::stages();

    // One warm steady-state loop: tune once off the clock, then time the
    // remaining snapshots on the warmed pipeline.
    let steady_secs = |session: &Session| -> f64 {
        let mut pipe = session.pipeline::<f32>();
        pipe.compress(&snapshots[0]).unwrap();
        let t0 = Instant::now();
        for s in &snapshots[1..] {
            pipe.compress(s).unwrap();
        }
        t0.elapsed().as_secs_f64()
    };

    for id in [BackendId::Qoz, BackendId::Sz3] {
        let session = Session::builder()
            .backend(id)
            .bound(ErrorBound::Rel(1e-3))
            .build()
            .unwrap();

        let mut pipe = session.pipeline::<f32>();
        pipe.compress(&snapshots[0]).unwrap();
        stages.reset();
        let t0 = Instant::now();
        for _ in 1..SNAPSHOTS {
            pipe.compress(&snapshots[0]).unwrap();
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            stages.tune.count(),
            0,
            "{}: a warm repeat of an unchanged snapshot re-tuned",
            id.name()
        );
        let spans_ms: f64 = stages.all().iter().map(|t| t.sum_ns() as f64 / 1e6).sum();
        let coverage = spans_ms / wall_ms.max(1e-9);
        assert!(
            coverage <= 1.02,
            "{}: stage sums exceed wall time ({spans_ms:.2}ms of {wall_ms:.2}ms)",
            id.name()
        );
        assert!(
            coverage >= 0.75,
            "{}: stage spans cover only {:.0}% of steady-state wall time; \
             a compression stage lost its span",
            id.name(),
            coverage * 100.0
        );

        let mut best_on = f64::INFINITY;
        let mut best_off = f64::INFINITY;
        for _ in 0..TRIALS {
            telemetry::set_enabled(true);
            best_on = best_on.min(steady_secs(&session));
            telemetry::set_enabled(false);
            best_off = best_off.min(steady_secs(&session));
        }
        telemetry::set_enabled(true);
        let overhead_pct = (best_on / best_off.max(1e-12) - 1.0) * 100.0;
        println!(
            "{}: spans cover {:.1}% of {wall_ms:.2} ms; on {:.2} ms vs off {:.2} ms ({overhead_pct:+.2}%)",
            id.name(),
            coverage * 100.0,
            best_on * 1e3,
            best_off * 1e3
        );
        assert!(
            best_on <= best_off * 1.02 + 0.002,
            "{}: telemetry spans cost {overhead_pct:.2}% on the warm steady-state loop \
             (enabled {best_on:.4}s vs disabled {best_off:.4}s)",
            id.name()
        );
    }
}
