//! `qozbench compare A.json... -- B.json...`: per (workload, metric),
//! each side's median and quartiles, the change, and a verdict against
//! the bounds in `BENCHMARK.json`.
//!
//! The seed picks the inputs, so runs pair by seed. Both sides must
//! cover the same seeds for every workload they share, or the comparison
//! is refused. The change is the median over seeds of B's median against
//! A's median for that seed. Running A and B alternately, seed by seed,
//! also cancels the slow phases of a shared machine, which last longer
//! than a run.
//!
//! Verdicts follow the benchmark's regression rule. `worse`: the change
//! is worse than the metric's bound. `unresolved`: A's own runs spread
//! (interquartile range over median) wider than the bound, so a change
//! that size cannot be told from noise — unless every B run beats every
//! A run, which is `ok`. Per-layer metrics have no bound and get `-`.
//! Exits 1 when any verdict is `worse`.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// `(better, bound)` of a bounded metric.
type Bound = (String, f64);

/// One metric's values on one side, by seed.
pub type Runs = BTreeMap<u64, Vec<f64>>;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// The bounds of every end-to-end metric in `BENCHMARK.json`.
fn bounds(bench: &Value) -> BTreeMap<String, Bound> {
    bench
        .get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// `(workload, metric) -> runs` over the result files of one side.
fn collect(files: &[String]) -> Result<BTreeMap<(String, String), Runs>, String> {
    let mut out: BTreeMap<(String, String), Runs> = BTreeMap::new();
    for f in files {
        let doc = json::parse(&read(f)?).map_err(|e| format!("{f}: {e}"))?;
        let not_ours = || format!("{f}: not a qozbench --out result file");
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(not_ours)?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(not_ours)? as u64;
        let Some(Value::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{f}: no result metrics"));
        };
        for (name, v) in metrics {
            if let Some(x) = v.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .entry(seed)
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// Both sides must cover the same seeds: runs of other seeds measure
/// other inputs.
fn same_seeds(workload: &str, a: &Runs, b: &Runs) -> Result<(), String> {
    if a.keys().eq(b.keys()) {
        Ok(())
    } else {
        Err(format!(
            "{workload}: A covers seeds {:?}, B covers seeds {:?}; compare runs of the same seeds",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ))
    }
}

/// Every value of a side.
fn pooled(r: &Runs) -> Vec<f64> {
    r.values().flatten().copied().collect()
}

/// B against A, paired by seed: the median over seeds of
/// `median_B(seed) / median_A(seed) - 1`. Both sides cover the same
/// seeds.
pub fn change(a: &Runs, b: &Runs) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .map(|(seed, va)| median(&b[seed]) / median(va) - 1.0)
        .collect();
    median(&ratios)
}

/// The verdict for one metric; both sides cover the same, non-empty set
/// of seeds.
pub fn verdict(a: &Runs, b: &Runs, bound: Option<&Bound>) -> &'static str {
    let Some((better, bound)) = bound else {
        return "-";
    };
    let lower = better == "lower";
    let worse_by = if lower { change(a, b) } else { -change(a, b) };
    let (pa, pb) = (pooled(a), pooled(b));
    let (q1, q3) = quartiles(&pa).expect("non-empty");
    let spread = (q3 - q1) / median(&pa).abs();
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    if spread > *bound {
        let all_better = pb.iter().all(|&y| pa.iter().all(|&x| beats(y, x)));
        if all_better {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse_by > *bound {
        "worse"
    } else {
        "ok"
    }
}

/// Entry point; returns the exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut seen_sep = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            "--" => seen_sep = true,
            f if seen_sep => b.push(f.to_string()),
            f => a.push(f.to_string()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err(
            "usage: qozbench compare [--bench BENCHMARK.json] A.json... -- B.json...".into(),
        );
    }
    let bench_doc = json::parse(&read(&bench)?).map_err(|e| format!("{bench}: {e}"))?;
    let bounds = bounds(&bench_doc);
    let (sa, sb) = (collect(&a)?, collect(&b)?);
    let shared: Vec<_> = sa
        .iter()
        .filter_map(|(key, ra)| Some((key, ra, sb.get(key)?)))
        .collect();
    for ((workload, _), ra, rb) in &shared {
        same_seeds(workload, ra, rb)?;
    }
    println!(
        "{:<14} {:<28} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut worse = 0;
    for ((workload, metric), ra, rb) in shared {
        let bound = bounds.get(metric);
        let v = verdict(ra, rb, bound);
        worse += usize::from(v == "worse");
        let side = |r: &Runs| {
            let v = pooled(r);
            let (q1, q3) = quartiles(&v).expect("non-empty");
            format!("{:.4} [{:.4}, {:.4}]", median(&v), q1, q3)
        };
        let bound_txt = bound.map_or("-".to_string(), |b| format!("{:.1}%", b.1 * 100.0));
        println!(
            "{workload:<14} {metric:<28} {:>30} {:>30} {:>+8.2}% {bound_txt:>6}  {v}",
            side(ra),
            side(rb),
            100.0 * change(ra, rb),
        );
    }
    println!("{worse} worse");
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(better: &str, bound: f64) -> Bound {
        (better.to_string(), bound)
    }

    /// Runs of one seed.
    fn one(v: &[f64]) -> Runs {
        Runs::from([(1, v.to_vec())])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = one(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let v = |x: &[f64], bound: &Bound| verdict(&a, &one(x), Some(bound));
        // Within the bound either way.
        assert_eq!(v(&[104.0, 104.5, 103.5], &b("lower", 0.05)), "ok");
        // Worse than the bound in the metric's bad direction.
        assert_eq!(v(&[108.0, 109.0, 107.0], &b("lower", 0.05)), "worse");
        assert_eq!(v(&[92.0, 91.0, 93.0], &b("higher", 0.05)), "worse");
        // Better is never worse.
        assert_eq!(v(&[80.0, 81.0], &b("lower", 0.05)), "ok");
        // A spread wider than the bound cannot resolve a small change...
        let noisy = one(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        let lower = b("lower", 0.05);
        assert_eq!(
            verdict(&noisy, &one(&[101.0, 99.0]), Some(&lower)),
            "unresolved"
        );
        // ...unless every B run beats every A run.
        assert_eq!(verdict(&noisy, &one(&[70.0, 75.0]), Some(&lower)), "ok");
        // No bound, no verdict.
        assert_eq!(verdict(&a, &a, None), "-");
    }

    #[test]
    fn change_pairs_runs_by_seed() {
        // B is 10% slower than A on both seeds. Pooled medians would
        // read +120%: A ran seed 1 more often, B seed 2.
        let a = Runs::from([(1, vec![10.0, 10.0, 10.0]), (2, vec![20.0])]);
        let slower = Runs::from([(1, vec![11.0]), (2, vec![22.0, 22.0, 22.0])]);
        assert!((change(&a, &slower) - 0.1).abs() < 1e-12);
        // Runs of one cost per seed spread little, so 10% is resolved.
        let a = Runs::from([(1, vec![10.0, 10.2]), (2, vec![10.1]), (3, vec![9.9])]);
        let slower = Runs::from([(1, vec![11.11]), (2, vec![11.11]), (3, vec![10.89])]);
        assert!((change(&a, &slower) - 0.1).abs() < 1e-3);
        assert_eq!(verdict(&a, &slower, Some(&b("lower", 0.05))), "worse");
        assert_eq!(verdict(&a, &slower, Some(&b("lower", 0.2))), "ok");
    }

    #[test]
    fn sides_must_cover_the_same_seeds() {
        let runs = |seeds: &[u64]| -> Runs { seeds.iter().map(|&s| (s, vec![1.0])).collect() };
        let a = runs(&[1, 2, 3]);
        assert!(same_seeds("field-dump", &a, &runs(&[3, 2, 1])).is_ok());
        assert!(same_seeds("field-dump", &a, &runs(&[1, 2, 4])).is_err());
        assert!(same_seeds("field-dump", &a, &runs(&[1, 2])).is_err());
    }
}
