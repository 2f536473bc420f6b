//! `kgbench compare A B`: two sets of runs, metric by metric.
//!
//! `A` is the parent, `B` the change; each is a directory of result
//! files `<workload>.<anything>.json` holding one result line each. Runs
//! pair up in file-name order. For every workload and end-to-end metric
//! the verdict follows the measuring rules of this benchmark's README:
//!
//! * **unresolved** — either side's interquartile range, as a share of
//!   its median, is wider than the metric's bound, and not every run of
//!   B beats every run of A;
//! * **improved** — B wins at least 9 of 10 pairs and the medians differ
//!   by more than A's interquartile range (or, when the spread is too
//!   wide, every B run beats every A run);
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **no change** — otherwise.

use crate::json::Json;
use crate::stats::quartiles;
use std::path::Path;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Rule {
                name: field("name")?.str().ok_or("name is not a string")?.to_owned(),
                unit: field("unit")?.str().ok_or("unit is not a string")?.to_owned(),
                higher_is_better: field("better")?.str() == Some("higher"),
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The comparison's outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, beyond the noise.
    Improved,
    /// Within the bound.
    NoChange,
    /// B is worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric; also returns B's pair wins and the
/// number of pairs.
pub fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> (Verdict, usize, usize) {
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let spread = ((a3 - a1) / am).abs().max(((b3 - b1) / bm).abs());
    let worse_by = if rule.higher_is_better { (am - bm) / am } else { (bm - am) / am };
    let v = if spread > rule.bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if wins * 10 >= pairs * 9 && better(bm, am) && (bm - am).abs() > a3 - a1 {
        Verdict::Improved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::NoChange
    };
    (v, wins, pairs)
}

/// Result lines of one directory, grouped by workload (the file-name
/// prefix before the first `.`), files in name order.
pub fn load_runs(dir: &Path) -> Result<Vec<(String, Vec<Json>)>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut groups: Vec<(String, Vec<Json>)> = Vec::new();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default().to_owned();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
        let run = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        match groups.iter_mut().find(|(w, _)| *w == workload) {
            Some((_, runs)) => runs.push(run),
            None => groups.push((workload, vec![run])),
        }
    }
    Ok(groups)
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num()).collect()
}

/// Compares directories `a` and `b` under `rules`; returns the report and
/// whether any metric regressed.
pub fn compare(a: &Path, b: &Path, rules: &[Rule]) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<13} {:<15} {:>34} {:>34} {:>7}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    ));
    for (workload, ra) in &runs_a {
        let Some((_, rb)) = runs_b.iter().find(|(w, _)| w == workload) else {
            out.push_str(&format!("{workload:<13} (no runs in B)\n"));
            continue;
        };
        for rule in rules {
            let (va, vb) = (values(ra, &rule.name), values(rb, &rule.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(&va, &vb, rule);
            regressed |= v == Verdict::Regressed;
            let show = |xs: &[f64]| {
                let [q1, m, q3] = quartiles(xs);
                format!("{m:.4} [{q1:.4}, {q3:.4}] {}", rule.unit)
            };
            out.push_str(&format!(
                "{workload:<13} {:<15} {:>34} {:>34} {:>7}  {}\n",
                rule.name,
                show(&va),
                show(&vb),
                format!("{wins}/{pairs}"),
                v.label()
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> Rule {
        Rule { name: "m".into(), unit: "s".into(), higher_is_better, bound }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * f64::from(i - 5)).collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let lower = rule(false, 0.10);
        let a = around(100.0, 0.5);
        // Same distribution: no change.
        assert_eq!(verdict(&a, &a, &lower).0, Verdict::NoChange);
        // 20 % faster on every pair: improved.
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let (v, wins, pairs) = verdict(&a, &faster, &lower);
        assert_eq!((v, wins, pairs), (Verdict::Improved, 10, 10));
        // 20 % slower: regressed.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, &lower).0, Verdict::Regressed);
        // 5 % slower, inside the bound: no change.
        let slightly: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &slightly, &lower).0, Verdict::NoChange);
        // Wide spread on one side: unresolved.
        let noisy = around(100.0, 8.0);
        assert_eq!(verdict(&a, &noisy, &lower).0, Verdict::Unresolved);
        // Wide spread, but every B run beats every A run: improved.
        let wide_a = around(100.0, 8.0);
        let far: Vec<f64> = wide_a.iter().map(|x| x - 100.0).collect();
        assert_eq!(verdict(&wide_a, &far, &lower).0, Verdict::Improved);
        // Direction matters: higher is better.
        let higher = rule(true, 0.10);
        assert_eq!(verdict(&a, &faster, &higher).0, Verdict::Regressed);
        assert_eq!(verdict(&a, &slower, &higher).0, Verdict::Improved);
        // Wins 9/10 but the medians sit within A's IQR: not a gain.
        let mut close = a.clone();
        for x in close.iter_mut().take(9) {
            *x -= 0.1;
        }
        assert_eq!(verdict(&a, &close, &lower).0, Verdict::NoChange);
    }

    #[test]
    fn rules_come_from_the_benchmark_file() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "throughput_ops", "unit": "1/s", "better": "higher", "bound": 0.15}]}"#,
        )
        .unwrap();
        let r = rules(&doc).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r[0].higher_is_better && r[1].higher_is_better);
        assert_eq!(r[1].bound, 0.15);
    }

    #[test]
    fn compares_two_directories_of_result_lines() {
        let root = std::env::temp_dir().join(format!("kgbench-compare-{}", std::process::id()));
        let line = |v: f64| {
            format!("{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}")
        };
        for (side, scale) in [("a", 1.0), ("b", 2.0)] {
            let dir = root.join(side);
            std::fs::create_dir_all(&dir).unwrap();
            for i in 0..5 {
                let v = scale * (10.0 + f64::from(i) * 0.01);
                std::fs::write(
                    dir.join(format!("serve-hot.{i}.json")),
                    format!("noise\n{}\n", line(v)),
                )
                .unwrap();
            }
        }
        let (report, regressed) =
            compare(&root.join("a"), &root.join("b"), &[rule(false, 0.1)]).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert!(regressed, "{report}");
        assert!(report.contains("serve-hot") && report.contains("regressed"), "{report}");
    }
}
