//! `kgbench` — one seeded benchmark for kgrec's serving tier, its ingest
//! path and the offline evaluation of the survey's model roster.
//!
//! ```text
//! kgbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--spans DIR] [--out DIR]
//! kgbench compare A B [--benchmark FILE]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is its result: `{"correct", "attempted", "failed",
//! "metrics"}`, the end-to-end metrics with `--trace 0` and the
//! per-layer metrics with `--trace 1`. Without it every workload runs in
//! a child process of its own, so peak memory and crashes stay per
//! workload; `--out DIR` keeps each child's result line as
//! `DIR/<workload>.seed<N>.json`, the input of `compare`. A failed check
//! makes the exit code 1; bad usage makes it 2. See `README.md`.

mod compare;
mod json;
mod mirror;
mod stats;
mod trace;
mod traffic;
mod workload;

use json::{quote, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Metric, Options, Outcome, Workload, THREADS, WORKLOADS};

const USAGE: &str = "usage: kgbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans DIR] [--out DIR]\n       kgbench compare A B [--benchmark FILE]";

/// Parsed command line of a run.
struct Args {
    workload: Option<Workload>,
    opts: Options,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Options { seed: 2024, seconds: 10.0, trace: false, spans_dir: None },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                parsed.opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?
            }
            "--seconds" => {
                parsed.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            "--spans" => parsed.opts.spans_dir = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".to_owned() };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(m.name), quote(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<22} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn run_one(w: Workload, opts: &Options) -> ExitCode {
    let outcome = workload::run(w, opts);
    print_metrics(&outcome.metrics);
    println!("  checks: {} attempted, {} failed", outcome.attempted, outcome.failed);
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("kgbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let o = &args.opts;
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "kgbench: seed {}, {} s per workload, {THREADS} worker thread(s), host_threads {host}",
        o.seed, o.seconds
    );
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()]).args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ]);
        if let Some(dir) = &o.spans_dir {
            cmd.arg("--spans").arg(dir);
        }
        let child = match cmd.stderr(Stdio::inherit()).output() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("kgbench: cannot start {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        print!("{stdout}");
        let correct = Json::parse(last).ok().and_then(|r| r.get("correct").cloned())
            == Some(Json::Bool(true));
        if !child.status.success() || !correct {
            eprintln!("kgbench: {} failed ({})", w.name(), child.status);
            ok = false;
        }
        if let Some(dir) = &args.out {
            let suffix = if o.trace { "trace" } else { "json" };
            let path = dir.join(format!("{}.seed{}.{suffix}", w.name(), o.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, format!("{last}\n")));
            if let Err(e) = written {
                eprintln!("kgbench: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut dirs, mut benchmark) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a file")?);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err("compare needs two directories".to_owned());
    };
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rules = compare::rules(&Json::parse(&text)?)?;
    let (report, regressed) = compare::compare(Path::new(a), Path::new(b), &rules)?;
    print!("{report}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    // Model fits size their worker pools from this variable.
    std::env::set_var(kgrec_linalg::par::THREADS_ENV, THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("kgbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("kgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match parsed.workload {
        Some(w) => run_one(w, &parsed.opts),
        None => run_all(&parsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = parse_run(&strings(&[
            "--workload",
            "serve-cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeCold));
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (7, 3.0, true));
        assert!(parse_run(&strings(&["--trace", "2"])).is_err());
        assert!(parse_run(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "p50_us", value: 1.5, unit: "us" }],
        };
        let v = Json::parse(&result_line(&outcome)).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").and_then(|m| m.get("p50_us")).and_then(|m| m.get("value")),
            Some(&Json::Num(1.5))
        );
    }
}
