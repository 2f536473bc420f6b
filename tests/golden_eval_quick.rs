//! Golden regression tests: `eval_suite --quick --no-timing` must
//! reproduce `tests/golden/eval_quick.txt`, and `ablation --quick
//! --no-timing` must reproduce `tests/golden/ablation_quick.txt`, byte
//! for byte — at one thread *and* at four. This pins two contracts at
//! once:
//!
//! 1. the evaluation pipeline is deterministic across processes (seeded
//!    RNG everywhere, no hash-order leakage into metrics);
//! 2. the worker pool is invisible in the output: thread count changes
//!    wall-clock only, which `--no-timing` masks.
//!
//! Regenerate after an intentional metrics change with:
//! `cargo run --release -p kgrec-bench --bin eval_suite -- --quick \
//!  --no-timing > tests/golden/eval_quick.txt` (and likewise `--bin
//! ablation` into `tests/golden/ablation_quick.txt`).

use std::process::Command;

const GOLDEN: &str = include_str!("golden/eval_quick.txt");
const ABLATION_GOLDEN: &str = include_str!("golden/ablation_quick.txt");

fn quick_stdout(binary: &str, threads: &str) -> String {
    let out = Command::new(binary)
        .args(["--quick", "--no-timing", "--threads", threads])
        .output()
        .unwrap_or_else(|e| panic!("spawning {binary}: {e}"));
    assert!(
        out.status.success(),
        "{binary} --threads {threads} exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn quick_suite_stdout(threads: &str) -> String {
    quick_stdout(env!("CARGO_BIN_EXE_eval_suite"), threads)
}

fn quick_ablation_stdout(threads: &str) -> String {
    quick_stdout(env!("CARGO_BIN_EXE_ablation"), threads)
}

/// Diff-style assertion: on mismatch, name the first differing line so
/// the failure is readable without an external diff tool.
fn assert_matches(actual: &str, golden: &str, label: &str) {
    if actual == golden {
        return;
    }
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{label}: first divergence at line {}", n + 1);
    }
    panic!(
        "{label}: output is a strict prefix/extension of the golden file \
         ({} vs {} lines)",
        actual.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn quick_suite_matches_golden_serially() {
    assert_matches(&quick_suite_stdout("1"), GOLDEN, "--threads 1");
}

#[test]
fn quick_suite_matches_golden_on_four_threads() {
    assert_matches(&quick_suite_stdout("4"), GOLDEN, "--threads 4");
}

#[test]
fn quick_ablation_matches_golden_serially() {
    assert_matches(&quick_ablation_stdout("1"), ABLATION_GOLDEN, "ablation --threads 1");
}

#[test]
fn quick_ablation_matches_golden_on_four_threads() {
    assert_matches(&quick_ablation_stdout("4"), ABLATION_GOLDEN, "ablation --threads 4");
}
