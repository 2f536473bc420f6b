//! Kernel microbenchmark recording: per-kernel nanoseconds-per-op,
//! serialized to `BENCH_kernels.json`.
//!
//! `kernel_bench` is the writer. The file tracks the numeric hot-path
//! kernels (dot, the `*_into` vector ops, blocked matmul, select-based
//! top-K, fused KGE scores) so a kernel regression is visible before it
//! smears into end-to-end wall time. Flat JSON rendered through
//! `kgrec_check::json` — the workspace is dependency-free.
//!
//! Timings are wall-clock and machine-dependent; the `checksum` field is
//! deterministic per kernel. It keeps the optimizer from deleting the
//! measured work, and the baseline gate compares it exactly, so a kernel
//! whose output drifts fails the gate however fast it runs.

use kgrec_check::json::{json_f64, json_str};
use std::io::Write;
use std::path::Path;

/// Default output path, relative to the invocation directory.
pub const KERNEL_BENCH_PATH: &str = "BENCH_kernels.json";

/// One measured kernel.
#[derive(Debug, Clone)]
pub struct KernelEntry {
    /// Kernel name, e.g. `dot/256`.
    pub name: String,
    /// Problem size (vector length or matrix elements).
    pub n: usize,
    /// Repetitions timed.
    pub reps: usize,
    /// Total wall-clock seconds for all repetitions.
    pub total_secs: f64,
    /// Nanoseconds per repetition.
    pub ns_per_op: f64,
    /// Deterministic result checksum (keeps the work observable).
    pub checksum: f64,
}

impl KernelEntry {
    /// Builds an entry from a raw measurement.
    pub fn new(name: &str, n: usize, reps: usize, total_secs: f64, checksum: f64) -> Self {
        let ns_per_op = if reps > 0 { total_secs * 1e9 / reps as f64 } else { 0.0 };
        Self { name: name.to_owned(), n, reps, total_secs, ns_per_op, checksum }
    }
}

/// The kernel benchmark report.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Whether the run used the reduced `--quick` sizes.
    pub quick: bool,
    /// Measured kernels, in execution order.
    pub entries: Vec<KernelEntry>,
}

impl KernelReport {
    /// Creates an empty report.
    pub fn new(quick: bool) -> Self {
        Self { quick, entries: Vec::new() }
    }

    /// Appends one measurement.
    pub fn push(&mut self, entry: KernelEntry) {
        self.entries.push(entry);
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"generator\": \"kernel_bench\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"kernel_count\": {},\n", self.entries.len()));
        s.push_str("  \"kernels\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": {}, \"n\": {}, \"reps\": {}, \"total_secs\": {}, \
                 \"ns_per_op\": {}, \"checksum\": {}}}{}\n",
                json_str(&e.name),
                e.n,
                e.reps,
                json_f64(e.total_secs),
                json_f64(e.ns_per_op),
                json_f64(e.checksum),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON document to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Compares this (fresh) report against a committed baseline and
    /// returns every kernel that regressed past the gate: fresh ns/op
    /// above `baseline × max_ratio + slack_ns`. The multiplicative
    /// threshold catches real slowdowns; the small absolute slack keeps
    /// sub-nanosecond kernels from tripping the gate on timer jitter.
    ///
    /// Kernels present only on one side are ignored — a renamed or new
    /// kernel is a baseline-refresh event, not a regression.
    pub fn regressions_against(
        &self,
        baseline: &[BaselineRow],
        max_ratio: f64,
        slack_ns: f64,
    ) -> Vec<KernelRegression> {
        self.entries
            .iter()
            .filter_map(|e| {
                let base = baseline.iter().find(|b| b.name == e.name)?.ns_per_op;
                (e.ns_per_op > base * max_ratio + slack_ns).then(|| KernelRegression {
                    name: e.name.clone(),
                    baseline_ns: base,
                    fresh_ns: e.ns_per_op,
                })
            })
            .collect()
    }

    /// Every kernel whose fresh checksum, rendered as the report writes
    /// it, differs from its baseline row's: the kernel's output drifted.
    /// Checksums are deterministic, so a mismatch is never timing noise
    /// and re-measuring cannot clear it. Rows without a checksum, and
    /// kernels present only on one side, are ignored.
    pub fn checksum_mismatches(&self, baseline: &[BaselineRow]) -> Vec<ChecksumMismatch> {
        self.entries
            .iter()
            .filter_map(|e| {
                let want = baseline.iter().find(|b| b.name == e.name)?.checksum.as_ref()?;
                let got = json_f64(e.checksum);
                (got != *want).then(|| ChecksumMismatch {
                    name: e.name.clone(),
                    baseline: want.clone(),
                    fresh: got,
                })
            })
            .collect()
    }
}

/// One kernel row of a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Kernel name.
    pub name: String,
    /// Baseline nanoseconds per op.
    pub ns_per_op: f64,
    /// The `checksum` field exactly as written (`None` when absent).
    pub checksum: Option<String>,
}

/// One kernel whose fresh checksum differs from its baseline row.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksumMismatch {
    /// Kernel name.
    pub name: String,
    /// Checksum recorded in the baseline.
    pub baseline: String,
    /// Checksum of the fresh run, rendered as the report writes it.
    pub fresh: String,
}

/// One kernel whose fresh timing exceeded the regression gate.
#[derive(Debug, Clone)]
pub struct KernelRegression {
    /// Kernel name.
    pub name: String,
    /// Baseline nanoseconds per op.
    pub baseline_ns: f64,
    /// Fresh (regressed) nanoseconds per op.
    pub fresh_ns: f64,
}

impl KernelRegression {
    /// Fresh-over-baseline slowdown factor.
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.fresh_ns / self.baseline_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Extracts one [`BaselineRow`] per kernel (name, `ns_per_op` and
/// `checksum`) from a report previously written by
/// [`KernelReport::to_json`].
///
/// This reads the writer's own one-kernel-per-line layout — it is a
/// baseline loader, not a general JSON parser (the workspace is
/// dependency-free by constraint). Lines that don't look like kernel
/// entries, and entries whose `ns_per_op` was serialized as `null`, are
/// skipped.
pub fn parse_baseline(json: &str) -> Vec<BaselineRow> {
    /// The raw text of `"field": value` on one entry line.
    fn field<'a>(rest: &'a str, field: &str) -> Option<&'a str> {
        let val = rest.split(&format!("\"{field}\": ")).nth(1)?;
        Some(val.split([',', '}']).next().unwrap_or("").trim())
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("{\"kernel\": \"") else { continue };
        let Some(end) = rest.find('"') else { continue };
        let rest_fields = &rest[end..];
        let Some(Ok(ns)) = field(rest_fields, "ns_per_op").map(str::parse::<f64>) else {
            continue;
        };
        out.push(BaselineRow {
            name: rest[..end].to_owned(),
            ns_per_op: ns,
            checksum: field(rest_fields, "checksum").map(str::to_owned),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_is_total_over_reps() {
        let e = KernelEntry::new("dot/256", 256, 1000, 0.002, 1.5);
        assert!((e.ns_per_op - 2000.0).abs() < 1e-6);
        let z = KernelEntry::new("noop", 0, 0, 0.0, 0.0);
        assert_eq!(z.ns_per_op, 0.0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let mut r = KernelReport::new(true);
        r.push(KernelEntry::new("dot/256", 256, 10, 0.001, 3.25));
        r.push(KernelEntry::new("mat\"mul", 4096, 5, f64::NAN, 0.0));
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"kernel_count\": 2"));
        assert!(json.contains("mat\\\"mul"), "quotes must be escaped: {json}");
        assert!(json.contains("\"total_secs\": null"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn baseline_round_trips_through_the_writer() {
        let mut r = KernelReport::new(true);
        r.push(KernelEntry::new("dot/64", 64, 1000, 0.001, 1.0));
        r.push(KernelEntry::new("matmul/24x48x24", 27648, 20, 0.004, 2.0));
        let base = parse_baseline(&r.to_json());
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].name, "dot/64");
        assert!((base[0].ns_per_op - r.entries[0].ns_per_op).abs() < 1e-3);
        assert_eq!(base[0].checksum.as_deref(), Some("1.000000"));
        assert_eq!(base[1].name, "matmul/24x48x24");
    }

    #[test]
    fn baseline_parser_skips_nulls_and_noise() {
        let doc = "{\n  \"quick\": true,\n  \"kernels\": [\n    \
                   {\"kernel\": \"a\", \"n\": 1, \"reps\": 0, \"total_secs\": null, \
                   \"ns_per_op\": null, \"checksum\": 0.0},\n    \
                   {\"kernel\": \"b\", \"n\": 1, \"reps\": 1, \"total_secs\": 0.1, \
                   \"ns_per_op\": 5.25, \"checksum\": 0.0}\n  ]\n}\n";
        let base = parse_baseline(doc);
        assert_eq!(
            base,
            vec![BaselineRow {
                name: "b".to_owned(),
                ns_per_op: 5.25,
                checksum: Some("0.0".to_owned())
            }]
        );
    }

    #[test]
    fn gate_flags_only_true_regressions() {
        let row = |name: &str, ns_per_op| BaselineRow {
            name: name.to_owned(),
            ns_per_op,
            checksum: None,
        };
        let base = vec![row("dot/64", 100.0), row("axpy/64", 0.4)];
        let mut fresh = KernelReport::new(true);
        // 1.30x the baseline: past the 20% gate.
        fresh.push(KernelEntry::new("dot/64", 64, 1000, 130.0e-9 * 1000.0, 0.0));
        // 2x a sub-nanosecond kernel: absorbed by the absolute slack.
        fresh.push(KernelEntry::new("axpy/64", 64, 1000, 0.8e-9 * 1000.0, 0.0));
        // Unknown kernel: ignored, not a regression.
        fresh.push(KernelEntry::new("new_kernel/8", 8, 1000, 1.0, 0.0));
        let regs = fresh.regressions_against(&base, 1.2, 0.5);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].name, "dot/64");
        assert!((regs[0].ratio() - 1.3).abs() < 1e-9);
        // A 10% slowdown stays green.
        let mut ok = KernelReport::new(true);
        ok.push(KernelEntry::new("dot/64", 64, 1000, 110.0e-9 * 1000.0, 0.0));
        assert!(ok.regressions_against(&base, 1.2, 0.5).is_empty());
    }

    #[test]
    fn gate_flags_checksum_drift() {
        let mut base_report = KernelReport::new(true);
        base_report.push(KernelEntry::new("dot/64", 64, 1000, 0.001, -101878.669671));
        base_report.push(KernelEntry::new("axpy/64", 64, 1000, 0.001, 12175.511388));
        base_report.push(KernelEntry::new("nan/8", 8, 1000, 0.001, f64::NAN));
        let base = parse_baseline(&base_report.to_json());
        let mut fresh = KernelReport::new(true);
        // Same output, much faster: a timing change is no drift.
        fresh.push(KernelEntry::new("dot/64", 64, 1000, 0.0001, -101878.669671));
        // Last printed digit moved: drift.
        fresh.push(KernelEntry::new("axpy/64", 64, 1000, 0.001, 12175.511389));
        // `null` on both sides matches.
        fresh.push(KernelEntry::new("nan/8", 8, 1000, 0.001, f64::INFINITY));
        // Unknown kernel: a baseline-refresh event, not drift.
        fresh.push(KernelEntry::new("new_kernel/8", 8, 1000, 0.001, 1.0));
        assert_eq!(
            fresh.checksum_mismatches(&base),
            vec![ChecksumMismatch {
                name: "axpy/64".to_owned(),
                baseline: "12175.511388".to_owned(),
                fresh: "12175.511389".to_owned(),
            }]
        );
        // A row written without a checksum field is never compared.
        let legacy = parse_baseline(
            "    {\"kernel\": \"axpy/64\", \"n\": 64, \"reps\": 1, \"ns_per_op\": 43.8}\n",
        );
        assert_eq!(legacy[0].checksum, None);
        assert!(fresh.checksum_mismatches(&legacy).is_empty());
    }

    #[test]
    fn write_to_round_trips() {
        let dir = std::env::temp_dir().join("kgrec_kernel_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(KERNEL_BENCH_PATH);
        let mut r = KernelReport::new(false);
        r.push(KernelEntry::new("axpy/128", 128, 100, 0.01, 2.0));
        r.write_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.to_json());
        std::fs::remove_file(&path).ok();
    }
}
