//! `detlint` — token-stream static analysis for `kglint --src`.
//!
//! The repo's core bet is that metrics, parameters, and losses are
//! bit-identical at any thread count. Proptests sample that property;
//! this module *proves the conventions behind it hold at the source
//! level*, before anything runs: no hash-ordered iteration feeding
//! accumulators, no wall-clock or OS entropy in trainer logic, no
//! completion-order reductions, no truncating id casts, no panics in
//! supervised fit paths, no allocating vector ops in epoch loops.
//!
//! Pipeline: `lexer` turns a file into a token stream (comments —
//! including the `/* */` blocks the old line scanner missed — strings,
//! raw strings, lifetimes, float vs integer literals all handled);
//! `context` annotates every token with brace-scope facts (test code,
//! epoch-loop bodies, enclosing `fn`); `rules` holds the registry of
//! path-scoped checks (`SA0xx` + the ported `MD006`). The engine here
//! runs the applicable rules over each file, applies inline
//! suppressions, and reports unused or malformed suppressions as
//! `SA000`.
//!
//! # Suppressions
//!
//! A finding is suppressed by a line comment on the same line or the
//! line directly above it:
//!
//! ```text
//! /* not this - block comments are ignored */
//! ...
//! /// kglint::allow(SA003, reason why order cannot matter)   <- doc text, inert
//! ...
//! let x = w.lock().unwrap_or_else(PoisonError::into_inner);
//! ```
//!
//! The live form is a plain `//` comment: `kglint::allow(CODE, reason)`
//! with one or more codes and a mandatory reason. A suppression that
//! matches no finding — the rule stopped firing, the code moved — is
//! itself a finding (`SA000`), so stale allows cannot accumulate.

pub(crate) mod context;
pub(crate) mod lexer;
pub(crate) mod rules;

pub use context::FileCx;
pub use lexer::{Tok, TokKind};
pub use rules::{src_rules, SourceFile, SrcRule};

use crate::diagnostic::{Diagnostic, Severity, Subject};
use std::path::Path;

/// Code under which the engine reports unused/malformed suppressions.
pub(crate) const SUPPRESSION_CODE: &str = "SA000";

/// The result of a source scan.
#[derive(Debug, Default)]
pub struct SrcScanReport {
    /// Findings that survived suppression, ordered by (file, line, code).
    pub findings: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of findings removed by `kglint::allow` suppressions.
    pub suppressed: usize,
}

impl SrcScanReport {
    /// Whether the scan fails the run: errors always do; in strict mode
    /// warnings do too (same semantics as bundle reports).
    pub fn fails(&self, strict: bool) -> bool {
        let errors = self.findings.iter().filter(|d| d.severity == Severity::Error).count();
        errors > 0 || (strict && !self.findings.is_empty())
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|d| d.severity == severity).count()
    }
}

/// Scans one file's source text with the default registry; `path` both
/// labels diagnostics and selects which rules apply (path-prefix
/// scoping), so fixtures pass workspace-relative paths like
/// `crates/models/src/foo.rs`.
pub fn scan_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let mut report = SrcScanReport::default();
    scan_into(path, src, &src_rules(), &mut report);
    report.findings
}

/// Scans one file and reports suppression statistics too.
pub fn scan_source_report(path: &str, src: &str) -> SrcScanReport {
    let mut report = SrcScanReport::default();
    scan_into(path, src, &src_rules(), &mut report);
    report
}

fn scan_into(path: &str, src: &str, rules: &[Box<dyn SrcRule>], report: &mut SrcScanReport) {
    let lexed = lexer::lex(src);
    let cx = context::build(&lexed.tokens);
    let file = SourceFile { path: path.to_owned(), tokens: lexed.tokens, cx };
    let mut findings: Vec<Diagnostic> = Vec::new();
    for rule in rules {
        if rule.applies_to(path) {
            findings.extend(rule.check(&file));
        }
    }

    // Apply suppressions: an allow on line L covers findings of its
    // codes on line L (trailing comment) and line L+1 (preceding-line
    // comment, the usual form under rustfmt).
    let known: Vec<&'static str> = rules.iter().map(|r| r.code()).collect();
    let mut used = vec![false; lexed.allows.len()];
    findings.retain(|d| {
        let line = match &d.subject {
            Subject::Source { line, .. } => *line,
            _ => return true,
        };
        for (ai, allow) in lexed.allows.iter().enumerate() {
            if allow.error.is_none()
                && (allow.line == line || allow.line + 1 == line)
                && allow.codes.iter().any(|c| c == d.code)
            {
                used[ai] = true;
                report.suppressed += 1;
                return false;
            }
        }
        true
    });

    // Unused, malformed, or unknown-code suppressions are findings.
    for (ai, allow) in lexed.allows.iter().enumerate() {
        let mk = |msg: String| {
            Diagnostic::new(
                SUPPRESSION_CODE,
                Severity::Warning,
                Subject::Source { file: path.to_owned(), line: allow.line },
                msg,
            )
        };
        if let Some(err) = &allow.error {
            findings.push(mk(format!("malformed kglint::allow — {err}")));
            continue;
        }
        if let Some(unknown) = allow.codes.iter().find(|c| !known.contains(&c.as_str())) {
            findings.push(mk(format!(
                "kglint::allow names unknown rule code `{unknown}` — known source rules: {}",
                known.join(", ")
            )));
            continue;
        }
        if !used[ai] {
            findings.push(mk(format!(
                "unused kglint::allow({}) — the rule no longer fires here; delete the comment",
                allow.codes.join(", ")
            )));
        }
    }

    findings.sort_by(|a, b| {
        let key = |d: &Diagnostic| match &d.subject {
            Subject::Source { line, .. } => (*line, d.code),
            _ => (0, d.code),
        };
        key(a).cmp(&key(b))
    });
    report.findings.extend(findings);
    report.files_scanned += 1;
}

/// Scans every crate's `src/` tree under `root/crates`, labelling
/// diagnostics with paths relative to `root`. File order (and therefore
/// finding order) is sorted, so output is stable across platforms.
pub fn scan_workspace(root: &Path) -> std::io::Result<SrcScanReport> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let crate_dir = entry?.path();
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let rules = src_rules();
    let mut report = SrcScanReport::default();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        scan_into(&rel, &text, &rules, &mut report);
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_consumes_finding_and_is_not_reported() {
        let src = "fn f() {\n// kglint::allow(SA005, fixture exercises the suppression path)\nlet x = n as u32;\n}\n";
        let diags = scan_source("crates/data/src/fixture.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        let report = scan_source_report("crates/data/src/fixture.rs", src);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// kglint::allow(SA005, nothing here any more)\nfn f() {}\n";
        let diags = scan_source("crates/data/src/fixture.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "SA000");
        assert!(diags[0].message.contains("unused"));
    }

    #[test]
    fn out_of_scope_files_are_clean() {
        // `as u32` is only an SA005 matter inside the id-space crates.
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        assert!(scan_source("crates/check/src/fixture.rs", src).is_empty());
        assert_eq!(scan_source("crates/data/src/fixture.rs", src).len(), 1);
    }

    #[test]
    fn findings_are_ordered_by_line_then_code() {
        let src = "fn fit() {\nlet a = x.unwrap();\nuse std::collections::HashMap;\n}\n";
        let diags = scan_source("crates/models/src/fixture.rs", src);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["SA006", "SA001"], "{diags:?}");
    }
}
