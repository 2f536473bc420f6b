//! Hand-rolled JSON rendering: the one string and float renderer of the
//! workspace. `kglint --json` (bundle and source rules) and every bench
//! artifact (`BENCH_kernels.json`, `BENCH_scale.json`,
//! `BENCH_serve.json`) write through it.
//!
//! The workspace is dependency-free (see `vendor/README.md`), so this is
//! flat, hand-assembled JSON: stable key order, one finding object per
//! line. CI diffs these documents structurally, so field order is part
//! of the contract.

use crate::diagnostic::{Diagnostic, Subject};

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `v` as a JSON number with six decimals, or `null` when it is
/// not finite (a model bug upstream, but a report must never be invalid
/// JSON). The kernel gate compares checksums in exactly this rendering.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

/// Renders one diagnostic as a single-line JSON object.
///
/// Source findings carry `file` and `line` fields so CI can anchor a
/// diff to a location; every finding carries the rendered `subject`.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"code\": {}, \"severity\": {}, ",
        json_str(d.code),
        json_str(d.severity.label())
    ));
    if let Subject::Source { file, line } = &d.subject {
        s.push_str(&format!("\"file\": {}, \"line\": {line}, ", json_str(file)));
    }
    s.push_str(&format!(
        "\"subject\": {}, \"message\": {}}}",
        json_str(&d.subject.to_string()),
        json_str(&d.message)
    ));
    s
}

/// Renders a finding list as a JSON array with `indent` leading spaces
/// per element.
pub fn findings_json(diags: &[Diagnostic], indent: usize) -> String {
    if diags.is_empty() {
        return "[]".to_owned();
    }
    let pad = " ".repeat(indent);
    let items: Vec<String> = diags.iter().map(|d| format!("{pad}{}", diagnostic_json(d))).collect();
    format!("[\n{}\n{}]", items.join(",\n"), " ".repeat(indent.saturating_sub(2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;

    #[test]
    fn escapes_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_render_six_decimals_and_non_finite_as_null() {
        assert_eq!(json_f64(1.0), "1.000000");
        assert_eq!(json_f64(-101878.669671), "-101878.669671");
        assert_eq!(json_f64(0.1234567), "0.123457");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn source_findings_carry_file_and_line() {
        let d = Diagnostic::new(
            "SA005",
            Severity::Warning,
            Subject::Source { file: "crates/data/src/synth.rs".into(), line: 294 },
            "truncating cast",
        );
        let j = diagnostic_json(&d);
        assert!(j.contains("\"file\": \"crates/data/src/synth.rs\""));
        assert!(j.contains("\"line\": 294"));
        assert!(j.contains("\"code\": \"SA005\""));
    }

    #[test]
    fn bundle_findings_have_subject_but_no_file() {
        let d = Diagnostic::new("KG001", Severity::Error, Subject::Triple(7), "dangling");
        let j = diagnostic_json(&d);
        assert!(j.contains("\"subject\": \"triple 7\""));
        assert!(!j.contains("\"file\""));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        assert_eq!(findings_json(&[], 4), "[]");
    }
}
