//! The check runner and its aggregated result.

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::{default_rules, is_store_finding, Rule};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Per-rule cap on detailed findings; beyond it the runner collapses the
/// tail into one aggregate diagnostic so a systematically broken input
/// doesn't produce megabytes of output.
const MAX_DETAILED_PER_RULE: usize = 16;

/// The outcome of running a rule set over a [`CheckBundle`].
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every finding, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Runs the default rule set.
    pub fn run(bundle: &CheckBundle<'_>) -> Self {
        Self::run_rules(bundle, &default_rules())
    }

    /// Runs an explicit rule set, in order. Once a rule reports an
    /// unsound interaction store (MD007), each later rule that reads
    /// through the store's accessors is skipped with one diagnostic.
    pub fn run_rules(bundle: &CheckBundle<'_>, rules: &[Box<dyn Rule>]) -> Self {
        let mut diagnostics = Vec::new();
        let mut store_unsound = false;
        for rule in rules {
            if store_unsound && rule.reads_store() {
                diagnostics.push(Diagnostic::new(
                    rule.code(),
                    Severity::Warning,
                    Subject::Dataset,
                    "skipped: layout unsound (see MD007)",
                ));
                continue;
            }
            let mut found = rule.check(bundle);
            store_unsound |= found.iter().any(is_store_finding);
            if found.len() > MAX_DETAILED_PER_RULE {
                let extra = found.len() - MAX_DETAILED_PER_RULE;
                let worst = found.iter().map(|d| d.severity).max().unwrap_or(Severity::Info);
                found.truncate(MAX_DETAILED_PER_RULE);
                found.push(Diagnostic::new(
                    rule.code(),
                    worst,
                    Subject::Dataset,
                    format!("... and {extra} more findings from this rule"),
                ));
            }
            diagnostics.extend(found);
        }
        Self { diagnostics }
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether this report fails the run: errors always do; in strict
    /// mode warnings do too.
    pub fn fails(&self, strict: bool) -> bool {
        self.has_errors() || (strict && self.count(Severity::Warning) > 0)
    }

    /// The distinct rule codes that produced findings.
    pub fn codes_fired(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Renders the report as text: one line per finding plus a summary
    /// line, or a clean-bill line when empty.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "kglint: {} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn tiny_scenario_is_clean_of_errors() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let report = CheckReport::run(&CheckBundle::new(&synth.dataset));
        assert_eq!(report.count(Severity::Error), 0, "unexpected errors:\n{}", report.render());
        assert!(!report.fails(false));
    }

    #[test]
    fn runner_caps_flooding_rules() {
        struct Noisy;
        impl Rule for Noisy {
            fn code(&self) -> &'static str {
                "ZZ999"
            }
            fn summary(&self) -> &'static str {
                "emits far too much"
            }
            fn check(&self, _: &CheckBundle<'_>) -> Vec<Diagnostic> {
                (0..100)
                    .map(|i| {
                        Diagnostic::new("ZZ999", Severity::Warning, Subject::Entity(i), "noise")
                    })
                    .collect()
            }
        }
        let synth = generate(&ScenarioConfig::tiny(), 1);
        let bundle = CheckBundle::new(&synth.dataset);
        let report = CheckReport::run_rules(&bundle, &[Box::new(Noisy)]);
        assert_eq!(report.diagnostics.len(), MAX_DETAILED_PER_RULE + 1);
        assert!(report.diagnostics.last().unwrap().message.contains("84 more"));
        assert!(report.fails(true));
        assert!(!report.has_errors());
    }
}
