//! Diagnostic values produced by the checker rules.

use std::fmt;

/// How bad a finding is.
///
/// Ordered: `Info < Warning < Error`, so `max()` over a report yields the
/// worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; never fails a check run.
    Info,
    /// Suspicious; fails a run only in strict mode.
    Warning,
    /// A defect that will corrupt training or evaluation; always fails.
    Error,
}

impl Severity {
    /// Display label (`info` / `warning` / `error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subject {
    /// The dataset bundle as a whole.
    Dataset,
    /// The knowledge graph as a whole.
    Graph,
    /// The train/test split.
    Split,
    /// The CTR evaluation pair set.
    EvalSet,
    /// The model registry / taxonomy tables.
    Registry,
    /// A graph entity.
    Entity(u32),
    /// A relation type.
    Relation(u32),
    /// A stored triple, by index into the head-major sorted fact order
    /// (`graph.triple_at(i)` / `graph.iter_triples()`).
    Triple(usize),
    /// An item.
    Item(u32),
    /// A user.
    User(u32),
    /// A named model.
    Model(String),
    /// A meta-path schema, rendered as `r1->r2->r3`.
    MetaPath(String),
    /// A model hyper-parameter.
    Param {
        /// Owning model name.
        model: String,
        /// Parameter name.
        name: String,
    },
    /// A named float buffer attached for auditing.
    Values(String),
    /// A source location (`path:line`), used by the source-scanning rules.
    Source {
        /// Path of the offending file, as given to the scanner.
        file: String,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Dataset => write!(f, "dataset"),
            Subject::Graph => write!(f, "graph"),
            Subject::Split => write!(f, "split"),
            Subject::EvalSet => write!(f, "eval-set"),
            Subject::Registry => write!(f, "registry"),
            Subject::Entity(e) => write!(f, "entity {e}"),
            Subject::Relation(r) => write!(f, "relation {r}"),
            Subject::Triple(i) => write!(f, "triple {i}"),
            Subject::Item(i) => write!(f, "item {i}"),
            Subject::User(u) => write!(f, "user {u}"),
            Subject::Model(m) => write!(f, "model {m}"),
            Subject::MetaPath(p) => write!(f, "meta-path {p}"),
            Subject::Param { model, name } => write!(f, "param {model}.{name}"),
            Subject::Values(n) => write!(f, "values {n}"),
            Subject::Source { file, line } => write!(f, "{file}:{line}"),
        }
    }
}

/// One checker finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule code (`KG001`, `DS002`, `MD003`, …).
    pub code: &'static str,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Human-readable description of the defect.
    pub message: String,
    /// What the finding is about.
    pub subject: Subject,
}

impl Diagnostic {
    /// Convenience constructor.
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        subject: Subject,
        message: impl Into<String>,
    ) -> Self {
        Self { code, severity, message: message.into(), subject }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}: {}", self.severity, self.code, self.subject, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_worst_last() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(
            [Severity::Warning, Severity::Error, Severity::Info].iter().max(),
            Some(&Severity::Error)
        );
    }

    #[test]
    fn display_is_greppable() {
        let d = Diagnostic::new(
            "KG001",
            Severity::Error,
            Subject::Triple(7),
            "tail entity 99 out of range (graph has 10 entities)",
        );
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("[KG001]"));
        assert!(s.contains("triple 7"));
    }
}
