//! The source-rule registry: determinism and hot-path checks over the
//! token stream.
//!
//! | code | severity | scope | checks |
//! |---|---|---|---|
//! | `SA001` | error | models, kge, linalg, bench | `HashMap`/`HashSet` in deterministic crates (iteration order feeds accumulators or output) |
//! | `SA002` | error | models, kge, linalg | wall-clock (`Instant`/`SystemTime`) or unseeded RNG in model/trainer logic |
//! | `SA003` | warning | models, kge, linalg, bench | `par`-worker results combined in completion order (channels, `lock().push`) |
//! | `SA004` | warning | core, bench | float `==`/`!=` against a float literal in metrics code |
//! | `SA005` | warning | data, graph | truncating `as u32`/`u16`/`u8` casts on id spaces |
//! | `SA006` | warning | models, kge | `unwrap`/`expect` inside `supervise_fit`-covered fit paths |
//! | `SA007` | error | store, kge, models, core | direct `File::create`/`fs::write` in persistence paths — use the atomic writer |
//! | `SA008` | error | serve | heap allocation inside serving request-path functions (`serve`/`rank_candidates`/`candidates_for`) — use the `ServeScratch` arena |
//! | `MD006` | warning | models, kge | allocating vector ops inside epoch loops (lexer-accurate port) |
//!
//! `SA000` (unused or malformed `kglint::allow`) is emitted by the
//! engine in [`super`], not by a rule here. Test code (`#[cfg(test)]`
//! modules, `#[test]` functions) is exempt from every rule.

use super::context::FileCx;
use super::lexer::{Tok, TokKind};
use crate::diagnostic::{Diagnostic, Severity, Subject};

/// One lexed, context-annotated source file, as the rules see it.
#[derive(Debug)]
pub struct SourceFile {
    /// Path used in diagnostics (relative to the scan root).
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// Per-token scope context.
    pub cx: FileCx,
}

/// A single source-level check over a [`SourceFile`].
pub trait SrcRule {
    /// Stable diagnostic code (`SA001`, …).
    fn code(&self) -> &'static str;
    /// Severity of every finding this rule emits.
    fn severity(&self) -> Severity;
    /// One-line description of what the rule checks.
    fn summary(&self) -> &'static str;
    /// Path prefixes (relative to the workspace root) the rule covers.
    fn scopes(&self) -> &'static [&'static str];
    /// Runs the rule over one file already known to be in scope.
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic>;

    /// Whether `path` falls under one of the rule's scope prefixes.
    fn applies_to(&self, path: &str) -> bool {
        self.scopes().iter().any(|s| path.starts_with(s))
    }
}

/// The full source-rule registry, in stable code order.
pub fn src_rules() -> Vec<Box<dyn SrcRule>> {
    vec![
        Box::new(HashIteration),
        Box::new(WallClockRng),
        Box::new(CompletionOrder),
        Box::new(FloatEquality),
        Box::new(TruncatingIdCast),
        Box::new(FitPathUnwrap),
        Box::new(RawPersistenceWrite),
        Box::new(ServePathAllocation),
        Box::new(EpochAllocation),
    ]
}

/// Crates whose numeric results must be bit-identical at any thread
/// count — the determinism surface of PR 4/PR 6.
const DETERMINISM_CRATES: &[&str] =
    &["crates/models/", "crates/kge/", "crates/linalg/", "crates/bench/"];

fn diag(rule: &dyn SrcRule, file: &SourceFile, line: usize, message: String) -> Diagnostic {
    Diagnostic::new(
        rule.code(),
        rule.severity(),
        Subject::Source { file: file.path.clone(), line },
        message,
    )
}

/// True when token `i` is an identifier equal to `name`.
fn ident_is(tokens: &[Tok], i: usize, name: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

/// True when token `i` is punctuation equal to `p`.
fn punct_is(tokens: &[Tok], i: usize, p: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

/// `SA001` — hash-ordered collections in deterministic crates.
///
/// `HashMap`/`HashSet` iteration order varies run to run (and with the
/// hasher's seed), so any accumulation or output fed from it silently
/// breaks the bit-identity contract. The fix is `BTreeMap`/`BTreeSet`
/// or an explicitly sorted snapshot before iteration.
pub struct HashIteration;

impl SrcRule for HashIteration {
    fn code(&self) -> &'static str {
        "SA001"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn summary(&self) -> &'static str {
        "HashMap/HashSet in a deterministic crate — iteration order is nondeterministic; \
         use BTreeMap/BTreeSet or a sorted snapshot"
    }
    fn scopes(&self) -> &'static [&'static str] {
        DETERMINISM_CRATES
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, tok) in file.tokens.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            if tok.text == "HashMap" || tok.text == "HashSet" {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{}` in a crate whose results must be bit-identical across runs — \
                         iteration order is nondeterministic; use `BTree{}` or sort a snapshot \
                         before iterating",
                        tok.text,
                        &tok.text[4..],
                    ),
                ));
            }
        }
        out
    }
}

/// `SA002` — wall-clock reads or unseeded RNG in model/trainer logic.
///
/// `Instant::now`/`SystemTime::now` make training trajectories depend
/// on machine load, and `thread_rng`/`from_entropy` reseed from the OS.
/// Wall-clock belongs only in the bench layer; every RNG in a model
/// must be seeded from the run configuration.
pub struct WallClockRng;

impl SrcRule for WallClockRng {
    fn code(&self) -> &'static str {
        "SA002"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn summary(&self) -> &'static str {
        "wall-clock read or unseeded RNG in model/trainer logic — wall-clock may only flow \
         into the bench layer; RNGs must be seeded from config"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/models/", "crates/kge/", "crates/linalg/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            let clock = (tok.text == "Instant" || tok.text == "SystemTime")
                && punct_is(toks, i + 1, "::")
                && ident_is(toks, i + 2, "now");
            let rng = tok.text == "thread_rng" || tok.text == "from_entropy";
            if clock {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{}::now()` in model/trainer logic — timing belongs in the bench \
                         layer, not in anything that shapes results",
                        tok.text
                    ),
                ));
            } else if rng {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{}` draws OS entropy — seed the RNG from the run configuration \
                         (e.g. `StdRng::seed_from_u64`) so runs are reproducible",
                        tok.text
                    ),
                ));
            }
        }
        out
    }
}

/// `SA003` — parallel results combined in completion order.
///
/// The deterministic pool (`kgrec_linalg::par`) returns results in
/// *input index order*; combining worker output through a channel or by
/// pushing into a shared `Mutex`-guarded collection recovers them in
/// *completion order* instead, which varies with scheduling.
pub struct CompletionOrder;

impl SrcRule for CompletionOrder {
    fn code(&self) -> &'static str {
        "SA003"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        "parallel results combined in completion order (channel recv or lock().push) — \
         use index-addressed slots / par_map's input-order return"
    }
    fn scopes(&self) -> &'static [&'static str] {
        DETERMINISM_CRATES
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            if tok.text == "mpsc" || tok.text == "Receiver" {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{}` collects worker results in completion order — use \
                         index-addressed result slots (see `kgrec_linalg::par`)",
                        tok.text
                    ),
                ));
            } else if tok.text == "recv" && punct_is(toks, i + 1, "(") {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    "channel `recv()` yields results in completion order — use \
                     index-addressed result slots (see `kgrec_linalg::par`)"
                        .to_owned(),
                ));
            } else if tok.text == "lock" && punct_is(toks, i + 1, "(") {
                // `…lock()… .push(…)` / `.extend(…)` within one statement:
                // growth of a shared collection under a lock appends in
                // whatever order workers arrive.
                let mut j = i + 1;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.kind == TokKind::Punct && (t.text == ";" || t.text == "{" || t.text == "}")
                    {
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && (t.text == "push" || t.text == "extend")
                        && punct_is(toks, j + 1, "(")
                    {
                        out.push(diag(
                            self,
                            file,
                            t.line,
                            format!(
                                "`lock()…{}()` grows a shared collection in worker-completion \
                                 order — use index-addressed slots, or suppress with a reason \
                                 if order provably cannot matter",
                                t.text
                            ),
                        ));
                        break;
                    }
                    j += 1;
                }
            }
        }
        out
    }
}

/// `SA004` — float `==`/`!=` in metrics code.
///
/// Exact float equality in a metric is almost always a rounding-fragile
/// guard; restructure the comparison (`> 0.0`, `abs() < eps`, integer
/// counts) so the metric cannot flip on the last ulp.
pub struct FloatEquality;

impl SrcRule for FloatEquality {
    fn code(&self) -> &'static str {
        "SA004"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        "float ==/!= against a float literal in metrics code — restructure the comparison \
         so the metric cannot flip on the last ulp"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/core/", "crates/bench/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Punct {
                continue;
            }
            if tok.text != "==" && tok.text != "!=" {
                continue;
            }
            let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
            // Allow for a unary minus: `== -1.0`.
            let next_float = match toks.get(i + 1) {
                Some(t) if t.kind == TokKind::Float => true,
                Some(t) if t.kind == TokKind::Punct && t.text == "-" => {
                    toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Float)
                }
                _ => false,
            };
            if prev_float || next_float {
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "exact float `{}` comparison in metrics code — prefer an inequality \
                         or an epsilon, so results cannot flip on the last ulp",
                        tok.text
                    ),
                ));
            }
        }
        out
    }
}

/// `SA005` — truncating `as` casts on id spaces.
///
/// Ids are dense `u32`s; a raw `as u32` on a `usize` index silently
/// wraps past 4 billion and scrambles every table indexed by the id.
/// `kgrec_graph::id32` is the checked narrowing that panics instead.
pub struct TruncatingIdCast;

impl SrcRule for TruncatingIdCast {
    fn code(&self) -> &'static str {
        "SA005"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        "truncating `as u32`/`u16`/`u8` cast in an id-space crate — use the checked \
         `kgrec_graph::id32` narrowing"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/data/", "crates/graph/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident || tok.text != "as" {
                continue;
            }
            if let Some(target) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if matches!(target.text.as_str(), "u32" | "u16" | "u8") {
                    out.push(diag(
                        self,
                        file,
                        tok.line,
                        format!(
                            "`as {}` silently truncates a wide index into the id space — \
                             use the checked `kgrec_graph::id32` (or `try_from`) instead",
                            target.text
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `SA006` — `unwrap`/`expect` inside supervised fit paths.
///
/// `supervise_fit` turns a panic into a retry/degraded outcome, but a
/// panic that a `Result` or a restructure could avoid still costs the
/// model its training run. Covered functions: `fit` and anything
/// starting with `train` (the KGE trainer entry points), closures
/// included.
pub struct FitPathUnwrap;

/// Whether `name` is one of the fit-path entry points SA006 covers.
fn covered_fit_fn(name: &str) -> bool {
    name == "fit" || name.starts_with("train")
}

impl SrcRule for FitPathUnwrap {
    fn code(&self) -> &'static str {
        "SA006"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        "unwrap/expect inside a supervise_fit-covered fit path — return an Err or \
         restructure so the invariant is expressed without a panic"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/models/", "crates/kge/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            if (tok.text == "unwrap" || tok.text == "expect") && punct_is(toks, i + 1, "(") {
                let Some(f) = file.cx.fn_of[i] else { continue };
                let fn_name = &file.cx.fns[f];
                if covered_fit_fn(fn_name) {
                    out.push(diag(
                        self,
                        file,
                        tok.line,
                        format!(
                            "`{}()` inside `fn {fn_name}` — a panic here costs the model its \
                             supervised training run; return an Err or restructure the \
                             invariant away",
                            tok.text
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `SA007` — raw file writes in model/persistence paths.
///
/// A crash between `File::create` and the final `write_all` leaves a torn
/// file exactly where a reader expects a snapshot — the failure mode the
/// recovery matrix proves the store survives, but only because every
/// persistence path goes through `kgrec_store::atomic::write_atomic`
/// (temp file + fsync + rename + parent fsync). The atomic writer itself
/// and the fault injector (which plants torn files on purpose) carry
/// `kglint::allow(SA007, …)` with their reasons.
pub struct RawPersistenceWrite;

impl SrcRule for RawPersistenceWrite {
    fn code(&self) -> &'static str {
        "SA007"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn summary(&self) -> &'static str {
        "direct File::create/fs::write in a persistence path — a crash mid-write leaves a \
         torn file; use kgrec_store::atomic::write_atomic"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/store/", "crates/kge/", "crates/models/", "crates/core/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            let creates = tok.text == "File"
                && punct_is(toks, i + 1, "::")
                && ident_is(toks, i + 2, "create");
            let writes = tok.text == "fs"
                && punct_is(toks, i + 1, "::")
                && ident_is(toks, i + 2, "write")
                && punct_is(toks, i + 3, "(");
            if creates || writes {
                let call = if creates { "File::create" } else { "fs::write" };
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{call}` in a persistence path — a crash mid-write leaves a torn \
                         file where a reader expects a snapshot; use \
                         `kgrec_store::atomic::write_atomic` (temp + fsync + rename)",
                    ),
                ));
            }
        }
        out
    }
}

/// `SA008` — heap allocation on the serving request path.
///
/// The two-stage serving pipeline promises allocation-free steady-state
/// requests: every buffer a request needs lives in the reusable
/// per-worker `kgrec_serve::ServeScratch` arena, sized once at startup.
/// An allocation that sneaks into the request path shows up as tail
/// latency (and, under load, allocator contention) that no unit test
/// catches. Covered functions — closures included — are the request
/// path proper: `serve`, `rank_candidates`, and `candidates_for`.
/// Setup, ingest, and reload code in the same crate may allocate
/// freely. A provably-amortized allocation (e.g. a grow-once path)
/// can be waived with `kglint::allow(SA008, reason)`.
pub struct ServePathAllocation;

/// Whether `name` is one of the request-path functions SA008 covers.
fn covered_serve_fn(name: &str) -> bool {
    name == "serve" || name == "rank_candidates" || name == "candidates_for"
}

impl SrcRule for ServePathAllocation {
    fn code(&self) -> &'static str {
        "SA008"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn summary(&self) -> &'static str {
        "heap allocation inside a serving request-path function — pre-size the buffer in \
         ServeScratch instead"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/serve/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || tok.kind != TokKind::Ident {
                continue;
            }
            let Some(f) = file.cx.fn_of[i] else { continue };
            if !covered_serve_fn(&file.cx.fns[f]) {
                continue;
            }
            let ctor = matches!(tok.text.as_str(), "Vec" | "String" | "Box")
                && punct_is(toks, i + 1, "::")
                && ident_is(toks, i + 2, "new");
            let mac = matches!(tok.text.as_str(), "vec" | "format") && punct_is(toks, i + 1, "!");
            let method =
                matches!(tok.text.as_str(), "to_vec" | "collect" | "to_string" | "to_owned")
                    && punct_is(toks, i + 1, "(");
            if ctor || mac || method {
                let call = if ctor {
                    format!("{}::new()", tok.text)
                } else if mac {
                    format!("{}!", tok.text)
                } else {
                    format!(".{}()", tok.text)
                };
                out.push(diag(
                    self,
                    file,
                    tok.line,
                    format!(
                        "`{call}` allocates inside `fn {}` on the serving request path — \
                         pre-size the buffer in `ServeScratch` (or waive a provably-amortized \
                         allocation with a reasoned `kglint::allow`)",
                        file.cx.fns[f]
                    ),
                ));
            }
        }
        out
    }
}

/// `MD006` — allocating vector ops inside epoch loops.
///
/// Lexer-accurate port of the PR 5 line heuristic: the kernel layer
/// keeps an allocating and an `*_into`/in-place flavor of every binary
/// vector op; allocating inside a training epoch loop is the regression
/// the kernel work removed. Unlike the predecessor this sees through
/// block comments, strings, and multi-line loop headers.
pub struct EpochAllocation;

/// The allocating `kgrec_linalg::vector` calls with in-place variants.
const ALLOCATING_OPS: &[&str] = &["add", "sub", "hadamard", "softmax"];

impl SrcRule for EpochAllocation {
    fn code(&self) -> &'static str {
        "MD006"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        "allocating vector op inside an epoch loop — use the `*_into` or in-place kernel \
         variant"
    }
    fn scopes(&self) -> &'static [&'static str] {
        &["crates/models/", "crates/kge/"]
    }
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let toks = &file.tokens;
        let mut out = Vec::new();
        for (i, tok) in toks.iter().enumerate() {
            if file.cx.in_test[i] || !file.cx.in_epoch_loop[i] {
                continue;
            }
            if tok.kind == TokKind::Ident
                && tok.text == "vector"
                && punct_is(toks, i + 1, "::")
                && toks.get(i + 2).is_some_and(|t| ALLOCATING_OPS.contains(&t.text.as_str()))
                && punct_is(toks, i + 3, "(")
            {
                out.push(diag(
                    self,
                    file,
                    toks[i + 2].line,
                    format!(
                        "allocating `vector::{}(…)` inside an epoch loop — use the `*_into` \
                         or in-place kernel variant",
                        toks[i + 2].text
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let rules = src_rules();
        let codes: BTreeSet<&str> = rules.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), rules.len(), "duplicate rule codes");
        for r in &rules {
            assert!(!r.summary().is_empty());
            assert!(!r.scopes().is_empty());
            assert_eq!(r.code().len(), 5, "malformed code {}", r.code());
        }
    }

    #[test]
    fn scoping_is_prefix_based() {
        let rule = TruncatingIdCast;
        assert!(rule.applies_to("crates/data/src/synth.rs"));
        assert!(rule.applies_to("crates/graph/src/ids.rs"));
        assert!(!rule.applies_to("crates/models/src/lib.rs"));
    }
}
