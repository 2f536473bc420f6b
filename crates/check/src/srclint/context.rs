//! Per-token scope context over a lexed token stream.
//!
//! The rules need to know, for any token, three things the raw stream
//! does not say: is it inside test code (`#[cfg(test)]` module or
//! `#[test]` function — exempt from every rule), is it inside an
//! *epoch loop* (a `for`/`while` whose header mentions `epoch`), and
//! which named `fn` encloses it (so the fit-path rule can scope itself
//! to `fit`/`train*` bodies, closures included).
//!
//! One linear pass tracks brace depth and a stack of *interesting*
//! scopes — test regions, named functions, epoch-loop bodies — each
//! recorded with the depth at which its `{` opened so the matching `}`
//! pops it. `impl Trait for Type` headers and `for<'a>` higher-ranked
//! bounds are recognized so their `for` keyword never opens a loop
//! scope. This is still a heuristic, not a parser — a brace-bearing
//! closure inside a `for` header would fool it — but it is exact for
//! rustfmt-normalized source, and it sees through everything the old
//! line scanner could not (block comments, strings, multi-line
//! headers).

use super::lexer::{Tok, TokKind};

/// Per-token context flags; index-aligned with the token stream.
#[derive(Debug, Default)]
pub struct FileCx {
    /// Token is inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Token is inside the body of a loop whose header mentions `epoch`.
    pub in_epoch_loop: Vec<bool>,
    /// Index into [`FileCx::fns`] of the innermost enclosing named `fn`.
    pub fn_of: Vec<Option<usize>>,
    /// Names of every `fn` seen, in order of appearance.
    pub fns: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Test,
    Fn(usize),
    EpochLoop,
}

/// Builds the context for one token stream.
pub(crate) fn build(tokens: &[Tok]) -> FileCx {
    let mut cx = FileCx {
        in_test: Vec::with_capacity(tokens.len()),
        in_epoch_loop: Vec::with_capacity(tokens.len()),
        fn_of: Vec::with_capacity(tokens.len()),
        fns: Vec::new(),
    };
    let mut depth: i64 = 0;
    let mut scopes: Vec<(Kind, i64)> = Vec::new();
    // Pending markers: set while scanning an item header, attached to
    // the next `{`, cleared by `;` (trait method declarations, items
    // without bodies).
    let mut pending_test = false;
    let mut pending_fn: Option<usize> = None;
    let mut pending_loop: Option<bool> = None; // Some(mentions_epoch)
    let mut pending_impl = false;

    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        // Label this token with the state *before* its own effect: the
        // `{` of a header belongs outside the scope it opens.
        let in_test = scopes.iter().any(|(k, _)| *k == Kind::Test);
        cx.in_test.push(in_test);
        cx.in_epoch_loop.push(scopes.iter().any(|(k, _)| *k == Kind::EpochLoop));
        cx.fn_of.push(scopes.iter().rev().find_map(|(k, _)| match k {
            Kind::Fn(f) => Some(*f),
            _ => None,
        }));

        match (tok.kind, tok.text.as_str()) {
            (TokKind::Punct, "#") if matches!(tokens.get(i + 1), Some(t) if t.text == "[") => {
                // Attribute: scan the balanced `[...]`, looking for
                // `cfg(test)` or bare `test`.
                let (is_test_attr, end) = scan_attribute(tokens, i + 1);
                if is_test_attr {
                    pending_test = true;
                }
                // Label the attribute tokens and skip past them so their
                // contents never reach pending-state handling below.
                for _ in i + 1..end {
                    cx.in_test.push(in_test);
                    cx.in_epoch_loop.push(*cx.in_epoch_loop.last().unwrap_or(&false));
                    cx.fn_of.push(*cx.fn_of.last().unwrap_or(&None));
                }
                i = end;
                continue;
            }
            (TokKind::Ident, "fn") => {
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    cx.fns.push(name.text.clone());
                    pending_fn = Some(cx.fns.len() - 1);
                }
            }
            (TokKind::Ident, "impl") => pending_impl = true,
            (TokKind::Ident, "for") => {
                let hrtb = matches!(tokens.get(i + 1), Some(t) if t.text == "<");
                if !pending_impl && !hrtb && pending_loop.is_none() {
                    pending_loop = Some(false);
                }
            }
            (TokKind::Ident, "while") if pending_loop.is_none() => {
                pending_loop = Some(false);
            }
            (TokKind::Ident, name) => {
                if let Some(epoch) = pending_loop.as_mut() {
                    if name.to_ascii_lowercase().contains("epoch") {
                        *epoch = true;
                    }
                }
            }
            (TokKind::Punct, "{") => {
                // Priority: a test attribute taints the whole item no
                // matter what else the header declared.
                if pending_test {
                    scopes.push((Kind::Test, depth));
                } else if pending_loop == Some(true) {
                    scopes.push((Kind::EpochLoop, depth));
                } else if let Some(f) = pending_fn {
                    scopes.push((Kind::Fn(f), depth));
                }
                pending_test = false;
                pending_fn = None;
                pending_loop = None;
                pending_impl = false;
                depth += 1;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                while scopes.last().is_some_and(|&(_, d)| d == depth) {
                    scopes.pop();
                }
            }
            (TokKind::Punct, ";") => {
                pending_test = false;
                pending_fn = None;
                pending_loop = None;
            }
            _ => {}
        }
        i += 1;
    }
    cx
}

/// Scans an attribute starting at the `[` token; returns whether it is
/// `#[cfg(test)]` / `#[test]` and the index one past the closing `]`.
fn scan_attribute(tokens: &[Tok], open: usize) -> (bool, usize) {
    let mut depth = 0i32;
    let mut inner: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            _ => inner.push(tokens[i].text.as_str()),
        }
        i += 1;
    }
    let is_test = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
    (is_test, i)
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn cx_of(src: &str) -> (Vec<Tok>, FileCx) {
        let toks = lex(src).tokens;
        let cx = build(&toks);
        (toks, cx)
    }

    fn flag_at_ident(toks: &[Tok], flags: &[bool], name: &str) -> bool {
        let i = toks.iter().position(|t| t.text == name).unwrap_or_else(|| panic!("no {name}"));
        flags[i]
    }

    #[test]
    fn epoch_loop_bodies_are_tracked_across_nesting() {
        let src = "fn fit() {\n  for epoch in 0..n {\n    inner();\n    if c { deep(); }\n  }\n  outer();\n}";
        let (toks, cx) = cx_of(src);
        assert!(flag_at_ident(&toks, &cx.in_epoch_loop, "inner"));
        assert!(flag_at_ident(&toks, &cx.in_epoch_loop, "deep"));
        assert!(!flag_at_ident(&toks, &cx.in_epoch_loop, "outer"));
    }

    #[test]
    fn header_mentions_of_epoch_count_while_header_calls_do_not() {
        // `self.config.epochs` in the header marks the loop; the call in
        // the header itself is outside the body.
        let src = "fn f() { for _ in 0..cfg.epochs { body(); } }\nfn g() { for p in probe(x) { other(); } }";
        let (toks, cx) = cx_of(src);
        assert!(flag_at_ident(&toks, &cx.in_epoch_loop, "body"));
        assert!(!flag_at_ident(&toks, &cx.in_epoch_loop, "probe"));
        assert!(!flag_at_ident(&toks, &cx.in_epoch_loop, "other"));
    }

    #[test]
    fn while_loops_with_epoch_count() {
        let src = "fn f() { while epoch < max { body(); } }";
        let (toks, cx) = cx_of(src);
        assert!(flag_at_ident(&toks, &cx.in_epoch_loop, "body"));
    }

    #[test]
    fn impl_for_and_hrtb_do_not_open_loops() {
        let src = "impl Rule for Epochs { fn check(&self) { x(); } }\nfn g<F: for<'a> Fn(&'a u8)>(f: F) { y(); }";
        let (toks, cx) = cx_of(src);
        assert!(!flag_at_ident(&toks, &cx.in_epoch_loop, "x"));
        assert!(!flag_at_ident(&toks, &cx.in_epoch_loop, "y"));
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_test_scoped() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n  fn helper() { b(); }\n}\n#[test]\nfn unit() { c(); }\n#[cfg(not(test))]\nfn alsolive() { d(); }";
        let (toks, cx) = cx_of(src);
        assert!(!flag_at_ident(&toks, &cx.in_test, "a"));
        assert!(flag_at_ident(&toks, &cx.in_test, "b"));
        assert!(flag_at_ident(&toks, &cx.in_test, "c"));
        assert!(!flag_at_ident(&toks, &cx.in_test, "d"));
    }

    #[test]
    fn enclosing_fn_names_survive_closures() {
        let src = "fn fit(&mut self) { let f = par_map(|x| { target(); }); }\nfn other() { elsewhere(); }";
        let (toks, cx) = cx_of(src);
        let at = |name: &str| {
            let i = toks.iter().position(|t| t.text == name).unwrap();
            cx.fn_of[i].map(|f| cx.fns[f].as_str().to_owned())
        };
        assert_eq!(at("target").as_deref(), Some("fit"));
        assert_eq!(at("elsewhere").as_deref(), Some("other"));
    }
}
