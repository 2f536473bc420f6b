//! One corrupted-source fixture per `kglint --src` rule: each fixture
//! plants exactly the construct the rule hunts at a known line and
//! asserts the finding lands there — plus the suppression machinery and
//! the block-comment regression the old line scanner failed, and a
//! repo-cleanliness gate (the workspace itself must scan clean).

use kgrec_check::srclint::{scan_source, scan_source_report, scan_workspace};
use kgrec_check::{Diagnostic, Severity, Subject};

/// The `(code, line)` pairs of `diags`, in report order.
fn located(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    diags
        .iter()
        .map(|d| match &d.subject {
            Subject::Source { line, .. } => (d.code, *line),
            other => panic!("source finding with non-source subject {other:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------- SA001

#[test]
fn sa001_hash_collections_in_deterministic_crate() {
    let src = "use std::collections::BTreeMap;\n\
               fn accumulate() {\n\
               let m: HashMap<u32, f32> = HashMap::new();\n\
               let s = HashSet::new();\n\
               }\n";
    let diags = scan_source("crates/models/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA001", 3), ("SA001", 3), ("SA001", 4)], "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags[0].message.contains("BTreeMap"), "{}", diags[0].message);
}

#[test]
fn sa001_is_silent_outside_the_determinism_crates() {
    let src = "fn f() { let m = HashMap::new(); }\n";
    assert!(scan_source("crates/data/src/fixture.rs", src).is_empty());
    assert!(scan_source("crates/check/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- SA002

#[test]
fn sa002_wall_clock_and_unseeded_rng() {
    let src = "fn fit() {\n\
               let t0 = Instant::now();\n\
               let t1 = SystemTime::now();\n\
               let mut rng = rand::thread_rng();\n\
               let mut r2 = StdRng::from_entropy();\n\
               }\n";
    let diags = scan_source("crates/kge/src/fixture.rs", src);
    assert_eq!(
        located(&diags),
        [("SA002", 2), ("SA002", 3), ("SA002", 4), ("SA002", 5)],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn sa002_instant_without_now_is_clean() {
    // Mentioning the type (e.g. in a signature) is fine; only `::now()` fires.
    let src = "fn record(t: Instant) -> Instant { t }\n";
    assert!(scan_source("crates/models/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- SA003

#[test]
fn sa003_channels_and_lock_push() {
    let src = "use std::sync::mpsc;\n\
               fn gather(rx: &Receiver<f32>, acc: &Mutex<Vec<f32>>) {\n\
               let v = rx.recv().unwrap_or_default();\n\
               acc.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(v);\n\
               }\n";
    let diags = scan_source("crates/linalg/src/fixture.rs", src);
    assert_eq!(
        located(&diags),
        [("SA003", 1), ("SA003", 2), ("SA003", 3), ("SA003", 4)],
        "{diags:?}"
    );
}

#[test]
fn sa003_lock_without_growth_is_clean() {
    // Reading under a lock is order-safe; only `lock()…push/extend`
    // within one statement fires.
    let src = "fn read(acc: &Mutex<Vec<f32>>) -> usize {\n\
               let n = acc.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len();\n\
               n\n\
               }\n";
    assert!(scan_source("crates/linalg/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- SA004

#[test]
fn sa004_float_literal_equality_in_metrics() {
    let src = "fn ndcg(idcg: f64, dcg: f64) -> f64 {\n\
               if idcg == 0.0 {\n\
               return 0.0;\n\
               }\n\
               let flag = dcg != -1.0;\n\
               dcg / idcg\n\
               }\n";
    let diags = scan_source("crates/core/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA004", 2), ("SA004", 5)], "{diags:?}");
}

#[test]
fn sa004_integer_equality_is_clean() {
    let src = "fn f(k: usize) -> bool { k == 0 }\n";
    assert!(scan_source("crates/core/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- SA005

#[test]
fn sa005_truncating_cast_in_id_space_crate() {
    let src = "fn user_of(u: usize) -> UserId {\n\
               UserId(u as u32)\n\
               }\n\
               fn tag(b: usize) -> u8 {\n\
               b as u8\n\
               }\n";
    let diags = scan_source("crates/data/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA005", 2), ("SA005", 5)], "{diags:?}");
    assert!(diags[0].message.contains("id32"), "{}", diags[0].message);
}

#[test]
fn sa005_widening_and_float_casts_are_clean() {
    let src = "fn f(n: u32) -> f32 { (n as usize as u64 as f32) / 2.0 }\n";
    assert!(scan_source("crates/graph/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- SA006

#[test]
fn sa006_unwrap_in_fit_paths_only() {
    let src = "fn fit(&mut self) {\n\
               let g = self.graph.take().expect(\"graph stored\");\n\
               let x = head.unwrap();\n\
               }\n\
               fn score(&self) -> f32 {\n\
               self.graph.as_ref().unwrap().weight()\n\
               }\n\
               fn train_with_from(&mut self) {\n\
               let gb = pool.lock().unwrap();\n\
               }\n";
    let diags = scan_source("crates/models/src/fixture.rs", src);
    // `score` is not a covered fit path; `fit` and `train_with_from` are.
    assert_eq!(located(&diags), [("SA006", 2), ("SA006", 3), ("SA006", 9)], "{diags:?}");
}

#[test]
fn sa006_covers_closures_inside_fit() {
    let src = "fn fit(&mut self) {\n\
               let batches = par_map(&subs, threads, |_, sub| {\n\
               pool.lock().unwrap()\n\
               });\n\
               }\n";
    let diags = scan_source("crates/kge/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA006", 3)], "{diags:?}");
}

// ---------------------------------------------------------------- SA007

#[test]
fn sa007_raw_writes_in_persistence_paths() {
    let src = "fn save(&self, path: &Path) -> io::Result<()> {\n\
               let mut f = std::fs::File::create(path)?;\n\
               f.write_all(&self.bytes)?;\n\
               fs::write(path.with_extension(\"meta\"), b\"v1\")?;\n\
               Ok(())\n\
               }\n";
    let diags = scan_source("crates/store/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA007", 2), ("SA007", 4)], "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags[0].message.contains("write_atomic"), "{}", diags[0].message);
}

#[test]
fn sa007_covers_every_persistence_crate() {
    let src = "fn persist(p: &Path) { let _ = fs::write(p, b\"x\"); }\n";
    for path in [
        "crates/store/src/fixture.rs",
        "crates/kge/src/fixture.rs",
        "crates/models/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        let diags = scan_source(path, src);
        assert_eq!(located(&diags), [("SA007", 1)], "{path}: {diags:?}");
    }
}

#[test]
fn sa007_is_silent_outside_persistence_paths_and_for_reads() {
    // The bench/check layers write reports, not model state.
    let src = "fn save(p: &Path) { let _ = std::fs::File::create(p); }\n";
    assert!(scan_source("crates/bench/src/fixture.rs", src).is_empty());
    assert!(scan_source("crates/check/src/fixture.rs", src).is_empty());
    // Reads and the atomic writer's own name never fire.
    let reads = "fn load(p: &Path) -> io::Result<Vec<u8>> {\n\
                 let f = File::open(p)?;\n\
                 write_atomic(p, &bytes)?;\n\
                 fs::read(p)\n\
                 }\n";
    assert!(scan_source("crates/store/src/fixture.rs", reads).is_empty());
}

// ---------------------------------------------------------------- SA008

#[test]
fn sa008_allocation_in_request_path_functions() {
    let src = "fn candidates_for(scratch: &mut ServeScratch) {\n\
               let extra: Vec<u32> = Vec::new();\n\
               let ids = slate.to_vec();\n\
               }\n\
               fn rank_candidates(scratch: &mut ServeScratch) {\n\
               let scored: Vec<f32> = cands.iter().map(score).collect();\n\
               }\n\
               fn serve(user: UserId) {\n\
               let label = format!(\"user {user}\");\n\
               let buf = vec![0.0f32; dim];\n\
               }\n";
    let diags = scan_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        located(&diags),
        [("SA008", 2), ("SA008", 3), ("SA008", 6), ("SA008", 9), ("SA008", 10)],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags[0].message.contains("ServeScratch"), "{}", diags[0].message);
}

#[test]
fn sa008_covers_closures_inside_request_path_functions() {
    let src = "fn serve(users: &[UserId]) {\n\
               let slates = par_map(users, threads, |_, u| {\n\
               scratch.top_k().to_vec()\n\
               });\n\
               }\n";
    let diags = scan_source("crates/serve/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA008", 3)], "{diags:?}");
}

#[test]
fn sa008_is_silent_off_the_request_path() {
    // Setup/ingest/reload code in the serve crate may allocate freely,
    // and the same tokens outside the serve crate are someone else's
    // business.
    let src = "fn build_index(graph: &KnowledgeGraph) -> Vec<u32> {\n\
               let mut rev: Vec<u32> = Vec::new();\n\
               graph.items().collect()\n\
               }\n\
               fn ingest(rows: &[Interaction]) {\n\
               let copy = rows.to_vec();\n\
               }\n";
    assert!(scan_source("crates/serve/src/fixture.rs", src).is_empty());
    let on_path = "fn serve(u: UserId) { let v = Vec::new(); }\n";
    assert!(scan_source("crates/models/src/fixture.rs", on_path).is_empty());
}

#[test]
fn sa008_documented_allow_is_the_escape_hatch() {
    let src = "fn rank_candidates(scratch: &mut ServeScratch) {\n\
               // kglint::allow(SA008, grow-once: reserve hits capacity after the first request)\n\
               let scored: Vec<f32> = cands.iter().map(score).collect();\n\
               }\n";
    let report = scan_source_report("crates/serve/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------------------- MD006

#[test]
fn md006_allocating_vector_op_in_epoch_loop() {
    let src = "fn fit(&mut self) {\n\
               let pre = vector::add(&a, &b);\n\
               for epoch in 0..self.config.epochs {\n\
               let q = vector::add(&a, &b);\n\
               let s = vector::softmax(&q);\n\
               }\n\
               let post = vector::hadamard(&a, &b);\n\
               }\n";
    let diags = scan_source("crates/models/src/fixture.rs", src);
    // Only the two calls inside the epoch loop fire.
    assert_eq!(located(&diags), [("MD006", 4), ("MD006", 5)], "{diags:?}");
}

#[test]
fn md006_in_place_variants_are_clean() {
    let src = "fn fit(&mut self) {\n\
               for epoch in 0..n {\n\
               vector::add_into(&a, &b, &mut out);\n\
               vector::softmax_in_place(&mut q);\n\
               }\n\
               }\n";
    assert!(scan_source("crates/kge/src/fixture.rs", src).is_empty());
}

// ------------------------------------------------- comment handling

#[test]
fn block_comments_do_not_fire_rules() {
    // The regression that motivated the lexer: the old per-line
    // `strip_comment` only knew `//`, so constructs inside `/* */`
    // blocks produced false positives.
    let src = "fn fit(&mut self) {\n\
               /*\n\
               let m = HashMap::new();\n\
               let t = Instant::now();\n\
               let u = x.unwrap();\n\
               */\n\
               /* inline */ let ok = 1; /* as u32 */\n\
               let s = \"HashMap::new() in a string\";\n\
               }\n";
    let diags = scan_source("crates/models/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nested_block_comments_stay_closed() {
    let src = "fn f() {\n\
               /* outer /* inner */ still a comment: HashMap */\n\
               let x = 1;\n\
               }\n";
    assert!(scan_source("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn test_code_is_exempt_from_every_rule() {
    let src = "fn fit(&mut self) {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               fn helper(u: usize) -> u32 { u as u32 }\n\
               #[test]\n\
               fn t() {\n\
               let m = HashMap::new();\n\
               let x = r.unwrap();\n\
               }\n\
               }\n";
    for path in ["crates/models/src/fixture.rs", "crates/data/src/fixture.rs"] {
        let diags = scan_source(path, src);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

// ------------------------------------------------------ suppressions

#[test]
fn suppression_on_preceding_line_consumes_the_finding() {
    let src = "fn index_of(u: usize) -> UserId {\n\
               // kglint::allow(SA005, bounded by the loader which rejects >u32 ids)\n\
               UserId(u as u32)\n\
               }\n";
    let report = scan_source_report("crates/data/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppression_trailing_on_the_same_line_works() {
    let src = "fn index_of(u: usize) -> UserId {\n\
               UserId(u as u32) // kglint::allow(SA005, bounded input)\n\
               }\n";
    let report = scan_source_report("crates/graph/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn unused_suppression_is_an_sa000_finding() {
    let src = "// kglint::allow(SA001, the hash map is long gone)\n\
               fn f() {}\n";
    let diags = scan_source("crates/models/src/fixture.rs", src);
    assert_eq!(located(&diags), [("SA000", 1)], "{diags:?}");
    assert!(diags[0].message.contains("unused"), "{}", diags[0].message);
}

#[test]
fn malformed_and_unknown_code_suppressions_are_sa000() {
    let missing_reason = "// kglint::allow(SA001)\nfn f() { let m = HashMap::new(); }\n";
    let diags = scan_source("crates/models/src/fixture.rs", missing_reason);
    assert!(
        diags.iter().any(|d| d.code == "SA000" && d.message.contains("malformed")),
        "{diags:?}"
    );
    // The finding itself must survive a malformed allow.
    assert!(diags.iter().any(|d| d.code == "SA001"), "{diags:?}");

    let unknown = "// kglint::allow(SA999, no such rule)\nfn f() {}\n";
    let diags = scan_source("crates/models/src/fixture.rs", unknown);
    assert_eq!(located(&diags), [("SA000", 1)], "{diags:?}");
    assert!(diags[0].message.contains("SA999"), "{}", diags[0].message);
}

#[test]
fn suppression_only_covers_its_named_codes() {
    let src = "fn fit(&mut self) {\n\
               // kglint::allow(SA001, only the hash map is waived)\n\
               let m = HashMap::new(); let x = r.unwrap();\n\
               }\n";
    let report = scan_source_report("crates/models/src/fixture.rs", src);
    assert_eq!(located(&report.findings), [("SA006", 3)], "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// -------------------------------------------------- repo cleanliness

#[test]
fn the_workspace_itself_scans_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
    assert!(
        report.findings.is_empty(),
        "the workspace must stay kglint-clean:\n{}",
        report.findings.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
