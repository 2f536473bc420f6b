#!/usr/bin/env bash
# The full local gate: formatting, lints, tests, and a strict kglint pass
# over the whole synthetic scenario family. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace lints, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc, -D warnings)"
# Broken or private intra-doc links fail here, so a renamed or deleted
# item cannot linger in the docs that name it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== cargo test"
cargo test --workspace -q

echo "== kgrec-linalg tests under fast-math (relaxed reductions)"
# The relaxed `dot`/`dot8` branches are never built by the default gate;
# `matvec_into` reaches them through `dot8`, so their contracts run here.
cargo test -q -p kgrec-linalg --features fast-math

echo "== kgbench unit tests (traced serving path == Server::serve)"
# kgbench is a package of its own, outside the workspace, so the line
# above does not reach it. Its mirror test is the oracle that the traced
# stages still rebuild Server::serve. `--locked` as in BENCHMARK.json's
# command: a dependency added to a crate kgbench builds against must fail
# here, not silently rewrite kgbench/Cargo.lock and pass.
cargo test --offline --locked --manifest-path kgbench/Cargo.toml -q

echo "== kgbench digest smoke (seed 2024, 1 s per workload, vs kgbench/baseline.json)"
# Every workload must pass all its built-in checks (the per-request
# slate-identity check among them), and the hot, cold and offline
# digests must equal the committed seed-2024 digests. The ingest digest
# depends on run length, so it is not compared. Timing is not judged
# here: that is `kgbench compare`'s job.
cargo run --release --offline --locked --quiet --manifest-path kgbench/Cargo.toml -- \
  --seed 2024 --seconds 1 > target/kgbench_smoke.txt \
  || { cat target/kgbench_smoke.txt; echo "FAIL: kgbench reported a failed check"; exit 1; }
# "<workload> <digest>" pairs: from the baseline's digests_seed_2024
# block, and from the run's `kgbench <workload>:` / `digest` lines.
want=$(awk '/"digests_seed_2024"/ { on = 1; next }
  on && /^  }/ { exit }
  on && /^    "[a-z-]+": [{]/ { w = $1; gsub(/[":]/, "", w) }
  on && /"value":/ { v = $2; gsub(/"/, "", v); print w, v }' kgbench/baseline.json)
got=$(awk '/^kgbench [a-z-]+: seed/ { w = $2; sub(/:$/, "", w) }
  /^  digest / { print w, $3 }' target/kgbench_smoke.txt)
for w in serve-hot serve-cold offline-eval; do
  expected=$(echo "$want" | awk -v w="$w" '$1 == w { print $2 }')
  actual=$(echo "$got" | awk -v w="$w" '$1 == w { print $2 }')
  if [ -z "$expected" ] || [ "$expected" != "$actual" ]; then
    echo "FAIL: kgbench $w digest ${actual:-missing} != baseline ${expected:-missing}"
    exit 1
  fi
  echo "   $w digest $actual matches the baseline"
done

echo "== kglint --strict (all synthetic scenarios)"
cargo run --release -p kgrec-check --bin kglint -- --strict --json-out kglint_bundle.json
test -s kglint_bundle.json || { echo "FAIL: kglint_bundle.json missing"; exit 1; }

echo "== kglint --src --strict (detlint source rules, whole workspace)"
cargo run --release -p kgrec-check --bin kglint -- --src --strict --json-out kglint_src.json
test -s kglint_src.json || { echo "FAIL: kglint_src.json missing"; exit 1; }

echo "== eval_suite fault drill (graceful degradation smoke)"
cargo run --release -p kgrec-bench --bin eval_suite -- --quick --inject-fault \
  | tail -n 3

echo "== crash drill (checkpoint recovery under every storage fault)"
cargo run --release -p kgrec-bench --bin crash_drill -- --dir target/crash_drill
test -s target/crash_drill/MANIFEST || { echo "FAIL: crash-drill MANIFEST missing"; exit 1; }

echo "== serial/parallel equivalence (eval_suite --threads 1 vs 4)"
cargo build --release -p kgrec-bench --bin eval_suite
./target/release/eval_suite --quick --no-timing --threads 1 > /tmp/kgrec_t1.txt
./target/release/eval_suite --quick --no-timing --threads 4 > /tmp/kgrec_t4.txt
diff -u /tmp/kgrec_t1.txt /tmp/kgrec_t4.txt \
  || { echo "FAIL: metrics differ between 1 and 4 threads"; exit 1; }
echo "   identical at 1 and 4 threads"

echo "== kernel microbenchmarks + regression gate (BENCH_kernels.json vs baseline)"
# No pipe into `head` here: closing the reader early would SIGPIPE the
# printing binary and fail the gate under `pipefail`. The gate fails on
# any kernel >20% above the committed baseline; refresh the baseline
# only for intentional kernel changes:
#   kernel_bench --quick --out BENCH_kernels.baseline.json
cargo run --release -p kgrec-bench --bin kernel_bench -- --quick \
  --baseline BENCH_kernels.baseline.json > /dev/null
test -s BENCH_kernels.json || { echo "FAIL: BENCH_kernels.json missing"; exit 1; }

echo "== scale bench (streaming generation, layout validation, ingest, memory budget)"
# Every push runs the 20k-user smoke size; the full 1M-user / 10M-row
# drill runs behind KGREC_SCALE_FULL=1 (CI's nightly-style dispatch job).
# Both apply the same gates: kglint + layout validation, raw-AUC > 0.5,
# warm start from checkpoint after ingest, peak RSS within budget.
if [ "${KGREC_SCALE_FULL:-0}" = "1" ]; then
  cargo run --release -p kgrec-bench --bin scale_bench -- --full --threads 4 --out BENCH_scale.json
else
  cargo run --release -p kgrec-bench --bin scale_bench -- --threads 4 --out BENCH_scale.json
fi
test -s BENCH_scale.json || { echo "FAIL: BENCH_scale.json missing"; exit 1; }

echo "== serve bench (two-stage pipeline, cache, p99 budget)"
# Every push replays smoke traffic (30k requests, 20k users) with a hard
# p99 latency budget baked into the binary (exit 2 on breach). The full
# 1M-user replay runs behind KGREC_SERVE_FULL=1 next to the scale drill.
# Gates: checksums identical across uncached/cached phases, warm cache
# beats the uncached pipeline at p50. Hot reload is pinned by the
# kgrec-serve unit tests above.
if [ "${KGREC_SERVE_FULL:-0}" = "1" ]; then
  cargo run --release -p kgrec-bench --bin serve_bench -- --full --threads 4 --out BENCH_serve.json
else
  cargo run --release -p kgrec-bench --bin serve_bench -- --threads 4 --out BENCH_serve.json
fi
test -s BENCH_serve.json || { echo "FAIL: BENCH_serve.json missing"; exit 1; }

echo "OK: all checks passed"
