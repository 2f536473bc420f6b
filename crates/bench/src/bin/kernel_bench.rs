//! Microbenchmarks for the numeric hot-path kernels, written to
//! `BENCH_kernels.json`.
//!
//! Covers the kernel layer this repo's training and ranking paths run
//! on: the lane-blocked dot product and its eight-row batched form
//! (`dot8`, the serving ranker's kernel), the allocation-free `*_into`
//! vector ops, blocked matmul/transpose, the three `Dense` training
//! kernels at SHINE's shapes, select-based top-K, and the fused
//! per-family KGE score kernels. `--quick` shrinks sizes and rep
//! counts for CI smoke runs; `--out PATH` (or `--out=PATH`) overrides
//! the output location.
//!
//! Every kernel folds its result into a checksum passed through
//! `std::hint::black_box`, so the optimizer cannot delete the measured
//! work. Each kernel is timed over three rounds and the fastest round
//! is reported — the minimum is the standard noise-robust statistic for
//! microbenchmarks, since interference only ever adds time.
//!
//! `--baseline PATH` (or `--baseline=PATH`) turns the run into a
//! regression gate against the committed baseline (normally
//! `BENCH_kernels.baseline.json`); either flag without its value panics
//! rather than skipping the gate. The
//! process exits non-zero when any kernel's checksum differs from its
//! baseline row (its output drifted; checksums are deterministic, so
//! this fails at once, without re-measuring), or when any kernel lands
//! more than 20% above its baseline ns/op. A tripped timing gate re-measures
//! the whole pass up to twice, merging per-kernel minima, before
//! failing: back-to-back rounds share one scheduler-noise window, but a
//! full re-pass lands in a fresh one, so only a genuine slowdown
//! survives all three passes. Refresh the baseline after an intentional
//! kernel change with `--quick --out BENCH_kernels.baseline.json`.

use kgrec_bench::flag_value;
use kgrec_bench::kernel_report::{parse_baseline, KernelEntry, KernelReport, KERNEL_BENCH_PATH};
use kgrec_graph::{EntityId, RelationId};
use kgrec_kge::{DistMult, KgeModel, TransE, TransH, TransR};
use kgrec_linalg::{simd, vector, Activation, Dense, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Times `reps` runs of `f` per round, over three rounds, and keeps the
/// fastest round. `f` must return a value folding in the kernel's
/// output. Returns the finished entry.
fn time_kernel<F: FnMut() -> f32>(name: &str, n: usize, reps: usize, mut f: F) -> KernelEntry {
    // One warm-up rep so page faults and lazy init stay out of the timing.
    let mut checksum = f64::from(black_box(f()));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..reps {
            checksum += f64::from(black_box(f()));
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    KernelEntry::new(name, n, reps, best, checksum)
}

fn filled(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One full measurement pass over every kernel.
fn measure(quick: bool) -> KernelReport {
    // Quick reps are sized so one timed round stays near a millisecond:
    // much shorter and scheduler jitter dominates ns/op, which would make
    // the --baseline regression gate flaky on loaded CI machines.
    let dim = 64;
    let reps = if quick { 20_000 } else { 200_000 };
    let mat_reps = if quick { 300 } else { 2_000 };
    let topk_reps = if quick { 1_000 } else { 20_000 };

    let mut report = KernelReport::new(quick);

    // --- Vector kernels ---
    let a = filled(dim, 1);
    let b = filled(dim, 2);
    let mut out = vec![0.0f32; dim];
    report.push(time_kernel(&format!("dot/{dim}"), dim, reps, || vector::dot(&a, &b)));
    let rows: Vec<Vec<f32>> = (0..simd::LANES as u64).map(|c| filled(dim, 10 + c)).collect();
    report.push(time_kernel(&format!("dot8/{dim}"), dim * simd::LANES, reps, || {
        simd::dot8(&a, std::array::from_fn(|c| rows[c].as_slice())).iter().sum()
    }));
    report.push(time_kernel(&format!("add_into/{dim}"), dim, reps, || {
        vector::add_into(&a, &b, &mut out);
        out[0]
    }));
    report.push(time_kernel(&format!("sub_into/{dim}"), dim, reps, || {
        vector::sub_into(&a, &b, &mut out);
        out[0]
    }));
    report.push(time_kernel(&format!("mul_into/{dim}"), dim, reps, || {
        vector::mul_into(&a, &b, &mut out);
        out[0]
    }));
    report.push(time_kernel(&format!("scale_assign/{dim}"), dim, reps, || {
        vector::scale_assign(1.0001, &a, &mut out);
        out[0]
    }));
    report.push(time_kernel(&format!("axpy/{dim}"), dim, reps, || {
        out.fill(0.0);
        vector::axpy(0.5, &a, &mut out);
        out[0]
    }));

    // --- Matrix kernels ---
    let (rows, inner, cols) = if quick { (24, 48, 24) } else { (48, 96, 48) };
    let am = Matrix::from_vec(rows, inner, filled(rows * inner, 3));
    let bm = Matrix::from_vec(inner, cols, filled(inner * cols, 4));
    let x = filled(inner, 5);
    let mut y = vec![0.0f32; rows];
    report.push(time_kernel(
        &format!("matmul/{rows}x{inner}x{cols}"),
        rows * inner * cols,
        mat_reps,
        || am.matmul(&bm).data()[0],
    ));
    report.push(time_kernel(&format!("transpose/{rows}x{inner}"), rows * inner, mat_reps, || {
        am.transpose().data()[0]
    }));
    report.push(time_kernel(&format!("matvec_into/{rows}x{inner}"), rows * inner, reps, || {
        am.matvec_into(&x, &mut y);
        y[0]
    }));

    // --- Dense training kernels, at SHINE's shapes ---
    // Decoder 16 -> 658 (forward, fused dense backward + step) and encoder
    // 658 -> 16 over a 5-column sparse input (fused sparse backward +
    // step). Identity activation keeps libm out of every checksum; the
    // upstream gradient flips sign each rep so the weights the steps
    // train stay bounded however many reps run.
    let (dim_h, width) = (16, 658);
    let mut rng = StdRng::seed_from_u64(8);
    let hidden = filled(dim_h, 9);
    let mut decoder = Dense::new(&mut rng, dim_h, width, Activation::Identity);
    report.push(time_kernel(
        &format!("dense_fwd/{dim_h}x{width}"),
        dim_h * width,
        mat_reps,
        || {
            let y = decoder.forward(&hidden);
            y[0] + y[width - 1]
        },
    ));
    let dl = filled(width, 11);
    let neg_dl: Vec<f32> = dl.iter().map(|g| -g).collect();
    let mut flip = false;
    report.push(time_kernel(
        &format!("dense_bwd_step/{dim_h}x{width}"),
        dim_h * width,
        mat_reps,
        || {
            flip = !flip;
            let dx = decoder.backward_step_sgd(if flip { &dl } else { &neg_dl }, 0.015, 0.0);
            dx.iter().sum()
        },
    ));
    let mut encoder = Dense::new(&mut rng, width, dim_h, Activation::Identity);
    let active = [3usize, 70, 222, 401, 650];
    let _ = encoder.forward_sparse(&active);
    let dh = filled(dim_h, 12);
    let neg_dh: Vec<f32> = dh.iter().map(|g| -g).collect();
    let mut flip = false;
    report.push(time_kernel(
        &format!("dense_sparse_bwd_step/{width}x{dim_h}"),
        width * dim_h,
        mat_reps,
        || {
            flip = !flip;
            encoder.backward_sparse_step_sgd(if flip { &dh } else { &neg_dh }, 0.05, 1e-5);
            let w = encoder.weights();
            w.get(0, active[0]) + w.get(dim_h - 1, 1) + encoder.bias()[0]
        },
    ));

    // --- Ranking kernel ---
    let scores = filled(if quick { 512 } else { 4096 }, 6);
    let k = 10;
    report.push(time_kernel(
        &format!("top_k/{}@{k}", scores.len()),
        scores.len(),
        topk_reps,
        || vector::top_k_indices(&scores, k)[0] as f32,
    ));

    // --- Fused KGE score kernels ---
    let mut rng = StdRng::seed_from_u64(7);
    let (ne, nr) = (100, 8);
    let kge_reps = if quick { 10_000 } else { 100_000 };
    let transe = TransE::new(&mut rng, ne, nr, dim, 1.0);
    let transh = TransH::new(&mut rng, ne, nr, dim, 1.0);
    let transr = TransR::new(&mut rng, ne, nr, dim, dim / 2, 1.0);
    let distmult = DistMult::new(&mut rng, ne, nr, dim);
    let (h, r, t) = (EntityId(3), RelationId(1), EntityId(57));
    report
        .push(time_kernel(&format!("transe_score/{dim}"), dim, kge_reps, || transe.score(h, r, t)));
    report
        .push(time_kernel(&format!("transh_score/{dim}"), dim, kge_reps, || transh.score(h, r, t)));
    report
        .push(time_kernel(&format!("transr_score/{dim}"), dim, kge_reps, || transr.score(h, r, t)));
    report.push(time_kernel(&format!("distmult_score/{dim}"), dim, kge_reps, || {
        distmult.score(h, r, t)
    }));

    report
}

/// Folds a re-measurement into `report`, keeping the faster timing per
/// kernel (passes are identical in shape, so entries align by index).
fn merge_min(report: &mut KernelReport, retry: KernelReport) {
    for (cur, fresh) in report.entries.iter_mut().zip(retry.entries) {
        assert_eq!(cur.name, fresh.name, "measurement passes must align");
        if fresh.ns_per_op < cur.ns_per_op {
            *cur = fresh;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out").unwrap_or(KERNEL_BENCH_PATH);
    let baseline_path = flag_value(&args, "--baseline");

    let mut report = measure(quick);

    // --- Regression gate ---
    let mut gate_failed = false;
    if let Some(path) = baseline_path {
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading kernel baseline {path}: {e}"));
        let baseline = parse_baseline(&doc);
        assert!(!baseline.is_empty(), "kernel baseline {path} holds no kernels");
        // Checksums are deterministic: a mismatch is drift, not noise, so
        // it fails the gate at once and is never re-measured.
        let drifted = report.checksum_mismatches(&baseline);
        let mut regressions = report.regressions_against(&baseline, 1.2, 0.5);
        for attempt in 0..2 {
            if regressions.is_empty() || !drifted.is_empty() {
                break;
            }
            eprintln!(
                "kernel gate: {} kernel(s) over threshold on pass {}; re-measuring to rule \
                 out scheduler noise",
                regressions.len(),
                attempt + 1
            );
            merge_min(&mut report, measure(quick));
            regressions = report.regressions_against(&baseline, 1.2, 0.5);
        }
        println!("kernel gate: comparing {} kernels against {path}", baseline.len());
        for e in &report.entries {
            if let Some(base) = baseline.iter().find(|b| b.name == e.name) {
                println!(
                    "  {:<28} {:>12.1} ns/op  baseline {:>10.1}  ({:+.1}%)",
                    e.name,
                    e.ns_per_op,
                    base.ns_per_op,
                    (e.ns_per_op / base.ns_per_op - 1.0) * 100.0
                );
            }
        }
        for m in &drifted {
            eprintln!(
                "kernel gate: OUTPUT DRIFT {} — checksum {} vs baseline {}",
                m.name, m.fresh, m.baseline
            );
        }
        for r in &regressions {
            eprintln!(
                "kernel gate: REGRESSION {} — {:.1} ns/op vs baseline {:.1} ({:.2}x)",
                r.name,
                r.fresh_ns,
                r.baseline_ns,
                r.ratio()
            );
        }
        if !drifted.is_empty() {
            eprintln!(
                "kernel gate: {} kernel(s) changed their output; a kernel rewrite must stay \
                 bit-identical, or refresh with `kernel_bench --quick --out {path}` for an \
                 intended change",
                drifted.len()
            );
        } else if !regressions.is_empty() {
            eprintln!(
                "kernel gate: {} kernel(s) regressed >20% across three passes; refresh with \
                 `kernel_bench --quick --out {path}` only for intentional changes",
                regressions.len()
            );
        } else {
            println!(
                "kernel gate: OK (every checksum matches, every kernel within 20% of baseline)"
            );
        }
        gate_failed = !drifted.is_empty() || !regressions.is_empty();
    }

    report.write_to(std::path::Path::new(out_path)).expect("writing kernel report");
    println!("kernel_bench: {} kernels -> {out_path}", report.entries.len());
    for e in &report.entries {
        println!("  {:<28} {:>12.1} ns/op  ({} reps)", e.name, e.ns_per_op, e.reps);
    }
    if gate_failed {
        std::process::exit(1);
    }
}
