//! `serve_bench` — the online-serving latency drill.
//!
//! Replays deterministic synthetic traffic against the `kgrec_serve`
//! two-stage pipeline and writes `BENCH_serve.json` next to the other
//! benchmark artifacts. Three replay phases over the same request trace:
//!
//! 1. **uncached** — every request runs the full candidate→rank
//!    pipeline (cache bypassed): the latency baseline;
//! 2. **cached_cold** — same trace through the cache, starting empty:
//!    repeat users hit mid-phase;
//! 3. **cached_warm** — the trace replayed against the filled cache:
//!    the steady-state serving profile, and the measured latency win
//!    over the uncached baseline.
//!
//! Hot reload and ingest invalidation are pinned by the `kgrec_serve`
//! unit tests and `tests/proptest_serve_cache.rs`; ingest latency beside
//! reads is measured by kgbench's `serve-ingest` workload.
//!
//! Traffic is partitioned across the `kgrec_linalg::par` pool by user
//! (`user % threads`), so every user's requests replay in order on one
//! worker and cache hit counts are exactly reproducible for a fixed
//! seed and thread count. Result checksums must agree across the
//! uncached/cold/warm phases — the cache may never change an answer.
//!
//! Wall-clock latencies are machine-dependent; everything else in the
//! artifact (hit rates, checksums) is deterministic.
//!
//! Exit code 0 = all gates green; 1 = a correctness gate failed
//! (checksum drift, warm-cache speedup); 2 = the p99 latency budget was
//! exceeded. The mode alone fixes the request count and the p99 budget.
//!
//! Usage: `serve_bench [--smoke|--full] [--threads N] [--out PATH]`

use kgrec_bench::{flag_value, threads_from_args};
use kgrec_check::json::{json_f64, json_str};
use kgrec_data::synth::generate_streaming;
use kgrec_data::{ItemId, ScenarioConfig, UserId};
use kgrec_kge::TransE;
use kgrec_linalg::par::par_map;
use kgrec_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::time::Instant;

const SEED: u64 = 2024;
/// Embedding dimension of the served model (latency-realistic, cheap to
/// initialize; the drill measures the pipeline, not model quality).
const DIM: usize = 32;
/// Committed smoke p99 budget: ~3 orders of magnitude above the
/// steady-state p99 observed on an unloaded host, so only a real
/// regression (an allocation or a scan sneaking into the request path)
/// or a pathological CI host trips it.
const P99_BUDGET_SMOKE_MS: f64 = 25.0;
const P99_BUDGET_FULL_MS: f64 = 100.0;
const REQUESTS_SMOKE: usize = 30_000;
const REQUESTS_FULL: usize = 300_000;
/// Zipf-style skew of the traffic: user `⌊U · x^SKEW⌋` for uniform `x`,
/// concentrating requests on low ids the way production traffic
/// concentrates on active users.
const TRAFFIC_SKEW: f64 = 2.0;

/// FNV-1a fold over a top-K slate.
fn fold_slate(mut h: u64, items: &[ItemId]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    for v in items {
        for b in v.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Per-phase replay measurements.
struct PhaseStats {
    name: &'static str,
    wall_secs: f64,
    requests: usize,
    hits: u64,
    /// Per-request latencies in nanoseconds, merged across workers.
    latencies_ns: Vec<u64>,
    /// Order-independent fold of every served slate.
    checksum: u64,
}

impl PhaseStats {
    fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    fn rps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn percentile_us(&self, p: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies_ns.len() as f64 * p).ceil() as usize)
            .clamp(1, self.latencies_ns.len());
        self.latencies_ns[rank - 1] as f64 / 1000.0
    }
}

/// Replays `trace` across `threads` workers partitioned by user id.
/// `cached == false` bypasses the cache entirely (`compute_fresh`).
fn replay(
    name: &'static str,
    server: &Server,
    trace: &[UserId],
    threads: usize,
    cached: bool,
) -> PhaseStats {
    let workers: Vec<usize> = (0..threads.max(1)).collect();
    let t0 = Instant::now();
    let per_worker = par_map(&workers, threads, |_, &w| {
        let mut scratch = server.make_scratch();
        let mut latencies: Vec<u64> = Vec::new();
        let mut hits = 0u64;
        let mut checksum = 0u64;
        for &user in trace {
            if user.index() % threads.max(1) != w {
                continue;
            }
            let t = Instant::now();
            let hit = if cached {
                server.serve(user, &mut scratch)
            } else {
                server.compute_fresh(user, &mut scratch);
                false
            };
            latencies.push(t.elapsed().as_nanos() as u64);
            hits += u64::from(hit);
            checksum ^= fold_slate(0xcbf2_9ce4_8422_2325, scratch.top_k());
        }
        (latencies, hits, checksum)
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut stats = PhaseStats {
        name,
        wall_secs,
        requests: trace.len(),
        hits: 0,
        latencies_ns: Vec::with_capacity(trace.len()),
        checksum: 0,
    };
    // Fixed-order reduction over the worker slots (par_map returns them
    // in input order); the XOR checksum is additionally order-free, so
    // it is comparable across thread counts too.
    for (lat, hits, checksum) in per_worker {
        stats.latencies_ns.extend_from_slice(&lat);
        stats.hits += hits;
        stats.checksum ^= checksum;
    }
    stats.latencies_ns.sort_unstable();
    stats
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let threads = threads_from_args(&args).unwrap_or(4);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_serve.json");
    let requests = if full { REQUESTS_FULL } else { REQUESTS_SMOKE };
    let p99_budget_ms = if full { P99_BUDGET_FULL_MS } else { P99_BUDGET_SMOKE_MS };
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = if full { ScenarioConfig::huge() } else { ScenarioConfig::huge_smoke() };
    println!(
        "serve_bench: scenario `{}` ({} users, {} items), {requests} requests, \
         {threads} thread(s) on a {host_threads}-thread host",
        config.name, config.num_users, config.num_items
    );

    // Dataset + served model. The model is a seeded TransE initialization
    // over the item KG: serving latency is shape-dependent, not
    // weight-dependent, and initialization keeps the smoke drill fast.
    let t0 = Instant::now();
    let synth = generate_streaming(&config, SEED);
    let rows = synth.dataset.interactions.num_interactions();
    let (entities, relations) =
        (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5E12);
    let model = Box::new(TransE::new(&mut rng, entities, relations, DIM, 1.0));
    let serve_config = ServeConfig {
        // Collision-free cache (capacity = users): hit counts depend only
        // on the trace, never on eviction timing.
        cache_capacity: config.num_users,
        cache_shards: 64,
        ..ServeConfig::default()
    };
    let k = serve_config.k;
    let server = Server::new(synth.dataset, model, serve_config);
    println!(
        "  setup: {rows} rows, {entities} entities in {:.2}s (index {:.1} MiB)",
        t0.elapsed().as_secs_f64(),
        server.index().memory_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Deterministic skewed trace.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7AFF);
    let trace: Vec<UserId> = (0..requests)
        .map(|_| {
            let x: f64 = rng.gen::<f64>();
            UserId((config.num_users as f64 * x.powf(TRAFFIC_SKEW)) as u32)
        })
        .collect();

    // Replay phases.
    let uncached = replay("uncached", &server, &trace, threads, false);
    let cold = replay("cached_cold", &server, &trace, threads, true);
    let warm = replay("cached_warm", &server, &trace, threads, true);

    // Gates.
    let results_deterministic =
        uncached.checksum == cold.checksum && cold.checksum == warm.checksum;
    let warm_speedup_p50 = {
        let w = warm.percentile_us(0.50);
        if w > 0.0 {
            uncached.percentile_us(0.50) / w
        } else {
            f64::INFINITY
        }
    };
    let warm_wins = warm.percentile_us(0.50) < uncached.percentile_us(0.50);
    let p99_ms = warm.percentile_us(0.99) / 1000.0;
    let p99_within_budget = p99_ms <= p99_budget_ms;
    let gates_green = results_deterministic && warm_wins;

    let phases = [&uncached, &cold, &warm];
    for p in phases {
        println!(
            "  {}: p50 {:.1}us p99 {:.1}us, {:.0} req/s, hit rate {:.3}, checksum {:016x}",
            p.name,
            p.percentile_us(0.50),
            p.percentile_us(0.99),
            p.rps(),
            p.hit_rate(),
            p.checksum
        );
    }
    println!(
        "  gates: deterministic={results_deterministic} \
         warm_speedup_p50={warm_speedup_p50:.1}x p99 {p99_ms:.3}ms of {p99_budget_ms}ms budget"
    );

    // Artifact.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generator\": \"serve_bench\",\n");
    json.push_str(&format!("  \"scenario\": {},\n", json_str(&config.name)));
    json.push_str(&format!("  \"mode\": {},\n", json_str(if full { "full" } else { "smoke" })));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"users\": {},\n", config.num_users));
    json.push_str(&format!("  \"items\": {},\n", config.num_items));
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"k\": {k},\n"));
    json.push_str(&format!("  \"cache_capacity\": {},\n", config.num_users));
    json.push_str("  \"phases\": {\n");
    for (i, p) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {}: {{ \"wall_secs\": {}, \"requests\": {}, \"rps\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"hit_rate\": {}, \"checksum\": {} }}{}\n",
            json_str(p.name),
            json_f64(p.wall_secs),
            p.requests,
            json_f64(p.rps()),
            json_f64(p.percentile_us(0.50)),
            json_f64(p.percentile_us(0.99)),
            json_f64(p.hit_rate()),
            json_str(&format!("{:016x}", p.checksum)),
            if i + 1 == phases.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"warm_speedup_p50\": {},\n", json_f64(warm_speedup_p50)));
    json.push_str(&format!("  \"results_deterministic\": {results_deterministic},\n"));
    json.push_str(&format!("  \"p99_budget_ms\": {},\n", json_f64(p99_budget_ms)));
    json.push_str(&format!("  \"p99_within_budget\": {p99_within_budget},\n"));
    json.push_str(&format!("  \"gates_green\": {}\n", gates_green && p99_within_budget));
    json.push_str("}\n");
    let mut f = std::fs::File::create(out_path).expect("create BENCH_serve.json");
    f.write_all(json.as_bytes()).expect("write BENCH_serve.json");
    println!("serve_bench: wrote {out_path}");

    if !p99_within_budget {
        std::process::exit(2);
    }
    if !gates_green {
        std::process::exit(1);
    }
}
