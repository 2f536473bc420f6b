//! Knowledge-graph-embedding comparison: all five KGE algorithms of
//! survey §4.1 (TransE/H/R/D, DistMult) trained on the same synthetic
//! item KG and evaluated on filtered link prediction.
//!
//! ```bash
//! cargo run --release -p kgrec-bench --example kge_link_prediction
//! ```

use kgrec_bench::par;
use kgrec_data::synth::{generate, ScenarioConfig};
use kgrec_kge::eval::link_prediction_par;
use kgrec_kge::{train, DistMult, KgeModel, TrainConfig, TransD, TransE, TransH, TransR};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let synth = generate(&ScenarioConfig::tiny(), 3);
    let graph = &synth.dataset.graph;
    println!(
        "KG: {} entities, {} relations, {} triples\n",
        graph.num_entities(),
        graph.num_relations(),
        graph.num_triples()
    );
    // Hold out every 10th triple for evaluation (trained on the full
    // graph here for simplicity; the filter removes known facts).
    let test: Vec<_> = graph.iter_triples().step_by(10).collect();
    let cfg = TrainConfig { epochs: 30, learning_rate: 0.05, seed: 4, threads: None };
    let dim = 24;
    let mut rng = StdRng::seed_from_u64(9);
    let n = graph.num_entities();
    let r = graph.num_relations();
    // Filtered ranking shards test triples across the worker pool;
    // reports are bit-identical at any thread count.
    let threads = par::resolve_threads(None);

    let mut models: Vec<Box<dyn KgeModel>> = vec![
        Box::new(TransE::new(&mut rng, n, r, dim, 1.0)),
        Box::new(TransH::new(&mut rng, n, r, dim, 1.0)),
        Box::new(TransR::new(&mut rng, n, r, dim, dim, 1.0)),
        Box::new(TransD::new(&mut rng, n, r, dim, 1.0)),
        Box::new(DistMult::new(&mut rng, n, r, dim)),
    ];
    println!("{:<10} {:>8} {:>8} {:>8} {:>8}", "model", "MR", "MRR", "H@3", "H@10");
    for m in models.iter_mut() {
        // TransR trains at a quarter rate (see KgeRecommender docs).
        let cfg = if m.name() == "TransR" {
            TrainConfig { learning_rate: cfg.learning_rate / 4.0, ..cfg.clone() }
        } else {
            cfg.clone()
        };
        train(m.as_mut(), graph, &cfg);
        let rep = link_prediction_par(m.as_ref(), graph, &test, threads).expect("nonempty test");
        println!(
            "{:<10} {:>8.1} {:>8.4} {:>8.4} {:>8.4}",
            m.name(),
            rep.mean_rank,
            rep.mrr,
            rep.hits_at_3,
            rep.hits_at_10
        );
    }
}
