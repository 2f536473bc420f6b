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
        train_boxed(m.as_mut(), graph, &cfg);
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

fn train_boxed(m: &mut dyn KgeModel, graph: &kgrec_graph::KnowledgeGraph, cfg: &TrainConfig) {
    // `train` is generic; re-dispatch through a small shim.
    struct Shim<'a>(&'a mut dyn KgeModel);
    impl KgeModel for Shim<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn num_entities(&self) -> usize {
            self.0.num_entities()
        }
        fn num_relations(&self) -> usize {
            self.0.num_relations()
        }
        fn score(
            &self,
            h: kgrec_graph::EntityId,
            r: kgrec_graph::RelationId,
            t: kgrec_graph::EntityId,
        ) -> f32 {
            self.0.score(h, r, t)
        }
        fn entity_table(&self) -> &kgrec_linalg::EmbeddingTable {
            self.0.entity_table()
        }
        fn relation_embedding(&self, r: kgrec_graph::RelationId) -> &[f32] {
            self.0.relation_embedding(r)
        }
        fn train_pair(
            &mut self,
            pos: kgrec_graph::Triple,
            neg: kgrec_graph::Triple,
            lr: f32,
        ) -> f32 {
            self.0.train_pair(pos, neg, lr)
        }
        fn post_epoch(&mut self) {
            self.0.post_epoch();
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    let mut shim = Shim(m);
    train(&mut shim, graph, cfg);
}
