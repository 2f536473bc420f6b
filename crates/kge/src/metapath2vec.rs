//! Random-walk entity embeddings: metapath2vec-style skip-gram.
//!
//! entity2rec and KTGAN build entity representations with random walks on
//! the KG plus word2vec-style skip-gram training. This module implements
//! both: relation-uniform random walks (optionally constrained to a
//! meta-path pattern, as metapath2vec prescribes) and skip-gram with
//! negative sampling over the resulting corpora.

use kgrec_graph::{EntityId, KnowledgeGraph, MetaPath};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Skip-gram / walk hyper-parameters.
#[derive(Debug, Clone)]
pub struct Metapath2VecConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Walks started per entity.
    pub walks_per_entity: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Skip-gram window radius.
    pub window: usize,
    /// Negative samples per (center, context) pair.
    pub negatives: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Training epochs over the walk corpus.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Metapath2VecConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            walks_per_entity: 4,
            walk_length: 8,
            window: 2,
            negatives: 3,
            learning_rate: 0.05,
            epochs: 3,
            seed: 13,
        }
    }
}

/// Generates random walks. When `pattern` is given, each step follows the
/// next relation of the (cyclically repeated) meta-path; otherwise any
/// out-edge is taken uniformly. Walks stop early at dead ends.
pub(crate) fn random_walks(
    graph: &KnowledgeGraph,
    pattern: Option<&MetaPath>,
    config: &Metapath2VecConfig,
) -> Vec<Vec<EntityId>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut walks = Vec::new();
    for start in 0..graph.num_entities() as u32 {
        for _ in 0..config.walks_per_entity {
            let mut walk = vec![EntityId(start)];
            let mut cur = EntityId(start);
            for step in 0..config.walk_length {
                let next = match pattern {
                    Some(p) => {
                        let rel = p.relations()[step % p.len()];
                        let nbrs = graph.neighbors_by_relation(cur, rel);
                        if nbrs.is_empty() {
                            None
                        } else {
                            Some(nbrs[rng.gen_range(0..nbrs.len())])
                        }
                    }
                    None => {
                        let degree = graph.degree(cur);
                        if degree == 0 {
                            None
                        } else {
                            Some(graph.edge_at(cur, rng.gen_range(0..degree)).1)
                        }
                    }
                };
                match next {
                    Some(e) => {
                        walk.push(e);
                        cur = e;
                    }
                    None => break,
                }
            }
            if walk.len() > 1 {
                walks.push(walk);
            }
        }
    }
    walks
}

/// Trains skip-gram with negative sampling on `walks`, returning the
/// center-entity embedding table.
pub(crate) fn train_skipgram(
    graph: &KnowledgeGraph,
    walks: &[Vec<EntityId>],
    config: &Metapath2VecConfig,
) -> EmbeddingTable {
    let n = graph.num_entities();
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut center = EmbeddingTable::uniform(&mut rng, n, config.dim, 0.5 / config.dim as f32);
    let mut context = EmbeddingTable::uniform(&mut rng, n, config.dim, 0.5 / config.dim as f32);
    let lr = config.learning_rate;
    for _ in 0..config.epochs {
        for walk in walks {
            for (i, &c) in walk.iter().enumerate() {
                let lo = i.saturating_sub(config.window);
                let hi = (i + config.window + 1).min(walk.len());
                for j in lo..hi {
                    if j == i {
                        continue;
                    }
                    let o = walk[j];
                    sgns_step(&mut center, &mut context, c, o, 1.0, lr);
                    for _ in 0..config.negatives {
                        let neg = EntityId(rng.gen_range(0..n as u32));
                        if neg == o {
                            continue;
                        }
                        sgns_step(&mut center, &mut context, c, neg, 0.0, lr);
                    }
                }
            }
        }
    }
    center
}

/// One skip-gram-with-negative-sampling step: logistic regression of
/// `label` on `σ(centerᵀ·context)`.
fn sgns_step(
    center: &mut EmbeddingTable,
    context: &mut EmbeddingTable,
    c: EntityId,
    o: EntityId,
    label: f32,
    lr: f32,
) {
    let s = vector::dot(center.row(c.index()), context.row(o.index()));
    let g = vector::sigmoid(s) - label; // dL/ds for BCE
    let cv = center.row(c.index()).to_vec();
    let ov = context.row(o.index()).to_vec();
    center.add_to_row(c.index(), -lr * g, &ov);
    context.add_to_row(o.index(), -lr * g, &cv);
}

/// Convenience: walks + skip-gram in one call.
pub fn metapath2vec(
    graph: &KnowledgeGraph,
    pattern: Option<&MetaPath>,
    config: &Metapath2VecConfig,
) -> EmbeddingTable {
    let walks = random_walks(graph, pattern, config);
    train_skipgram(graph, &walks, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_graph::KgBuilder;

    /// Two 4-cliques joined by nothing: embeddings should cluster.
    fn two_cliques() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..8).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        for i in 4..8 {
            for j in 4..8 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        b.build(false)
    }

    #[test]
    fn walks_respect_graph_edges() {
        let g = two_cliques();
        let cfg = Metapath2VecConfig::default();
        let walks = random_walks(&g, None, &cfg);
        assert!(!walks.is_empty());
        for w in &walks {
            for pair in w.windows(2) {
                // Each consecutive pair must be a real edge.
                assert!(g.neighbors(pair[0]).any(|(_, t)| t == pair[1]));
            }
        }
    }

    #[test]
    fn walks_stop_at_dead_ends() {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let a = b.entity("a", ty);
        let c = b.entity("c", ty);
        let r = b.relation("r");
        b.triple(a, r, c);
        let g = b.build(false);
        let cfg = Metapath2VecConfig { walk_length: 10, ..Default::default() };
        let walks = random_walks(&g, None, &cfg);
        for w in &walks {
            assert!(w.len() <= 2);
        }
    }

    #[test]
    fn metapath_constrained_walks_follow_pattern() {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("m");
        let tg = b.entity_type("g");
        let m1 = b.entity("m1", tm);
        let m2 = b.entity("m2", tm);
        let g1 = b.entity("g1", tg);
        let r = b.relation("genre");
        b.triple(m1, r, g1);
        b.triple(m2, r, g1);
        let g = b.build(true);
        let p = MetaPath::from_names(&g, &["genre", "genre_inv"]).unwrap();
        let cfg = Metapath2VecConfig { walk_length: 4, ..Default::default() };
        let walks = random_walks(&g, Some(&p), &cfg);
        for w in &walks {
            // Entities alternate movie, genre, movie, ...
            for (k, &e) in w.iter().enumerate() {
                let ty = g.entity_type(e);
                if w[0] == m1 || w[0] == m2 {
                    if k % 2 == 0 {
                        assert_eq!(g.type_name(ty), "m");
                    } else {
                        assert_eq!(g.type_name(ty), "g");
                    }
                }
            }
        }
    }

    #[test]
    fn clique_members_closer_than_strangers() {
        let g = two_cliques();
        let cfg = Metapath2VecConfig {
            dim: 16,
            walks_per_entity: 12,
            walk_length: 8,
            epochs: 8,
            ..Default::default()
        };
        let emb = metapath2vec(&g, None, &cfg);
        // Mean within-clique cosine must exceed cross-clique cosine.
        let mut within = 0.0f32;
        let mut cross = 0.0f32;
        let mut wn = 0;
        let mut cn = 0;
        for i in 0..8usize {
            for j in (i + 1)..8usize {
                let cosine = vector::cosine(emb.row(i), emb.row(j));
                if (i < 4) == (j < 4) {
                    within += cosine;
                    wn += 1;
                } else {
                    cross += cosine;
                    cn += 1;
                }
            }
        }
        within /= wn as f32;
        cross /= cn as f32;
        assert!(within > cross, "within={within} cross={cross}");
    }
}
