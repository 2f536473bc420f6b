//! Filtered link-prediction evaluation (the standard KGE benchmark).
//!
//! For each test triple `(h, r, t)` the tail is ranked against every
//! entity (and symmetrically the head), with known facts other than the
//! test triple filtered out of the candidate list. Reports mean rank (MR),
//! mean reciprocal rank (MRR), and Hits@K.

use crate::model::KgeModel;
use kgrec_graph::{EntityId, KnowledgeGraph, Triple};

/// Link-prediction metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPredictionReport {
    /// Mean rank of the true entity (1 is best).
    pub mean_rank: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Fraction of test triples ranked within the top 1.
    pub hits_at_1: f64,
    /// Fraction ranked within the top 3.
    pub hits_at_3: f64,
    /// Fraction ranked within the top 10.
    pub hits_at_10: f64,
}

/// Ranks one test triple against every candidate entity on both sides.
/// Returns `[tail_rank, head_rank]` — the per-triple unit of work the
/// worker pool shards.
fn triple_ranks<M: KgeModel + ?Sized>(
    model: &M,
    filter: &KnowledgeGraph,
    triple: Triple,
) -> [usize; 2] {
    let n = filter.num_entities();
    let true_score = model.score(triple.head, triple.rel, triple.tail);
    // Tail prediction.
    let mut tail_rank = 1usize;
    for e in 0..n as u32 {
        let cand = EntityId(e);
        if cand == triple.tail {
            continue;
        }
        if filter.contains(triple.head, triple.rel, cand) {
            continue; // filtered setting
        }
        if model.score(triple.head, triple.rel, cand) > true_score {
            tail_rank += 1;
        }
    }
    // Head prediction.
    let mut head_rank = 1usize;
    for e in 0..n as u32 {
        let cand = EntityId(e);
        if cand == triple.head {
            continue;
        }
        if filter.contains(cand, triple.rel, triple.tail) {
            continue;
        }
        if model.score(cand, triple.rel, triple.tail) > true_score {
            head_rank += 1;
        }
    }
    [tail_rank, head_rank]
}

/// Filtered link prediction on up to `threads` workers of the
/// deterministic pool.
///
/// Test triples are sharded across workers; each contributes its
/// `[tail_rank, head_rank]` pair, flattened in input order — the exact
/// rank sequence of the serial evaluation — before the (serial) MR / MRR
/// / Hits@K reduction. Reports are bit-identical at any thread count.
pub fn link_prediction_par<M: KgeModel + ?Sized>(
    model: &M,
    filter: &KnowledgeGraph,
    test: &[Triple],
    threads: usize,
) -> Option<LinkPredictionReport> {
    if test.is_empty() {
        return None;
    }
    let ranks: Vec<usize> =
        kgrec_linalg::par::par_map(test, threads, |_, &triple| triple_ranks(model, filter, triple))
            .into_iter()
            .flatten()
            .collect();
    let m = ranks.len() as f64;
    let mean_rank = ranks.iter().sum::<usize>() as f64 / m;
    let mrr = ranks.iter().map(|&r| 1.0 / r as f64).sum::<f64>() / m;
    let hits = |k: usize| ranks.iter().filter(|&&r| r <= k).count() as f64 / m;
    Some(LinkPredictionReport {
        mean_rank,
        mrr,
        hits_at_1: hits(1),
        hits_at_3: hits(3),
        hits_at_10: hits(10),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train, TrainConfig};
    use crate::transe::TransE;
    use kgrec_graph::{KgBuilder, RelationId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_test_returns_none() {
        let g = KgBuilder::new().build(false);
        let mut rng = StdRng::seed_from_u64(1);
        let m = TransE::new(&mut rng, 1, 1, 4, 1.0);
        assert!(link_prediction_par(&m, &g, &[], 1).is_none());
    }

    #[test]
    fn perfect_model_gets_rank_one() {
        // A degenerate 2-entity graph where the only candidate is correct.
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let a = b.entity("a", ty);
        let c = b.entity("c", ty);
        let r = b.relation("r");
        b.triple(a, r, c);
        let g = b.build(false);
        let mut rng = StdRng::seed_from_u64(2);
        let m = TransE::new(&mut rng, 2, 1, 4, 1.0);
        let rep = link_prediction_par(&m, &g, &[Triple::new(a, RelationId(0), c)], 1).unwrap();
        // Tail side: the only alternative (a) might outrank; head side the
        // only alternative (c) might outrank — ranks are in {1, 2}.
        assert!(rep.mean_rank >= 1.0 && rep.mean_rank <= 2.0);
        assert!(rep.hits_at_10 == 1.0);
    }

    #[test]
    fn trained_model_beats_untrained_on_mrr() {
        // Bipartite pattern: e_i -r-> e_{i+4}.
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..10).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for i in 0..5 {
            b.triple(es[i], r, es[i + 5]);
        }
        let g = b.build(false);
        let test: Vec<Triple> = g.iter_triples().collect();

        let mut rng = StdRng::seed_from_u64(3);
        let untrained = TransE::new(&mut rng, 10, 1, 16, 1.0);
        let before = link_prediction_par(&untrained, &g, &test, 1).unwrap();

        let mut trained = untrained.clone();
        train(
            &mut trained,
            &g,
            &TrainConfig { epochs: 80, learning_rate: 0.05, seed: 4, threads: None },
        );
        let after = link_prediction_par(&trained, &g, &test, 1).unwrap();
        assert!(
            after.mrr >= before.mrr,
            "training should not hurt MRR: {} -> {}",
            before.mrr,
            after.mrr
        );
        assert!(after.hits_at_10 >= before.hits_at_10);
    }

    #[test]
    fn parallel_link_prediction_is_bit_identical_to_serial() {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..12).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for i in 0..11 {
            b.triple(es[i], r, es[i + 1]);
        }
        let g = b.build(false);
        let mut rng = StdRng::seed_from_u64(7);
        let m = TransE::new(&mut rng, 12, 1, 8, 1.0);
        let test: Vec<Triple> = g.iter_triples().collect();
        let serial = link_prediction_par(&m, &g, &test, 1).unwrap();
        for threads in [2, 4, 7] {
            let par = link_prediction_par(&m, &g, &test, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn metrics_are_consistent() {
        // hits@1 <= hits@3 <= hits@10 and mrr in (0, 1].
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..6).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for i in 0..5 {
            b.triple(es[i], r, es[i + 1]);
        }
        let g = b.build(false);
        let mut rng = StdRng::seed_from_u64(5);
        let m = TransE::new(&mut rng, 6, 1, 8, 1.0);
        let test: Vec<Triple> = g.iter_triples().collect();
        let rep = link_prediction_par(&m, &g, &test, 1).unwrap();
        assert!(rep.hits_at_1 <= rep.hits_at_3);
        assert!(rep.hits_at_3 <= rep.hits_at_10);
        assert!(rep.mrr > 0.0 && rep.mrr <= 1.0);
        assert!(rep.mean_rank >= 1.0);
    }
}
