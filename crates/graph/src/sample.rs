//! Fixed-size neighbor sampling — the KGCN receptive field.
//!
//! KGCN (survey Section 4.3) samples a *fixed* number of neighbors per
//! entity so the propagation has a bounded, batchable receptive field:
//! sampling is with replacement when the degree is below the sample size.

use crate::graph::KnowledgeGraph;
use crate::ids::{EntityId, RelationId};
use rand::Rng;

/// Samples exactly `k` `(relation, neighbor)` pairs from the out-edges of
/// `e`, with replacement when `degree(e) < k`.
///
/// Returns an empty vector when `e` has no out-edges — callers treat such
/// entities as their own receptive field (KGCN pads with the entity
/// itself; that substitution lives at the model layer where the self
/// relation embedding is available).
pub(crate) fn sample_neighbors<R: Rng + ?Sized>(
    graph: &KnowledgeGraph,
    e: EntityId,
    k: usize,
    rng: &mut R,
) -> Vec<(RelationId, EntityId)> {
    // The RNG draw sequence here depends only on the degree and `k` — it
    // must stay identical to the pre-CSR tuple-slice implementation so the
    // golden transcripts hold.
    let degree = graph.degree(e);
    if degree == 0 || k == 0 {
        return Vec::new();
    }
    if degree <= k {
        let mut out = Vec::with_capacity(k);
        // Take everything once, then top up with replacement.
        for i in 0..degree {
            out.push(graph.edge_at(e, i));
        }
        while out.len() < k {
            out.push(graph.edge_at(e, rng.gen_range(0..degree)));
        }
        out
    } else {
        // Partial Fisher–Yates over indices: uniform without replacement.
        let mut idx: Vec<usize> = (0..degree).collect();
        for i in 0..k {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| graph.edge_at(e, i)).collect()
    }
}

/// Samples the multi-hop receptive field of `e`: `fields[0]` is `[e]`,
/// `fields[h]` the `k^h` sampled entities at hop `h`, each aligned so that
/// entity `i` of hop `h` has its `k` sampled neighbors at positions
/// `i*k..(i+1)*k` of hop `h+1` (relations recorded alongside).
///
/// Dead-end entities are padded by repeating the entity itself with
/// relation `RelationId(0)` — models treat relation 0 as a generic
/// self/`interact` relation for padding purposes.
pub fn receptive_field<R: Rng + ?Sized>(
    graph: &KnowledgeGraph,
    e: EntityId,
    k: usize,
    hops: usize,
    rng: &mut R,
) -> Vec<Vec<(RelationId, EntityId)>> {
    assert!(k > 0, "receptive_field: k must be positive");
    let mut fields: Vec<Vec<(RelationId, EntityId)>> = Vec::with_capacity(hops + 1);
    fields.push(vec![(RelationId(0), e)]);
    for h in 0..hops {
        let prev = &fields[h];
        let mut next = Vec::with_capacity(prev.len() * k);
        for &(_, ent) in prev {
            let sampled = sample_neighbors(graph, ent, k, rng);
            if sampled.is_empty() {
                for _ in 0..k {
                    next.push((RelationId(0), ent));
                }
            } else {
                next.extend(sampled);
            }
        }
        fields.push(next);
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (KnowledgeGraph, [EntityId; 3]) {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let ea = b.entity("a", ty);
        let eb = b.entity("b", ty);
        let ec = b.entity("c", ty);
        let r = b.relation("r");
        b.triple(ea, r, eb);
        b.triple(ea, r, ec);
        (b.build(false), [ea, eb, ec])
    }

    #[test]
    fn sample_exact_size_with_replacement() {
        let (g, [a, ..]) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_neighbors(&g, a, 5, &mut rng);
        assert_eq!(s.len(), 5);
        // Every sampled pair is a real edge.
        for &(r, t) in &s {
            assert!(g.contains(a, r, t));
        }
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let (g, [a, ..]) = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_neighbors(&g, a, 1, &mut rng);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sample_dead_end_empty() {
        let (g, [_, b, _]) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_neighbors(&g, b, 3, &mut rng).is_empty());
    }

    #[test]
    fn receptive_field_shapes() {
        let (g, [a, ..]) = toy();
        let mut rng = StdRng::seed_from_u64(4);
        let f = receptive_field(&g, a, 2, 2, &mut rng);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].len(), 1);
        assert_eq!(f[1].len(), 2);
        assert_eq!(f[2].len(), 4);
    }

    #[test]
    fn receptive_field_pads_dead_ends_with_self() {
        let (g, [_, b, _]) = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let f = receptive_field(&g, b, 3, 1, &mut rng);
        assert_eq!(f[1].len(), 3);
        assert!(f[1].iter().all(|&(_, t)| t == b));
    }

    #[test]
    fn zero_k_sample_empty() {
        let (g, [a, ..]) = toy();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(sample_neighbors(&g, a, 0, &mut rng).is_empty());
    }
}
