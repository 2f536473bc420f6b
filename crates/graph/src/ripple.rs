//! Relevant entities and ripple sets (survey Section 3).
//!
//! Given seed entities (a user's interacted items, or an entity itself),
//! the *k-hop relevant entities* are `E^k = { t | (h,r,t) ∈ G, h ∈ E^{k−1} }`
//! and the *k-th ripple set* is `S^k = { (h,r,t) ∈ G | h ∈ E^{k−1} }`.
//! RippleNet propagates user preference along these sets; AKUPM and the
//! item-side propagation models use the entity variant.

use crate::graph::KnowledgeGraph;
use crate::ids::{EntityId, Triple};
use rand::Rng;

/// The multi-hop ripple sets of one seed set: `sets[k]` is `S^{k+1}` in the
/// paper's 1-based notation.
#[derive(Debug, Clone)]
pub struct RippleSets {
    sets: Vec<Vec<Triple>>,
}

impl RippleSets {
    /// Ripple set of hop `k` (0-based; `hop(0)` is the paper's `S¹`).
    pub fn hop(&self, k: usize) -> &[Triple] {
        &self.sets[k]
    }

    /// Number of hops materialized.
    pub fn num_hops(&self) -> usize {
        self.sets.len()
    }

    /// Iterates over all triples across hops.
    pub fn all_triples(&self) -> impl Iterator<Item = &Triple> {
        self.sets.iter().flatten()
    }
}

/// Computes the k-hop relevant entity sets `E^0 … E^H` for `seeds`.
///
/// `result[0]` is the seed set itself (`E⁰`); `result[k]` the k-hop set.
/// Sets are deduplicated and sorted; an entity can appear at several hops
/// (the definition does not exclude revisits, and RippleNet relies on that).
pub fn relevant_entities(
    graph: &KnowledgeGraph,
    seeds: &[EntityId],
    hops: usize,
) -> Vec<Vec<EntityId>> {
    let mut out = Vec::with_capacity(hops + 1);
    let mut cur: Vec<EntityId> = seeds.to_vec();
    cur.sort();
    cur.dedup();
    out.push(cur.clone());
    for _ in 0..hops {
        let mut next: Vec<EntityId> = Vec::new();
        for &e in &cur {
            for (_, t) in graph.neighbors(e) {
                next.push(t);
            }
        }
        next.sort();
        next.dedup();
        out.push(next.clone());
        cur = next;
    }
    out
}

/// Builds `hops` ripple sets from `seeds`, each capped at `max_per_hop`
/// triples.
///
/// When a hop has more candidate triples than the cap, a uniform sample
/// *without* replacement is drawn; when it has fewer (but more than zero),
/// RippleNet's fixed-size-memory formulation samples *with* replacement —
/// both behaviours are provided through `fixed_size`:
///
/// * `fixed_size = false`: each hop holds `min(candidates, max_per_hop)`
///   distinct triples;
/// * `fixed_size = true`: each non-empty hop holds exactly `max_per_hop`
///   triples, repeating as necessary (the paper's memory layout).
pub fn ripple_sets<R: Rng + ?Sized>(
    graph: &KnowledgeGraph,
    seeds: &[EntityId],
    hops: usize,
    max_per_hop: usize,
    fixed_size: bool,
    rng: &mut R,
) -> RippleSets {
    assert!(max_per_hop > 0, "ripple_sets: max_per_hop must be positive");
    let mut sets = Vec::with_capacity(hops);
    let mut frontier: Vec<EntityId> = seeds.to_vec();
    frontier.sort();
    frontier.dedup();
    for _ in 0..hops {
        let mut candidates: Vec<Triple> = Vec::new();
        for &e in &frontier {
            for (r, t) in graph.neighbors(e) {
                candidates.push(Triple::new(e, r, t));
            }
        }
        let chosen: Vec<Triple> = if candidates.is_empty() {
            Vec::new()
        } else if fixed_size {
            (0..max_per_hop).map(|_| candidates[rng.gen_range(0..candidates.len())]).collect()
        } else if candidates.len() <= max_per_hop {
            candidates.clone()
        } else {
            // Partial Fisher–Yates for a uniform sample without replacement.
            let mut idx: Vec<usize> = (0..candidates.len()).collect();
            for i in 0..max_per_hop {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx[..max_per_hop].iter().map(|&i| candidates[i]).collect()
        };
        // Next frontier: tails of the *chosen* triples (matching the
        // sampled-memory propagation of RippleNet).
        let mut next: Vec<EntityId> = chosen.iter().map(|t| t.tail).collect();
        next.sort();
        next.dedup();
        sets.push(chosen);
        frontier = next;
        if frontier.is_empty() {
            // Remaining hops are empty.
            while sets.len() < hops {
                sets.push(Vec::new());
            }
            break;
        }
    }
    while sets.len() < hops {
        sets.push(Vec::new());
    }
    RippleSets { sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Chain a -> b -> c plus a -> d.
    fn toy() -> (KnowledgeGraph, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let ea = b.entity("a", ty);
        let eb = b.entity("b", ty);
        let ec = b.entity("c", ty);
        let ed = b.entity("d", ty);
        let r = b.relation("r");
        b.triple(ea, r, eb);
        b.triple(ea, r, ed);
        b.triple(eb, r, ec);
        (b.build(false), vec![ea, eb, ec, ed])
    }

    #[test]
    fn relevant_entities_hop_structure() {
        let (g, ids) = toy();
        let sets = relevant_entities(&g, &[ids[0]], 2);
        assert_eq!(sets[0], vec![ids[0]]);
        assert_eq!(sets[1], vec![ids[1], ids[3]]);
        assert_eq!(sets[2], vec![ids[2]]);
    }

    #[test]
    fn relevant_entities_dedups_seeds() {
        let (g, ids) = toy();
        let sets = relevant_entities(&g, &[ids[0], ids[0]], 1);
        assert_eq!(sets[0], vec![ids[0]]);
    }

    #[test]
    fn ripple_sets_heads_come_from_previous_hop() {
        let (g, ids) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let rs = ripple_sets(&g, &[ids[0]], 2, 10, false, &mut rng);
        assert_eq!(rs.num_hops(), 2);
        for t in rs.hop(0) {
            assert_eq!(t.head, ids[0]);
        }
        for t in rs.hop(1) {
            assert!(rs.hop(0).iter().any(|p| p.tail == t.head));
        }
    }

    #[test]
    fn ripple_sets_capped_without_replacement() {
        let (g, ids) = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let rs = ripple_sets(&g, &[ids[0]], 1, 1, false, &mut rng);
        assert_eq!(rs.hop(0).len(), 1);
    }

    #[test]
    fn ripple_sets_fixed_size_repeats() {
        let (g, ids) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        // b has exactly one out-edge; fixed sizing must repeat it 4 times.
        let rs = ripple_sets(&g, &[ids[1]], 1, 4, true, &mut rng);
        assert_eq!(rs.hop(0).len(), 4);
        assert!(rs.hop(0).iter().all(|t| t.head == ids[1]));
    }

    #[test]
    fn dead_end_produces_empty_tail_hops() {
        let (g, ids) = toy();
        let mut rng = StdRng::seed_from_u64(4);
        let rs = ripple_sets(&g, &[ids[2]], 3, 4, false, &mut rng);
        assert!((0..rs.num_hops()).all(|k| rs.hop(k).is_empty()));
        assert_eq!(rs.num_hops(), 3);
    }

    #[test]
    fn all_triples_spans_hops() {
        let (g, ids) = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let rs = ripple_sets(&g, &[ids[0]], 2, 10, false, &mut rng);
        assert_eq!(rs.all_triples().count(), rs.hop(0).len() + rs.hop(1).len());
    }
}
