//! Meta-paths and meta-graphs over the HIN schema.
//!
//! A meta-path `A₀ →R₁ A₁ →R₂ … →Rₖ Aₖ` (survey Section 3) is represented
//! by its relation sequence — in a well-formed schema the relation sequence
//! determines the entity types, so storing types redundantly is avoided.
//! A [`MetaGraph`] is a weighted union of meta-paths: richer than a single
//! path, which is the property FMG exploits; representing it as a union of
//! its constituent path decompositions is the standard computational
//! treatment (the commuting matrix of a meta-graph is a sum/fusion of the
//! commuting matrices of its paths).

use crate::graph::KnowledgeGraph;
use crate::ids::{EntityId, RelationId};

/// A relation-sequence meta-path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetaPath {
    relations: Vec<RelationId>,
}

impl MetaPath {
    /// Creates a meta-path from a relation sequence.
    ///
    /// # Panics
    /// Panics on an empty sequence — a zero-length meta-path is the
    /// identity and never useful as data.
    pub fn new(relations: Vec<RelationId>) -> Self {
        assert!(!relations.is_empty(), "MetaPath: empty relation sequence");
        Self { relations }
    }

    /// Builds a meta-path from relation names resolved against a graph.
    ///
    /// Returns `None` if any name is unknown.
    pub fn from_names(graph: &KnowledgeGraph, names: &[&str]) -> Option<Self> {
        let rels: Option<Vec<RelationId>> =
            names.iter().map(|n| graph.relation_by_name(n)).collect();
        rels.map(Self::new)
    }

    /// The relation sequence.
    pub fn relations(&self) -> &[RelationId] {
        &self.relations
    }

    /// Length (number of hops) of the meta-path.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Meta-paths are never empty; this always returns `false` and exists
    /// to satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Counts the walks from `source` that follow this meta-path, returning
    /// `(target, count)` pairs sorted by entity id.
    ///
    /// This is one row of the commuting matrix `M = W_{R₁} · … · W_{Rₖ}`;
    /// counts are `f64` because walk counts grow multiplicatively.
    pub fn walk_counts(&self, graph: &KnowledgeGraph, source: EntityId) -> Vec<(EntityId, f64)> {
        // frontier: sparse (entity -> count) kept as sorted vec.
        let mut frontier: Vec<(EntityId, f64)> = vec![(source, 1.0)];
        for &rel in &self.relations {
            let mut next: Vec<(EntityId, f64)> = Vec::new();
            for &(e, c) in &frontier {
                for &t in graph.neighbors_by_relation(e, rel) {
                    next.push((t, c));
                }
            }
            next.sort_by_key(|&(e, _)| e.0);
            // Merge duplicates.
            let mut merged: Vec<(EntityId, f64)> = Vec::with_capacity(next.len());
            for (e, c) in next {
                match merged.last_mut() {
                    Some((le, lc)) if *le == e => *lc += c,
                    _ => merged.push((e, c)),
                }
            }
            frontier = merged;
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }
}

/// A weighted union of meta-paths — the computational form of a meta-graph.
#[derive(Debug, Clone)]
pub struct MetaGraph {
    paths: Vec<(MetaPath, f64)>,
}

impl MetaGraph {
    /// Creates a meta-graph from equally-weighted paths.
    pub fn new(paths: Vec<MetaPath>) -> Self {
        let w = 1.0;
        Self { paths: paths.into_iter().map(|p| (p, w)).collect() }
    }

    /// Fused walk counts from `source`: the weighted sum of the per-path
    /// commuting rows.
    pub fn walk_counts(&self, graph: &KnowledgeGraph, source: EntityId) -> Vec<(EntityId, f64)> {
        let mut acc: Vec<(EntityId, f64)> = Vec::new();
        for (p, w) in &self.paths {
            for (e, c) in p.walk_counts(graph, source) {
                acc.push((e, c * w));
            }
        }
        acc.sort_by_key(|&(e, _)| e.0);
        let mut merged: Vec<(EntityId, f64)> = Vec::with_capacity(acc.len());
        for (e, c) in acc {
            match merged.last_mut() {
                Some((le, lc)) if *le == e => *lc += c,
                _ => merged.push((e, c)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;

    /// movie-genre-movie toy HIN:
    /// m1 -g-> g1, m2 -g-> g1, m3 -g-> g2 (inverses added).
    fn toy() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let tg = b.entity_type("genre");
        let m1 = b.entity("m1", tm);
        let m2 = b.entity("m2", tm);
        let m3 = b.entity("m3", tm);
        let g1 = b.entity("g1", tg);
        let g2 = b.entity("g2", tg);
        let r = b.relation("genre");
        b.triple(m1, r, g1);
        b.triple(m2, r, g1);
        b.triple(m3, r, g2);
        b.build(true)
    }

    #[test]
    fn walk_counts_mgm() {
        let g = toy();
        let p = MetaPath::from_names(&g, &["genre", "genre_inv"]).unwrap();
        let m1 = g.entity_by_name("m1").unwrap();
        let counts = p.walk_counts(&g, m1);
        // m1 -> g1 -> {m1, m2}
        assert_eq!(counts.len(), 2);
        let m2 = g.entity_by_name("m2").unwrap();
        assert!(counts.contains(&(m1, 1.0)));
        assert!(counts.contains(&(m2, 1.0)));
    }

    #[test]
    fn walk_counts_isolated() {
        let g = toy();
        let p = MetaPath::from_names(&g, &["genre", "genre_inv"]).unwrap();
        let m3 = g.entity_by_name("m3").unwrap();
        let counts = p.walk_counts(&g, m3);
        assert_eq!(counts, vec![(m3, 1.0)]);
    }

    #[test]
    fn metagraph_fuses_counts() {
        let g = toy();
        let p = MetaPath::from_names(&g, &["genre", "genre_inv"]).unwrap();
        let mg = MetaGraph { paths: vec![(p.clone(), 1.0), (p, 2.0)] };
        let m1 = g.entity_by_name("m1").unwrap();
        let counts = mg.walk_counts(&g, m1);
        assert!(counts.contains(&(m1, 3.0)));
    }

    #[test]
    #[should_panic(expected = "empty relation sequence")]
    fn empty_metapath_rejected() {
        let _ = MetaPath::new(vec![]);
    }
}
