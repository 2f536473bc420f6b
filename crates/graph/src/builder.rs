//! Incremental construction of [`crate::KnowledgeGraph`]s.
//!
//! The builder interns entity and relation names, assigns dense ids, and
//! (optionally) materializes inverse relations — the surveyed propagation
//! models (RippleNet, KGCN, KGAT) all treat the KG as bidirectional by
//! adding `r⁻¹` edges, so the builder supports that directly.

use crate::graph::KnowledgeGraph;
use crate::ids::{id32, EntityId, EntityTypeId, RelationId, Triple};
use std::collections::HashMap;

/// Builder for [`KnowledgeGraph`].
///
/// ```
/// use kgrec_graph::KgBuilder;
///
/// let mut b = KgBuilder::new();
/// let movie = b.entity_type("movie");
/// let genre = b.entity_type("genre");
/// let avatar = b.entity("Avatar", movie);
/// let scifi = b.entity("Sci-Fi", genre);
/// let has_genre = b.relation("genre");
/// b.triple(avatar, has_genre, scifi);
/// let graph = b.build(true); // materialize inverse relations
/// assert_eq!(graph.num_triples(), 2); // edge + its inverse
/// assert!(graph.contains(avatar, has_genre, scifi));
/// ```
#[derive(Debug, Default)]
pub struct KgBuilder {
    entity_names: Vec<String>,
    entity_types: Vec<EntityTypeId>,
    entity_index: HashMap<String, EntityId>,
    type_names: Vec<String>,
    type_index: HashMap<String, EntityTypeId>,
    relation_names: Vec<String>,
    relation_index: HashMap<String, RelationId>,
    triples: Vec<Triple>,
}

impl KgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an entity type by name, returning its id.
    pub fn entity_type(&mut self, name: &str) -> EntityTypeId {
        if let Some(&id) = self.type_index.get(name) {
            return id;
        }
        let id = EntityTypeId(id32(self.type_names.len()));
        self.type_names.push(name.to_owned());
        self.type_index.insert(name.to_owned(), id);
        id
    }

    /// Interns an entity by name with the given type, returning its id.
    ///
    /// Re-adding an existing name returns the original id; the type of the
    /// first insertion wins (a warning-free, deterministic rule).
    pub fn entity(&mut self, name: &str, ty: EntityTypeId) -> EntityId {
        if let Some(&id) = self.entity_index.get(name) {
            return id;
        }
        let id = EntityId(id32(self.entity_names.len()));
        self.entity_names.push(name.to_owned());
        self.entity_types.push(ty);
        self.entity_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a relation type by name, returning its id.
    pub fn relation(&mut self, name: &str) -> RelationId {
        if let Some(&id) = self.relation_index.get(name) {
            return id;
        }
        let id = RelationId(id32(self.relation_names.len()));
        self.relation_names.push(name.to_owned());
        self.relation_index.insert(name.to_owned(), id);
        id
    }

    /// Adds one triple. Duplicate triples are kept (multigraph semantics);
    /// deduplication, when needed, happens in `build`.
    pub fn triple(&mut self, head: EntityId, rel: RelationId, tail: EntityId) {
        assert!(head.index() < self.entity_names.len(), "triple: unknown head entity");
        assert!(tail.index() < self.entity_names.len(), "triple: unknown tail entity");
        assert!(rel.index() < self.relation_names.len(), "triple: unknown relation");
        self.triples.push(Triple::new(head, rel, tail));
    }

    /// Finalizes the graph. When `add_inverse` is true, every relation `r`
    /// gets a paired relation `r⁻¹` (named `"<r>_inv"`) and each triple a
    /// mirrored edge, making the graph traversable in both directions while
    /// keeping relation semantics distinguishable.
    pub fn build(mut self, add_inverse: bool) -> KnowledgeGraph {
        // Deduplicate identical triples for deterministic CSR layout.
        self.triples.sort_by_key(|t| (t.head.0, t.rel.0, t.tail.0));
        self.triples.dedup();
        let base_relations = self.relation_names.len();
        let mut triples = self.triples.clone();
        let mut relation_names = self.relation_names.clone();
        if add_inverse {
            relation_names.reserve(base_relations);
            for i in 0..base_relations {
                relation_names.push(format!("{}_inv", self.relation_names[i]));
            }
            triples.reserve(self.triples.len());
            for t in &self.triples {
                triples.push(Triple::new(
                    t.tail,
                    RelationId(id32(t.rel.0 as usize + base_relations)),
                    t.head,
                ));
            }
        }
        KnowledgeGraph::from_parts(
            self.entity_names,
            self.entity_types,
            self.type_names,
            relation_names,
            base_relations,
            triples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("movie");
        let e1 = b.entity("Avatar", ty);
        let e2 = b.entity("Avatar", ty);
        assert_eq!(e1, e2);
        let r1 = b.relation("genre");
        let r2 = b.relation("genre");
        assert_eq!(r1, r2);
    }

    #[test]
    fn build_dedups_triples() {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let a = b.entity("a", ty);
        let c = b.entity("c", ty);
        let r = b.relation("r");
        b.triple(a, r, c);
        b.triple(a, r, c);
        let g = b.build(false);
        assert_eq!(g.num_triples(), 1);
    }

    #[test]
    fn inverse_relations_materialized() {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let a = b.entity("a", ty);
        let c = b.entity("c", ty);
        let r = b.relation("r");
        b.triple(a, r, c);
        let g = b.build(true);
        assert_eq!(g.num_relations(), 2);
        assert_eq!(g.num_triples(), 2);
        assert_eq!(g.relation_name(RelationId(1)), "r_inv");
        // Edge is traversable from c back to a.
        let nbrs: Vec<_> = g.neighbors(c).collect();
        assert_eq!(nbrs, vec![(RelationId(1), a)]);
    }

    #[test]
    #[should_panic(expected = "unknown head entity")]
    fn triple_validates_entities() {
        let mut b = KgBuilder::new();
        let r = b.relation("r");
        b.triple(EntityId(0), r, EntityId(1));
    }
}
