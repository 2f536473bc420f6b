//! CSR-backed knowledge graph storage.
//!
//! The graph is immutable once built (see [`crate::KgBuilder`]); all
//! surveyed algorithms treat the KG as a fixed input. Facts live in a
//! structure-of-arrays [`CsrAdjacency`] — per-entity `u32` offsets plus
//! packed head/relation/tail columns sorted by `(head, relation, tail)` —
//! which makes per-entity neighbor scans contiguous, relation-restricted
//! scans a binary-search-plus-slice, and the whole store 12 bytes per
//! triple instead of the ~20 the old tuple-plus-duplicate-triples layout
//! paid.

use crate::csr::CsrAdjacency;
use crate::ids::{id32, EntityId, EntityTypeId, RelationId, Triple};

/// An immutable heterogeneous knowledge graph.
///
/// In the survey's terms this is a HIN `G = (V, E)` with entity-type map
/// `φ` and relation-type map `ψ` (Section 3); a KG is an instance of it.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    entity_names: Vec<String>,
    entity_types: Vec<EntityTypeId>,
    type_names: Vec<String>,
    relation_names: Vec<String>,
    /// Number of relations that are not auto-generated inverses.
    base_relations: usize,
    /// Flat-array adjacency holding every fact exactly once.
    adj: CsrAdjacency,
}

impl KnowledgeGraph {
    /// Assembles a graph from finalized parts. Used by [`crate::KgBuilder`];
    /// library users should go through the builder.
    pub fn from_parts(
        entity_names: Vec<String>,
        entity_types: Vec<EntityTypeId>,
        type_names: Vec<String>,
        relation_names: Vec<String>,
        base_relations: usize,
        mut triples: Vec<Triple>,
    ) -> Self {
        assert_eq!(entity_names.len(), entity_types.len(), "entity name/type length mismatch");
        let n = entity_names.len();
        triples.sort_by_key(|t| (t.head.0, t.rel.0, t.tail.0));
        let adj = CsrAdjacency::from_sorted_triples(n, &triples);
        Self { entity_names, entity_types, type_names, relation_names, base_relations, adj }
    }

    /// Number of entities `|V|`.
    pub fn num_entities(&self) -> usize {
        self.entity_names.len()
    }

    /// Number of relation types `|R|` (including materialized inverses).
    pub fn num_relations(&self) -> usize {
        self.relation_names.len()
    }

    /// Number of relation types excluding auto-generated inverses.
    pub fn num_base_relations(&self) -> usize {
        self.base_relations
    }

    /// Number of entity types `|A|`.
    pub fn num_entity_types(&self) -> usize {
        self.type_names.len()
    }

    /// Number of stored triples (facts).
    pub fn num_triples(&self) -> usize {
        self.adj.num_edges()
    }

    /// Name of entity `e`.
    pub fn entity_name(&self, e: EntityId) -> &str {
        &self.entity_names[e.index()]
    }

    /// Type of entity `e` (the map `φ`).
    pub fn entity_type(&self, e: EntityId) -> EntityTypeId {
        self.entity_types[e.index()]
    }

    /// Name of entity type `t`.
    pub fn type_name(&self, t: EntityTypeId) -> &str {
        &self.type_names[t.index()]
    }

    /// Name of relation `r`.
    pub fn relation_name(&self, r: RelationId) -> &str {
        &self.relation_names[r.index()]
    }

    /// Looks up a relation id by name (linear scan; graphs have few types).
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relation_names.iter().position(|n| n == name).map(|i| RelationId(id32(i)))
    }

    /// Out-degree of entity `e`.
    #[inline]
    pub fn degree(&self, e: EntityId) -> usize {
        self.adj.degree(e)
    }

    /// Iterator over the out-edges `(relation, tail)` of `e`, sorted by
    /// `(relation, tail)`.
    pub fn neighbors(&self, e: EntityId) -> impl Iterator<Item = (RelationId, EntityId)> + '_ {
        self.adj.rel_slice(e).iter().copied().zip(self.adj.tail_slice(e).iter().copied())
    }

    /// Relation column of `e`'s out-edges (parallel to [`Self::tail_slice`]).
    #[inline]
    pub fn rel_slice(&self, e: EntityId) -> &[RelationId] {
        self.adj.rel_slice(e)
    }

    /// Tail column of `e`'s out-edges (parallel to [`Self::rel_slice`]).
    #[inline]
    pub fn tail_slice(&self, e: EntityId) -> &[EntityId] {
        self.adj.tail_slice(e)
    }

    /// The `k`-th out-edge of `e` as a `(relation, tail)` pair.
    #[inline]
    pub fn edge_at(&self, e: EntityId, k: usize) -> (RelationId, EntityId) {
        self.adj.edge_at(e, k)
    }

    /// Out-neighbors of `e` via a specific relation, as a contiguous slice
    /// of tails (the relation is implied by the query).
    pub fn neighbors_by_relation(&self, e: EntityId, r: RelationId) -> &[EntityId] {
        let rels = self.adj.rel_slice(e);
        let lo = rels.partition_point(|&er| er < r);
        let hi = rels.partition_point(|&er| er <= r);
        &self.adj.tail_slice(e)[lo..hi]
    }

    /// Whether the fact `⟨h, r, t⟩` is in the graph.
    pub fn contains(&self, head: EntityId, rel: RelationId, tail: EntityId) -> bool {
        self.neighbors_by_relation(head, rel).binary_search(&tail).is_ok()
    }

    /// The fact stored at index `i` of the head-major sorted order.
    /// O(1); the KGE trainers sample facts uniformly by index.
    #[inline]
    pub fn triple_at(&self, i: usize) -> Triple {
        self.adj.triple_at(i)
    }

    /// Iterates all facts in head-major sorted order.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.adj.iter_triples()
    }

    /// The underlying flat-array adjacency (integrity checks and memory
    /// accounting read it directly).
    pub fn csr(&self) -> &CsrAdjacency {
        &self.adj
    }

    /// Replaces the adjacency with **no validation**.
    ///
    /// Exists for the kglint `MD007` corrupted fixtures, which need a
    /// graph whose layout is structurally broken; production code builds
    /// graphs through [`crate::KgBuilder`] or [`Self::from_parts`].
    pub fn set_adjacency_unchecked(&mut self, adj: CsrAdjacency) {
        self.adj = adj;
    }
}

#[cfg(test)]
impl KnowledgeGraph {
    /// Looks up an entity id by name (linear scan; a test helper).
    pub(crate) fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entity_names.iter().position(|n| n == name).map(|i| EntityId(id32(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;

    fn toy() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let tg = b.entity_type("genre");
        let m1 = b.entity("m1", tm);
        let m2 = b.entity("m2", tm);
        let g1 = b.entity("g1", tg);
        let r_genre = b.relation("has_genre");
        let r_seq = b.relation("sequel_of");
        b.triple(m1, r_genre, g1);
        b.triple(m2, r_genre, g1);
        b.triple(m2, r_seq, m1);
        b.build(false)
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.num_entities(), 3);
        assert_eq!(g.num_relations(), 2);
        assert_eq!(g.num_entity_types(), 2);
        assert_eq!(g.num_triples(), 3);
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = toy();
        let m2 = g.entity_by_name("m2").unwrap();
        let nbrs: Vec<_> = g.neighbors(m2).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(g.edge_at(m2, 0), nbrs[0]);
        assert_eq!(g.edge_at(m2, 1), nbrs[1]);
    }

    #[test]
    fn neighbors_by_relation_slices() {
        let g = toy();
        let m2 = g.entity_by_name("m2").unwrap();
        let r_genre = g.relation_by_name("has_genre").unwrap();
        let r_seq = g.relation_by_name("sequel_of").unwrap();
        assert_eq!(g.neighbors_by_relation(m2, r_genre).len(), 1);
        assert_eq!(g.neighbors_by_relation(m2, r_seq).len(), 1);
        let m1 = g.entity_by_name("m1").unwrap();
        assert_eq!(g.neighbors_by_relation(m1, r_seq).len(), 0);
    }

    #[test]
    fn contains_checks_facts() {
        let g = toy();
        let m1 = g.entity_by_name("m1").unwrap();
        let g1 = g.entity_by_name("g1").unwrap();
        let r = g.relation_by_name("has_genre").unwrap();
        assert!(g.contains(m1, r, g1));
        assert!(!g.contains(g1, r, m1));
    }

    #[test]
    fn triples_accessible_by_index_and_iterator() {
        let g = toy();
        let all: Vec<Triple> = g.iter_triples().collect();
        assert_eq!(all.len(), g.num_triples());
        assert!(all
            .windows(2)
            .all(|w| (w[0].head.0, w[0].rel.0, w[0].tail.0)
                <= (w[1].head.0, w[1].rel.0, w[1].tail.0)));
        for (i, t) in all.iter().enumerate() {
            assert_eq!(g.triple_at(i), *t);
        }
    }

    #[test]
    fn empty_graph_ok() {
        let g = KgBuilder::new().build(false);
        assert_eq!(g.num_entities(), 0);
        assert_eq!(g.num_triples(), 0);
    }
}
