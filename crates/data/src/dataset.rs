//! The full dataset bundle: interactions + item knowledge graph.
//!
//! Survey Section 4.1 distinguishes two graph constructions:
//!
//! * the **item graph** — items and their attributes only (CKE, DKN, MKR,
//!   RippleNet, KGCN…); here the dataset carries an item↔entity alignment;
//! * the **user–item graph** — users folded into the KG with an `interact`
//!   relation (CFKG, KGAT, and all path-based methods);
//!
//! [`KgDataset`] stores the first and can materialize the second from any
//! training matrix via [`KgDataset::user_item_graph`] (only *train*
//! interactions are folded in — folding test edges would leak labels).

use crate::columnar::InteractionMatrix;
use crate::ids::{ItemId, UserId};
use kgrec_graph::{id32, EntityId, KgBuilder, KnowledgeGraph, RelationId};

/// Name of the interaction relation in materialized user–item graphs.
pub const INTERACT_RELATION: &str = "interact";

/// Name of the user–user friendship relation in materialized user–item
/// graphs (survey §6, "User Side Information").
pub const FRIEND_RELATION: &str = "friend";

/// A recommendation dataset with knowledge-graph side information.
#[derive(Debug, Clone)]
pub struct KgDataset {
    /// All observed interactions (pre-split).
    pub interactions: InteractionMatrix,
    /// The item knowledge graph (items + attribute entities).
    pub graph: KnowledgeGraph,
    /// Alignment: `item_entities[j]` is the graph entity of item `v_j`.
    pub item_entities: Vec<EntityId>,
    /// Optional per-item token lists (synthetic "titles" for the news
    /// scenario; used by DKN-style models). Token ids index a vocabulary
    /// of size [`KgDataset::vocab_size`].
    pub item_words: Option<Vec<Vec<u32>>>,
    /// Vocabulary size when `item_words` is present, else 0.
    pub vocab_size: usize,
    /// Optional user–user social links (survey §6: user side
    /// information). Folded into [`KgDataset::user_item_graph`] as
    /// `friend` edges (both directions).
    pub social_links: Option<Vec<(UserId, UserId)>>,
}

/// A user–item graph materialized from a [`KgDataset`] and a train matrix.
#[derive(Debug, Clone)]
pub struct UserItemGraph {
    /// The combined graph (users + items + attributes).
    pub graph: KnowledgeGraph,
    /// Entity of user `u_i`.
    pub user_entities: Vec<EntityId>,
    /// Entity of item `v_j` in the combined graph.
    pub item_entities: Vec<EntityId>,
    /// The `interact` relation id in the combined graph.
    pub interact: RelationId,
    /// The inverse `interact_inv` relation id.
    pub interact_inv: RelationId,
}

impl KgDataset {
    /// Creates a dataset bundle.
    ///
    /// # Panics
    /// Panics if the alignment length differs from the item count or an
    /// aligned entity is out of range for the graph.
    pub fn new(
        interactions: InteractionMatrix,
        graph: KnowledgeGraph,
        item_entities: Vec<EntityId>,
    ) -> Self {
        assert_eq!(
            item_entities.len(),
            interactions.num_items(),
            "KgDataset: alignment must cover every item"
        );
        for e in &item_entities {
            assert!(e.index() < graph.num_entities(), "KgDataset: aligned entity out of range");
        }
        Self {
            interactions,
            graph,
            item_entities,
            item_words: None,
            vocab_size: 0,
            social_links: None,
        }
    }

    /// Attaches user–user social links (survey §6 extension). Links are
    /// interpreted as undirected friendships; both directions are folded
    /// into the user–item graph.
    pub fn with_social_links(mut self, links: Vec<(UserId, UserId)>) -> Self {
        for &(a, b) in &links {
            assert!(a.index() < self.interactions.num_users(), "social link user out of range");
            assert!(b.index() < self.interactions.num_users(), "social link user out of range");
        }
        self.social_links = Some(links);
        self
    }

    /// Attaches per-item token lists (for text-aware models).
    pub fn with_item_words(mut self, words: Vec<Vec<u32>>, vocab_size: usize) -> Self {
        assert_eq!(
            words.len(),
            self.interactions.num_items(),
            "with_item_words: one token list per item"
        );
        self.item_words = Some(words);
        self.vocab_size = vocab_size;
        self
    }

    /// Entity aligned with item `v`.
    pub fn entity_of(&self, v: ItemId) -> EntityId {
        self.item_entities[v.index()]
    }

    /// Reverse alignment: item for a graph entity, if any.
    pub fn item_of(&self, e: EntityId) -> Option<ItemId> {
        // Linear scan is fine: called only by explanation rendering.
        self.item_entities.iter().position(|&x| x == e).map(|i| ItemId(id32(i)))
    }

    /// Builds the user–item graph for a given training matrix: the item KG
    /// plus one entity per user and `interact`/`interact_inv` edges for
    /// every *training* interaction.
    pub fn user_item_graph(&self, train: &InteractionMatrix) -> UserItemGraph {
        let g = &self.graph;
        let mut b = KgBuilder::new();
        // Recreate entity types, entities and relations with stable ids by
        // inserting them in id order.
        for t in 0..g.num_entity_types() {
            b.entity_type(g.type_name(kgrec_graph::EntityTypeId(id32(t))));
        }
        for e in 0..g.num_entities() {
            let e = EntityId(id32(e));
            b.entity(g.entity_name(e), g.entity_type(e));
        }
        for r in 0..g.num_relations() {
            b.relation(g.relation_name(RelationId(id32(r))));
        }
        for t in g.iter_triples() {
            b.triple(t.head, t.rel, t.tail);
        }
        let user_ty = b.entity_type("user");
        let interact = b.relation(INTERACT_RELATION);
        let interact_inv = b.relation(&format!("{INTERACT_RELATION}_inv"));
        let user_entities: Vec<EntityId> =
            (0..train.num_users()).map(|u| b.entity(&format!("user:{u}"), user_ty)).collect();
        for u in 0..train.num_users() {
            let user = UserId(id32(u));
            let ue = user_entities[u];
            for &item in train.items_of(user) {
                let ie = self.item_entities[item.index()];
                b.triple(ue, interact, ie);
                b.triple(ie, interact_inv, ue);
            }
        }
        // User side information (survey §6): friendships as symmetric
        // `friend` edges between user entities.
        if let Some(links) = &self.social_links {
            let friend = b.relation(FRIEND_RELATION);
            for &(x, y) in links {
                if x != y {
                    b.triple(user_entities[x.index()], friend, user_entities[y.index()]);
                    b.triple(user_entities[y.index()], friend, user_entities[x.index()]);
                }
            }
        }
        // The base graph may already contain *_inv relations; we added our
        // own inverse edges explicitly, so build without auto-inverses.
        let graph = b.build(false);
        UserItemGraph {
            item_entities: self.item_entities.clone(),
            user_entities,
            interact,
            interact_inv,
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::Interaction;

    fn toy() -> KgDataset {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("item");
        let tg = b.entity_type("attr");
        let i0 = b.entity("item0", tm);
        let i1 = b.entity("item1", tm);
        let a = b.entity("attr0", tg);
        let r = b.relation("has_attr");
        b.triple(i0, r, a);
        b.triple(i1, r, a);
        let graph = b.build(true);
        let inter = InteractionMatrix::from_interactions(
            2,
            2,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(1), ItemId(1)),
            ],
        );
        KgDataset::new(inter, graph, vec![i0, i1])
    }

    #[test]
    fn alignment_roundtrip() {
        let d = toy();
        let e = d.entity_of(ItemId(1));
        assert_eq!(d.item_of(e), Some(ItemId(1)));
        assert_eq!(d.item_of(EntityId(2)), None); // the attribute entity
    }

    #[test]
    fn user_item_graph_adds_users_and_edges() {
        let d = toy();
        let uig = d.user_item_graph(&d.interactions);
        assert_eq!(uig.user_entities.len(), 2);
        // Users got fresh entities beyond the item KG's.
        assert!(uig.user_entities[0].index() >= d.graph.num_entities());
        // Each train interaction produced interact + interact_inv edges.
        let extra = uig.graph.num_triples() - d.graph.num_triples();
        assert_eq!(extra, 2 * d.interactions.num_interactions());
        // Edge is traversable both ways.
        let ue = uig.user_entities[0];
        let ie = uig.item_entities[0];
        assert!(uig.graph.contains(ue, uig.interact, ie));
        assert!(uig.graph.contains(ie, uig.interact_inv, ue));
    }

    #[test]
    fn user_item_graph_preserves_base_names() {
        let d = toy();
        let uig = d.user_item_graph(&d.interactions);
        assert_eq!(uig.graph.entity_name(EntityId(0)), "item0");
        assert_eq!(uig.graph.relation_name(RelationId(0)), "has_attr");
    }

    #[test]
    #[should_panic(expected = "alignment must cover every item")]
    fn alignment_length_checked() {
        let d = toy();
        let _ = KgDataset::new(d.interactions.clone(), d.graph.clone(), vec![]);
    }

    #[test]
    fn item_words_attach() {
        let d = toy().with_item_words(vec![vec![1, 2], vec![3]], 10);
        assert_eq!(d.vocab_size, 10);
        assert_eq!(d.item_words.as_ref().unwrap()[1], vec![3]);
    }

    #[test]
    fn social_links_fold_into_graph_symmetrically() {
        let d = toy().with_social_links(vec![(UserId(0), UserId(1))]);
        let uig = d.user_item_graph(&d.interactions);
        let friend = uig.graph.relation_by_name(super::FRIEND_RELATION).unwrap();
        let u0 = uig.user_entities[0];
        let u1 = uig.user_entities[1];
        assert!(uig.graph.contains(u0, friend, u1));
        assert!(uig.graph.contains(u1, friend, u0));
    }

    #[test]
    fn self_friendships_dropped() {
        let d = toy().with_social_links(vec![(UserId(0), UserId(0))]);
        let uig = d.user_item_graph(&d.interactions);
        let friend = uig.graph.relation_by_name(super::FRIEND_RELATION).unwrap();
        let u0 = uig.user_entities[0];
        assert!(!uig.graph.contains(u0, friend, u0));
    }

    #[test]
    #[should_panic(expected = "social link user out of range")]
    fn social_links_validated() {
        let _ = toy().with_social_links(vec![(UserId(0), UserId(9))]);
    }
}
