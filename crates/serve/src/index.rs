//! The static retrieval index: KG adjacency plus alignment maps.
//!
//! Built once per served dataset; everything in here is immutable after
//! construction, so the request path reads it lock-free. The two derived
//! structures — the dense entity→item reverse map and the
//! attribute→items reverse adjacency — exist so stage-1 retrieval never
//! scans: `item_of_entity` is O(1) (the `KgDataset::item_of` it replaces
//! is a linear scan, fine for explanation rendering but not for a hot
//! loop), and `items_with` is a slice lookup.

use kgrec_data::ItemId;
use kgrec_graph::{EntityId, KnowledgeGraph};

/// Sentinel in the entity→item map for entities that are not items.
const NOT_AN_ITEM: u32 = u32::MAX;

/// Immutable retrieval-side index over the item knowledge graph.
#[derive(Debug)]
pub struct ServeIndex {
    graph: KnowledgeGraph,
    /// `item_entities[j]` is the graph entity of item `v_j`.
    item_entities: Vec<EntityId>,
    /// Dense reverse alignment: entity index → item id + 1 semantics via
    /// [`NOT_AN_ITEM`] sentinel.
    ent_to_item: Vec<u32>,
    /// Reverse adjacency offsets: for entity `e`,
    /// `rev_items[rev_offsets[e]..rev_offsets[e+1]]` are the items with
    /// an out-edge to `e`, ascending by item id.
    rev_offsets: Vec<u32>,
    /// Concatenated reverse-adjacency item lists.
    rev_items: Vec<u32>,
}

impl ServeIndex {
    /// Builds the index from the item KG and the item→entity alignment.
    ///
    /// # Panics
    /// If an entry of `item_entities` is out of the graph's entity range.
    pub(crate) fn build(graph: KnowledgeGraph, item_entities: Vec<EntityId>) -> Self {
        let n_ent = graph.num_entities();
        let mut ent_to_item = vec![NOT_AN_ITEM; n_ent];
        for (j, e) in item_entities.iter().enumerate() {
            assert!(e.index() < n_ent, "item entity {e:?} out of range");
            ent_to_item[e.index()] = j as u32;
        }
        // Count, prefix-sum, fill: reverse adjacency restricted to
        // *attribute* tails (item→item edges are followed forward via the
        // CSR itself, indexing them here would double-expand).
        let mut counts = vec![0u32; n_ent + 1];
        for &e in &item_entities {
            for &t in graph.tail_slice(e) {
                if ent_to_item[t.index()] == NOT_AN_ITEM {
                    counts[t.index() + 1] += 1;
                }
            }
        }
        for i in 0..n_ent {
            counts[i + 1] += counts[i];
        }
        let rev_offsets = counts;
        let mut cursor = rev_offsets.clone();
        let mut rev_items = vec![0u32; rev_offsets[n_ent] as usize];
        // Items visited in ascending id order, so each per-entity list is
        // ascending by item id — prefix truncation in stage 1 is
        // deterministic.
        for (j, &e) in item_entities.iter().enumerate() {
            for &t in graph.tail_slice(e) {
                if ent_to_item[t.index()] == NOT_AN_ITEM {
                    rev_items[cursor[t.index()] as usize] = j as u32;
                    cursor[t.index()] += 1;
                }
            }
        }
        Self { graph, item_entities, ent_to_item, rev_offsets, rev_items }
    }

    /// The item knowledge graph (CSR adjacency inside).
    #[inline]
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Number of items the index covers.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.item_entities.len()
    }

    /// Graph entity of item `v`.
    #[inline]
    pub(crate) fn entity_of(&self, v: ItemId) -> EntityId {
        self.item_entities[v.index()]
    }

    /// O(1) reverse alignment: the item aligned with entity `e`, if any.
    #[inline]
    pub(crate) fn item_of_entity(&self, e: EntityId) -> Option<ItemId> {
        let v = self.ent_to_item[e.index()];
        if v == NOT_AN_ITEM {
            None
        } else {
            Some(ItemId(v))
        }
    }

    /// Items with an out-edge to attribute entity `e` (ascending item
    /// id). Empty for item entities — their edges are walked forward.
    #[inline]
    pub(crate) fn items_with(&self, e: EntityId) -> &[u32] {
        let lo = self.rev_offsets[e.index()] as usize;
        let hi = self.rev_offsets[e.index() + 1] as usize;
        &self.rev_items[lo..hi]
    }

    /// Bytes of the derived maps (excludes the graph itself).
    pub fn memory_bytes(&self) -> usize {
        self.item_entities.len() * std::mem::size_of::<EntityId>()
            + self.ent_to_item.len() * 4
            + self.rev_offsets.len() * 4
            + self.rev_items.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};

    fn tiny_index() -> ServeIndex {
        let synth = generate(&ScenarioConfig::tiny(), 7);
        ServeIndex::build(synth.dataset.graph, synth.dataset.item_entities)
    }

    #[test]
    fn reverse_alignment_is_exact() {
        let idx = tiny_index();
        for j in 0..idx.num_items() {
            let v = ItemId(j as u32);
            assert_eq!(idx.item_of_entity(idx.entity_of(v)), Some(v));
        }
    }

    #[test]
    fn attribute_lists_cover_forward_edges() {
        let idx = tiny_index();
        for j in 0..idx.num_items() {
            let v = ItemId(j as u32);
            let e = idx.entity_of(v);
            for &t in idx.graph().tail_slice(e) {
                if idx.item_of_entity(t).is_none() {
                    assert!(
                        idx.items_with(t).contains(&(j as u32)),
                        "item {j} missing from reverse list of {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn attribute_lists_are_ascending() {
        let idx = tiny_index();
        for e in 0..idx.graph().num_entities() {
            let items = idx.items_with(EntityId(e as u32));
            assert!(items.windows(2).all(|w| w[0] < w[1]), "entity {e} list not ascending");
        }
    }
}
