//! Shared machinery for the path-based models.
//!
//! * canonical user–item meta-paths (`U →interact I →r A →r⁻¹ I` per
//!   attribute relation, plus the collaborative `U-I-U-I` path);
//! * a per-user path index: one bounded DFS from the user entity
//!   collecting every simple path that ends at an item entity, grouped by
//!   item — the substrate RKGE/KPRN/MCRec-style models consume.

use kgrec_data::dataset::UserItemGraph;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::paths::Path;
use kgrec_graph::{EntityId, MetaPath, RelationId};

/// The canonical meta-path set over a user–item graph: the collaborative
/// path `interact → interact⁻¹ → interact` plus, for every base attribute
/// relation `r` of the item KG, `interact → r → r⁻¹`.
///
/// These are exactly the path shapes HeteRec/Hete-MF/FMG hand-pick for
/// their datasets ("movie–actor–movie", "user–movie–user–movie", …).
pub(crate) fn canonical_metapaths(uig: &UserItemGraph) -> Vec<MetaPath> {
    let g = &uig.graph;
    let mut out = vec![MetaPath::new(vec![uig.interact, uig.interact_inv, uig.interact])];
    let base = item_kg_base_relations(uig);
    for r in base {
        let name = g.relation_name(r);
        if let Some(inv) = g.relation_by_name(&format!("{name}_inv")) {
            out.push(MetaPath::new(vec![uig.interact, r, inv]));
        }
    }
    out
}

/// The base (non-inverse, non-interact) relations of the item KG inside a
/// user–item graph.
pub(crate) fn item_kg_base_relations(uig: &UserItemGraph) -> Vec<RelationId> {
    let g = &uig.graph;
    (0..g.num_relations() as u32)
        .map(RelationId)
        .filter(|&r| {
            let name = g.relation_name(r);
            r != uig.interact && r != uig.interact_inv && !name.ends_with("_inv")
        })
        .collect()
}

/// Reverse alignment: entity index → item id, dense over the graph.
pub(crate) fn item_of_entity(uig: &UserItemGraph) -> Vec<Option<ItemId>> {
    let mut map = vec![None; uig.graph.num_entities()];
    for (j, e) in uig.item_entities.iter().enumerate() {
        map[e.index()] = Some(ItemId(j as u32));
    }
    map
}

/// All simple paths from one user to item entities, grouped by item.
#[derive(Debug, Clone)]
pub(crate) struct UserPathIndex {
    /// `by_item[j]` = the collected paths ending at item `j`.
    pub by_item: Vec<Vec<Path>>,
}

impl UserPathIndex {
    /// Paths reaching item `j`.
    pub(crate) fn paths_to(&self, item: ItemId) -> &[Path] {
        &self.by_item[item.index()]
    }
}

/// Runs one bounded DFS from `user`'s entity, collecting up to
/// `max_per_item` simple paths per reachable item and `max_total`
/// overall. Depth is capped at `max_hops`. Deterministic (CSR order).
///
/// 1-hop `interact` paths (the user's own history items) are *included* —
/// callers that need novelty filter by item; the path-encoding models
/// use them as the training signal for positive items.
pub(crate) fn index_user_paths(
    uig: &UserItemGraph,
    user: UserId,
    max_hops: usize,
    max_per_item: usize,
    max_total: usize,
) -> UserPathIndex {
    let source = uig.user_entities[user.index()];
    let item_map = item_of_entity(uig);
    let mut by_item: Vec<Vec<Path>> = vec![Vec::new(); uig.item_entities.len()];
    let mut total = 0usize;
    let mut visited = vec![false; uig.graph.num_entities()];
    visited[source.index()] = true;
    let mut ents = vec![source];
    let mut rels: Vec<RelationId> = Vec::new();
    dfs(
        uig,
        &item_map,
        max_hops,
        max_per_item,
        max_total,
        &mut visited,
        &mut ents,
        &mut rels,
        &mut by_item,
        &mut total,
    );
    UserPathIndex { by_item }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    uig: &UserItemGraph,
    item_map: &[Option<ItemId>],
    remaining: usize,
    max_per_item: usize,
    max_total: usize,
    visited: &mut [bool],
    ents: &mut Vec<EntityId>,
    rels: &mut Vec<RelationId>,
    by_item: &mut [Vec<Path>],
    total: &mut usize,
) {
    if remaining == 0 || *total >= max_total {
        return;
    }
    let cur = *ents.last().expect("nonempty");
    for (r, t) in uig.graph.neighbors(cur) {
        if *total >= max_total {
            return;
        }
        if visited[t.index()] {
            continue;
        }
        ents.push(t);
        rels.push(r);
        if let Some(item) = item_map[t.index()] {
            let bucket = &mut by_item[item.index()];
            if bucket.len() < max_per_item {
                bucket.push(Path { entities: ents.clone(), relations: rels.clone() });
                *total += 1;
            }
        }
        visited[t.index()] = true;
        dfs(
            uig,
            item_map,
            remaining - 1,
            max_per_item,
            max_total,
            visited,
            ents,
            rels,
            by_item,
            total,
        );
        visited[t.index()] = false;
        rels.pop();
        ents.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::KgDataset;
    use kgrec_data::{Interaction, InteractionMatrix};
    use kgrec_graph::KgBuilder;

    /// 1 user; items i0, i1 sharing attribute a0; user interacted i0.
    fn toy() -> UserItemGraph {
        let mut b = KgBuilder::new();
        let ti = b.entity_type("item");
        let ta = b.entity_type("attr");
        let i0 = b.entity("i0", ti);
        let i1 = b.entity("i1", ti);
        let a0 = b.entity("a0", ta);
        let r = b.relation("genre");
        b.triple(i0, r, a0);
        b.triple(i1, r, a0);
        let graph = b.build(true);
        let train = InteractionMatrix::from_interactions(
            1,
            2,
            &[Interaction::implicit(UserId(0), ItemId(0))],
        );
        let ds = KgDataset::new(train.clone(), graph, vec![i0, i1]);
        ds.user_item_graph(&train)
    }

    #[test]
    fn canonical_paths_cover_collaborative_and_attributes() {
        let uig = toy();
        let mps = canonical_metapaths(&uig);
        // 1 collaborative + 1 genre path.
        assert_eq!(mps.len(), 2);
        assert_eq!(mps[0].relations()[0], uig.interact);
        assert_eq!(mps[1].len(), 3);
    }

    #[test]
    fn base_relations_exclude_inverses_and_interact() {
        let uig = toy();
        let base = item_kg_base_relations(&uig);
        assert_eq!(base.len(), 1);
        assert_eq!(uig.graph.relation_name(base[0]), "genre");
    }

    #[test]
    fn user_path_index_reaches_both_items() {
        let uig = toy();
        let idx = index_user_paths(&uig, UserId(0), 3, 4, 100);
        // i0 via 1-hop interact; i1 via interact-genre-genre_inv.
        assert!(!idx.paths_to(ItemId(0)).is_empty());
        assert!(!idx.paths_to(ItemId(1)).is_empty());
        let p = &idx.paths_to(ItemId(1))[0];
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn caps_respected() {
        let uig = toy();
        let idx = index_user_paths(&uig, UserId(0), 3, 1, 100);
        for bucket in &idx.by_item {
            assert!(bucket.len() <= 1);
        }
        let idx = index_user_paths(&uig, UserId(0), 3, 10, 1);
        assert_eq!(idx.by_item.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn item_of_entity_roundtrip() {
        let uig = toy();
        let map = item_of_entity(&uig);
        assert_eq!(map[uig.item_entities[1].index()], Some(ItemId(1)));
        assert_eq!(map[uig.user_entities[0].index()], None);
    }
}
