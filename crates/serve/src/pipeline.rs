//! The two-stage request pipeline: candidate generation, then exact
//! ranking.
//!
//! Both stage functions are on the serving request path and are covered
//! by detlint rule SA008: no heap allocation inside their bodies — every
//! buffer comes from the caller's [`ServeScratch`]. Helpers they call
//! (`kgrec_linalg` kernels, slice ops) are allocation-free by
//! construction.
//!
//! Stage 1's dedup is write-then-advance (see `take`) and stage 2 offers
//! a block's scores to the top-k buffer only where they can enter it, so
//! neither stage branches per candidate on data it cannot predict.
//!
//! Determinism: for a fixed dataset, model, and configuration the
//! candidate set, its insertion order, and the ranked output are all
//! reproducible — every traversal below follows stored order (CSR edge
//! order, ascending reverse-adjacency lists, columnar transpose order)
//! and every cap is a prefix truncation. Ranking ties break toward the
//! earlier-inserted candidate, mirroring the "ties toward smaller index"
//! rule of the batch evaluator's partial sort; a NaN score ranks as
//! `-inf`, so it never displaces a finite one.

use crate::index::ServeIndex;
use crate::scratch::{ServeScratch, Stamp};
use crate::server::ServeConfig;
use kgrec_data::{InteractionMatrix, ItemId, UserId};
use kgrec_kge::KgeModel;
use kgrec_linalg::simd::{self, LANES};
use kgrec_linalg::{vector, EmbeddingTable};

/// Stage 1: fills `scratch.cand` with a bounded, deduplicated candidate
/// set for `user`, drawn from (in order):
///
/// 1. the KG neighbourhood of the items in the user's history window —
///    the `config.max_history` highest item ids of the history, since
///    `items_of` is sorted by item id, not by time — one hop to item–item
///    neighbours, two hops through shared attribute entities via the
///    index's reverse adjacency;
/// 2. co-visitation through the columnar item-major transpose (users of
///    a history item, then their items);
/// 3. a popularity fill from `pop_order` up to the candidate budget.
///
/// Items the user has already interacted with are excluded. The set is
/// capped at `config.max_candidates`; each expansion source is prefix-
/// truncated by its own cap, so per-request cost is bounded regardless
/// of node degree.
///
/// `interactions` must have its item-major index built
/// (`InteractionMatrix::build_item_index`), as a [`Server`] does
/// before it publishes a store: building it here would allocate.
///
/// [`Server`]: crate::Server
pub fn candidates_for(
    index: &ServeIndex,
    interactions: &InteractionMatrix,
    pop_order: &[u32],
    user: UserId,
    config: &ServeConfig,
    scratch: &mut ServeScratch,
) {
    debug_assert!(
        interactions.has_item_index(),
        "stage 1 reads a store whose item-major index is not built"
    );
    let epoch = scratch.begin();
    let budget = config.max_candidates;
    let ServeScratch { cand, seen, .. } = scratch;
    // Every slot is written before `len` can pass it, so the buffer is
    // sized to the budget up front (within capacity: no allocation) and
    // cut back to the taken prefix at the end.
    cand.resize(budget, 0);
    let mut len = 0;
    let hist = interactions.items_of(user);
    // The full history is excluded from recommendation, not just the
    // expansion window.
    for &h in hist {
        seen[h.index()] = epoch;
    }
    let window = &hist[hist.len().saturating_sub(config.max_history)..];
    'expand: for &h in window {
        // KG expansion from the item's entity.
        let e = index.entity_of(h);
        for &t in index.graph().tail_slice(e) {
            if len >= budget {
                break 'expand;
            }
            if let Some(v) = index.item_of_entity(t) {
                // Direct item–item edge (e.g. `also_bought`).
                take(v.0, epoch, seen, cand, &mut len);
            } else {
                // Attribute entity: second hop to items sharing it.
                let shared = index.items_with(t);
                for &v in &shared[..shared.len().min(config.max_attr_items)] {
                    if len >= budget {
                        break 'expand;
                    }
                    take(v, epoch, seen, cand, &mut len);
                }
            }
        }
        // Co-visitation through the item-major transpose.
        let users = interactions.users_of(h);
        for &u2 in &users[..users.len().min(config.max_covisit_users)] {
            let theirs = interactions.items_of(u2);
            for &v in &theirs[..theirs.len().min(config.max_covisit_items)] {
                if len >= budget {
                    break 'expand;
                }
                take(v.0, epoch, seen, cand, &mut len);
            }
        }
    }
    // Popularity fill up to the budget keeps stage-2 cost near-constant
    // and gives cold-start users a non-empty slate.
    for &v in pop_order {
        if len >= budget {
            break;
        }
        take(v, epoch, seen, cand, &mut len);
    }
    cand.truncate(len);
}

/// Stage 1's dedup step, write-then-advance: `v` is stored at
/// `cand[*len]` unconditionally, and `*len` advances only when `v`'s
/// stamp was stale. A duplicate is thus overwritten by the next
/// candidate or cut by the final truncation, and the outcome is the same
/// as testing the stamp first, without a data-dependent branch.
#[inline(always)]
fn take(v: u32, epoch: Stamp, seen: &mut [Stamp], cand: &mut [u32], len: &mut usize) {
    let stamp = &mut seen[v as usize];
    let fresh = *stamp != epoch;
    *stamp = epoch;
    cand[*len] = v;
    *len += usize::from(fresh);
}

/// Stage 2: scores every candidate in `scratch.cand` and writes the
/// ranked top-`config.k` item ids into the scratch output buffer
/// (readable via [`ServeScratch::top_k`]).
///
/// The score is the dot product between the user profile — the mean of
/// the KGE entity embeddings of the user's history window, the same
/// `max_history` highest item ids stage 1 expands — and the candidate
/// item's entity embedding. One fused pass scores the candidates
/// [`LANES`] at a time with [`simd::dot8`] (bitwise equal to one `dot`
/// per candidate) and streams the scores into a bounded top-k buffer
/// ([`vector::top_k_offer`]): order is score descending, then candidate
/// position ascending, with NaN ranked as `-inf`. Once the buffer is
/// full, only the lanes scoring strictly above its worst key are
/// offered, which changes nothing, since no other score could enter.
/// For finite scores that is exactly the batch evaluator's
/// [`vector::top_k_into`] order; no per-candidate score array is kept.
pub fn rank_candidates(
    index: &ServeIndex,
    model: &dyn KgeModel,
    interactions: &InteractionMatrix,
    user: UserId,
    config: &ServeConfig,
    scratch: &mut ServeScratch,
) {
    debug_assert_eq!(scratch.profile.len(), model.dim(), "scratch sized for another model");
    // One table lookup per request, not one dynamic call per candidate.
    let table = model.entity_table();
    profile_into(index, table, interactions, user, config.max_history, &mut scratch.profile);
    let ServeScratch { cand, scores, profile, out, .. } = scratch;
    scores.clear();
    out.clear();
    let k = config.k;
    let emb = |v: u32| table.row(index.entity_of(ItemId(v)).index());
    let mut blocks = cand.chunks_exact(LANES);
    for block in &mut blocks {
        let block_scores = simd::dot8(profile, std::array::from_fn(|c| emb(block[c])));
        // A full buffer only admits a score strictly above its worst key
        // (NaN and ties never are), so one branch-free pass picks the
        // lanes worth offering and most blocks offer none.
        let mut offered = if scores.len() < k {
            (1u32 << LANES) - 1
        } else {
            let worst = scores.last().copied().unwrap_or(f32::INFINITY);
            (0..LANES).fold(0, |m, c| m | (u32::from(block_scores[c] > worst) << c))
        };
        while offered != 0 {
            let c = offered.trailing_zeros() as usize;
            offered &= offered - 1;
            vector::top_k_offer(scores, out, k, block_scores[c], ItemId(block[c]));
        }
    }
    for &v in blocks.remainder() {
        vector::top_k_offer(scores, out, k, vector::dot(profile, emb(v)), ItemId(v));
    }
}

/// The stage-2 score of a single `(user, item)` pair, computed exactly
/// as [`rank_candidates`] would. Used by the reload probe to validate a
/// candidate model through the *serving* scorer before it is swapped in;
/// `profile` is a caller-owned buffer of length `model.dim()`.
pub fn serve_score(
    index: &ServeIndex,
    model: &dyn KgeModel,
    interactions: &InteractionMatrix,
    user: UserId,
    item: ItemId,
    profile: &mut [f32],
    max_history: usize,
) -> f32 {
    let table = model.entity_table();
    profile_into(index, table, interactions, user, max_history, profile);
    vector::dot(profile, table.row(index.entity_of(item).index()))
}

/// Writes the user profile into `profile`: the mean of the entity
/// embeddings of the last `max_history` items of the user's id-sorted
/// history (its highest item ids), or zeros for a user without history.
fn profile_into(
    index: &ServeIndex,
    table: &EmbeddingTable,
    interactions: &InteractionMatrix,
    user: UserId,
    max_history: usize,
    profile: &mut [f32],
) {
    profile.fill(0.0);
    let hist = interactions.items_of(user);
    let window = &hist[hist.len().saturating_sub(max_history)..];
    for &h in window {
        vector::axpy(1.0, table.row(index.entity_of(h).index()), profile);
    }
    if !window.is_empty() {
        vector::scale(profile, 1.0 / window.len() as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::popularity_order;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_data::{Interaction, KgDataset};

    /// Where a reference run of stage 1 ran out of budget.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Cut {
        /// With attribute-list items still untaken.
        InAttrList,
        /// With co-visit items still untaken.
        InCovisitList,
        /// Anywhere else, or not at all.
        Elsewhere,
    }

    /// The frozen reference's own dedup marks and output.
    #[derive(Default)]
    struct Reference {
        seen: Vec<u64>,
        epoch: u64,
        cand: Vec<u32>,
    }

    /// Stage 1 as it stood before the write-then-advance dedup: test the
    /// stamp, then push. Frozen here as the oracle for candidate order,
    /// which stage 2's tie-break depends on.
    fn reference_candidates(
        index: &ServeIndex,
        interactions: &InteractionMatrix,
        pop_order: &[u32],
        user: UserId,
        config: &ServeConfig,
        reference: &mut Reference,
    ) -> Cut {
        reference.epoch += 1;
        let epoch = reference.epoch;
        let Reference { seen, cand, .. } = reference;
        cand.clear();
        let budget = config.max_candidates;
        let hist = interactions.items_of(user);
        for &h in hist {
            seen[h.index()] = epoch;
        }
        let window = &hist[hist.len().saturating_sub(config.max_history)..];
        for &h in window {
            let e = index.entity_of(h);
            for &t in index.graph().tail_slice(e) {
                if cand.len() >= budget {
                    return Cut::Elsewhere;
                }
                if let Some(v) = index.item_of_entity(t) {
                    if seen[v.index()] != epoch {
                        seen[v.index()] = epoch;
                        cand.push(v.0);
                    }
                } else {
                    let shared = index.items_with(t);
                    for &v in &shared[..shared.len().min(config.max_attr_items)] {
                        if cand.len() >= budget {
                            return Cut::InAttrList;
                        }
                        if seen[v as usize] != epoch {
                            seen[v as usize] = epoch;
                            cand.push(v);
                        }
                    }
                }
            }
            let users = interactions.users_of(h);
            for &u2 in &users[..users.len().min(config.max_covisit_users)] {
                let theirs = interactions.items_of(u2);
                for &v in &theirs[..theirs.len().min(config.max_covisit_items)] {
                    if cand.len() >= budget {
                        return Cut::InCovisitList;
                    }
                    if seen[v.index()] != epoch {
                        seen[v.index()] = epoch;
                        cand.push(v.0);
                    }
                }
            }
        }
        for &v in pop_order {
            if cand.len() >= budget {
                break;
            }
            if seen[v as usize] != epoch {
                seen[v as usize] = epoch;
                cand.push(v);
            }
        }
        Cut::Elsewhere
    }

    /// Runs stage 1 and the frozen reference for every user of `dataset`
    /// under each config, asserting identical candidate lists. The
    /// scratch generation starts just short of its wrap, so the run also
    /// crosses the stamp reset. Returns how often each cut occurred.
    fn assert_same_candidates(dataset: KgDataset, configs: &[ServeConfig]) -> [usize; 3] {
        let KgDataset { interactions, graph, item_entities, .. } = dataset;
        let index = ServeIndex::build(graph, item_entities);
        interactions.build_item_index();
        let pop = popularity_order(&interactions);
        let mut cuts = [0usize; 3];
        for config in configs {
            let mut scratch = ServeScratch::new(index.num_items(), 1, config.max_candidates, 1);
            scratch.epoch = Stamp::MAX - 3;
            let mut reference =
                Reference { seen: vec![0; index.num_items()], ..Reference::default() };
            for u in 0..interactions.num_users() {
                let user = UserId(u as u32);
                candidates_for(&index, &interactions, &pop, user, config, &mut scratch);
                let cut =
                    reference_candidates(&index, &interactions, &pop, user, config, &mut reference);
                cuts[cut as usize] += 1;
                assert_eq!(scratch.cand, reference.cand, "user {u} under {config:?}");
            }
        }
        cuts
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "item-major index is not built")]
    fn stage_one_refuses_a_store_without_its_item_index() {
        let KgDataset { interactions, graph, item_entities, .. } =
            generate(&ScenarioConfig::tiny(), 31).dataset;
        let index = ServeIndex::build(graph, item_entities);
        let pop = popularity_order(&interactions);
        let config = ServeConfig::default();
        let mut scratch = ServeScratch::new(index.num_items(), 1, config.max_candidates, 1);
        candidates_for(&index, &interactions, &pop, UserId(0), &config, &mut scratch);
    }

    #[test]
    fn candidates_match_frozen_reference_on_tiny() {
        let synth = generate(&ScenarioConfig::tiny(), 29);
        let configs =
            [ServeConfig::default(), ServeConfig { max_history: 3, ..Default::default() }];
        assert_same_candidates(synth.dataset, &configs);
    }

    #[test]
    fn candidates_match_frozen_reference_when_the_budget_runs_out_mid_list() {
        let mut scenario = ScenarioConfig::huge_smoke();
        scenario.num_users = 300;
        scenario.num_items = 400;
        let synth = generate(&scenario, 31);
        let configs = [
            // The first attribute list alone outruns the budget.
            ServeConfig { max_candidates: 5, ..Default::default() },
            // Two attribute items per entity, so co-visits fill the rest.
            ServeConfig { max_candidates: 24, max_attr_items: 2, ..Default::default() },
            ServeConfig {
                max_candidates: 64,
                max_attr_items: 4,
                max_history: 2,
                ..Default::default()
            },
        ];
        let cuts = assert_same_candidates(synth.dataset, &configs);
        assert!(cuts[Cut::InAttrList as usize] > 0, "no cut inside an attribute list: {cuts:?}");
        assert!(cuts[Cut::InCovisitList as usize] > 0, "no cut inside a co-visit list: {cuts:?}");
    }

    #[test]
    fn candidates_match_frozen_reference_for_empty_and_long_histories() {
        let synth = generate(&ScenarioConfig::tiny(), 37);
        let KgDataset { interactions, graph, item_entities, .. } = synth.dataset;
        // Users 0..4 lose their whole history; the rest keep theirs.
        let rows: Vec<Interaction> = interactions
            .iter()
            .filter(|&(u, _, _)| u.index() >= 4)
            .map(|(u, v, _)| Interaction::implicit(u, v))
            .collect();
        let trimmed = InteractionMatrix::from_interactions(
            interactions.num_users(),
            interactions.num_items(),
            &rows,
        );
        let max_history = 4;
        assert!(trimmed.items_of(UserId(0)).is_empty());
        assert!(
            (0..trimmed.num_users())
                .any(|u| trimmed.items_of(UserId(u as u32)).len() > max_history),
            "no user has more than {max_history} items"
        );
        let dataset = KgDataset::new(trimmed, graph, item_entities);
        assert_same_candidates(dataset, &[ServeConfig { max_history, ..Default::default() }]);
    }
}
