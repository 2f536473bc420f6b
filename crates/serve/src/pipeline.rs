//! The two-stage request pipeline: candidate generation, then exact
//! ranking.
//!
//! Both stage functions are on the serving request path and are covered
//! by detlint rule SA008: no heap allocation inside their bodies — every
//! buffer comes from the caller's [`ServeScratch`]. Helpers they call
//! (`kgrec_linalg` kernels, slice ops) are allocation-free by
//! construction.
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
use crate::scratch::ServeScratch;
use crate::server::ServeConfig;
use kgrec_data::{InteractionMatrix, ItemId, UserId};
use kgrec_kge::KgeModel;
use kgrec_linalg::simd::{self, LANES};
use kgrec_linalg::vector;

/// Stage 1: fills `scratch.cand` with a bounded, deduplicated candidate
/// set for `user`, drawn from (in order):
///
/// 1. the KG neighbourhood of the user's most recent history items — one
///    hop to item–item neighbours, two hops through shared attribute
///    entities via the index's reverse adjacency;
/// 2. co-visitation through the columnar item-major transpose (users of
///    a history item, then their items);
/// 3. a popularity fill from `pop_order` up to the candidate budget.
///
/// Items the user has already interacted with are excluded. The set is
/// capped at `config.max_candidates`; each expansion source is prefix-
/// truncated by its own cap, so per-request cost is bounded regardless
/// of node degree.
pub fn candidates_for(
    index: &ServeIndex,
    interactions: &InteractionMatrix,
    pop_order: &[u32],
    user: UserId,
    config: &ServeConfig,
    scratch: &mut ServeScratch,
) {
    scratch.begin();
    let epoch = scratch.epoch;
    let budget = config.max_candidates;
    let hist = interactions.items_of(user);
    // The full history is excluded from recommendation, not just the
    // expansion window.
    for &h in hist {
        scratch.seen[h.index()] = epoch;
    }
    let recent = &hist[hist.len().saturating_sub(config.max_history)..];
    'expand: for &h in recent {
        // KG expansion from the item's entity.
        let e = index.entity_of(h);
        for &t in index.graph().tail_slice(e) {
            if scratch.cand.len() >= budget {
                break 'expand;
            }
            if let Some(v) = index.item_of_entity(t) {
                // Direct item–item edge (e.g. `also_bought`).
                if scratch.seen[v.index()] != epoch {
                    scratch.seen[v.index()] = epoch;
                    scratch.cand.push(v.0);
                }
            } else {
                // Attribute entity: second hop to items sharing it.
                let shared = index.items_with(t);
                for &v in &shared[..shared.len().min(config.max_attr_items)] {
                    if scratch.cand.len() >= budget {
                        break 'expand;
                    }
                    if scratch.seen[v as usize] != epoch {
                        scratch.seen[v as usize] = epoch;
                        scratch.cand.push(v);
                    }
                }
            }
        }
        // Co-visitation through the item-major transpose.
        let users = interactions.users_of(h);
        for &u2 in &users[..users.len().min(config.max_covisit_users)] {
            let theirs = interactions.items_of(u2);
            for &v in &theirs[..theirs.len().min(config.max_covisit_items)] {
                if scratch.cand.len() >= budget {
                    break 'expand;
                }
                if scratch.seen[v.index()] != epoch {
                    scratch.seen[v.index()] = epoch;
                    scratch.cand.push(v.0);
                }
            }
        }
    }
    // Popularity fill up to the budget keeps stage-2 cost near-constant
    // and gives cold-start users a non-empty slate.
    for &v in pop_order {
        if scratch.cand.len() >= budget {
            break;
        }
        if scratch.seen[v as usize] != epoch {
            scratch.seen[v as usize] = epoch;
            scratch.cand.push(v);
        }
    }
}

/// Stage 2: scores every candidate in `scratch.cand` and writes the
/// ranked top-`config.k` item ids into the scratch output buffer
/// (readable via [`ServeScratch::top_k`]).
///
/// The score is the dot product between the user profile — the mean of
/// the KGE entity embeddings of the user's recent history — and the
/// candidate item's entity embedding. One fused pass scores the
/// candidates [`LANES`] at a time with [`simd::dot8`] (bitwise equal to
/// one `dot` per candidate) and streams each score into a bounded top-k
/// buffer ([`vector::top_k_offer`]): order is score descending, then
/// candidate position ascending, with NaN ranked as `-inf`. For finite
/// scores that is exactly the batch evaluator's [`vector::top_k_into`]
/// order; no per-candidate score array is kept.
pub fn rank_candidates(
    index: &ServeIndex,
    model: &dyn KgeModel,
    interactions: &InteractionMatrix,
    user: UserId,
    config: &ServeConfig,
    scratch: &mut ServeScratch,
) {
    debug_assert_eq!(scratch.profile.len(), model.dim(), "scratch sized for another model");
    profile_into(index, model, interactions, user, config.max_history, &mut scratch.profile);
    let ServeScratch { cand, scores, profile, out, .. } = scratch;
    scores.clear();
    out.clear();
    let k = config.k;
    let emb = |v: u32| model.entity_embedding(index.entity_of(ItemId(v)));
    let mut blocks = cand.chunks_exact(LANES);
    for block in &mut blocks {
        let block_scores = simd::dot8(profile, std::array::from_fn(|c| emb(block[c])));
        for (&s, &v) in block_scores.iter().zip(block) {
            vector::top_k_offer(scores, out, k, s, ItemId(v));
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
    profile_into(index, model, interactions, user, max_history, profile);
    vector::dot(profile, model.entity_embedding(index.entity_of(item)))
}

/// Writes the user profile into `profile`: the mean of the entity
/// embeddings of the user's last `max_history` items, or zeros for a
/// user without history.
fn profile_into(
    index: &ServeIndex,
    model: &dyn KgeModel,
    interactions: &InteractionMatrix,
    user: UserId,
    max_history: usize,
    profile: &mut [f32],
) {
    profile.fill(0.0);
    let hist = interactions.items_of(user);
    let recent = &hist[hist.len().saturating_sub(max_history)..];
    for &h in recent {
        vector::axpy(1.0, model.entity_embedding(index.entity_of(h)), profile);
    }
    if !recent.is_empty() {
        vector::scale(profile, 1.0 / recent.len() as f32);
    }
}
