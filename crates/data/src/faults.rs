//! Deterministic fault injection for robustness testing.
//!
//! Each [`Fault`] is a mutator that corrupts a [`KgDataset`] in a way
//! observed to break recommender training in the wild: dangling
//! item↔entity alignments, duplicate or self-loop triples, NaN ratings
//! colliding with the implicit-feedback sentinel, out-of-vocabulary text
//! tokens, users or items stripped of every interaction, and adversarial
//! all-identical ratings (zero label variance).
//!
//! The mutators are **deterministic** — no RNG — so a failing
//! model × fault pair reproduces exactly. They deliberately bypass the
//! validating constructors ([`KgDataset::new`],
//! [`InteractionMatrix::from_interactions`]'s dedup aside) by mutating the
//! bundle's public fields and reassembling the graph through
//! [`KnowledgeGraph::from_parts`], which sorts but does not deduplicate.
//!
//! The intended consumer is the fault-matrix integration test in
//! `kgrec-models` and the `eval_suite --inject-fault` smoke run: every
//! registry model must either train on a corrupted bundle or fail with a
//! typed error under the training supervisor — never an escaped panic,
//! never a non-finite score.

use crate::dataset::KgDataset;
use crate::{Interaction, InteractionMatrix};
use kgrec_graph::{id32, EntityId, EntityTypeId, KnowledgeGraph, RelationId, Triple};

/// A deterministic dataset corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every 7th item's aligned entity id points past the graph's entity
    /// range (a stale alignment after a graph rebuild).
    DanglingAlignment,
    /// Self-loop triples `(e, r, e)` on every 5th item entity (relation 0).
    SelfLoopTriples,
    /// The first quarter of the triple list appears twice (an unclean
    /// merge of two dump files).
    DuplicateTriples,
    /// Every 3rd interaction's rating is forced to NaN — colliding with
    /// the NaN-means-implicit sentinel of
    /// [`InteractionMatrix::ratings_of`].
    NanRatings,
    /// Item token lists contain ids at and past `vocab_size` (an
    /// embedding-table indexing hazard). No-op when the bundle carries no
    /// token lists.
    CorruptTextTokens,
    /// The first quarter of users (at least one) lose every interaction:
    /// cold-start users that positive-samplers must not spin on.
    EmptyUsers,
    /// The first quarter of items (at least one) lose every interaction:
    /// items with zero audience.
    EmptyItems,
    /// Every interaction carries the identical explicit rating 3.0 — zero
    /// label variance, degenerate for rating-normalizing models.
    IdenticalRatings,
}

impl Fault {
    /// All faults, in a stable order (the fault-matrix iteration order).
    pub fn all() -> &'static [Fault] {
        &[
            Fault::DanglingAlignment,
            Fault::SelfLoopTriples,
            Fault::DuplicateTriples,
            Fault::NanRatings,
            Fault::CorruptTextTokens,
            Fault::EmptyUsers,
            Fault::EmptyItems,
            Fault::IdenticalRatings,
        ]
    }

    /// Stable kebab-case label (used by `eval_suite --inject-fault`).
    pub fn label(&self) -> &'static str {
        match self {
            Fault::DanglingAlignment => "dangling-alignment",
            Fault::SelfLoopTriples => "self-loop-triples",
            Fault::DuplicateTriples => "duplicate-triples",
            Fault::NanRatings => "nan-ratings",
            Fault::CorruptTextTokens => "corrupt-text-tokens",
            Fault::EmptyUsers => "empty-users",
            Fault::EmptyItems => "empty-items",
            Fault::IdenticalRatings => "identical-ratings",
        }
    }

    /// Parses a [`Fault::label`] back into a fault.
    pub fn from_label(label: &str) -> Option<Fault> {
        Fault::all().iter().copied().find(|f| f.label() == label)
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Applies `fault` to `dataset` in place. Deterministic: the same bundle
/// and fault always produce the same corruption.
pub fn inject(dataset: &mut KgDataset, fault: Fault) {
    match fault {
        Fault::DanglingAlignment => {
            let n = id32(dataset.graph.num_entities());
            for (j, e) in dataset.item_entities.iter_mut().enumerate() {
                if j.is_multiple_of(7) {
                    *e = EntityId(n + id32(j));
                }
            }
        }
        Fault::SelfLoopTriples => {
            if dataset.graph.num_relations() == 0 {
                return;
            }
            let extra: Vec<Triple> = dataset
                .item_entities
                .iter()
                .enumerate()
                .filter(|(j, _)| j.is_multiple_of(5))
                .map(|(_, &e)| Triple::new(e, RelationId(0), e))
                .collect();
            dataset.graph = rebuild_with(&dataset.graph, extra);
        }
        Fault::DuplicateTriples => {
            let quarter = dataset.graph.num_triples() / 4 + 1;
            let extra: Vec<Triple> = dataset.graph.iter_triples().take(quarter).collect();
            dataset.graph = rebuild_with(&dataset.graph, extra);
        }
        Fault::NanRatings => {
            let mut interactions = collect(&dataset.interactions);
            for (k, it) in interactions.iter_mut().enumerate() {
                if k.is_multiple_of(3) {
                    it.rating = Some(f32::NAN);
                }
            }
            dataset.interactions = rebuild_matrix(&dataset.interactions, &interactions);
        }
        Fault::CorruptTextTokens => {
            let vocab = id32(dataset.vocab_size);
            if let Some(words) = dataset.item_words.as_mut() {
                for (j, list) in words.iter_mut().enumerate() {
                    for (k, w) in list.iter_mut().enumerate() {
                        if (j + k).is_multiple_of(4) {
                            *w += vocab;
                        }
                    }
                }
            }
        }
        Fault::EmptyUsers => {
            let cutoff = (dataset.interactions.num_users() / 4).max(1);
            let interactions: Vec<Interaction> = collect(&dataset.interactions)
                .into_iter()
                .filter(|it| it.user.index() >= cutoff)
                .collect();
            dataset.interactions = rebuild_matrix(&dataset.interactions, &interactions);
        }
        Fault::EmptyItems => {
            let cutoff = (dataset.interactions.num_items() / 4).max(1);
            let interactions: Vec<Interaction> = collect(&dataset.interactions)
                .into_iter()
                .filter(|it| it.item.index() >= cutoff)
                .collect();
            dataset.interactions = rebuild_matrix(&dataset.interactions, &interactions);
        }
        Fault::IdenticalRatings => {
            let mut interactions = collect(&dataset.interactions);
            for it in &mut interactions {
                it.rating = Some(3.0);
            }
            dataset.interactions = rebuild_matrix(&dataset.interactions, &interactions);
        }
    }
}

/// Extracts the interaction list back out of a matrix, preserving the
/// NaN-means-implicit convention.
fn collect(m: &InteractionMatrix) -> Vec<Interaction> {
    m.iter()
        .map(
            |(u, i, r)| {
                if r.is_nan() {
                    Interaction::implicit(u, i)
                } else {
                    Interaction::rated(u, i, r)
                }
            },
        )
        .collect()
}

/// Rebuilds a matrix over the same `(m, n)` shape from a mutated
/// interaction list.
fn rebuild_matrix(original: &InteractionMatrix, interactions: &[Interaction]) -> InteractionMatrix {
    InteractionMatrix::from_interactions(original.num_users(), original.num_items(), interactions)
}

/// Reassembles `graph` with `extra` triples appended, bypassing the
/// builder's deduplication ([`KnowledgeGraph::from_parts`] sorts only).
fn rebuild_with(graph: &KnowledgeGraph, extra: Vec<Triple>) -> KnowledgeGraph {
    let entity_names: Vec<String> = (0..graph.num_entities())
        .map(|e| graph.entity_name(EntityId(id32(e))).to_owned())
        .collect();
    let entity_types: Vec<EntityTypeId> =
        (0..graph.num_entities()).map(|e| graph.entity_type(EntityId(id32(e)))).collect();
    let type_names: Vec<String> = (0..graph.num_entity_types())
        .map(|t| graph.type_name(EntityTypeId(id32(t))).to_owned())
        .collect();
    let relation_names: Vec<String> = (0..graph.num_relations())
        .map(|r| graph.relation_name(RelationId(id32(r))).to_owned())
        .collect();
    let mut triples: Vec<Triple> = graph.iter_triples().collect();
    triples.extend(extra);
    KnowledgeGraph::from_parts(
        entity_names,
        entity_types,
        type_names,
        relation_names,
        graph.num_base_relations(),
        triples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ItemId, UserId};
    use crate::synth::{generate, ScenarioConfig};

    fn bundle() -> KgDataset {
        generate(&ScenarioConfig::tiny(), 42).dataset
    }

    fn news_bundle() -> KgDataset {
        let mut cfg = ScenarioConfig::tiny();
        cfg.words_per_item = Some(4);
        generate(&cfg, 42).dataset
    }

    #[test]
    fn labels_roundtrip() {
        for &f in Fault::all() {
            assert_eq!(Fault::from_label(f.label()), Some(f));
            assert_eq!(f.to_string(), f.label());
        }
        assert_eq!(Fault::from_label("no-such-fault"), None);
    }

    #[test]
    fn dangling_alignment_points_past_entity_range() {
        let mut d = bundle();
        let n = d.graph.num_entities();
        inject(&mut d, Fault::DanglingAlignment);
        assert!(d.item_entities[0].index() >= n, "item 0 must dangle");
        assert!(d.item_entities.iter().any(|e| e.index() < n), "not every item dangles");
    }

    #[test]
    fn self_loops_injected() {
        let mut d = bundle();
        let before = d.graph.num_triples();
        inject(&mut d, Fault::SelfLoopTriples);
        assert!(d.graph.num_triples() > before);
        let loops =
            d.graph.iter_triples().filter(|t| t.head == t.tail && t.rel == RelationId(0)).count();
        assert!(loops >= d.item_entities.len() / 5, "only {loops} self-loops");
    }

    #[test]
    fn duplicates_survive_rebuild() {
        let mut d = bundle();
        let before = d.graph.num_triples();
        inject(&mut d, Fault::DuplicateTriples);
        assert_eq!(d.graph.num_triples(), before + before / 4 + 1);
        // At least one adjacent pair in the sorted list is identical.
        let ts: Vec<Triple> = d.graph.iter_triples().collect();
        assert!(ts.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    fn nan_ratings_poison_every_third() {
        let mut d = bundle();
        let total = d.interactions.num_interactions();
        inject(&mut d, Fault::NanRatings);
        assert_eq!(d.interactions.num_interactions(), total, "shape preserved");
        let nans = d.interactions.iter().filter(|(_, _, r)| r.is_nan()).count();
        assert!(nans * 3 >= total, "only {nans}/{total} NaN");
    }

    #[test]
    fn corrupt_tokens_exceed_vocab() {
        let mut d = news_bundle();
        let vocab = d.vocab_size;
        inject(&mut d, Fault::CorruptTextTokens);
        let words = d.item_words.as_ref().unwrap();
        assert!(words.iter().flatten().any(|&w| w as usize >= vocab));
    }

    #[test]
    fn corrupt_tokens_noop_without_text() {
        let mut d = bundle();
        inject(&mut d, Fault::CorruptTextTokens);
        assert!(d.item_words.is_none());
    }

    #[test]
    fn empty_users_strip_a_prefix() {
        let mut d = bundle();
        inject(&mut d, Fault::EmptyUsers);
        let cutoff = (d.interactions.num_users() / 4).max(1);
        for u in 0..cutoff {
            assert_eq!(d.interactions.user_degree(UserId(u as u32)), 0, "user {u}");
        }
        assert!(d.interactions.num_interactions() > 0, "other users keep history");
    }

    #[test]
    fn empty_items_strip_a_prefix() {
        let mut d = bundle();
        inject(&mut d, Fault::EmptyItems);
        let cutoff = (d.interactions.num_items() / 4).max(1);
        for j in 0..cutoff {
            assert_eq!(d.interactions.item_degree(ItemId(j as u32)), 0, "item {j}");
        }
        assert!(d.interactions.num_interactions() > 0);
    }

    #[test]
    fn identical_ratings_zero_variance() {
        let mut d = bundle();
        inject(&mut d, Fault::IdenticalRatings);
        assert!(d.interactions.iter().all(|(_, _, r)| r == 3.0));
    }

    #[test]
    fn injection_is_deterministic() {
        for &f in Fault::all() {
            let mut a = bundle();
            let mut b = bundle();
            inject(&mut a, f);
            inject(&mut b, f);
            assert_eq!(a.graph.num_triples(), b.graph.num_triples(), "{f}");
            assert_eq!(a.item_entities, b.item_entities, "{f}");
            let ia: Vec<_> = a.interactions.iter().map(|(u, i, _)| (u, i)).collect();
            let ib: Vec<_> = b.interactions.iter().map(|(u, i, _)| (u, i)).collect();
            assert_eq!(ia, ib, "{f}");
        }
    }
}
