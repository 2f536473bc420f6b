//! Reasoning-path explanations (survey Figure 1 and the explainability
//! thread of Section 4).
//!
//! Given a user–item graph, the explainer enumerates the paths connecting
//! the user's entity to a recommended item's entity — each path is a
//! "reason" of the kind the survey illustrates: *Avatar is recommended
//! because it shares the Sci-Fi genre with Interstellar, which Bob
//! watched*. Paths are ranked by a simple saliency: shorter paths first,
//! and among equal lengths, paths through lower-degree (more specific)
//! intermediate entities first.

use kgrec_data::dataset::UserItemGraph;
use kgrec_data::{ItemId, UserId};
use kgrec_graph::paths::{enumerate_paths, Path};

/// One explanation: a reasoning path and its rendered text.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The reasoning path (user entity → … → item entity).
    pub path: Path,
    /// Human-readable rendering.
    pub text: String,
    /// Saliency score (higher = more specific/shorter reasoning).
    pub saliency: f64,
}

/// Path-based explanation engine over a materialized user–item graph.
#[derive(Debug)]
pub struct Explainer<'a> {
    graph: &'a UserItemGraph,
    /// Maximum hops explored (default 3: user → item → attribute → item).
    pub max_hops: usize,
    /// Maximum number of candidate paths enumerated before ranking.
    pub max_paths: usize,
}

impl<'a> Explainer<'a> {
    /// Creates an explainer with the defaults used in the paper's example
    /// (3-hop reasoning, 32 candidate paths).
    pub fn new(graph: &'a UserItemGraph) -> Self {
        Self { graph, max_hops: 3, max_paths: 32 }
    }

    /// Explains why `item` could be recommended to `user`: the ranked
    /// reasoning paths between them. Empty when no path of length
    /// ≤ `max_hops` exists.
    ///
    /// The trivial 1-hop `interact` path (the user already consumed the
    /// item) is excluded — it explains nothing about a *new*
    /// recommendation.
    pub fn explain(&self, user: UserId, item: ItemId) -> Vec<Explanation> {
        let source = self.graph.user_entities[user.index()];
        let target = self.graph.item_entities[item.index()];
        let g = &self.graph.graph;
        let mut out: Vec<Explanation> =
            enumerate_paths(g, source, target, self.max_hops, self.max_paths)
                .into_iter()
                .filter(|p| !(p.len() == 1 && p.relations[0] == self.graph.interact))
                .map(|p| {
                    // Saliency: prefer short paths through specific entities.
                    let mut degree_penalty = 0.0f64;
                    for &e in &p.entities[1..p.entities.len() - 1] {
                        degree_penalty += (1.0 + g.degree(e) as f64).ln();
                    }
                    let saliency = 1.0 / (p.len() as f64 + 0.25 * degree_penalty);
                    let text = p.describe(g);
                    Explanation { path: p, text, saliency }
                })
                .collect();
        out.sort_by(|a, b| {
            b.saliency.partial_cmp(&a.saliency).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::KgDataset;
    use kgrec_data::{Interaction, InteractionMatrix};
    use kgrec_graph::KgBuilder;

    /// The Figure 1 microcosm: Bob watched Interstellar; Avatar shares its
    /// genre.
    fn figure1_like() -> (KgDataset, InteractionMatrix) {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let tg = b.entity_type("genre");
        let interstellar = b.entity("Interstellar", tm);
        let avatar = b.entity("Avatar", tm);
        let scifi = b.entity("Sci-Fi", tg);
        let r = b.relation("genre");
        b.triple(interstellar, r, scifi);
        b.triple(avatar, r, scifi);
        let graph = b.build(true);
        let train = InteractionMatrix::from_interactions(
            1,
            2,
            &[Interaction::implicit(UserId(0), ItemId(0))],
        );
        (KgDataset::new(train.clone(), graph, vec![interstellar, avatar]), train)
    }

    #[test]
    fn finds_genre_reasoning_path() {
        let (ds, train) = figure1_like();
        let uig = ds.user_item_graph(&train);
        let explainer = Explainer::new(&uig);
        let ex = explainer.explain(UserId(0), ItemId(1));
        assert!(!ex.is_empty(), "a genre path must exist");
        let best = &ex[0];
        assert!(best.text.contains("Interstellar"), "{}", best.text);
        assert!(best.text.contains("Sci-Fi"), "{}", best.text);
        assert!(best.text.contains("Avatar"), "{}", best.text);
        assert_eq!(best.path.len(), 3); // user -> Interstellar -> Sci-Fi -> Avatar
    }

    #[test]
    fn trivial_interact_path_excluded() {
        let (ds, train) = figure1_like();
        let uig = ds.user_item_graph(&train);
        let explainer = Explainer::new(&uig);
        // Explain the item the user already watched: the 1-hop interact
        // edge must not be offered as a reason.
        let ex = explainer.explain(UserId(0), ItemId(0));
        for e in &ex {
            assert!(e.path.len() > 1);
        }
    }

    #[test]
    fn no_connection_means_no_explanations() {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let m0 = b.entity("m0", tm);
        let m1 = b.entity("m1", tm);
        let graph = b.build(true);
        let train = InteractionMatrix::from_interactions(
            1,
            2,
            &[Interaction::implicit(UserId(0), ItemId(0))],
        );
        let ds = KgDataset::new(train.clone(), graph, vec![m0, m1]);
        let uig = ds.user_item_graph(&train);
        let ex = Explainer::new(&uig).explain(UserId(0), ItemId(1));
        assert!(ex.is_empty());
    }

    #[test]
    fn saliency_sorted_descending() {
        let (ds, train) = figure1_like();
        let uig = ds.user_item_graph(&train);
        let ex = Explainer::new(&uig).explain(UserId(0), ItemId(1));
        for w in ex.windows(2) {
            assert!(w[0].saliency >= w[1].saliency);
        }
    }
}
