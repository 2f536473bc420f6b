//! Regenerates Figure 1 of the survey: the illustrative movie KG where
//! "Avatar" and "Blood Diamond" are recommended to Bob, with the
//! reasoning paths the figure draws.
//!
//! The KG is built exactly as the figure describes: users, movies,
//! actors, directors and genres as entities; interaction, genre, acting,
//! directing and friendship as relations. A path-based explainer then
//! recovers the figure's reasons ("Avatar is the same genre as
//! Interstellar, which Bob watched", "Blood Diamond stars Leonardo
//! DiCaprio, who also starred in Inception, which Bob watched").

use kgrec_core::explain::Explainer;
use kgrec_core::{Recommender, TrainContext};
use kgrec_data::{Interaction, InteractionMatrix};
use kgrec_data::{ItemId, KgDataset, UserId};
use kgrec_graph::KgBuilder;
use kgrec_models::embedding::Cfkg;

fn main() {
    // --- Build the Figure 1 knowledge graph ---
    let mut b = KgBuilder::new();
    let t_movie = b.entity_type("movie");
    let t_person = b.entity_type("person");
    let t_genre = b.entity_type("genre");

    let interstellar = b.entity("Interstellar", t_movie);
    let inception = b.entity("Inception", t_movie);
    let avatar = b.entity("Avatar", t_movie);
    let blood_diamond = b.entity("Blood Diamond", t_movie);
    let revenant = b.entity("The Revenant", t_movie);

    let nolan = b.entity("Christopher Nolan", t_person);
    let cameron = b.entity("James Cameron", t_person);
    let dicaprio = b.entity("Leonardo DiCaprio", t_person);
    let scifi = b.entity("Sci-Fi", t_genre);
    let adventure = b.entity("Adventure", t_genre);

    let r_genre = b.relation("genre");
    let r_directed = b.relation("directed_by");
    let r_starring = b.relation("starring");

    b.triple(interstellar, r_genre, scifi);
    b.triple(inception, r_genre, scifi);
    b.triple(avatar, r_genre, scifi);
    b.triple(blood_diamond, r_genre, adventure);
    b.triple(revenant, r_genre, adventure);
    b.triple(interstellar, r_directed, nolan);
    b.triple(inception, r_directed, nolan);
    b.triple(avatar, r_directed, cameron);
    b.triple(inception, r_starring, dicaprio);
    b.triple(blood_diamond, r_starring, dicaprio);
    b.triple(revenant, r_starring, dicaprio);
    let graph = b.build(true);

    // Items in id order; Bob watched Interstellar, Inception, The Revenant.
    let items = vec![interstellar, inception, avatar, blood_diamond, revenant];
    let interactions = InteractionMatrix::from_interactions(
        1,
        items.len(),
        &[
            Interaction::implicit(UserId(0), ItemId(0)),
            Interaction::implicit(UserId(0), ItemId(1)),
            Interaction::implicit(UserId(0), ItemId(4)),
        ],
    );
    let dataset = KgDataset::new(interactions.clone(), graph, items.clone());

    // --- Recommend with a KG-based model ---
    let mut model = Cfkg::default_config();
    model.fit(&TrainContext::new(&dataset, &interactions)).expect("figure-1 dataset always fits");
    let bob = UserId(0);
    let recs = model.recommend(bob, 2, interactions.items_of(bob));
    println!("FIGURE 1 — KG-based recommendation for Bob\n");
    println!("Bob watched: Interstellar, Inception, The Revenant\n");
    println!("Top-2 recommendations (CFKG over the user-item graph):");
    let uig = dataset.user_item_graph(&interactions);
    let explainer = Explainer::new(&uig);
    for (item, score) in &recs {
        println!("\n  {} (score {:.3})", uig.graph.entity_name(dataset.entity_of(*item)), score);
        for (i, ex) in explainer.explain(bob, *item).iter().take(3).enumerate() {
            println!("    reason {}: {}", i + 1, ex.text);
        }
    }
    // The figure's claim: both Avatar and Blood Diamond are reachable and
    // explainable for Bob.
    let names: Vec<&str> =
        recs.iter().map(|(i, _)| uig.graph.entity_name(dataset.entity_of(*i))).collect();
    println!("\nRecommended set: {names:?} (Figure 1 recommends Avatar and Blood Diamond)");
}
