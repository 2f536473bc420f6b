//! Most-popular baseline: rank items by training popularity.

use crate::common::baseline_taxonomy;
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::{ItemId, UserId};

/// Non-personalized popularity recommender — the floor every personalized
/// model must beat.
#[derive(Debug, Default)]
pub struct MostPop {
    popularity: Vec<f32>,
}

impl MostPop {
    /// Creates an unfitted model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recommender for MostPop {
    fn name(&self) -> &'static str {
        "MostPop"
    }

    fn taxonomy(&self) -> Taxonomy {
        baseline_taxonomy("MostPop")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        self.popularity = ctx.train.item_popularity().into_iter().map(|c| c as f32).collect();
        Ok(())
    }

    fn score(&self, _user: UserId, item: ItemId) -> f32 {
        self.popularity[item.index()]
    }

    fn num_items(&self) -> usize {
        self.popularity.len()
    }

    fn persistable(&self) -> Option<&dyn kgrec_store::Persistable> {
        Some(self)
    }

    fn persistable_mut(&mut self) -> Option<&mut dyn kgrec_store::Persistable> {
        Some(self)
    }
}

impl kgrec_store::Persistable for MostPop {
    fn snapshot_id(&self) -> &'static str {
        "baseline.mostpop"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("popularity", crate::persist::vec_section(&self.popularity))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        self.popularity = crate::persist::read_vec(reader, "popularity", &self.popularity)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::KgDataset;
    use kgrec_data::{Interaction, InteractionMatrix};
    use kgrec_graph::KgBuilder;

    fn ctx_data() -> (KgDataset, InteractionMatrix) {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("item");
        let e0 = b.entity("i0", ty);
        let e1 = b.entity("i1", ty);
        let e2 = b.entity("i2", ty);
        let graph = b.build(false);
        let train = InteractionMatrix::from_interactions(
            3,
            3,
            &[
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::implicit(UserId(1), ItemId(1)),
                Interaction::implicit(UserId(2), ItemId(0)),
            ],
        );
        (KgDataset::new(train.clone(), graph, vec![e0, e1, e2]), train)
    }

    #[test]
    fn ranks_by_popularity() {
        let (ds, train) = ctx_data();
        let mut m = MostPop::new();
        m.fit(&TrainContext::new(&ds, &train)).unwrap();
        let recs = m.recommend(UserId(0), 3, &[]);
        assert_eq!(recs[0].0, ItemId(1));
        assert_eq!(recs[1].0, ItemId(0));
        assert_eq!(recs[2].0, ItemId(2));
    }

    #[test]
    fn scores_are_user_independent() {
        let (ds, train) = ctx_data();
        let mut m = MostPop::new();
        m.fit(&TrainContext::new(&ds, &train)).unwrap();
        assert_eq!(m.score(UserId(0), ItemId(1)), m.score(UserId(2), ItemId(1)));
    }
}
