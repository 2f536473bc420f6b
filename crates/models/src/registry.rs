//! The model zoo: every implemented recommender with default
//! hyper-parameters, grouped by the survey's taxonomy.
//!
//! The `table3` harness binary and the evaluation suite enumerate models
//! through this registry, so adding a model here is all that is needed
//! for it to appear in the reproduced tables.

use crate::baselines::{BprMf, ItemKnn, MostPop};
use crate::embedding::{Cfkg, Cke, DknLite, Entity2Rec, Ktup, Mkr, Rcf, Shine};
use crate::pathbased::{
    FmgLite, HeRec, HeteCf, HeteMf, HeteRec, HeteRecP, McRecLite, PgprLite, ProPpr, Rkge, SemRec,
};
use crate::unified::{Aggregator, AkupmLite, Kgat, Kgcn, KgcnConfig, RippleNet};
use kgrec_core::Recommender;

/// The KG-free baselines.
pub(crate) fn baseline_models() -> Vec<Box<dyn Recommender>> {
    vec![Box::new(MostPop::new()), Box::new(ItemKnn::new(50)), Box::new(BprMf::default_config())]
}

/// The embedding-based methods (survey Section 4.1).
///
/// `with_text` controls whether DKN (which requires per-item token lists)
/// is included.
pub(crate) fn embedding_models(with_text: bool) -> Vec<Box<dyn Recommender>> {
    let mut v: Vec<Box<dyn Recommender>> = vec![
        Box::new(Cke::default_config()),
        Box::new(Cfkg::default_config()),
        Box::new(Mkr::default_config()),
        Box::new(Ktup::default_config()),
        Box::new(Entity2Rec::default_config()),
        Box::new(Rcf::default_config()),
        Box::new(Shine::default_config()),
    ];
    if with_text {
        v.push(Box::new(DknLite::default_config()));
    }
    v
}

/// The path-based methods (survey Section 4.2).
pub(crate) fn pathbased_models() -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(HeteMf::default_config()),
        Box::new(HeteCf::default_config()),
        Box::new(HeteRec::default_config()),
        Box::new(HeteRecP::default_config()),
        Box::new(HeRec::default_config()),
        Box::new(SemRec::default_config()),
        Box::new(ProPpr::default_config()),
        Box::new(FmgLite::default_config()),
        Box::new(Rkge::default_config()),
        Box::new(McRecLite::default_config()),
        Box::new(PgprLite::default_config()),
    ]
}

/// The unified methods (survey Section 4.3).
pub(crate) fn unified_models() -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(RippleNet::default_config()),
        Box::new(Kgcn::default_config()),
        Box::new(Kgcn::with_label_smoothness(0.5)),
        Box::new(Kgat::default_config()),
        Box::new(AkupmLite::default_config()),
    ]
}

/// One KGCN per aggregator — the ablation set of survey Eqs. 30–33.
pub fn kgcn_aggregator_ablation() -> Vec<Box<dyn Recommender>> {
    [Aggregator::Sum, Aggregator::Concat, Aggregator::Neighbor, Aggregator::BiInteraction]
        .into_iter()
        .map(|aggregator| {
            Box::new(Kgcn::new(KgcnConfig { aggregator, ..Default::default() }))
                as Box<dyn Recommender>
        })
        .collect()
}

/// Every implemented model, baselines first.
pub fn all_models(with_text: bool) -> Vec<Box<dyn Recommender>> {
    let mut v = baseline_models();
    v.extend(embedding_models(with_text));
    v.extend(pathbased_models());
    v.extend(unified_models());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::UsageType;

    #[test]
    fn every_taxonomy_family_represented() {
        let models = all_models(true);
        let mut emb = 0;
        let mut path = 0;
        let mut uni = 0;
        for m in &models {
            match m.taxonomy().usage {
                UsageType::EmbeddingBased => emb += 1,
                UsageType::PathBased => path += 1,
                UsageType::Unified => uni += 1,
            }
        }
        // Baselines carry the EmbeddingBased stub; subtract them.
        assert!(emb - 3 >= 6, "embedding-based count {emb}");
        assert_eq!(path, 11);
        assert_eq!(uni, 5);
    }

    #[test]
    fn names_are_unique() {
        let models = all_models(true);
        let mut names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate model names");
    }

    #[test]
    fn implemented_methods_appear_in_table3() {
        use kgrec_core::taxonomy::table3;
        let table: Vec<&str> = table3().iter().map(|t| t.method).collect();
        for m in all_models(true) {
            let t = m.taxonomy();
            if t.venue == "baseline" {
                continue;
            }
            assert!(table.contains(&t.method), "{} missing from Table 3", t.method);
        }
    }

    #[test]
    fn ablation_covers_all_aggregators() {
        assert_eq!(kgcn_aggregator_ablation().len(), 4);
    }
}
