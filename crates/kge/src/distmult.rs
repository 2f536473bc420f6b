//! DistMult (Yang et al. 2015): bilinear semantic matching with a
//! diagonal relation matrix.
//!
//! Score `s(h,r,t) = Σᵢ hᵢ·rᵢ·tᵢ`, trained with the logistic loss
//! `softplus(−y·s)` over positive (`y=+1`) and corrupted (`y=−1`) triples
//! plus L2 regularization. MKR's and RCF's KGE modules are DistMult-style
//! semantic matchers.

use crate::grad::{GradBatch, GradOp};
use crate::model::KgeModel;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::Rng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the relation table.
const T_REL: u8 = 1;

/// The DistMult model.
#[derive(Debug)]
pub struct DistMult {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    /// L2 regularization coefficient.
    pub l2: f32,
}

impl Clone for DistMult {
    fn clone(&self) -> Self {
        Self { entities: self.entities.clone(), relations: self.relations.clone(), l2: self.l2 }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entities.clone_from(&source.entities);
        self.relations.clone_from(&source.relations);
        self.l2 = source.l2;
    }
}

impl DistMult {
    /// Creates a DistMult model.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
    ) -> Self {
        Self {
            entities: EmbeddingTable::xavier(rng, num_entities, dim),
            relations: EmbeddingTable::xavier(rng, num_relations, dim),
            l2: 1e-4,
        }
    }

    /// The trilinear score `Σᵢ hᵢrᵢtᵢ`.
    pub(crate) fn trilinear(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let hv = self.entities.row(h.index());
        let rv = self.relations.row(r.index());
        let tv = self.entities.row(t.index());
        let mut acc = 0.0f32;
        for i in 0..hv.len() {
            acc += hv[i] * rv[i] * tv[i];
        }
        acc
    }

    /// Records one logistic-loss SGD step on a labeled triple into `out`
    /// without touching any parameter; `label` is `+1.0` for true facts,
    /// `−1.0` for corrupted ones. The gradients carry the L2 term.
    /// Returns the loss.
    fn record_labeled(&self, triple: Triple, label: f32, out: &mut GradBatch) -> f32 {
        let (h, r, t) = (triple.head, triple.rel, triple.tail);
        let s = self.trilinear(h, r, t);
        let loss = vector::softplus(-label * s);
        // ∂loss/∂s = −label · σ(−label·s)
        let dl_ds = -label * vector::sigmoid(-label * s);
        let d = self.entities.dim();
        let hv = self.entities.row(h.index());
        let rv = self.relations.row(r.index());
        let tv = self.entities.row(t.index());
        let seg_gh = out.alloc(d);
        for (i, g) in out.seg_mut(seg_gh).iter_mut().enumerate() {
            *g = dl_ds * rv[i] * tv[i] + self.l2 * hv[i];
        }
        let seg_gr = out.alloc(d);
        for (i, g) in out.seg_mut(seg_gr).iter_mut().enumerate() {
            *g = dl_ds * hv[i] * tv[i] + self.l2 * rv[i];
        }
        let seg_gt = out.alloc(d);
        for (i, g) in out.seg_mut(seg_gt).iter_mut().enumerate() {
            *g = dl_ds * hv[i] * rv[i] + self.l2 * tv[i];
        }
        out.push_op(GradOp::AddRow { table: T_ENT, row: h.0, coeff: 1.0, seg: seg_gh });
        out.push_op(GradOp::AddRow { table: T_REL, row: r.0, coeff: 1.0, seg: seg_gr });
        out.push_op(GradOp::AddRow { table: T_ENT, row: t.0, coeff: 1.0, seg: seg_gt });
        loss
    }
}

impl KgeModel for DistMult {
    fn dim(&self) -> usize {
        self.entities.dim()
    }

    fn num_entities(&self) -> usize {
        self.entities.len()
    }

    fn num_relations(&self) -> usize {
        self.relations.len()
    }

    fn score(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        self.trilinear(h, r, t)
    }

    fn entity_table(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn relation_embedding(&self, r: RelationId) -> &[f32] {
        self.relations.row(r.index())
    }

    fn grad_pair(&self, pos: Triple, neg: Triple, out: &mut GradBatch) -> f32 {
        self.record_labeled(pos, 1.0, out) + self.record_labeled(neg, -1.0, out)
    }

    fn apply_grads(&mut self, batch: &GradBatch, lr: f32) {
        for op in batch.ops() {
            match *op {
                GradOp::AddRow { table, row, coeff, seg } => {
                    let t = if table == T_ENT { &mut self.entities } else { &mut self.relations };
                    t.add_to_row(row as usize, -lr * coeff, batch.seg(seg));
                }
                _ => unreachable!("DistMult records only AddRow ops"),
            }
        }
    }

    fn name(&self) -> &'static str {
        "DistMult"
    }
}

impl kgrec_store::Persistable for DistMult {
    fn snapshot_id(&self) -> &'static str {
        "kge.distmult"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("entities", crate::persist::table_section(&self.entities))?;
        writer.add("relations", crate::persist::table_section(&self.relations))?;
        writer.add("hyper", crate::persist::scalar_section(self.l2))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        let ent = crate::persist::read_table(reader, "entities", &self.entities)?;
        let rel = crate::persist::read_table(reader, "relations", &self.relations)?;
        let l2 = crate::persist::read_scalar(reader, "hyper")?;
        self.entities.data_mut().copy_from_slice(&ent);
        self.relations.data_mut().copy_from_slice(&rel);
        self.l2 = l2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::step_pair;
    use kgrec_linalg::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> DistMult {
        let mut rng = StdRng::seed_from_u64(51);
        DistMult::new(&mut rng, 4, 2, 5)
    }

    #[test]
    fn trilinear_symmetric_in_head_tail() {
        // DistMult's known property: s(h,r,t) == s(t,r,h).
        let m = model();
        let a = m.trilinear(EntityId(0), RelationId(0), EntityId(1));
        let b = m.trilinear(EntityId(1), RelationId(0), EntityId(0));
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn logistic_gradient_matches_finite_difference() {
        let mut m = model();
        m.l2 = 0.0; // isolate the loss term
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let s = m.trilinear(h, r, t);
        let label = 1.0f32;
        let dl_ds = -label * vector::sigmoid(-label * s);
        let rv = m.relations.row(r.index());
        let tv = m.entities.row(t.index());
        let grad_h: Vec<f32> = (0..5).map(|i| dl_ds * rv[i] * tv[i]).collect();
        let mut params = m.entities.row(h.index()).to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_h, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(h.index()).copy_from_slice(p);
            vector::softplus(-label * mm.trilinear(h, r, t))
        });
    }

    #[test]
    fn training_separates_pos_from_neg() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut m = DistMult::new(&mut rng, 6, 2, 8);
        let pos = Triple::new(EntityId(0), RelationId(0), EntityId(1));
        let neg = Triple::new(EntityId(0), RelationId(0), EntityId(2));
        for _ in 0..300 {
            step_pair(&mut m, pos, neg, 0.1);
        }
        assert!(m.score(pos.head, pos.rel, pos.tail) > m.score(neg.head, neg.rel, neg.tail));
    }

    #[test]
    fn l2_shrinks_unused_magnitude() {
        let mut m = model();
        m.l2 = 0.5;
        // Train on a positive with a huge score, so its dl_ds ≈ 0, against
        // a negative whose tail row is zero, so its gradient on row 0 is
        // the L2 term alone: only L2 acts on entity 0.
        m.entities.row_mut(0).fill(2.0);
        m.relations.row_mut(0).fill(2.0);
        m.entities.row_mut(1).fill(2.0);
        m.entities.row_mut(2).fill(0.0);
        let norm_before = vector::norm(m.entities.row(0));
        step_pair(
            &mut m,
            Triple::new(EntityId(0), RelationId(0), EntityId(1)),
            Triple::new(EntityId(0), RelationId(0), EntityId(2)),
            0.1,
        );
        assert!(vector::norm(m.entities.row(0)) < norm_before);
    }
}
