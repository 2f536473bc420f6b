//! TransE (Bordes et al. 2013): relations as translations, `h + r ≈ t`.
//!
//! Distance `d(h,r,t) = ‖h + r − t‖²` (squared L2) with the margin ranking
//! loss `[γ + d(pos) − d(neg)]₊`. Entity embeddings are renormalized to the
//! unit ball after each epoch, as in the original paper.

use crate::grad::{GradBatch, GradOp};
use crate::model::KgeModel;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::EmbeddingTable;
use rand::Rng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the relation table.
const T_REL: u8 = 1;

/// The TransE model.
#[derive(Debug)]
pub struct TransE {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    /// Ranking margin `γ`.
    pub margin: f32,
}

impl Clone for TransE {
    fn clone(&self) -> Self {
        Self {
            entities: self.entities.clone(),
            relations: self.relations.clone(),
            margin: self.margin,
        }
    }

    /// Copies parameters into the existing tables without reallocating.
    fn clone_from(&mut self, source: &Self) {
        self.entities.clone_from(&source.entities);
        self.relations.clone_from(&source.relations);
        self.margin = source.margin;
    }
}

impl TransE {
    /// Creates a TransE model with the paper's uniform initialization.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
    ) -> Self {
        let entities = EmbeddingTable::transe_init(rng, num_entities, dim);
        let mut relations = EmbeddingTable::transe_init(rng, num_relations, dim);
        relations.normalize_rows();
        Self { entities, relations, margin }
    }

    /// Squared translation distance `‖h + r − t‖²`.
    pub fn distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let hv = self.entities.row(h.index());
        let rv = self.relations.row(r.index());
        let tv = self.entities.row(t.index());
        let mut acc = 0.0f32;
        for i in 0..hv.len() {
            let d = hv[i] + rv[i] - tv[i];
            acc += d * d;
        }
        acc
    }

    /// The distance gradient `g = 2(h + r − t)` into a caller-owned
    /// buffer: `∂d/∂h = ∂d/∂r = g`, `∂d/∂t = −g`.
    fn distance_grad_into(&self, h: EntityId, r: RelationId, t: EntityId, g: &mut [f32]) {
        let hv = self.entities.row(h.index());
        let rv = self.relations.row(r.index());
        let tv = self.entities.row(t.index());
        for i in 0..hv.len() {
            g[i] = 2.0 * (hv[i] + rv[i] - tv[i]);
        }
    }

    /// Records one triple's SGD step, `−scale·∂d/∂θ`, into `out` without
    /// touching any parameter: the shared gradient `g = 2(h + r − t)` is
    /// written once and referenced by all three row updates, followed by
    /// the per-update norm constraint of the original algorithm (without
    /// it the margin loss diverges on dense graphs).
    fn record_apply(&self, triple: Triple, scale: f32, out: &mut GradBatch) {
        let seg = out.alloc(self.entities.dim());
        self.distance_grad_into(triple.head, triple.rel, triple.tail, out.seg_mut(seg));
        out.push_op(GradOp::AddRow { table: T_ENT, row: triple.head.0, coeff: scale, seg });
        out.push_op(GradOp::AddRow { table: T_REL, row: triple.rel.0, coeff: scale, seg });
        out.push_op(GradOp::AddRow { table: T_ENT, row: triple.tail.0, coeff: -scale, seg });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.head.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.tail.0, radius: 1.0 });
    }

    /// Read access to the entity table (for downstream recommenders).
    pub fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    /// Adds a raw delta to one entity row (joint-training hook; see
    /// `TransR::entity_row_add`).
    pub fn entity_row_add(&mut self, e: EntityId, delta: &[f32]) {
        self.entities.add_to_row(e.index(), 1.0, delta);
        // Maintain the model's ‖e‖ ≤ 1 invariant under external updates.
        kgrec_linalg::vector::project_to_ball(self.entities.row_mut(e.index()), 1.0);
    }
}

impl KgeModel for TransE {
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
        -self.distance(h, r, t)
    }

    fn entity_table(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn relation_embedding(&self, r: RelationId) -> &[f32] {
        self.relations.row(r.index())
    }

    fn grad_pair(&self, pos: Triple, neg: Triple, out: &mut GradBatch) -> f32 {
        let loss = self.margin + self.distance(pos.head, pos.rel, pos.tail)
            - self.distance(neg.head, neg.rel, neg.tail);
        if loss > 0.0 {
            self.record_apply(pos, 1.0, out);
            self.record_apply(neg, -1.0, out);
            loss
        } else {
            0.0
        }
    }

    fn apply_grads(&mut self, batch: &GradBatch, lr: f32) {
        for op in batch.ops() {
            match *op {
                GradOp::AddRow { table, row, coeff, seg } => {
                    let t = if table == T_ENT { &mut self.entities } else { &mut self.relations };
                    t.add_to_row(row as usize, -lr * coeff, batch.seg(seg));
                }
                GradOp::ProjectBall { row, radius, .. } => {
                    kgrec_linalg::vector::project_to_ball(
                        self.entities.row_mut(row as usize),
                        radius,
                    );
                }
                _ => unreachable!("TransE records only AddRow/ProjectBall ops"),
            }
        }
    }

    fn post_epoch(&mut self) {
        // The original algorithm normalizes entities each iteration.
        self.entities.normalize_rows();
    }

    fn name(&self) -> &'static str {
        "TransE"
    }
}

impl kgrec_store::Persistable for TransE {
    fn snapshot_id(&self) -> &'static str {
        "kge.transe"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("entities", crate::persist::table_section(&self.entities))?;
        writer.add("relations", crate::persist::table_section(&self.relations))?;
        writer.add("hyper", crate::persist::scalar_section(self.margin))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        let ent = crate::persist::read_table(reader, "entities", &self.entities)?;
        let rel = crate::persist::read_table(reader, "relations", &self.relations)?;
        let margin = crate::persist::read_scalar(reader, "hyper")?;
        self.entities.data_mut().copy_from_slice(&ent);
        self.relations.data_mut().copy_from_slice(&rel);
        self.margin = margin;
        Ok(())
    }
}

#[cfg(test)]
impl TransE {
    /// Gradient of the distance with respect to `(h, r, t)` as a single
    /// shared vector `g = 2(h + r − t)`: `∂d/∂h = ∂d/∂r = g`, `∂d/∂t = −g`.
    fn distance_grad(&self, h: EntityId, r: RelationId, t: EntityId) -> Vec<f32> {
        let mut g = vec![0.0f32; self.entities.dim()];
        self.distance_grad_into(h, r, t, &mut g);
        g
    }

    /// Read access to the relation table (tests fingerprint it).
    pub(crate) fn relations(&self) -> &EmbeddingTable {
        &self.relations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::step_pair;
    use kgrec_linalg::{gradcheck, vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> TransE {
        let mut rng = StdRng::seed_from_u64(11);
        TransE::new(&mut rng, 4, 2, 6, 1.0)
    }

    #[test]
    fn distance_zero_when_exact_translation() {
        let mut m = model();
        let d = m.dim();
        m.entities.row_mut(0).copy_from_slice(&vec![0.1; d]);
        m.relations.row_mut(0).copy_from_slice(&vec![0.2; d]);
        m.entities.row_mut(1).copy_from_slice(&vec![0.3; d]);
        let dist = m.distance(EntityId(0), RelationId(0), EntityId(1));
        assert!(dist < 1e-10, "dist={dist}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let g = m.distance_grad(h, r, t);
        // Check ∂d/∂h.
        let mut params = m.entities.row(h.index()).to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &g, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(h.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
        // ∂d/∂t = −g.
        let neg_g: Vec<f32> = g.iter().map(|x| -x).collect();
        let mut tparams = m.entities.row(t.index()).to_vec();
        gradcheck::assert_gradient(&mut tparams, &neg_g, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(t.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn training_separates_pos_from_neg() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = TransE::new(&mut rng, 6, 2, 8, 1.0);
        let pos = Triple::new(EntityId(0), RelationId(0), EntityId(1));
        let neg = Triple::new(EntityId(0), RelationId(0), EntityId(2));
        for _ in 0..200 {
            step_pair(&mut m, pos, neg, 0.05);
            m.post_epoch();
        }
        assert!(
            m.score(pos.head, pos.rel, pos.tail) > m.score(neg.head, neg.rel, neg.tail),
            "positive should score higher"
        );
    }

    #[test]
    fn satisfied_margin_is_noop() {
        let mut m = model();
        let d = m.dim();
        // Make pos distance 0 and neg distance huge.
        m.entities.row_mut(0).copy_from_slice(&vec![0.0; d]);
        m.relations.row_mut(0).copy_from_slice(&vec![0.0; d]);
        m.entities.row_mut(1).copy_from_slice(&vec![0.0; d]);
        m.entities.row_mut(2).copy_from_slice(&vec![5.0; d]);
        let before = m.entities.clone();
        let loss = step_pair(
            &mut m,
            Triple::new(EntityId(0), RelationId(0), EntityId(1)),
            Triple::new(EntityId(0), RelationId(0), EntityId(2)),
            0.1,
        );
        assert_eq!(loss, 0.0);
        assert_eq!(m.entities, before);
    }

    #[test]
    fn post_epoch_normalizes_entities() {
        let mut m = model();
        m.entities.row_mut(0).fill(3.0);
        m.post_epoch();
        assert!((vector::norm(m.entities.row(0)) - 1.0).abs() < 1e-5);
    }
}
