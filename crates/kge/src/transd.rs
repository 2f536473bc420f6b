//! TransD (Ji et al. 2015): dynamic mapping matrices.
//!
//! Every entity and relation carries a second *projection* vector
//! (`h_p`, `r_p`, …). The mapping matrix is never materialized — the
//! efficient identity `M_rh·h = h + (h_pᵀh)·r_p` is used directly (the
//! equal-dimension case of the paper):
//! `d(h,r,t) = ‖h + (h_pᵀh)r_p + r − t − (t_pᵀt)r_p‖²`.
//! DKN encodes its news entities with this model.

use crate::grad::{GradBatch, GradOp};
use crate::model::KgeModel;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::Rng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the entity-projector table.
const T_ENT_P: u8 = 1;
/// Grad-batch table id of the relation table.
const T_REL: u8 = 2;
/// Grad-batch table id of the relation-projector table.
const T_REL_P: u8 = 3;

/// The TransD model (entity dim == relation dim).
#[derive(Debug)]
pub struct TransD {
    entities: EmbeddingTable,
    entity_proj: EmbeddingTable,
    relations: EmbeddingTable,
    relation_proj: EmbeddingTable,
    /// Ranking margin `γ`.
    pub margin: f32,
}

impl Clone for TransD {
    fn clone(&self) -> Self {
        Self {
            entities: self.entities.clone(),
            entity_proj: self.entity_proj.clone(),
            relations: self.relations.clone(),
            relation_proj: self.relation_proj.clone(),
            margin: self.margin,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entities.clone_from(&source.entities);
        self.entity_proj.clone_from(&source.entity_proj);
        self.relations.clone_from(&source.relations);
        self.relation_proj.clone_from(&source.relation_proj);
        self.margin = source.margin;
    }
}

impl TransD {
    /// Creates a TransD model.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
    ) -> Self {
        Self {
            entities: EmbeddingTable::transe_init(rng, num_entities, dim),
            entity_proj: EmbeddingTable::uniform(rng, num_entities, dim, 0.1),
            relations: EmbeddingTable::transe_init(rng, num_relations, dim),
            relation_proj: EmbeddingTable::uniform(rng, num_relations, dim, 0.1),
            margin,
        }
    }

    /// `residual` into a caller-owned buffer.
    fn residual_into(&self, h: EntityId, r: RelationId, t: EntityId, out: &mut [f32]) {
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let rv = self.relations.row(r.index());
        let rp = self.relation_proj.row(r.index());
        let a = vector::dot(self.entity_proj.row(h.index()), hv);
        let b = vector::dot(self.entity_proj.row(t.index()), tv);
        for i in 0..hv.len() {
            out[i] = hv[i] + a * rp[i] + rv[i] - tv[i] - b * rp[i];
        }
    }

    /// Dynamic-mapping distance; see module docs.
    ///
    /// Fused: each residual component feeds the running sum of squares
    /// directly (same per-element expression and accumulation order as
    /// `residual` + `norm_sq`, so the value is bit-identical) without
    /// materialising the residual vector.
    pub(crate) fn distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let rv = self.relations.row(r.index());
        let rp = self.relation_proj.row(r.index());
        let a = vector::dot(self.entity_proj.row(h.index()), hv);
        let b = vector::dot(self.entity_proj.row(t.index()), tv);
        let mut acc = 0.0f32;
        for i in 0..hv.len() {
            let v = hv[i] + a * rp[i] + rv[i] - tv[i] - b * rp[i];
            acc += v * v;
        }
        acc
    }

    /// Records one triple's SGD step, `−scale·∂d/∂θ`, into `out` without
    /// touching any parameter. Gradients (with `v` the residual,
    /// `c = r_pᵀv`):
    /// `∂d/∂h  = 2(v + c·h_p)`,   `∂d/∂h_p = 2c·h`,
    /// `∂d/∂t  = −2(v + c·t_p)`,  `∂d/∂t_p = −2c·t`,
    /// `∂d/∂r  = 2v`,             `∂d/∂r_p = 2(a−b)·v`.
    /// The residual is staged once, and the per-update constraints
    /// (‖e‖ ≤ 1, ‖r‖ ≤ 1, projectors bounded) are recorded as six ball
    /// projections after the updates.
    fn record_apply(&self, triple: Triple, scale: f32, out: &mut GradBatch) {
        let (h, r, t) = (triple.head, triple.rel, triple.tail);
        let d = self.entities.dim();
        let seg_v = out.alloc(d);
        self.residual_into(h, r, t, out.seg_mut(seg_v));
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let hp = self.entity_proj.row(h.index());
        let tp = self.entity_proj.row(t.index());
        let rp = self.relation_proj.row(r.index());
        let a = vector::dot(hp, hv);
        let b = vector::dot(tp, tv);
        let c = vector::dot(rp, out.seg(seg_v));
        let seg_gh = out.alloc(d);
        {
            let (g, [v]) = out.seg_mut_with(seg_gh, [seg_v]);
            for i in 0..d {
                g[i] = 2.0 * (v[i] + c * hp[i]);
            }
        }
        let seg_ghp = out.alloc(d);
        for (g, x) in out.seg_mut(seg_ghp).iter_mut().zip(hv) {
            *g = 2.0 * c * x;
        }
        let seg_gt = out.alloc(d);
        {
            let (g, [v]) = out.seg_mut_with(seg_gt, [seg_v]);
            for i in 0..d {
                g[i] = -2.0 * (v[i] + c * tp[i]);
            }
        }
        let seg_gtp = out.alloc(d);
        for (g, x) in out.seg_mut(seg_gtp).iter_mut().zip(tv) {
            *g = -2.0 * c * x;
        }
        let seg_gr = out.alloc(d);
        {
            let (g, [v]) = out.seg_mut_with(seg_gr, [seg_v]);
            vector::scale_assign(2.0, v, g);
        }
        let seg_grp = out.alloc(d);
        {
            let (g, [v]) = out.seg_mut_with(seg_grp, [seg_v]);
            vector::scale_assign(2.0 * (a - b), v, g);
        }
        out.push_op(GradOp::AddRow { table: T_ENT, row: h.0, coeff: scale, seg: seg_gh });
        out.push_op(GradOp::AddRow { table: T_ENT_P, row: h.0, coeff: scale, seg: seg_ghp });
        out.push_op(GradOp::AddRow { table: T_ENT, row: t.0, coeff: scale, seg: seg_gt });
        out.push_op(GradOp::AddRow { table: T_ENT_P, row: t.0, coeff: scale, seg: seg_gtp });
        out.push_op(GradOp::AddRow { table: T_REL, row: r.0, coeff: scale, seg: seg_gr });
        out.push_op(GradOp::AddRow { table: T_REL_P, row: r.0, coeff: scale, seg: seg_grp });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: h.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: t.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_REL, row: r.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT_P, row: h.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT_P, row: t.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_REL_P, row: r.0, radius: 1.0 });
    }

    /// The table a grad-op id refers to, mutably.
    fn table_mut(&mut self, table: u8) -> &mut EmbeddingTable {
        match table {
            T_ENT => &mut self.entities,
            T_ENT_P => &mut self.entity_proj,
            T_REL => &mut self.relations,
            _ => &mut self.relation_proj,
        }
    }
}

impl KgeModel for TransD {
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
                    self.table_mut(table).add_to_row(row as usize, -lr * coeff, batch.seg(seg));
                }
                GradOp::ProjectBall { table, row, radius } => {
                    vector::project_to_ball(self.table_mut(table).row_mut(row as usize), radius);
                }
                _ => unreachable!("TransD records only AddRow/ProjectBall ops"),
            }
        }
    }

    fn post_epoch(&mut self) {
        self.entities.project_rows_to_ball(1.0);
        self.relations.project_rows_to_ball(1.0);
    }

    fn name(&self) -> &'static str {
        "TransD"
    }
}

impl kgrec_store::Persistable for TransD {
    fn snapshot_id(&self) -> &'static str {
        "kge.transd"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("entities", crate::persist::table_section(&self.entities))?;
        writer.add("entity_proj", crate::persist::table_section(&self.entity_proj))?;
        writer.add("relations", crate::persist::table_section(&self.relations))?;
        writer.add("relation_proj", crate::persist::table_section(&self.relation_proj))?;
        writer.add("hyper", crate::persist::scalar_section(self.margin))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        let ent = crate::persist::read_table(reader, "entities", &self.entities)?;
        let ent_p = crate::persist::read_table(reader, "entity_proj", &self.entity_proj)?;
        let rel = crate::persist::read_table(reader, "relations", &self.relations)?;
        let rel_p = crate::persist::read_table(reader, "relation_proj", &self.relation_proj)?;
        let margin = crate::persist::read_scalar(reader, "hyper")?;
        self.entities.data_mut().copy_from_slice(&ent);
        self.entity_proj.data_mut().copy_from_slice(&ent_p);
        self.relations.data_mut().copy_from_slice(&rel);
        self.relation_proj.data_mut().copy_from_slice(&rel_p);
        self.margin = margin;
        Ok(())
    }
}

#[cfg(test)]
impl TransD {
    /// Residual `v = h + a·r_p + r − t − b·r_p` with `a = h_pᵀh`,
    /// `b = t_pᵀt`.
    fn residual(&self, h: EntityId, r: RelationId, t: EntityId) -> Vec<f32> {
        let mut v = vec![0.0f32; self.entities.dim()];
        self.residual_into(h, r, t, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::step_pair;
    use kgrec_linalg::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> TransD {
        let mut rng = StdRng::seed_from_u64(41);
        TransD::new(&mut rng, 4, 2, 5, 1.0)
    }

    #[test]
    fn zero_projections_reduce_to_transe() {
        let mut m = model();
        for i in 0..4 {
            m.entity_proj.row_mut(i).fill(0.0);
        }
        for i in 0..2 {
            m.relation_proj.row_mut(i).fill(0.0);
        }
        let (h, r, t) = (EntityId(0), RelationId(0), EntityId(1));
        let hv = m.entities.row(0);
        let rv = m.relations.row(0);
        let tv = m.entities.row(1);
        let transe: f32 = (0..5).map(|i| (hv[i] + rv[i] - tv[i]).powi(2)).sum();
        assert!((m.distance(h, r, t) - transe).abs() < 1e-6);
    }

    #[test]
    fn head_gradients_match_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let hp = m.entity_proj.row(h.index());
        let rp = m.relation_proj.row(r.index());
        let c = vector::dot(rp, &v);
        let grad_h: Vec<f32> = (0..v.len()).map(|i| 2.0 * (v[i] + c * hp[i])).collect();
        let mut params = m.entities.row(h.index()).to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_h, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(h.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn projection_gradients_match_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let hv = m.entities.row(h.index());
        let tv = m.entities.row(t.index());
        let hp = m.entity_proj.row(h.index());
        let tp = m.entity_proj.row(t.index());
        let rp = m.relation_proj.row(r.index());
        let a = vector::dot(hp, hv);
        let b = vector::dot(tp, tv);
        let c = vector::dot(rp, &v);
        // h_p gradient.
        let grad_hp: Vec<f32> = hv.iter().map(|x| 2.0 * c * x).collect();
        let mut params = hp.to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_hp, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entity_proj.row_mut(h.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
        // r_p gradient.
        let grad_rp: Vec<f32> = v.iter().map(|x| 2.0 * (a - b) * x).collect();
        let mut params = rp.to_vec();
        gradcheck::assert_gradient(&mut params, &grad_rp, 1e-3, 2e-2, |p| {
            let mut mm = m2.clone();
            mm.relation_proj.row_mut(r.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn training_separates_pos_from_neg() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = TransD::new(&mut rng, 6, 2, 8, 1.0);
        let pos = Triple::new(EntityId(0), RelationId(0), EntityId(1));
        let neg = Triple::new(EntityId(0), RelationId(0), EntityId(2));
        for _ in 0..300 {
            step_pair(&mut m, pos, neg, 0.02);
            m.post_epoch();
        }
        assert!(m.score(pos.head, pos.rel, pos.tail) > m.score(neg.head, neg.rel, neg.tail));
    }
}
