//! TransH (Wang et al. 2014): translation on relation-specific hyperplanes.
//!
//! Each relation carries a hyperplane normal `w_r` (kept unit-norm) and a
//! translation `d_r` on that hyperplane. Entities are projected before
//! translating: `h⊥ = h − (wᵀh)w`, `d(h,r,t) = ‖h⊥ + d_r − t⊥‖²`, allowing
//! an entity to have different projections per relation — the fix for
//! TransE's problems with 1-to-N / N-to-1 relations.

use crate::grad::{GradBatch, GradOp};
use crate::model::KgeModel;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::{vector, EmbeddingTable};
use rand::Rng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the translation table.
const T_TRA: u8 = 1;
/// Grad-batch table id of the hyperplane-normal table.
const T_NOR: u8 = 2;

/// The TransH model.
#[derive(Debug)]
pub struct TransH {
    entities: EmbeddingTable,
    translations: EmbeddingTable,
    normals: EmbeddingTable,
    /// Ranking margin `γ`.
    pub margin: f32,
}

impl Clone for TransH {
    fn clone(&self) -> Self {
        Self {
            entities: self.entities.clone(),
            translations: self.translations.clone(),
            normals: self.normals.clone(),
            margin: self.margin,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entities.clone_from(&source.entities);
        self.translations.clone_from(&source.translations);
        self.normals.clone_from(&source.normals);
        self.margin = source.margin;
    }
}

impl TransH {
    /// Creates a TransH model.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
    ) -> Self {
        let entities = EmbeddingTable::transe_init(rng, num_entities, dim);
        let translations = EmbeddingTable::transe_init(rng, num_relations, dim);
        let mut normals = EmbeddingTable::transe_init(rng, num_relations, dim);
        normals.normalize_rows();
        Self { entities, translations, normals, margin }
    }

    /// Hyperplane distance; see module docs.
    pub(crate) fn distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let w = self.normals.row(r.index());
        let dr = self.translations.row(r.index());
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let ch = vector::dot(w, hv);
        let ct = vector::dot(w, tv);
        let mut acc = 0.0f32;
        for i in 0..hv.len() {
            let v = (hv[i] - ch * w[i]) + dr[i] - (tv[i] - ct * w[i]);
            acc += v * v;
        }
        acc
    }

    /// `residual` into a caller-owned buffer.
    fn residual_into(&self, h: EntityId, r: RelationId, t: EntityId, out: &mut [f32]) {
        let w = self.normals.row(r.index());
        let dr = self.translations.row(r.index());
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let ch = vector::dot(w, hv);
        let ct = vector::dot(w, tv);
        for i in 0..hv.len() {
            out[i] = (hv[i] - ch * w[i]) + dr[i] - (tv[i] - ct * w[i]);
        }
    }

    /// Records one triple's SGD step, `−scale·∂d/∂θ` on every parameter
    /// of the triple, into `out` without touching any parameter.
    ///
    /// Derivation (with `u = h − t`, `c = wᵀu`, `v = u − c·w + d_r`):
    /// `∂d/∂h = 2(v − (wᵀv)w)`, `∂d/∂t = −∂d/∂h`, `∂d/∂d_r = 2v`,
    /// `∂d/∂w = −2[(vᵀw)·u + (wᵀu)·v]`, with `u` expanded in place
    /// instead of materialised. The per-update constraints (‖e‖ ≤ 1,
    /// ‖w‖ = 1) that keep the margin loss from diverging between epochs
    /// are recorded after the updates.
    fn record_apply(&self, triple: Triple, scale: f32, out: &mut GradBatch) {
        let d = self.entities.dim();
        let seg_v = out.alloc(d);
        self.residual_into(triple.head, triple.rel, triple.tail, out.seg_mut(seg_v));
        let w = self.normals.row(triple.rel.index());
        let hv = self.entities.row(triple.head.index());
        let tv = self.entities.row(triple.tail.index());
        let wv = vector::dot(w, out.seg(seg_v));
        let mut wu = 0.0f32;
        for i in 0..d {
            wu += w[i] * (hv[i] - tv[i]);
        }
        let seg_gh = out.alloc(d);
        {
            let (gh, [v]) = out.seg_mut_with(seg_gh, [seg_v]);
            for i in 0..d {
                gh[i] = 2.0 * (v[i] - wv * w[i]);
            }
        }
        let seg_gdr = out.alloc(d);
        {
            let (gdr, [v]) = out.seg_mut_with(seg_gdr, [seg_v]);
            vector::scale_assign(2.0, v, gdr);
        }
        let seg_gw = out.alloc(d);
        {
            let (gw, [v]) = out.seg_mut_with(seg_gw, [seg_v]);
            for i in 0..d {
                gw[i] = -2.0 * (wv * (hv[i] - tv[i]) + wu * v[i]);
            }
        }
        out.push_op(GradOp::AddRow { table: T_ENT, row: triple.head.0, coeff: scale, seg: seg_gh });
        out.push_op(GradOp::AddRow {
            table: T_ENT,
            row: triple.tail.0,
            coeff: -scale,
            seg: seg_gh,
        });
        out.push_op(GradOp::AddRow { table: T_TRA, row: triple.rel.0, coeff: scale, seg: seg_gdr });
        out.push_op(GradOp::AddRow { table: T_NOR, row: triple.rel.0, coeff: scale, seg: seg_gw });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.head.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.tail.0, radius: 1.0 });
        out.push_op(GradOp::NormalizeRow { table: T_NOR, row: triple.rel.0 });
    }
}

impl KgeModel for TransH {
    fn dim(&self) -> usize {
        self.entities.dim()
    }

    fn num_entities(&self) -> usize {
        self.entities.len()
    }

    fn num_relations(&self) -> usize {
        self.translations.len()
    }

    fn score(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        -self.distance(h, r, t)
    }

    fn entity_table(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn relation_embedding(&self, r: RelationId) -> &[f32] {
        self.translations.row(r.index())
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
                    let t = match table {
                        T_ENT => &mut self.entities,
                        T_TRA => &mut self.translations,
                        _ => &mut self.normals,
                    };
                    t.add_to_row(row as usize, -lr * coeff, batch.seg(seg));
                }
                GradOp::ProjectBall { row, radius, .. } => {
                    vector::project_to_ball(self.entities.row_mut(row as usize), radius);
                }
                GradOp::NormalizeRow { row, .. } => {
                    vector::normalize(self.normals.row_mut(row as usize));
                }
                _ => unreachable!("TransH records no matrix ops"),
            }
        }
    }

    fn post_epoch(&mut self) {
        self.entities.project_rows_to_ball(1.0);
        self.normals.normalize_rows();
    }

    fn name(&self) -> &'static str {
        "TransH"
    }
}

impl kgrec_store::Persistable for TransH {
    fn snapshot_id(&self) -> &'static str {
        "kge.transh"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("entities", crate::persist::table_section(&self.entities))?;
        writer.add("translations", crate::persist::table_section(&self.translations))?;
        writer.add("normals", crate::persist::table_section(&self.normals))?;
        writer.add("hyper", crate::persist::scalar_section(self.margin))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        let ent = crate::persist::read_table(reader, "entities", &self.entities)?;
        let tra = crate::persist::read_table(reader, "translations", &self.translations)?;
        let nor = crate::persist::read_table(reader, "normals", &self.normals)?;
        let margin = crate::persist::read_scalar(reader, "hyper")?;
        self.entities.data_mut().copy_from_slice(&ent);
        self.translations.data_mut().copy_from_slice(&tra);
        self.normals.data_mut().copy_from_slice(&nor);
        self.margin = margin;
        Ok(())
    }
}

#[cfg(test)]
impl TransH {
    /// The residual `v = h⊥ + d_r − t⊥` used by all gradients.
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

    fn model() -> TransH {
        let mut rng = StdRng::seed_from_u64(21);
        TransH::new(&mut rng, 4, 2, 5, 1.0)
    }

    #[test]
    fn projection_removes_normal_component() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(0), EntityId(1));
        // The residual must be orthogonal to w up to the d_r component:
        // v = h⊥ − t⊥ + d_r where h⊥, t⊥ ⊥ w.
        let v = m.residual(h, r, t);
        let w = m.normals.row(0);
        let dr = m.translations.row(0);
        let lhs = vector::dot(w, &v);
        let rhs = vector::dot(w, dr);
        assert!((lhs - rhs).abs() < 1e-5, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn head_gradient_matches_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let w = m.normals.row(r.index());
        let wv = vector::dot(w, &v);
        let grad_h: Vec<f32> = (0..v.len()).map(|i| 2.0 * (v[i] - wv * w[i])).collect();
        let mut params = m.entities.row(h.index()).to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_h, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(h.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn normal_gradient_matches_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let w = m.normals.row(r.index()).to_vec();
        let hv = m.entities.row(h.index());
        let tv = m.entities.row(t.index());
        let u: Vec<f32> = hv.iter().zip(tv.iter()).map(|(a, b)| a - b).collect();
        let wv = vector::dot(&w, &v);
        let wu = vector::dot(&w, &u);
        let grad_w: Vec<f32> = (0..v.len()).map(|i| -2.0 * (wv * u[i] + wu * v[i])).collect();
        let mut params = w.clone();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_w, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.normals.row_mut(r.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn training_separates_pos_from_neg() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = TransH::new(&mut rng, 6, 2, 8, 1.0);
        let pos = Triple::new(EntityId(0), RelationId(0), EntityId(1));
        let neg = Triple::new(EntityId(0), RelationId(0), EntityId(2));
        for _ in 0..300 {
            step_pair(&mut m, pos, neg, 0.03);
            m.post_epoch();
        }
        assert!(m.score(pos.head, pos.rel, pos.tail) > m.score(neg.head, neg.rel, neg.tail));
    }

    #[test]
    fn post_epoch_constraints() {
        let mut m = model();
        m.entities.row_mut(0).fill(4.0);
        m.normals.row_mut(0).fill(2.0);
        m.post_epoch();
        assert!(vector::norm(m.entities.row(0)) <= 1.0 + 1e-5);
        assert!((vector::norm(m.normals.row(0)) - 1.0).abs() < 1e-5);
    }
}
