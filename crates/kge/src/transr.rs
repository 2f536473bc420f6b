//! TransR (Lin et al. 2015): entities and relations in separate spaces.
//!
//! Each relation `r` owns a projection matrix `M_r ∈ ℝ^{k×d}` mapping
//! entity space (dim `d`) into relation space (dim `k`):
//! `d(h,r,t) = ‖M_r·h + r − M_r·t‖²`. CKE and KGAT pre-train their entity
//! representations with exactly this model.

use crate::grad::{GradBatch, GradOp};
use crate::model::KgeModel;
use kgrec_graph::{EntityId, RelationId, Triple};
use kgrec_linalg::{vector, EmbeddingTable, Matrix};
use rand::Rng;

/// Grad-batch table id of the entity table.
const T_ENT: u8 = 0;
/// Grad-batch table id of the relation table.
const T_REL: u8 = 1;
/// Grad-batch table id of the per-relation projection matrices.
const T_PROJ: u8 = 2;

/// The TransR model. Entity dim and relation dim may differ.
#[derive(Debug)]
pub struct TransR {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    projections: Vec<Matrix>,
    /// Reusable op tape of [`TransR::train_pair`]; holds no state between
    /// calls.
    tape: GradBatch,
    /// Ranking margin `γ`.
    pub margin: f32,
}

impl Clone for TransR {
    fn clone(&self) -> Self {
        Self {
            entities: self.entities.clone(),
            relations: self.relations.clone(),
            projections: self.projections.clone(),
            tape: GradBatch::new(),
            margin: self.margin,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entities.clone_from(&source.entities);
        self.relations.clone_from(&source.relations);
        // Vec::clone_from reuses both the outer vector and, through
        // Matrix::clone_from, each projection's data allocation.
        self.projections.clone_from(&source.projections);
        self.margin = source.margin;
    }
}

impl TransR {
    /// Creates a TransR model with `entity_dim`-dim entities and
    /// `relation_dim`-dim relation space. Projections start at identity
    /// (plus noise) as in the reference implementation.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_entities: usize,
        num_relations: usize,
        entity_dim: usize,
        relation_dim: usize,
        margin: f32,
    ) -> Self {
        let entities = EmbeddingTable::transe_init(rng, num_entities, entity_dim);
        let relations = EmbeddingTable::transe_init(rng, num_relations, relation_dim);
        let mut projections = Vec::with_capacity(num_relations);
        for _ in 0..num_relations {
            let mut m = Matrix::zeros(relation_dim, entity_dim);
            for i in 0..relation_dim.min(entity_dim) {
                m.set(i, i, 1.0);
            }
            // Small symmetric noise so relations differentiate.
            for v in m.data_mut().iter_mut() {
                *v += rng.gen_range(-0.05f32..0.05);
            }
            projections.push(m);
        }
        Self { entities, relations, projections, tape: GradBatch::new(), margin }
    }

    /// Projected translation distance; see module docs.
    ///
    /// Fused: each relation-space component is produced as two row dot
    /// products and squared immediately — same values and accumulation
    /// order as materialising `M_r·h` and `M_r·t` first, with no
    /// temporaries.
    pub fn distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let m = &self.projections[r.index()];
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let rv = self.relations.row(r.index());
        let mut acc = 0.0f32;
        for i in 0..rv.len() {
            let v = vector::dot(m.row(i), hv) + rv[i] - vector::dot(m.row(i), tv);
            acc += v * v;
        }
        acc
    }

    /// Records one triple's SGD step, `−scale·∂d/∂θ`, into `out` without
    /// touching any parameter. Gradients: `∂d/∂r = 2v`, `∂d/∂h = 2Mᵀv`,
    /// `∂d/∂t = −2Mᵀv`, `∂d/∂M = 2·v·(h−t)ᵀ`. The residual chain
    /// `u = h − t`, `v = M_r·u + r`, `2v`, `Mᵀ·2v` is staged through arena
    /// segments. The per-update constraints follow the updates: the paper
    /// bounds ‖e‖, ‖r‖ and ‖M_r·e‖, and bounding the Frobenius norm of
    /// `M_r` is the cheap sufficient stand-in for the last one.
    fn record_apply(&self, triple: Triple, scale: f32, out: &mut GradBatch) {
        let d_e = self.entities.dim();
        let d_r = self.relations.dim();
        let m = &self.projections[triple.rel.index()];
        let seg_u = out.alloc(d_e);
        {
            let hv = self.entities.row(triple.head.index());
            let tv = self.entities.row(triple.tail.index());
            vector::sub_into(hv, tv, out.seg_mut(seg_u));
        }
        let seg_v = out.alloc(d_r);
        {
            let (v, [u]) = out.seg_mut_with(seg_v, [seg_u]);
            m.matvec_into(u, v);
            vector::axpy(1.0, self.relations.row(triple.rel.index()), v);
        }
        let seg_2v = out.alloc(d_r);
        {
            let (two_v, [v]) = out.seg_mut_with(seg_2v, [seg_v]);
            vector::scale_assign(2.0, v, two_v);
        }
        let seg_gh = out.alloc(d_e);
        {
            let (gh, [two_v]) = out.seg_mut_with(seg_gh, [seg_2v]);
            m.matvec_t_into(two_v, gh);
        }
        out.push_op(GradOp::AddRow { table: T_REL, row: triple.rel.0, coeff: scale, seg: seg_2v });
        out.push_op(GradOp::AddRow { table: T_ENT, row: triple.head.0, coeff: scale, seg: seg_gh });
        out.push_op(GradOp::AddRow {
            table: T_ENT,
            row: triple.tail.0,
            coeff: -scale,
            seg: seg_gh,
        });
        out.push_op(GradOp::Rank1 {
            table: T_PROJ,
            row: triple.rel.0,
            coeff: 2.0 * scale,
            v: seg_v,
            u: seg_u,
        });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.head.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_ENT, row: triple.tail.0, radius: 1.0 });
        out.push_op(GradOp::ProjectBall { table: T_REL, row: triple.rel.0, radius: 1.0 });
        out.push_op(GradOp::ClampFrobenius { table: T_PROJ, row: triple.rel.0 });
    }

    /// One sequential SGD step on a (positive, negative) pair; returns the
    /// pair's loss before the update. Unlike a trainer batch, the
    /// negative's gradients see the parameters the positive's step left:
    /// each triple is recorded and applied in turn. CKE and KGAT
    /// interleave these steps with their interaction updates.
    pub fn train_pair(&mut self, pos: Triple, neg: Triple, lr: f32) -> f32 {
        let loss = self.margin + self.distance(pos.head, pos.rel, pos.tail)
            - self.distance(neg.head, neg.rel, neg.tail);
        if loss > 0.0 {
            let mut tape = std::mem::take(&mut self.tape);
            for (triple, scale) in [(pos, 1.0), (neg, -1.0)] {
                tape.clear();
                self.record_apply(triple, scale, &mut tape);
                self.apply_grads(&tape, lr);
            }
            self.tape = tape;
            loss
        } else {
            0.0
        }
    }

    /// Read access to the entity table.
    pub fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    /// Adds a raw delta to one entity row. Joint-training recommenders
    /// (CKE, KGAT) back-propagate their interaction loss into the
    /// structural embeddings through this hook.
    pub fn entity_row_add(&mut self, e: EntityId, delta: &[f32]) {
        self.entities.add_to_row(e.index(), 1.0, delta);
        // Maintain the model's ‖e‖ ≤ 1 invariant under external updates.
        kgrec_linalg::vector::project_to_ball(self.entities.row_mut(e.index()), 1.0);
    }

    /// The projection matrix of a relation.
    pub fn projection(&self, r: RelationId) -> &Matrix {
        &self.projections[r.index()]
    }
}

impl KgeModel for TransR {
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
                GradOp::Rank1 { row, coeff, v, u, .. } => {
                    self.projections[row as usize].rank1_update(
                        -lr * coeff,
                        batch.seg(v),
                        batch.seg(u),
                    );
                }
                GradOp::ProjectBall { table, row, radius } => {
                    let t = if table == T_ENT { &mut self.entities } else { &mut self.relations };
                    vector::project_to_ball(t.row_mut(row as usize), radius);
                }
                GradOp::ClampFrobenius { row, .. } => {
                    let m = &mut self.projections[row as usize];
                    let bound = 2.0 * (m.rows() as f32).sqrt();
                    let norm = m.frobenius_norm();
                    if norm > bound {
                        let ratio = bound / norm;
                        for x in m.data_mut().iter_mut() {
                            *x *= ratio;
                        }
                    }
                }
                GradOp::NormalizeRow { .. } => {
                    unreachable!("TransR records no NormalizeRow ops")
                }
            }
        }
    }

    fn post_epoch(&mut self) {
        self.entities.project_rows_to_ball(1.0);
        self.relations.project_rows_to_ball(1.0);
    }

    fn name(&self) -> &'static str {
        "TransR"
    }
}

impl kgrec_store::Persistable for TransR {
    fn snapshot_id(&self) -> &'static str {
        "kge.transr"
    }

    fn write_state(
        &self,
        writer: &mut kgrec_store::SnapshotWriter,
    ) -> Result<(), kgrec_store::StoreError> {
        writer.add("entities", crate::persist::table_section(&self.entities))?;
        writer.add("relations", crate::persist::table_section(&self.relations))?;
        writer.add("projections", crate::persist::matrices_section(&self.projections))?;
        writer.add("hyper", crate::persist::scalar_section(self.margin))
    }

    fn read_state(
        &mut self,
        reader: &kgrec_store::SnapshotReader,
    ) -> Result<(), kgrec_store::StoreError> {
        let ent = crate::persist::read_table(reader, "entities", &self.entities)?;
        let rel = crate::persist::read_table(reader, "relations", &self.relations)?;
        let projs = crate::persist::read_matrices(reader, "projections", &self.projections)?;
        let margin = crate::persist::read_scalar(reader, "hyper")?;
        self.entities.data_mut().copy_from_slice(&ent);
        self.relations.data_mut().copy_from_slice(&rel);
        for (m, data) in self.projections.iter_mut().zip(&projs) {
            m.data_mut().copy_from_slice(data);
        }
        self.margin = margin;
        Ok(())
    }
}

#[cfg(test)]
impl TransR {
    /// Residual `v = M_r(h − t) + r` in relation space.
    fn residual(&self, h: EntityId, r: RelationId, t: EntityId) -> Vec<f32> {
        let m = &self.projections[r.index()];
        let hv = self.entities.row(h.index());
        let tv = self.entities.row(t.index());
        let u: Vec<f32> = hv.iter().zip(tv.iter()).map(|(a, b)| a - b).collect();
        let mut v = m.matvec(&u);
        vector::axpy(1.0, self.relations.row(r.index()), &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_linalg::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> TransR {
        let mut rng = StdRng::seed_from_u64(31);
        TransR::new(&mut rng, 4, 2, 5, 3, 1.0)
    }

    #[test]
    fn dims_can_differ() {
        let m = model();
        assert_eq!(m.dim(), 5);
        assert_eq!(m.relation_embedding(RelationId(0)).len(), 3);
    }

    #[test]
    fn head_gradient_matches_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let two_v: Vec<f32> = v.iter().map(|x| 2.0 * x).collect();
        let grad_h = m.projections[r.index()].matvec_t(&two_v);
        let mut params = m.entities.row(h.index()).to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &grad_h, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.entities.row_mut(h.index()).copy_from_slice(p);
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn projection_gradient_matches_finite_difference() {
        let m = model();
        let (h, r, t) = (EntityId(0), RelationId(1), EntityId(2));
        let v = m.residual(h, r, t);
        let hv = m.entities.row(h.index());
        let tv = m.entities.row(t.index());
        let u: Vec<f32> = hv.iter().zip(tv.iter()).map(|(a, b)| a - b).collect();
        // ∂d/∂M = 2·v·uᵀ, flattened row-major.
        let mut grad_m = Matrix::zeros(3, 5);
        grad_m.rank1_update(2.0, &v, &u);
        let mut params = m.projections[r.index()].data().to_vec();
        let analytic = grad_m.data().to_vec();
        let m2 = m.clone();
        gradcheck::assert_gradient(&mut params, &analytic, 1e-3, 1e-2, |p| {
            let mut mm = m2.clone();
            mm.projections[r.index()] = Matrix::from_vec(3, 5, p.to_vec());
            mm.distance(h, r, t)
        });
    }

    #[test]
    fn training_separates_pos_from_neg() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = TransR::new(&mut rng, 6, 2, 6, 6, 1.0);
        let pos = Triple::new(EntityId(0), RelationId(0), EntityId(1));
        let neg = Triple::new(EntityId(0), RelationId(0), EntityId(2));
        for _ in 0..300 {
            m.train_pair(pos, neg, 0.02);
            m.post_epoch();
        }
        assert!(m.score(pos.head, pos.rel, pos.tail) > m.score(neg.head, neg.rel, neg.tail));
    }

    /// The in-place step `train_pair` ran before it became a replay of
    /// recorded ops, kept as the oracle of that replay.
    fn reference_apply(m: &mut TransR, triple: Triple, scale: f32, lr: f32) {
        let d_e = m.entities.dim();
        let d_r = m.relations.dim();
        let mut u = vec![0.0; d_e];
        let mut v = vec![0.0; d_r];
        let mut two_v = vec![0.0; d_r];
        let mut grad_h = vec![0.0; d_e];
        {
            let hv = m.entities.row(triple.head.index());
            let tv = m.entities.row(triple.tail.index());
            vector::sub_into(hv, tv, &mut u);
            let p = &m.projections[triple.rel.index()];
            p.matvec_into(&u, &mut v);
            vector::axpy(1.0, m.relations.row(triple.rel.index()), &mut v);
            vector::scale_assign(2.0, &v, &mut two_v);
            p.matvec_t_into(&two_v, &mut grad_h);
        }
        m.relations.add_to_row(triple.rel.index(), -lr * scale, &two_v);
        m.entities.add_to_row(triple.head.index(), -lr * scale, &grad_h);
        m.entities.add_to_row(triple.tail.index(), lr * scale, &grad_h);
        m.projections[triple.rel.index()].rank1_update(-lr * scale * 2.0, &v, &u);
        vector::project_to_ball(m.entities.row_mut(triple.head.index()), 1.0);
        vector::project_to_ball(m.entities.row_mut(triple.tail.index()), 1.0);
        vector::project_to_ball(m.relations.row_mut(triple.rel.index()), 1.0);
        let p = &mut m.projections[triple.rel.index()];
        let bound = 2.0 * (p.rows() as f32).sqrt();
        let norm = p.frobenius_norm();
        if norm > bound {
            let ratio = bound / norm;
            for x in p.data_mut().iter_mut() {
                *x *= ratio;
            }
        }
    }

    fn reference_train_pair(m: &mut TransR, pos: Triple, neg: Triple, lr: f32) -> f32 {
        let loss = m.margin + m.distance(pos.head, pos.rel, pos.tail)
            - m.distance(neg.head, neg.rel, neg.tail);
        if loss > 0.0 {
            reference_apply(m, pos, 1.0, lr);
            reference_apply(m, neg, -1.0, lr);
            loss
        } else {
            0.0
        }
    }

    fn param_bits(m: &TransR) -> Vec<u32> {
        let projections = m.projections.iter().flat_map(Matrix::data);
        m.entities
            .data()
            .iter()
            .chain(m.relations.data())
            .chain(projections)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn train_pair_replay_matches_in_place_reference_bitwise() {
        for (d_e, d_r) in [(6, 6), (33, 17)] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (n, k) = (7u32, 3u32);
                let mut replay = TransR::new(&mut rng, n as usize, k as usize, d_e, d_r, 1.0);
                let mut reference = replay.clone();
                let mut steps_with_loss = 0;
                for step in 0..200 {
                    let pos = Triple::new(
                        EntityId(rng.gen_range(0..n)),
                        RelationId(rng.gen_range(0..k)),
                        EntityId(rng.gen_range(0..n)),
                    );
                    let neg = Triple::new(pos.head, pos.rel, EntityId(rng.gen_range(0..n)));
                    let lr = if step % 2 == 0 { 0.05 } else { 0.3 };
                    let want = reference_train_pair(&mut reference, pos, neg, lr);
                    let got = replay.train_pair(pos, neg, lr);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{d_e}x{d_r} seed {seed} step {step}"
                    );
                    assert!(
                        param_bits(&replay) == param_bits(&reference),
                        "{d_e}x{d_r} seed {seed} step {step}: parameters diverged"
                    );
                    steps_with_loss += usize::from(want > 0.0);
                }
                assert!(steps_with_loss > 0, "the margin gate never opened");
            }
        }
    }
}
