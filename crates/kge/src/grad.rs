//! Recorded gradient tapes: the one way a KGE model's parameters train.
//!
//! A model never updates itself in place. Training splits into two
//! phases:
//!
//! 1. **record** — [`crate::model::KgeModel::grad_pair`] reads a *frozen*
//!    `&self` and writes every update it would make as [`GradOp`]s over a
//!    flat `f32` arena, one [`GradBatch`];
//! 2. **apply** — [`crate::model::KgeModel::apply_grads`] replays the ops
//!    in recorded order.
//!
//! The batched trainer in [`crate::trainer`] records one batch per fixed
//! sub-batch of pairs on worker threads and applies the batches in
//! sub-batch order. Gradients are pure functions of the frozen
//! parameters and the application order is fixed by the data, never by
//! worker scheduling, so the parameters are bit-identical at any thread
//! count. `TransR::train_pair` records and applies one triple at a time,
//! which reproduces a sequential SGD step bit for bit. Constraint
//! projections (norm balls, unit normals, Frobenius clamps) are ops too,
//! so they replay at exactly their point in the update sequence.

/// A segment of a [`GradBatch`] arena: one recorded gradient vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    off: u32,
    len: u32,
}

/// One recorded parameter update or constraint projection.
///
/// `table` is a model-defined table id (each model documents its own
/// numbering); `row` indexes into that table. `AddRow`'s application rule
/// is `table[row] += −lr · coeff · grad`, matching the models' SGD sign
/// convention, so `coeff` is the margin-loss `scale` (±1) or a plain
/// gradient multiplier.
#[derive(Debug, Clone, Copy)]
pub enum GradOp {
    /// `table[row] += −lr · coeff · data[seg]`.
    AddRow {
        /// Model-defined parameter-table id.
        table: u8,
        /// Row index within the table.
        row: u32,
        /// Gradient multiplier (margin `scale`, ±1).
        coeff: f32,
        /// Recorded gradient vector.
        seg: Seg,
    },
    /// Rank-1 matrix update `M[row] += −lr · coeff · v·uᵀ`.
    Rank1 {
        /// Model-defined matrix-table id.
        table: u8,
        /// Matrix index within the table.
        row: u32,
        /// Gradient multiplier.
        coeff: f32,
        /// Column vector of the outer product.
        v: Seg,
        /// Row vector of the outer product.
        u: Seg,
    },
    /// Projects `table[row]` onto the Euclidean ball of `radius`.
    ProjectBall {
        /// Model-defined parameter-table id.
        table: u8,
        /// Row index within the table.
        row: u32,
        /// Ball radius.
        radius: f32,
    },
    /// Renormalizes `table[row]` to unit Euclidean length.
    NormalizeRow {
        /// Model-defined parameter-table id.
        table: u8,
        /// Row index within the table.
        row: u32,
    },
    /// Clamps the Frobenius norm of matrix `table[row]` to the model's
    /// per-matrix bound (recomputed at apply time from the matrix shape).
    ClampFrobenius {
        /// Model-defined matrix-table id.
        table: u8,
        /// Matrix index within the table.
        row: u32,
    },
}

/// A worker-local batch of recorded gradients: a flat `f32` arena plus
/// the op and loss sequences. Reused across chunks and epochs — `clear`
/// keeps every allocation.
#[derive(Debug, Default)]
pub struct GradBatch {
    data: Vec<f32>,
    ops: Vec<GradOp>,
    losses: Vec<f32>,
}

impl GradBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the batch while keeping its allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ops.clear();
        self.losses.clear();
    }

    /// Reserves a zero-filled `len`-element segment and returns its handle.
    pub fn alloc(&mut self, len: usize) -> Seg {
        let off = self.data.len();
        self.data.resize(off + len, 0.0);
        Seg { off: off as u32, len: len as u32 }
    }

    /// Immutable view of a segment.
    #[inline]
    pub fn seg(&self, s: Seg) -> &[f32] {
        &self.data[s.off as usize..(s.off + s.len) as usize]
    }

    /// Mutable view of a segment.
    #[inline]
    pub fn seg_mut(&mut self, s: Seg) -> &mut [f32] {
        &mut self.data[s.off as usize..(s.off + s.len) as usize]
    }

    /// Mutable view of segment `dst` together with immutable views of
    /// `N` earlier segments — the split that lets a gradient be computed
    /// from temporaries already recorded in the same arena.
    ///
    /// # Panics
    /// Panics if any source segment does not end at or before `dst`'s
    /// start (sources must be allocated before the destination).
    pub(crate) fn seg_mut_with<const N: usize>(
        &mut self,
        dst: Seg,
        srcs: [Seg; N],
    ) -> (&mut [f32], [&[f32]; N]) {
        let (head, tail) = self.data.split_at_mut(dst.off as usize);
        let d = &mut tail[..dst.len as usize];
        let views = srcs.map(|s| {
            assert!(
                s.off + s.len <= dst.off,
                "seg_mut_with: source segment must precede the destination"
            );
            &head[s.off as usize..(s.off + s.len) as usize]
        });
        (d, views)
    }

    /// Records one op.
    #[inline]
    pub fn push_op(&mut self, op: GradOp) {
        self.ops.push(op);
    }

    /// Records one pair's loss.
    #[inline]
    pub(crate) fn push_loss(&mut self, loss: f32) {
        self.losses.push(loss);
    }

    /// The recorded ops, in application order.
    pub fn ops(&self) -> &[GradOp] {
        &self.ops
    }

    /// The recorded per-pair losses, in pair order.
    pub(crate) fn losses(&self) -> &[f32] {
        &self.losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_views_round_trip() {
        let mut gb = GradBatch::new();
        let a = gb.alloc(3);
        let b = gb.alloc(2);
        gb.seg_mut(a).copy_from_slice(&[1.0, 2.0, 3.0]);
        gb.seg_mut(b).copy_from_slice(&[4.0, 5.0]);
        assert_eq!(gb.seg(a), &[1.0, 2.0, 3.0]);
        assert_eq!(gb.seg(b), &[4.0, 5.0]);
        let (dst, [src]) = gb.seg_mut_with(b, [a]);
        dst[0] = src[0] + src[2];
        assert_eq!(gb.seg(b), &[4.0, 5.0]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut gb = GradBatch::new();
        let _ = gb.alloc(64);
        gb.push_loss(1.0);
        let cap = 64;
        gb.clear();
        assert!(gb.data.capacity() >= cap);
        assert!(gb.losses().is_empty() && gb.ops().is_empty());
        assert_eq!(gb.alloc(4), Seg { off: 0, len: 4 });
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn seg_mut_with_rejects_later_sources() {
        let mut gb = GradBatch::new();
        let a = gb.alloc(3);
        let b = gb.alloc(2);
        let _ = gb.seg_mut_with(a, [b]);
    }
}
