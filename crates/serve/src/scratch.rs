//! The per-worker request arena.
//!
//! Every buffer the two pipeline stages need lives here, owned by the
//! caller (one arena per worker thread, same convention as the trainer's
//! `kgrec_linalg::Scratch`). All buffers are sized once — at
//! construction or on the first request — so the request path is
//! allocation-free afterwards; SA008 enforces the token-level half of
//! that contract inside the stage functions themselves.
//!
//! Deduplication uses a generation-stamped marker array (`seen[v] ==
//! epoch` means item `v` was already taken this request): bumping
//! `epoch` resets all marks in O(1), so no per-request clearing pass
//! over `num_items` entries.

use kgrec_data::ItemId;

/// Reusable buffers for one serving worker.
#[derive(Debug)]
pub struct ServeScratch {
    /// Stage-1 output: candidate item ids, insertion order.
    pub(crate) cand: Vec<u32>,
    /// Stage-2 selection keys, best first (at most `k`): the scores of
    /// the items in `out`, position for position, with NaN stored as
    /// `-inf`. Scores of rejected candidates are never kept.
    pub(crate) scores: Vec<f32>,
    /// User profile vector (model dimension).
    pub(crate) profile: Vec<f32>,
    /// Generation-stamped dedup marks, one per item.
    pub(crate) seen: Vec<u64>,
    /// Current request generation for `seen`.
    pub(crate) epoch: u64,
    /// Final ranked top-K item ids; during stage 2, the running
    /// selection parallel to `scores`.
    pub(crate) out: Vec<ItemId>,
}

impl ServeScratch {
    /// Creates an arena pre-sized for `num_items` items, a model of
    /// dimension `dim`, candidate budget `max_candidates`, and result
    /// size `k`.
    pub fn new(num_items: usize, dim: usize, max_candidates: usize, k: usize) -> Self {
        Self {
            cand: Vec::with_capacity(max_candidates),
            scores: Vec::with_capacity(k),
            profile: vec![0.0; dim],
            seen: vec![0; num_items],
            epoch: 0,
            out: Vec::with_capacity(k),
        }
    }

    /// The ranked top-K of the most recent request, best first.
    #[inline]
    pub fn top_k(&self) -> &[ItemId] {
        &self.out
    }

    /// Starts a new request: bumps the dedup generation and clears the
    /// candidate buffer. O(1); never allocates.
    #[inline]
    pub(crate) fn begin(&mut self) {
        self.epoch += 1;
        self.cand.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_is_constant_time_reset() {
        let mut s = ServeScratch::new(4, 2, 8, 3);
        s.cand.push(1);
        s.seen[1] = 1;
        let cap = s.cand.capacity();
        s.begin();
        assert!(s.cand.is_empty());
        assert_eq!(s.cand.capacity(), cap);
        assert_eq!(s.epoch, 1);
        // The stale mark from epoch 1 is invisible at epoch 2.
        s.begin();
        assert_ne!(s.seen[1], s.epoch);
    }
}
