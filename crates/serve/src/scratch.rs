//! The per-worker request arena.
//!
//! Every buffer the two pipeline stages need lives here, owned by the
//! caller (one arena per worker thread, as the KGE trainer owns one
//! gradient arena per sub-batch). All buffers are sized once — at
//! construction or on the first request — so the request path is
//! allocation-free afterwards; SA008 enforces the token-level half of
//! that contract inside the stage functions themselves.
//!
//! Deduplication uses a generation-stamped marker array (`seen[v] ==
//! epoch` means item `v` was already taken this request): bumping
//! `epoch` resets all marks in O(1), so no per-request clearing pass
//! over `num_items` entries. The stamps are narrow (`u16`), so one
//! clearing pass runs when the generation wraps, once per 65,535
//! requests.

use kgrec_data::ItemId;

/// One dedup stamp. Narrow, so the marks of a large catalogue stay in
/// cache; [`ServeScratch::begin`] clears them when the generation wraps.
pub(crate) type Stamp = u16;

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
    pub(crate) seen: Vec<Stamp>,
    /// Current request generation for `seen`.
    pub(crate) epoch: Stamp,
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

    /// Starts a new request: bumps the dedup generation, clears the
    /// candidate buffer and returns the generation. O(1) except once per
    /// wrap of the generation, when every mark is reset so that no stale
    /// mark can equal a reused generation; never allocates.
    #[inline]
    pub(crate) fn begin(&mut self) -> Stamp {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.cand.clear();
        self.epoch
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

    #[test]
    fn generation_wrap_clears_every_mark() {
        let mut s = ServeScratch::new(4, 2, 8, 3);
        // Marks left by generations 1 and MAX, the two that could be
        // confused with the first generations after the wrap.
        s.seen[1] = 1;
        s.seen[2] = Stamp::MAX;
        s.epoch = Stamp::MAX - 1;
        assert_eq!(s.begin(), Stamp::MAX);
        assert_eq!(s.seen[2], s.epoch, "no reset before the wrap");
        assert_eq!(s.begin(), 1, "generation 0 is never handed out");
        assert!(s.seen.iter().all(|&m| m == 0), "a mark survived the wrap");
    }
}
