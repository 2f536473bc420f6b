//! A tiny buffer arena for gradient scratch space.
//!
//! The KGE `apply`/`train_pair` hot paths need a handful of
//! embedding-dimension temporaries per triple. Allocating them fresh per
//! triple (the pre-kernel-layer behaviour) puts the allocator on the
//! critical path of every SGD step; [`Scratch`] amortises that to one
//! allocation per buffer per trainer lifetime.
//!
//! Ownership convention (see DESIGN.md §9): the *trainer* owns the arena,
//! kernels `take` buffers at entry and `put` them back before returning.
//! A taken buffer is zero-filled at the requested length, so kernels may
//! accumulate into it without clearing first.

/// A pool of reusable `Vec<f32>` buffers.
///
/// Not thread-safe by design — each trainer owns its own arena, mirroring
/// the one-model-per-worker sharding of the evaluation pool.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
}

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zero-filled buffer of length `len`, reusing a pooled
    /// allocation when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_at_requested_len() {
        let mut s = Scratch::new();
        let mut b = s.take(4);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.put(b);
        let again = s.take(3);
        assert_eq!(again, vec![0.0; 3]);
    }

    #[test]
    fn pool_reuses_allocation() {
        let mut s = Scratch::new();
        let b = s.take(8);
        let ptr = b.as_ptr();
        s.put(b);
        assert_eq!(s.pool.len(), 1);
        let again = s.take(8);
        assert_eq!(again.as_ptr(), ptr, "pooled buffer must be reused, not reallocated");
        assert_eq!(s.pool.len(), 0);
    }

    #[test]
    fn growing_take_works() {
        let mut s = Scratch::new();
        let b = s.take(2);
        s.put(b);
        let big = s.take(64);
        assert_eq!(big.len(), 64);
        assert!(big.iter().all(|&v| v == 0.0));
    }
}
