//! Sharded, generation-stamped per-user top-K result cache.
//!
//! # Stamping protocol
//!
//! Correctness does not come from explicit eviction but from *stamps*:
//! every entry records the user's data generation and the server's model
//! generation at fill time, and a lookup only hits when **both** match
//! the current values. Writers therefore never touch the cache —
//! [`crate::Server::ingest`] bumps the touched users' generations and
//! [`crate::Server::reload`] bumps the model generation, which atomically
//! invalidates every affected entry wherever it is stored. The ordering
//! contract (install new data *before* bumping, with release/acquire on
//! the counters) guarantees a reader that observes a bumped generation
//! also observes the new data, so a stale result can never be stored
//! under a current stamp.
//!
//! # Layout
//!
//! Fixed capacity, direct-mapped: user `u` lives in shard
//! `u % shards`, slot `(u / shards) % slots_per_shard`. A colliding fill
//! overwrites (last writer wins) — the cache is an accelerator, never a
//! source of truth, so collisions cost recomputation, not correctness.
//! Shards are `Mutex`-guarded; with the bench's user-partitioned workers
//! a shard is only ever contended by requests for colliding users.

use kgrec_data::{ItemId, UserId};
use std::sync::{Mutex, PoisonError};

/// Slot sentinel: no user cached here.
const EMPTY: u32 = u32::MAX;

/// One cache shard: parallel slot arrays plus a flat `slots × k` item
/// block.
#[derive(Debug)]
struct CacheShard {
    users: Vec<u32>,
    user_gens: Vec<u64>,
    model_gens: Vec<u64>,
    lens: Vec<u8>,
    items: Vec<u32>,
}

/// The sharded top-K result cache.
#[derive(Debug)]
pub struct TopKCache {
    shards: Vec<Mutex<CacheShard>>,
    slots_per_shard: usize,
    k: usize,
}

impl TopKCache {
    /// Creates a cache with room for `capacity` users total, split over
    /// `shards` shards, each entry holding up to `k` items.
    ///
    /// `capacity == 0` disables the cache: every lookup misses and every
    /// insert is a no-op.
    ///
    /// # Panics
    /// If `k` is 0 or exceeds 255 (entry lengths are stored as a byte).
    pub fn new(capacity: usize, shards: usize, k: usize) -> Self {
        assert!((1..=255).contains(&k), "TopKCache: k must be in 1..=255");
        if capacity == 0 {
            return Self { shards: Vec::new(), slots_per_shard: 0, k };
        }
        let shards = shards.clamp(1, capacity);
        let slots_per_shard = capacity.div_ceil(shards);
        let make = || {
            Mutex::new(CacheShard {
                users: vec![EMPTY; slots_per_shard],
                user_gens: vec![0; slots_per_shard],
                model_gens: vec![0; slots_per_shard],
                lens: vec![0; slots_per_shard],
                items: vec![0; slots_per_shard * k],
            })
        };
        Self { shards: (0..shards).map(|_| make()).collect(), slots_per_shard, k }
    }

    #[inline]
    fn locate(&self, user: UserId) -> (usize, usize) {
        let shard = user.index() % self.shards.len();
        let slot = (user.index() / self.shards.len()) % self.slots_per_shard;
        (shard, slot)
    }

    /// Looks up `user`'s entry; hits only when the entry's stamps equal
    /// (`user_gen`, `model_gen`). On a hit the ranked items are copied
    /// into `out` (cleared first) and `true` is returned.
    pub fn lookup(
        &self,
        user: UserId,
        user_gen: u64,
        model_gen: u64,
        out: &mut Vec<ItemId>,
    ) -> bool {
        if self.shards.is_empty() {
            return false;
        }
        let (s, slot) = self.locate(user);
        let shard = self.shards[s].lock().unwrap_or_else(PoisonError::into_inner);
        if shard.users[slot] != user.0
            || shard.user_gens[slot] != user_gen
            || shard.model_gens[slot] != model_gen
        {
            return false;
        }
        let len = shard.lens[slot] as usize;
        out.clear();
        for &v in &shard.items[slot * self.k..slot * self.k + len] {
            out.push(ItemId(v));
        }
        true
    }

    /// Stores `items` as `user`'s entry under the given stamps,
    /// overwriting whatever occupied the slot.
    ///
    /// # Panics
    /// If `items` is longer than the `k` the cache was built for.
    pub fn insert(&self, user: UserId, user_gen: u64, model_gen: u64, items: &[ItemId]) {
        if self.shards.is_empty() {
            return;
        }
        assert!(items.len() <= self.k, "TopKCache: entry longer than k");
        let (s, slot) = self.locate(user);
        let mut shard = self.shards[s].lock().unwrap_or_else(PoisonError::into_inner);
        shard.users[slot] = user.0;
        shard.user_gens[slot] = user_gen;
        shard.model_gens[slot] = model_gen;
        shard.lens[slot] = items.len() as u8;
        let base = slot * self.k;
        for (i, v) in items.iter().enumerate() {
            shard.items[base + i] = v.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<ItemId> {
        xs.iter().map(|&v| ItemId(v)).collect()
    }

    #[test]
    fn round_trip_and_stamp_mismatch() {
        let c = TopKCache::new(8, 2, 3);
        let mut out = Vec::new();
        assert!(!c.lookup(UserId(5), 0, 0, &mut out));
        c.insert(UserId(5), 0, 0, &ids(&[9, 2]));
        assert!(c.lookup(UserId(5), 0, 0, &mut out));
        assert_eq!(out, ids(&[9, 2]));
        // Any stamp divergence is a miss.
        assert!(!c.lookup(UserId(5), 1, 0, &mut out));
        assert!(!c.lookup(UserId(5), 0, 1, &mut out));
    }

    #[test]
    fn colliding_users_overwrite_without_cross_talk() {
        // capacity 2, 1 shard, slots_per_shard 2: users 0 and 2 collide.
        let c = TopKCache::new(2, 1, 2);
        c.insert(UserId(0), 0, 0, &ids(&[1]));
        c.insert(UserId(2), 0, 0, &ids(&[3]));
        let mut out = Vec::new();
        assert!(!c.lookup(UserId(0), 0, 0, &mut out), "evicted by collision");
        assert!(c.lookup(UserId(2), 0, 0, &mut out));
        assert_eq!(out, ids(&[3]));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = TopKCache::new(0, 4, 3);
        c.insert(UserId(1), 0, 0, &ids(&[1]));
        let mut out = Vec::new();
        assert!(!c.lookup(UserId(1), 0, 0, &mut out));
        assert_eq!(c.shards.len() * c.slots_per_shard, 0);
    }
}
