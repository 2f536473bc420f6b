//! Columnar interaction storage: sorted user/item/rating/timestamp
//! columns behind a per-user `u32` offset index.
//!
//! This is the million-user replacement for per-user interaction `Vec`s:
//! one contiguous column per attribute (structure of arrays), user-major
//! sorted by `(user, item)`, plus an item-major index for audience scans.
//! [`crate::InteractionMatrix`] is a thin facade over this module — the
//! survey models keep their familiar accessors while the storage
//! underneath is flat, compact, and appendable.
//!
//! The store pays only for data it holds. The `ratings` and `timestamps`
//! payload columns are stored only when some row carries a value other
//! than the sentinel (the `f32::NAN` bit pattern and [`NO_TIMESTAMP`]).
//! Implicit feedback without event times — the survey's binary `R` —
//! therefore costs the item column and the item-major index alone.
//! [`ColumnarInteractions::ratings_of`] and
//! [`ColumnarInteractions::timestamps_of`] serve an absent column as a
//! prefix of one sentinel run per store, as long as the longest user
//! history, so readers see the same per-row values either way.
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! * **Dedup order** — duplicate `(user, item)` pairs collapse keeping the
//!   FIRST occurrence of the input order (stable sort + first-wins dedup),
//!   exactly like the pointer-based predecessor.
//! * **Append equivalence** — [`ColumnarInteractions::append`] produces a
//!   store byte-identical to a one-shot build over the concatenated input
//!   (existing rows win over appended rows; first-wins within a batch),
//!   which is what makes incremental ingest deterministic.

use crate::ids::{ItemId, UserId};
use crate::interactions::Interaction;
use kgrec_graph::id32;

/// Timestamp sentinel for rows without an event time.
pub const NO_TIMESTAMP: u64 = u64::MAX;

/// A payload value type with a reserved "no value" encoding.
trait Sentinel: Copy {
    /// The "no value" encoding.
    const SENTINEL: Self;

    /// Whether `self` is exactly the sentinel encoding.
    fn is_sentinel(self) -> bool;
}

impl Sentinel for f32 {
    const SENTINEL: f32 = f32::NAN;

    /// Bitwise: a NaN with any other payload bits is a stored value.
    fn is_sentinel(self) -> bool {
        self.to_bits() == f32::NAN.to_bits()
    }
}

impl Sentinel for u64 {
    const SENTINEL: u64 = NO_TIMESTAMP;

    fn is_sentinel(self) -> bool {
        self == NO_TIMESTAMP
    }
}

/// One payload column (`ratings` or `timestamps`), aligned with `items`.
#[derive(Debug, Clone)]
enum Payload<T> {
    /// One value per row.
    Stored(Vec<T>),
    /// Every row holds the sentinel. `run` is that many sentinels as the
    /// longest user history, so every history's slice is a prefix of it.
    /// Only [`ColumnarBuilder::finish`] makes this variant.
    Absent { run: Vec<T> },
}

impl<T: Sentinel> Payload<T> {
    /// The column for a store of `max_degree`-long histories, given the
    /// values the builder materialized (empty: every row was a sentinel).
    fn from_built(values: Vec<T>, max_degree: usize) -> Self {
        if values.is_empty() {
            Payload::Absent { run: vec![T::SENTINEL; max_degree] }
        } else {
            Payload::Stored(values)
        }
    }

    /// The values of the rows in `range`.
    #[inline]
    fn slice(&self, range: std::ops::Range<usize>) -> &[T] {
        match self {
            Payload::Stored(values) => &values[range],
            Payload::Absent { run } => &run[..range.len()],
        }
    }

    /// Column length in a store of `rows` rows (an absent column is
    /// `rows` sentinels long).
    fn len(&self, rows: usize) -> usize {
        match self {
            Payload::Stored(values) => values.len(),
            Payload::Absent { .. } => rows,
        }
    }

    /// Every row's value, in row order, for a store of `rows` rows.
    fn values(&self, rows: usize) -> impl Iterator<Item = T> + '_ {
        let (stored, absent): (&[T], usize) = match self {
            Payload::Stored(values) => (values, 0),
            Payload::Absent { .. } => (&[], rows),
        };
        stored.iter().copied().chain(std::iter::repeat_n(T::SENTINEL, absent))
    }

    /// Heap bytes of stored values.
    fn stored_bytes(&self) -> usize {
        match self {
            Payload::Stored(values) => std::mem::size_of_val(values.as_slice()),
            Payload::Absent { .. } => 0,
        }
    }
}

/// Sorted columnar interaction store (user-major) with an item-major index.
#[derive(Debug, Clone)]
pub struct ColumnarInteractions {
    num_users: usize,
    num_items: usize,
    /// Per-user row ranges, length `num_users + 1`, monotone.
    u_offsets: Vec<u32>,
    /// Item column, strictly increasing within each user's range.
    items: Vec<ItemId>,
    /// Ratings aligned with `items` (`NaN` = implicit).
    ratings: Payload<f32>,
    /// Timestamps aligned with `items` ([`NO_TIMESTAMP`] = no event time).
    timestamps: Payload<u64>,
    /// Per-item row ranges into `i_users`, length `num_items + 1`.
    i_offsets: Vec<u32>,
    /// User column of the item-major index, sorted within each item.
    i_users: Vec<UserId>,
}

/// One structural defect found by [`ColumnarInteractions::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarViolation {
    /// `u_offsets` has the wrong length for the user count.
    UserOffsetLength {
        /// Actual length.
        got: usize,
        /// Expected length (`num_users + 1`).
        want: usize,
    },
    /// `u_offsets[index] > u_offsets[index + 1]`.
    UserOffsetNotMonotone {
        /// First index of the decreasing pair.
        index: usize,
    },
    /// The final user offset does not equal the row count.
    UserOffsetEndMismatch {
        /// `u_offsets[last]`.
        got: u32,
        /// Row-column length.
        want: usize,
    },
    /// The item/rating/timestamp columns have differing lengths.
    ColumnLengthMismatch {
        /// `(items, ratings, timestamps)` lengths.
        lengths: (usize, usize, usize),
    },
    /// Row `row` references an item outside the item id space.
    ItemOutOfRange {
        /// Offending row index.
        row: usize,
        /// The out-of-range item.
        item: ItemId,
    },
    /// User `user`'s items are not strictly increasing at `row`.
    ItemsNotSorted {
        /// The user whose history is out of order.
        user: UserId,
        /// Row index of the violation.
        row: usize,
    },
    /// The item-major index disagrees with the user-major columns.
    ItemIndexMismatch {
        /// Description of the disagreement.
        detail: String,
    },
}

impl std::fmt::Display for ColumnarViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarViolation::UserOffsetLength { got, want } => {
                write!(f, "user offset array length {got}, want {want}")
            }
            ColumnarViolation::UserOffsetNotMonotone { index } => {
                write!(f, "user offset array decreases at index {index}")
            }
            ColumnarViolation::UserOffsetEndMismatch { got, want } => {
                write!(f, "final user offset {got} does not match row count {want}")
            }
            ColumnarViolation::ColumnLengthMismatch { lengths } => {
                write!(
                    f,
                    "columns disagree: {} items, {} ratings, {} timestamps",
                    lengths.0, lengths.1, lengths.2
                )
            }
            ColumnarViolation::ItemOutOfRange { row, item } => {
                write!(f, "row {row} item {item} out of item range")
            }
            ColumnarViolation::ItemsNotSorted { user, row } => {
                write!(f, "user {user} history not strictly increasing at row {row}")
            }
            ColumnarViolation::ItemIndexMismatch { detail } => {
                write!(f, "item-major index mismatch: {detail}")
            }
        }
    }
}

impl ColumnarInteractions {
    /// Builds the store from an interaction list. Duplicate `(user, item)`
    /// pairs collapse keeping the first occurrence of the input order
    /// (stable sort, first-wins dedup).
    ///
    /// # Panics
    /// Panics if any interaction references a user or item out of range.
    pub fn from_interactions(
        num_users: usize,
        num_items: usize,
        interactions: &[Interaction],
    ) -> Self {
        for it in interactions {
            assert!(it.user.index() < num_users, "interaction user out of range");
            assert!(it.item.index() < num_items, "interaction item out of range");
        }
        let mut sorted: Vec<&Interaction> = interactions.iter().collect();
        sorted.sort_by_key(|it| (it.user.0, it.item.0));
        sorted.dedup_by_key(|it| (it.user.0, it.item.0));

        let mut builder = ColumnarBuilder::new(num_users, num_items);
        builder.reserve(sorted.len());
        for it in &sorted {
            builder.push(it.user, it.item, it.rating, it.timestamp);
        }
        builder.finish()
    }

    /// Assembles a store from raw columns with **no validation**. Both
    /// payload columns count as stored, so an empty `ratings` or
    /// `timestamps` beside nonempty `items` is a length mismatch, not an
    /// absent column.
    ///
    /// Exists for the kglint `MD007` corrupted fixtures; production code
    /// goes through [`Self::from_interactions`] or [`ColumnarBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        num_users: usize,
        num_items: usize,
        u_offsets: Vec<u32>,
        items: Vec<ItemId>,
        ratings: Vec<f32>,
        timestamps: Vec<u64>,
        i_offsets: Vec<u32>,
        i_users: Vec<UserId>,
    ) -> Self {
        Self {
            num_users,
            num_items,
            u_offsets,
            items,
            ratings: Payload::Stored(ratings),
            timestamps: Payload::Stored(timestamps),
            i_offsets,
            i_users,
        }
    }

    /// Number of users `m`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items `n`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of stored rows `|R|`.
    pub fn num_rows(&self) -> usize {
        self.items.len()
    }

    /// The row range of `user`.
    #[inline]
    pub fn user_range(&self, user: UserId) -> std::ops::Range<usize> {
        self.u_offsets[user.index()] as usize..self.u_offsets[user.index() + 1] as usize
    }

    /// Items interacted by `user`, sorted by item id.
    #[inline]
    pub fn items_of(&self, user: UserId) -> &[ItemId] {
        &self.items[self.user_range(user)]
    }

    /// Ratings aligned with [`Self::items_of`] (`NaN` for implicit rows).
    #[inline]
    pub fn ratings_of(&self, user: UserId) -> &[f32] {
        self.ratings.slice(self.user_range(user))
    }

    /// Timestamps aligned with [`Self::items_of`] ([`NO_TIMESTAMP`] for
    /// rows without an event time).
    #[inline]
    pub fn timestamps_of(&self, user: UserId) -> &[u64] {
        self.timestamps.slice(self.user_range(user))
    }

    /// Users who interacted with `item`, sorted by user id.
    #[inline]
    pub fn users_of(&self, item: ItemId) -> &[UserId] {
        &self.i_users
            [self.i_offsets[item.index()] as usize..self.i_offsets[item.index() + 1] as usize]
    }

    /// History length of `user`.
    #[inline]
    pub fn user_degree(&self, user: UserId) -> usize {
        (self.u_offsets[user.index() + 1] - self.u_offsets[user.index()]) as usize
    }

    /// Audience size of `item`.
    #[inline]
    pub fn item_degree(&self, item: ItemId) -> usize {
        (self.i_offsets[item.index() + 1] - self.i_offsets[item.index()]) as usize
    }

    /// Whether `R_{user,item} = 1`.
    pub fn contains(&self, user: UserId, item: ItemId) -> bool {
        self.items_of(user).binary_search(&item).is_ok()
    }

    /// Raw user offset column (integrity checks and shard planning).
    pub fn u_offsets(&self) -> &[u32] {
        &self.u_offsets
    }

    /// Heap bytes of the stored columns. An absent payload column counts
    /// nothing; its sentinel run (one longest history long, independent
    /// of the row count) is left out.
    pub fn memory_bytes(&self) -> usize {
        self.u_offsets.len() * 4
            + self.items.len() * 4
            + self.ratings.stored_bytes()
            + self.timestamps.stored_bytes()
            + self.i_offsets.len() * 4
            + self.i_users.len() * 4
    }

    /// Merges `batch` into the store: existing rows win over appended
    /// rows for the same `(user, item)`; within `batch`, the first
    /// occurrence wins. The result is byte-identical to
    /// [`Self::from_interactions`] over the concatenation of the current
    /// rows and `batch` — the property the ingest determinism test pins.
    ///
    /// # Panics
    /// Panics if any batch row references a user or item out of range.
    pub fn append(&self, batch: &[Interaction]) -> Self {
        for it in batch {
            assert!(it.user.index() < self.num_users, "append user out of range");
            assert!(it.item.index() < self.num_items, "append item out of range");
        }
        let mut add: Vec<&Interaction> = batch.iter().collect();
        add.sort_by_key(|it| (it.user.0, it.item.0));
        add.dedup_by_key(|it| (it.user.0, it.item.0));

        let mut builder = ColumnarBuilder::new(self.num_users, self.num_items);
        builder.reserve(self.num_rows() + add.len());
        let mut b = 0usize; // cursor into `add`
        for u in 0..self.num_users {
            let user = UserId(id32(u));
            let items = self.items_of(user);
            let ratings = self.ratings_of(user);
            let stamps = self.timestamps_of(user);
            let mut e = 0usize; // cursor into the user's existing rows
            loop {
                let existing = items.get(e).copied();
                let added = (b < add.len() && add[b].user == user).then(|| add[b].item);
                match (existing, added) {
                    (None, None) => break,
                    (Some(ei), Some(ai)) if ei == ai => {
                        // Existing row wins; the batch duplicate is dropped.
                        b += 1;
                    }
                    (Some(ei), Some(ai)) if ai < ei => {
                        builder.push(user, ai, add[b].rating, add[b].timestamp);
                        b += 1;
                    }
                    (Some(ei), _) => {
                        builder.push_existing(user, ei, ratings[e], stamps[e]);
                        e += 1;
                    }
                    (None, Some(ai)) => {
                        builder.push(user, ai, add[b].rating, add[b].timestamp);
                        b += 1;
                    }
                }
            }
        }
        builder.finish()
    }

    /// FNV-1a digest over every column — a cheap byte-identity fingerprint
    /// for the ingest determinism tests. An absent payload column hashes
    /// as its per-row sentinels, so the digest depends on the row values
    /// only, not on whether a column is stored.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_usize(self.num_users);
        h.write_usize(self.num_items);
        for &o in &self.u_offsets {
            h.write_u32(o);
        }
        for &i in &self.items {
            h.write_u32(i.0);
        }
        let rows = self.items.len();
        for r in self.ratings.values(rows) {
            h.write_u32(r.to_bits());
        }
        for t in self.timestamps.values(rows) {
            h.write_u64(t);
        }
        for &o in &self.i_offsets {
            h.write_u32(o);
        }
        for &u in &self.i_users {
            h.write_u32(u.0);
        }
        h.finish()
    }

    /// Structural integrity scan: monotone offsets, consistent column
    /// lengths, in-range strictly-sorted items, and an item-major index
    /// that agrees with the user-major columns. An absent payload column
    /// (builder-made stores only) has the row count as its length.
    pub fn validate(&self) -> Vec<ColumnarViolation> {
        let mut out = Vec::new();
        if self.u_offsets.len() != self.num_users + 1 {
            out.push(ColumnarViolation::UserOffsetLength {
                got: self.u_offsets.len(),
                want: self.num_users + 1,
            });
            return out;
        }
        for i in 0..self.num_users {
            if self.u_offsets[i] > self.u_offsets[i + 1] {
                out.push(ColumnarViolation::UserOffsetNotMonotone { index: i });
            }
        }
        if !out.is_empty() {
            return out;
        }
        let rows = self.items.len();
        let lengths = (rows, self.ratings.len(rows), self.timestamps.len(rows));
        if lengths.1 != rows || lengths.2 != rows {
            out.push(ColumnarViolation::ColumnLengthMismatch { lengths });
            return out;
        }
        if self.u_offsets[self.num_users] as usize != self.items.len() {
            out.push(ColumnarViolation::UserOffsetEndMismatch {
                got: self.u_offsets[self.num_users],
                want: self.items.len(),
            });
            return out;
        }
        for u in 0..self.num_users {
            let user = UserId(id32(u));
            let range = self.user_range(user);
            for row in range.clone() {
                if self.items[row].index() >= self.num_items {
                    out.push(ColumnarViolation::ItemOutOfRange { row, item: self.items[row] });
                }
                if row > range.start && self.items[row - 1] >= self.items[row] {
                    out.push(ColumnarViolation::ItemsNotSorted { user, row });
                }
            }
        }
        if !out.is_empty() {
            return out;
        }
        // Item-major index must be exactly the counting-sort transpose.
        let rebuilt =
            build_item_index(self.num_users, self.num_items, &self.u_offsets, &self.items);
        if rebuilt.0 != self.i_offsets {
            out.push(ColumnarViolation::ItemIndexMismatch {
                detail: "item offsets disagree with user-major columns".into(),
            });
        } else if rebuilt.1 != self.i_users {
            out.push(ColumnarViolation::ItemIndexMismatch {
                detail: "item user column disagrees with user-major columns".into(),
            });
        }
        out
    }
}

/// Builds the item-major `(i_offsets, i_users)` index from user-major
/// columns via counting sort — O(rows + items), no comparison sort.
fn build_item_index(
    num_users: usize,
    num_items: usize,
    u_offsets: &[u32],
    items: &[ItemId],
) -> (Vec<u32>, Vec<UserId>) {
    let mut i_offsets = vec![0u32; num_items + 1];
    for &it in items {
        i_offsets[it.index() + 1] += 1;
    }
    for i in 0..num_items {
        i_offsets[i + 1] += i_offsets[i];
    }
    let mut cursor = i_offsets.clone();
    let mut i_users = vec![UserId(0); items.len()];
    // User-major iteration emits users in increasing order per item, so
    // each item's audience comes out sorted.
    for u in 0..num_users {
        for row in u_offsets[u] as usize..u_offsets[u + 1] as usize {
            let slot = &mut cursor[items[row].index()];
            i_users[*slot as usize] = UserId(id32(u));
            *slot += 1;
        }
    }
    (i_offsets, i_users)
}

/// Streaming builder: rows are pushed in `(user, item)` order (strictly
/// increasing items within a user, non-decreasing users) and the columns
/// are laid down directly — no intermediate `Vec<Interaction>`. This is
/// what lets the `huge` generator stream 10M rows without materializing
/// them twice.
///
/// A payload column is materialized at its first non-sentinel value, with
/// the earlier rows back-filled by sentinels; a column that never gets
/// one is not stored at all.
#[derive(Debug)]
pub struct ColumnarBuilder {
    num_users: usize,
    num_items: usize,
    counts: Vec<u32>,
    items: Vec<ItemId>,
    /// Empty until the first non-sentinel rating.
    ratings: Vec<f32>,
    /// Empty until the first non-sentinel timestamp.
    timestamps: Vec<u64>,
    last: Option<(UserId, ItemId)>,
}

impl ColumnarBuilder {
    /// A builder for an `m × n` store.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        Self {
            num_users,
            num_items,
            counts: vec![0u32; num_users],
            items: Vec::new(),
            ratings: Vec::new(),
            timestamps: Vec::new(),
            last: None,
        }
    }

    /// Reserves item-column capacity for `rows` upcoming pushes. A payload
    /// column, once materialized, takes the item column's capacity.
    pub fn reserve(&mut self, rows: usize) {
        self.items.reserve(rows);
    }

    /// Appends one row. Rows must arrive sorted by `(user, item)` with no
    /// duplicates.
    ///
    /// # Panics
    /// Panics on out-of-range ids or out-of-order pushes.
    pub fn push(
        &mut self,
        user: UserId,
        item: ItemId,
        rating: Option<f32>,
        timestamp: Option<u64>,
    ) {
        self.push_existing(
            user,
            item,
            rating.unwrap_or(f32::NAN),
            timestamp.unwrap_or(NO_TIMESTAMP),
        );
    }

    /// [`Self::push`] for rows whose rating/timestamp are already in
    /// column form (`NaN` / [`NO_TIMESTAMP`] sentinels).
    fn push_existing(&mut self, user: UserId, item: ItemId, rating: f32, timestamp: u64) {
        assert!(user.index() < self.num_users, "builder user out of range");
        assert!(item.index() < self.num_items, "builder item out of range");
        if let Some((lu, li)) = self.last {
            assert!(
                (user.0, item.0) > (lu.0, li.0),
                "builder rows must be pushed in strict (user, item) order"
            );
        }
        self.last = Some((user, item));
        self.counts[user.index()] += 1;
        let (row, capacity) = (self.items.len(), self.items.capacity());
        push_payload(&mut self.ratings, row, capacity, rating);
        push_payload(&mut self.timestamps, row, capacity, timestamp);
        self.items.push(item);
    }

    /// Finalizes the columns and builds the item-major index.
    pub fn finish(self) -> ColumnarInteractions {
        let mut u_offsets = vec![0u32; self.num_users + 1];
        for (u, &c) in self.counts.iter().enumerate() {
            u_offsets[u + 1] = u_offsets[u] + c;
        }
        let (i_offsets, i_users) =
            build_item_index(self.num_users, self.num_items, &u_offsets, &self.items);
        let max_degree = self.counts.iter().max().map_or(0, |&c| c as usize);
        ColumnarInteractions {
            num_users: self.num_users,
            num_items: self.num_items,
            u_offsets,
            items: self.items,
            ratings: Payload::from_built(self.ratings, max_degree),
            timestamps: Payload::from_built(self.timestamps, max_degree),
            i_offsets,
            i_users,
        }
    }
}

/// Appends `value` as row `row` of a payload column that stays empty
/// while every row so far is a sentinel. The first non-sentinel value
/// allocates the column at `capacity` and back-fills rows `0..row`.
fn push_payload<T: Sentinel>(column: &mut Vec<T>, row: usize, capacity: usize, value: T) {
    if column.is_empty() {
        if value.is_sentinel() {
            return;
        }
        column.reserve_exact(capacity.max(row + 1));
        column.resize(row, T::SENTINEL);
    }
    column.push(value);
}

/// Minimal FNV-1a 64-bit hasher (dependency-free, deterministic).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Interaction> {
        vec![
            Interaction::implicit(UserId(0), ItemId(1)),
            Interaction::rated(UserId(0), ItemId(3), 5.0),
            Interaction::implicit(UserId(2), ItemId(1)),
            Interaction::implicit(UserId(2), ItemId(0)),
        ]
    }

    #[test]
    fn build_and_access() {
        let c = ColumnarInteractions::from_interactions(3, 4, &rows());
        assert_eq!(c.num_rows(), 4);
        assert_eq!(c.items_of(UserId(0)), &[ItemId(1), ItemId(3)]);
        assert_eq!(c.items_of(UserId(1)), &[] as &[ItemId]);
        assert_eq!(c.users_of(ItemId(1)), &[UserId(0), UserId(2)]);
        assert!(c.ratings_of(UserId(0))[0].is_nan());
        assert_eq!(c.ratings_of(UserId(0))[1], 5.0);
        assert_eq!(c.timestamps_of(UserId(0)), &[NO_TIMESTAMP, NO_TIMESTAMP]);
        assert!(c.contains(UserId(2), ItemId(0)));
        assert!(!c.contains(UserId(1), ItemId(0)));
    }

    #[test]
    fn first_occurrence_wins_dedup() {
        let c = ColumnarInteractions::from_interactions(
            1,
            2,
            &[
                Interaction::rated(UserId(0), ItemId(1), 1.0),
                Interaction::rated(UserId(0), ItemId(1), 5.0),
            ],
        );
        assert_eq!(c.num_rows(), 1);
        assert_eq!(c.ratings_of(UserId(0)), &[1.0]);
    }

    #[test]
    fn append_matches_one_shot_build() {
        let all = rows();
        let (first, second) = all.split_at(2);
        let one_shot = ColumnarInteractions::from_interactions(3, 4, &all);
        let grown = ColumnarInteractions::from_interactions(3, 4, first).append(second);
        assert_eq!(one_shot.digest(), grown.digest());
    }

    #[test]
    fn append_existing_rows_win() {
        let base = ColumnarInteractions::from_interactions(
            1,
            2,
            &[Interaction::rated(UserId(0), ItemId(0), 2.0)],
        );
        let grown = base.append(&[Interaction::rated(UserId(0), ItemId(0), 5.0)]);
        assert_eq!(grown.num_rows(), 1);
        assert_eq!(grown.ratings_of(UserId(0)), &[2.0]);
    }

    #[test]
    fn timestamps_carried() {
        let c = ColumnarInteractions::from_interactions(
            1,
            2,
            &[Interaction { user: UserId(0), item: ItemId(1), rating: None, timestamp: Some(42) }],
        );
        assert_eq!(c.timestamps_of(UserId(0)), &[42]);
    }

    #[test]
    fn validate_accepts_sound_store() {
        let c = ColumnarInteractions::from_interactions(3, 4, &rows());
        assert!(c.validate().is_empty());
    }

    #[test]
    fn validate_flags_corruption() {
        let mut c = ColumnarInteractions::from_interactions(3, 4, &rows());
        c.u_offsets[1] = 4;
        assert!(c
            .validate()
            .iter()
            .any(|v| matches!(v, ColumnarViolation::UserOffsetNotMonotone { index: 1 })));
        let mut c = ColumnarInteractions::from_interactions(3, 4, &rows());
        c.items[0] = ItemId(9);
        assert!(c
            .validate()
            .iter()
            .any(|v| matches!(v, ColumnarViolation::ItemOutOfRange { row: 0, .. })));
        let mut c = ColumnarInteractions::from_interactions(3, 4, &rows());
        c.i_users[1] = UserId(1);
        assert!(c
            .validate()
            .iter()
            .any(|v| matches!(v, ColumnarViolation::ItemIndexMismatch { .. })));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = ColumnarInteractions::from_interactions(3, 4, &rows());
        let b = ColumnarInteractions::from_interactions(3, 4, &rows());
        assert_eq!(a.digest(), b.digest());
        let c = ColumnarInteractions::from_interactions(
            3,
            4,
            &[Interaction::implicit(UserId(0), ItemId(1))],
        );
        assert_ne!(a.digest(), c.digest());
    }

    /// Six rows over three users; row `k` (in sorted order) alone carries
    /// a rating and a timestamp when `k` is `Some`.
    fn rows_with_payload_at(k: Option<usize>) -> Vec<Interaction> {
        let keys = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1), (2, 3)];
        keys.iter()
            .enumerate()
            .map(|(row, &(u, i))| {
                let carries = Some(row) == k;
                Interaction {
                    user: UserId(u),
                    item: ItemId(i),
                    rating: carries.then_some(4.0),
                    timestamp: carries.then_some(9),
                }
            })
            .collect()
    }

    /// Bytes of the item column, both offset arrays and the item index.
    fn index_bytes(c: &ColumnarInteractions) -> usize {
        (c.u_offsets.len() + 2 * c.num_rows() + c.i_offsets.len()) * 4
    }

    #[test]
    fn payload_column_materializes_at_first_value() {
        for k in [Some(0), Some(3), Some(5), None] {
            let rows = rows_with_payload_at(k);
            let c = ColumnarInteractions::from_interactions(3, 4, &rows);
            assert!(c.validate().is_empty());
            let mut row = 0;
            for u in 0..3 {
                let user = UserId(u);
                let ratings = c.ratings_of(user);
                let stamps = c.timestamps_of(user);
                assert_eq!(ratings.len(), c.user_degree(user));
                assert_eq!(stamps.len(), c.user_degree(user));
                for p in 0..c.user_degree(user) {
                    let want = rows[row];
                    assert_eq!(ratings[p].to_bits(), want.rating.unwrap_or(f32::NAN).to_bits());
                    assert_eq!(stamps[p], want.timestamp.unwrap_or(NO_TIMESTAMP));
                    row += 1;
                }
            }
            let payload = if k.is_some() { 6 * (4 + 8) } else { 0 };
            assert_eq!(c.memory_bytes(), index_bytes(&c) + payload, "payload at {k:?}");
        }
    }

    #[test]
    fn implicit_store_without_timestamps_holds_no_payload() {
        let c = ColumnarInteractions::from_interactions(
            3,
            4,
            &[
                Interaction::implicit(UserId(0), ItemId(1)),
                Interaction::implicit(UserId(2), ItemId(0)),
                Interaction::implicit(UserId(2), ItemId(3)),
            ],
        );
        assert_eq!(c.memory_bytes(), index_bytes(&c));
        assert!(matches!(c.ratings, Payload::Absent { .. }));
        assert!(matches!(c.timestamps, Payload::Absent { .. }));
        assert_eq!(c.timestamps_of(UserId(2)), &[NO_TIMESTAMP, NO_TIMESTAMP]);
        assert_eq!(c.timestamps_of(UserId(1)), &[] as &[u64]);
    }

    #[test]
    fn non_canonical_nan_rating_is_stored() {
        let odd_nan = f32::from_bits(f32::NAN.to_bits() | 1);
        let c = ColumnarInteractions::from_interactions(
            1,
            2,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::rated(UserId(0), ItemId(1), odd_nan),
            ],
        );
        assert!(matches!(c.ratings, Payload::Stored(_)));
        let bits: Vec<u32> = c.ratings_of(UserId(0)).iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, [f32::NAN.to_bits(), odd_nan.to_bits()]);
        assert_eq!(c.memory_bytes(), index_bytes(&c) + 2 * 4);
    }

    #[test]
    fn append_materializes_payload_columns_like_one_shot() {
        for k in [Some(0), Some(3), Some(5), None] {
            let rows = rows_with_payload_at(k);
            let one_shot = ColumnarInteractions::from_interactions(3, 4, &rows);
            for cut in 0..=rows.len() {
                let grown = ColumnarInteractions::from_interactions(3, 4, &rows[..cut])
                    .append(&rows[cut..]);
                assert_eq!(grown.digest(), one_shot.digest(), "payload at {k:?}, cut {cut}");
                assert_eq!(grown.memory_bytes(), one_shot.memory_bytes());
            }
        }
    }

    #[test]
    fn digest_hashes_absent_columns_as_sentinels() {
        let built = ColumnarInteractions::from_interactions(3, 4, &rows_with_payload_at(None));
        let raw = ColumnarInteractions::from_raw_parts(
            3,
            4,
            built.u_offsets.clone(),
            built.items.clone(),
            vec![f32::NAN; 6],
            vec![NO_TIMESTAMP; 6],
            built.i_offsets.clone(),
            built.i_users.clone(),
        );
        assert!(raw.validate().is_empty());
        assert_eq!(built.digest(), raw.digest());
    }

    #[test]
    fn validate_rejects_raw_parts_with_empty_payload() {
        let built = ColumnarInteractions::from_interactions(3, 4, &rows_with_payload_at(None));
        let raw = ColumnarInteractions::from_raw_parts(
            3,
            4,
            built.u_offsets.clone(),
            built.items.clone(),
            Vec::new(),
            vec![NO_TIMESTAMP; 6],
            built.i_offsets.clone(),
            built.i_users.clone(),
        );
        assert_eq!(
            raw.validate(),
            [ColumnarViolation::ColumnLengthMismatch { lengths: (6, 0, 6) }]
        );
    }

    #[test]
    #[should_panic(expected = "strict (user, item) order")]
    fn builder_rejects_out_of_order_pushes() {
        let mut b = ColumnarBuilder::new(2, 2);
        b.push(UserId(1), ItemId(0), None, None);
        b.push(UserId(0), ItemId(0), None, None);
    }
}
