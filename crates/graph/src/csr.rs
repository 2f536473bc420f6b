//! Flat-array CSR adjacency: the million-entity storage layout.
//!
//! The predecessor layout stored out-edges as a `Vec<(RelationId,
//! EntityId)>` of tuples *and* kept a second full copy of every fact in a
//! `Vec<Triple>` — 20 bytes per triple plus `usize` offsets. This module
//! packs the same information into four parallel `u32` columns (structure
//! of arrays): `offsets` index the per-head edge ranges, and
//! `heads`/`rels`/`tails` hold the facts head-major sorted by
//! `(head, rel, tail)`. 12 bytes per triple, one copy, and neighbor
//! expansions that only need tails touch a third of the bytes the tuple
//! layout did.
//!
//! The layout is validated structurally by [`CsrAdjacency::validate`]
//! (the graph half of the kglint `MD007` layout-integrity rule) and pinned
//! behaviorally to a pointer-based reference adjacency by the equivalence
//! proptests in `tests/proptest_csr.rs`.

use crate::ids::{id32, EntityId, RelationId, Triple};

/// Compressed-sparse-row adjacency over dense `u32` entity ids.
///
/// Immutable once built. Edge `i` is the fact
/// `⟨heads[i], rels[i], tails[i]⟩`; the edges of entity `e` occupy
/// `offsets[e] .. offsets[e+1]` and are sorted by `(rel, tail)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// Per-entity edge ranges, length `num_entities + 1`, monotone.
    offsets: Vec<u32>,
    /// Head column (redundant with `offsets` but gives O(1) fact lookup
    /// by edge index — the KGE trainers sample facts uniformly).
    heads: Vec<EntityId>,
    /// Relation column.
    rels: Vec<RelationId>,
    /// Tail column.
    tails: Vec<EntityId>,
}

/// One structural defect found by [`CsrAdjacency::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrViolation {
    /// `offsets` has the wrong length for the entity count.
    OffsetLength {
        /// Actual length of the offset array.
        got: usize,
        /// Expected length (`num_entities + 1`).
        want: usize,
    },
    /// `offsets[index] > offsets[index + 1]` — a negative-size range.
    OffsetNotMonotone {
        /// First index of the decreasing pair.
        index: usize,
    },
    /// The final offset does not equal the edge-column length.
    OffsetEndMismatch {
        /// `offsets[last]`.
        got: u32,
        /// Edge-column length.
        want: usize,
    },
    /// The three edge columns have differing lengths.
    ColumnLengthMismatch {
        /// `(heads, rels, tails)` lengths.
        lengths: (usize, usize, usize),
    },
    /// Edge `edge` stores a head inconsistent with the offset ranges.
    HeadMismatch {
        /// Offending edge index.
        edge: usize,
        /// The head recorded in the column.
        got: EntityId,
        /// The head implied by `offsets`.
        want: EntityId,
    },
    /// Edge `edge` points at a tail outside the entity id space.
    TailOutOfRange {
        /// Offending edge index.
        edge: usize,
        /// The out-of-range tail.
        tail: EntityId,
    },
    /// Edge `edge` carries a relation outside the relation id space.
    RelOutOfRange {
        /// Offending edge index.
        edge: usize,
        /// The out-of-range relation.
        rel: RelationId,
    },
}

impl std::fmt::Display for CsrViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrViolation::OffsetLength { got, want } => {
                write!(f, "offset array length {got}, want {want}")
            }
            CsrViolation::OffsetNotMonotone { index } => {
                write!(f, "offset array decreases at index {index}")
            }
            CsrViolation::OffsetEndMismatch { got, want } => {
                write!(f, "final offset {got} does not match edge count {want}")
            }
            CsrViolation::ColumnLengthMismatch { lengths } => {
                write!(
                    f,
                    "edge columns disagree: {} heads, {} rels, {} tails",
                    lengths.0, lengths.1, lengths.2
                )
            }
            CsrViolation::HeadMismatch { edge, got, want } => {
                write!(f, "edge {edge} records head {got} but lies in {want}'s range")
            }
            CsrViolation::TailOutOfRange { edge, tail } => {
                write!(f, "edge {edge} tail {tail} out of entity range")
            }
            CsrViolation::RelOutOfRange { edge, rel } => {
                write!(f, "edge {edge} relation {rel} out of relation range")
            }
        }
    }
}

impl CsrAdjacency {
    /// Builds the adjacency from triples already sorted by
    /// `(head, rel, tail)` via a counting pass over heads.
    ///
    /// # Panics
    /// Panics (debug assertion) when the input is not head-major sorted —
    /// callers own the sort so the build stays a single linear pass.
    pub fn from_sorted_triples(num_entities: usize, triples: &[Triple]) -> Self {
        debug_assert!(
            triples.windows(2).all(|w| (w[0].head.0, w[0].rel.0, w[0].tail.0)
                <= (w[1].head.0, w[1].rel.0, w[1].tail.0)),
            "CsrAdjacency::from_sorted_triples: input not sorted"
        );
        let mut offsets = vec![0u32; num_entities + 1];
        for t in triples {
            offsets[t.head.index() + 1] += 1;
        }
        for i in 0..num_entities {
            offsets[i + 1] += offsets[i];
        }
        let heads = triples.iter().map(|t| t.head).collect();
        let rels = triples.iter().map(|t| t.rel).collect();
        let tails = triples.iter().map(|t| t.tail).collect();
        Self { offsets, heads, rels, tails }
    }

    /// Assembles an adjacency from raw columns with **no validation**.
    ///
    /// Exists for the kglint `MD007` corrupted fixtures and for tests
    /// that need a structurally broken layout; production code goes
    /// through [`Self::from_sorted_triples`].
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        heads: Vec<EntityId>,
        rels: Vec<RelationId>,
        tails: Vec<EntityId>,
    ) -> Self {
        Self { offsets, heads, rels, tails }
    }

    /// Number of entities this adjacency spans.
    pub fn num_entities(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of stored edges (facts).
    pub fn num_edges(&self) -> usize {
        self.tails.len()
    }

    /// Out-degree of entity `e`.
    #[inline]
    pub fn degree(&self, e: EntityId) -> usize {
        (self.offsets[e.index() + 1] - self.offsets[e.index()]) as usize
    }

    /// The edge-index range of entity `e`.
    #[inline]
    pub fn range(&self, e: EntityId) -> std::ops::Range<usize> {
        self.offsets[e.index()] as usize..self.offsets[e.index() + 1] as usize
    }

    /// Relation column slice of `e`'s out-edges.
    #[inline]
    pub fn rel_slice(&self, e: EntityId) -> &[RelationId] {
        &self.rels[self.range(e)]
    }

    /// Tail column slice of `e`'s out-edges.
    #[inline]
    pub fn tail_slice(&self, e: EntityId) -> &[EntityId] {
        &self.tails[self.range(e)]
    }

    /// The `k`-th out-edge of `e` as a `(relation, tail)` pair.
    #[inline]
    pub fn edge_at(&self, e: EntityId, k: usize) -> (RelationId, EntityId) {
        let i = self.offsets[e.index()] as usize + k;
        (self.rels[i], self.tails[i])
    }

    /// The fact stored at edge index `i` (head-major order).
    #[inline]
    pub fn triple_at(&self, i: usize) -> Triple {
        Triple::new(self.heads[i], self.rels[i], self.tails[i])
    }

    /// Iterates all facts in head-major sorted order.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.num_edges()).map(|i| self.triple_at(i))
    }

    /// Raw offset column (for integrity checks and bench accounting).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Heap bytes held by the four columns.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.num_edges() * 12
    }

    /// Structural integrity scan: monotone offsets, consistent column
    /// lengths, heads matching their offset range, tails/relations inside
    /// the given id spaces. Returns every defect found (empty = sound).
    pub fn validate(&self, num_entities: usize, num_relations: usize) -> Vec<CsrViolation> {
        let mut out = Vec::new();
        if self.offsets.len() != num_entities + 1 {
            out.push(CsrViolation::OffsetLength {
                got: self.offsets.len(),
                want: num_entities + 1,
            });
            return out; // ranges below would index out of bounds
        }
        for i in 0..num_entities {
            if self.offsets[i] > self.offsets[i + 1] {
                out.push(CsrViolation::OffsetNotMonotone { index: i });
            }
        }
        if !out.is_empty() {
            return out;
        }
        if self.heads.len() != self.rels.len() || self.rels.len() != self.tails.len() {
            out.push(CsrViolation::ColumnLengthMismatch {
                lengths: (self.heads.len(), self.rels.len(), self.tails.len()),
            });
            return out;
        }
        if self.offsets[num_entities] as usize != self.tails.len() {
            out.push(CsrViolation::OffsetEndMismatch {
                got: self.offsets[num_entities],
                want: self.tails.len(),
            });
            return out;
        }
        for e in 0..num_entities {
            let want = EntityId(id32(e));
            for i in self.range(want) {
                if self.heads[i] != want {
                    out.push(CsrViolation::HeadMismatch { edge: i, got: self.heads[i], want });
                }
                if self.tails[i].index() >= num_entities {
                    out.push(CsrViolation::TailOutOfRange { edge: i, tail: self.tails[i] });
                }
                if self.rels[i].index() >= num_relations {
                    out.push(CsrViolation::RelOutOfRange { edge: i, rel: self.rels[i] });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples() -> Vec<Triple> {
        vec![
            Triple::new(EntityId(0), RelationId(0), EntityId(1)),
            Triple::new(EntityId(0), RelationId(1), EntityId(2)),
            Triple::new(EntityId(2), RelationId(0), EntityId(0)),
        ]
    }

    #[test]
    fn build_and_access() {
        let a = CsrAdjacency::from_sorted_triples(3, &triples());
        assert_eq!(a.num_entities(), 3);
        assert_eq!(a.num_edges(), 3);
        assert_eq!(a.degree(EntityId(0)), 2);
        assert_eq!(a.degree(EntityId(1)), 0);
        assert_eq!(a.tail_slice(EntityId(0)), &[EntityId(1), EntityId(2)]);
        assert_eq!(a.rel_slice(EntityId(0)), &[RelationId(0), RelationId(1)]);
        assert_eq!(a.edge_at(EntityId(2), 0), (RelationId(0), EntityId(0)));
        assert_eq!(a.triple_at(1), triples()[1]);
        assert_eq!(a.iter_triples().collect::<Vec<_>>(), triples());
    }

    #[test]
    fn validate_accepts_sound_layout() {
        let a = CsrAdjacency::from_sorted_triples(3, &triples());
        assert!(a.validate(3, 2).is_empty());
    }

    #[test]
    fn validate_flags_nonmonotone_offsets() {
        let mut a = CsrAdjacency::from_sorted_triples(3, &triples());
        a.offsets[1] = 3;
        let v = a.validate(3, 2);
        assert!(v.iter().any(|v| matches!(v, CsrViolation::OffsetNotMonotone { index: 1 })));
    }

    #[test]
    fn validate_flags_out_of_range_tail() {
        let mut a = CsrAdjacency::from_sorted_triples(3, &triples());
        a.tails[2] = EntityId(9);
        let v = a.validate(3, 2);
        assert!(v
            .iter()
            .any(|v| matches!(v, CsrViolation::TailOutOfRange { edge: 2, tail: EntityId(9) })));
    }

    #[test]
    fn validate_flags_head_mismatch() {
        let mut a = CsrAdjacency::from_sorted_triples(3, &triples());
        a.heads[0] = EntityId(2);
        let v = a.validate(3, 2);
        assert!(v.iter().any(|v| matches!(v, CsrViolation::HeadMismatch { edge: 0, .. })));
    }

    #[test]
    fn memory_accounting_counts_columns() {
        let a = CsrAdjacency::from_sorted_triples(3, &triples());
        assert_eq!(a.memory_bytes(), 4 * 4 + 3 * 12);
    }
}
