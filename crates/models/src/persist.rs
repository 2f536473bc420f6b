//! Shared section encoders/decoders for recommender persistence.
//!
//! Unlike the KGE crate's helpers (where a model's shape is fixed by its
//! constructor), the baselines here learn their shape from the dataset at
//! `fit` time — an unfitted [`kgrec_linalg::EmbeddingTable`] is empty. The
//! decoders therefore accept any stored shape into an *unfitted* target and
//! validate strictly against a fitted one, which is what lets the training
//! supervisor warm-start a freshly constructed model from a checkpoint.

use kgrec_linalg::EmbeddingTable;
use kgrec_store::{Section, SnapshotReader, StoreError};

/// Encodes an embedding table in the store's table layout.
pub(crate) fn table_section(table: &EmbeddingTable) -> Section {
    Section::table(table.len(), table.dim(), table.data())
}

/// Decodes a table section into `(rows, dim, data)`.
///
/// When `live` is fitted (non-empty), the stored shape must match it; an
/// unfitted target accepts whatever shape the snapshot recorded.
pub(crate) fn read_table(
    reader: &SnapshotReader,
    name: &str,
    live: &EmbeddingTable,
) -> Result<(usize, usize, Vec<f32>), StoreError> {
    reader.table(name, (!live.is_empty()).then(|| (live.len(), live.dim())))
}

/// Builds an embedding table of the given shape from decoded data.
pub(crate) fn table_from(rows: usize, dim: usize, data: &[f32]) -> EmbeddingTable {
    let mut table = EmbeddingTable::zeros(rows, dim.max(1));
    if dim > 0 {
        table.data_mut().copy_from_slice(data);
    }
    table
}

/// Encodes a plain `f32` vector as `len (u64) | data (f32 LE)`.
pub(crate) fn vec_section(values: &[f32]) -> Section {
    let mut s = Section::new();
    s.put_u64(values.len() as u64);
    s.put_f32s(values);
    s
}

/// Decodes a vector section. Same leniency rule as [`read_table`]: an
/// empty (unfitted) `live` accepts any stored length, a fitted one must
/// match.
pub(crate) fn read_vec(
    reader: &SnapshotReader,
    name: &str,
    live: &[f32],
) -> Result<Vec<f32>, StoreError> {
    let mut c = reader.section(name)?;
    let n = c.take_u64()? as usize;
    if !live.is_empty() && n != live.len() {
        return Err(StoreError::ShapeMismatch {
            section: name.to_string(),
            detail: format!("stored {n}, live {}", live.len()),
        });
    }
    c.take_f32s(n)
}
