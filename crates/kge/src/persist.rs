//! Shared section encoders/decoders for KGE model persistence.
//!
//! Every KGE family stores its parameters as embedding tables (plus, for
//! TransR, per-relation projection matrices), so all five `Persistable`
//! impls share these helpers. Decoding follows the gather-then-commit
//! contract of [`kgrec_store::Persistable`]: helpers validate the stored
//! shape against the live model and return owned data, and the caller
//! copies everything into the model only after every section decoded.

use kgrec_linalg::{EmbeddingTable, Matrix};
use kgrec_store::{Section, SnapshotReader, StoreError};

/// Encodes an embedding table in the store's table layout.
pub(crate) fn table_section(table: &EmbeddingTable) -> Section {
    Section::table(table.len(), table.dim(), table.data())
}

/// Decodes a table section whose shape must equal `live`'s, even when
/// `live` has no rows: a KGE model's shape is fixed by its constructor.
pub(crate) fn read_table(
    reader: &SnapshotReader,
    name: &str,
    live: &EmbeddingTable,
) -> Result<Vec<f32>, StoreError> {
    Ok(reader.table(name, Some((live.len(), live.dim())))?.2)
}

/// Encodes a list of equally-shaped matrices as
/// `count (u64) | rows (u64) | cols (u64) | data…`.
pub(crate) fn matrices_section(mats: &[Matrix]) -> Section {
    let mut s = Section::new();
    s.put_u64(mats.len() as u64);
    let (rows, cols) = mats.first().map_or((0, 0), |m| (m.rows(), m.cols()));
    s.put_u64(rows as u64);
    s.put_u64(cols as u64);
    for m in mats {
        s.put_f32s(m.data());
    }
    s
}

/// Decodes a matrices section, validating count and shape against `live`.
/// Returns one owned data vector per matrix.
pub(crate) fn read_matrices(
    reader: &SnapshotReader,
    name: &str,
    live: &[Matrix],
) -> Result<Vec<Vec<f32>>, StoreError> {
    let mut c = reader.section(name)?;
    let count = c.take_u64()? as usize;
    let rows = c.take_u64()? as usize;
    let cols = c.take_u64()? as usize;
    let (live_rows, live_cols) = live.first().map_or((0, 0), |m| (m.rows(), m.cols()));
    if count != live.len() || rows != live_rows || cols != live_cols {
        return Err(StoreError::ShapeMismatch {
            section: name.to_string(),
            detail: format!(
                "stored {count}×({rows}×{cols}), live {}×({live_rows}×{live_cols})",
                live.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(c.take_f32s(rows * cols)?);
    }
    Ok(out)
}

/// Encodes a single scalar hyperparameter section.
pub(crate) fn scalar_section(value: f32) -> Section {
    let mut s = Section::new();
    s.put_f32(value);
    s
}

/// Decodes a single scalar hyperparameter section.
pub(crate) fn read_scalar(reader: &SnapshotReader, name: &str) -> Result<f32, StoreError> {
    let mut c = reader.section(name)?;
    c.take_f32()
}

#[cfg(test)]
mod tests {
    use crate::TransE;
    use kgrec_store::{load_snapshot, save_snapshot, StoreError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_row_live_table_rejects_a_differently_shaped_snapshot() {
        let mut rng = StdRng::seed_from_u64(1);
        let saved = TransE::new(&mut rng, 3, 1, 4, 1.0);
        let path = std::env::temp_dir()
            .join(format!("kgrec_kge_persist_zero_row_{}.snap", std::process::id()));
        save_snapshot(&path, &saved).expect("save");
        let mut empty = TransE::new(&mut rng, 0, 1, 4, 1.0);
        let err =
            load_snapshot(&path, &mut empty).expect_err("a 0-row table must not accept 3 rows");
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(err, StoreError::ShapeMismatch { ref section, .. } if section == "entities"),
            "{err}"
        );
    }
}
