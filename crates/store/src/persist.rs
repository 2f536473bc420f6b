//! The [`Persistable`] trait and whole-snapshot save/load entry points.
//!
//! A model implements [`Persistable`] by describing its identity (snapshot
//! id + config hash) and by writing/reading named sections. Loading is
//! *restore-into*: the caller constructs a model of the expected shape (as
//! every `fit` already does) and the snapshot's state is copied into it —
//! which keeps the trait object-safe and lets implementations validate the
//! stored shape against the live model before committing anything.

use crate::error::StoreError;
use crate::snapshot::{SnapshotMeta, SnapshotReader, SnapshotWriter};
use std::path::Path;

/// A model whose trained state can be saved to and restored from a
/// versioned snapshot.
///
/// # Contract
/// * `read_state` must validate stored shapes against the live model and
///   return [`StoreError::ShapeMismatch`] instead of resizing, truncating,
///   or panicking. Gather-then-commit: read every section into temporaries
///   first so a rejected snapshot leaves the model untouched.
/// * `write_state` followed by `read_state` must be bit-exact: every `f32`
///   round-trips through its raw bits, so a restored model scores
///   identically to the one that was saved.
pub trait Persistable {
    /// Stable identifier stamped into snapshot headers, e.g. `"kge.transe"`.
    ///
    /// Loading rejects snapshots whose id differs ([`StoreError::ModelMismatch`]).
    fn snapshot_id(&self) -> &'static str;

    /// Fingerprint of the model configuration (see [`crate::config_hash`]).
    ///
    /// Must be computable on a freshly constructed (unfitted) model so a
    /// warm start can compare it before loading. Defaults to 0 for models
    /// whose shape validation in `read_state` is the only compatibility
    /// constraint.
    fn config_hash(&self) -> u64 {
        0
    }

    /// Seed recorded in snapshot headers for provenance. Defaults to 0 for
    /// models that do not track one.
    fn snapshot_seed(&self) -> u64 {
        0
    }

    /// Writes the model's state as named sections.
    ///
    /// # Errors
    /// [`StoreError`] if a section cannot be encoded (duplicate names).
    fn write_state(&self, writer: &mut SnapshotWriter) -> Result<(), StoreError>;

    /// Restores the model's state from a verified snapshot.
    ///
    /// # Errors
    /// [`StoreError`] if a section is missing, truncated, or its shape
    /// disagrees with the live model.
    fn read_state(&mut self, reader: &SnapshotReader) -> Result<(), StoreError>;
}

/// Serializes `model` into snapshot bytes (header + sections).
///
/// # Errors
/// Propagates any encoding error from the model's `write_state`.
pub(crate) fn snapshot_bytes(model: &dyn Persistable) -> Result<Vec<u8>, StoreError> {
    let meta = SnapshotMeta {
        model_id: model.snapshot_id().to_string(),
        seed: model.snapshot_seed(),
        config_hash: model.config_hash(),
    };
    let mut writer = SnapshotWriter::new(meta);
    model.write_state(&mut writer)?;
    Ok(writer.to_bytes())
}

/// Saves `model` atomically to `path`.
///
/// # Errors
/// Encoding errors from `write_state` or I/O errors from the atomic writer.
pub fn save_snapshot(path: &Path, model: &dyn Persistable) -> Result<(), StoreError> {
    let bytes = snapshot_bytes(model)?;
    crate::atomic::write_atomic(path, &bytes)
}

/// Loads a snapshot from `path` into `model`, verifying identity first.
///
/// Returns the snapshot's metadata header on success.
///
/// # Errors
/// Any integrity error from decoding, [`StoreError::ModelMismatch`] when
/// the snapshot belongs to a different model id or config, or a
/// shape/section error from the model's `read_state`.
pub fn load_snapshot(path: &Path, model: &mut dyn Persistable) -> Result<SnapshotMeta, StoreError> {
    let reader = SnapshotReader::open(path)?;
    read_verified(&reader, model)?;
    Ok(reader.meta().clone())
}

/// Identity-checks `reader` against `model`, then restores state.
///
/// # Errors
/// [`StoreError::ModelMismatch`] on id/config divergence, else whatever
/// `read_state` reports.
pub(crate) fn read_verified(
    reader: &SnapshotReader,
    model: &mut dyn Persistable,
) -> Result<(), StoreError> {
    let meta = reader.meta();
    if meta.model_id != model.snapshot_id() {
        return Err(StoreError::ModelMismatch {
            detail: format!(
                "snapshot is `{}`, live model is `{}`",
                meta.model_id,
                model.snapshot_id()
            ),
        });
    }
    if meta.config_hash != model.config_hash() {
        return Err(StoreError::ModelMismatch {
            detail: format!(
                "config hash {:016x} does not match live model {:016x}",
                meta.config_hash,
                model.config_hash()
            ),
        });
    }
    model.read_state(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Section;

    /// Minimal Persistable double: a named vector with shape validation.
    struct Probe {
        id: &'static str,
        cfg: u64,
        values: Vec<f32>,
    }

    impl Persistable for Probe {
        fn snapshot_id(&self) -> &'static str {
            self.id
        }
        fn config_hash(&self) -> u64 {
            self.cfg
        }
        fn write_state(&self, writer: &mut SnapshotWriter) -> Result<(), StoreError> {
            let mut s = Section::new();
            s.put_u64(self.values.len() as u64);
            s.put_f32s(&self.values);
            writer.add("values", s)
        }
        fn read_state(&mut self, reader: &SnapshotReader) -> Result<(), StoreError> {
            let mut c = reader.section("values")?;
            let n = c.take_u64()? as usize;
            if n != self.values.len() {
                return Err(StoreError::ShapeMismatch {
                    section: "values".to_string(),
                    detail: format!("stored {n}, live {}", self.values.len()),
                });
            }
            let vs = c.take_f32s(n)?;
            self.values.copy_from_slice(&vs);
            Ok(())
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgrec_store_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("probe.snap");
        let saved = Probe { id: "probe", cfg: 7, values: vec![1.5, -0.25, 3.75] };
        save_snapshot(&path, &saved).expect("save");
        let mut loaded = Probe { id: "probe", cfg: 7, values: vec![0.0; 3] };
        let meta = load_snapshot(&path, &mut loaded).expect("load");
        assert_eq!(meta.model_id, "probe");
        assert_eq!(meta.config_hash, 7);
        for (a, b) in saved.values.iter().zip(&loaded.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_model_id_rejected() {
        let dir = scratch("wrongid");
        let path = dir.join("probe.snap");
        save_snapshot(&path, &Probe { id: "probe", cfg: 7, values: vec![1.0] }).expect("save");
        let mut other = Probe { id: "other", cfg: 7, values: vec![0.0] };
        assert!(matches!(load_snapshot(&path, &mut other), Err(StoreError::ModelMismatch { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_config_hash_rejected() {
        let dir = scratch("wrongcfg");
        let path = dir.join("probe.snap");
        save_snapshot(&path, &Probe { id: "probe", cfg: 7, values: vec![1.0] }).expect("save");
        let mut other = Probe { id: "probe", cfg: 8, values: vec![0.0] };
        assert!(matches!(load_snapshot(&path, &mut other), Err(StoreError::ModelMismatch { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let dir = scratch("shape");
        let path = dir.join("probe.snap");
        save_snapshot(&path, &Probe { id: "probe", cfg: 7, values: vec![1.0, 2.0] }).expect("save");
        let mut smaller = Probe { id: "probe", cfg: 7, values: vec![0.0] };
        assert!(matches!(
            load_snapshot(&path, &mut smaller),
            Err(StoreError::ShapeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
