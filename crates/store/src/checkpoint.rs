//! Generation-numbered checkpoint directories.
//!
//! On-disk layout:
//!
//! ```text
//! <dir>/
//!   gen-000001/model.snap     oldest retained generation
//!   gen-000002/model.snap
//!   gen-000003/model.snap     newest generation
//!   MANIFEST                  human-readable ledger of retained generations
//!   LAST_GOOD                 number of the generation to try first
//! ```
//!
//! Every file is written through [`crate::atomic::write_atomic`], so a
//! crash at any point leaves a directory the loader can still interpret.
//! The bookkeeping files are *hints*, not trust anchors: recovery survives
//! a missing manifest or a dangling last-good pointer by falling back to a
//! directory scan, and trust comes from each snapshot's own CRCs.
//!
//! Recovery order in [`CheckpointStore::load_into`]:
//! 1. the generation named by `LAST_GOOD`, if any;
//! 2. every other on-disk generation, newest first;
//! 3. give up with [`StoreError::NoUsableGeneration`] — the caller's cue
//!    to fall back to fresh training.

use crate::error::StoreError;
use crate::persist::{read_verified, snapshot_bytes, Persistable};
use crate::snapshot::SnapshotReader;
use crate::{atomic::write_atomic, crc::crc32};
use std::fs;
use std::path::PathBuf;

/// File name of the snapshot inside each generation directory.
pub(crate) const SNAPSHOT_FILE: &str = "model.snap";
/// File name of the manifest ledger.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// File name of the last-good pointer.
pub(crate) const LAST_GOOD_FILE: &str = "LAST_GOOD";
const MANIFEST_HEADER: &str = "kgrec-checkpoint-manifest v1";

/// One manifest ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Generation number.
    pub number: u64,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// CRC32 of the entire snapshot file.
    pub crc: u32,
    /// Free-form note recorded at save time (e.g. `epoch=4 loss=0.1234`).
    pub note: String,
}

/// Outcome of a successful recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Generation the model state was restored from.
    pub generation: u64,
    /// Generations that were tried first and rejected, with the reason.
    pub skipped: Vec<(u64, String)>,
}

/// A generation-numbered checkpoint directory for one model.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("create checkpoint dir {}", dir.display()), e))?;
        Ok(Self { dir, retain: 3 })
    }

    /// Sets how many generations to keep (minimum 1). Default: 3.
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retain = keep.max(1);
        self
    }

    /// Path of the manifest ledger.
    #[must_use]
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// Path of the last-good pointer file.
    #[must_use]
    pub(crate) fn last_good_path(&self) -> PathBuf {
        self.dir.join(LAST_GOOD_FILE)
    }

    /// Directory of generation `n`.
    #[must_use]
    pub(crate) fn generation_dir(&self, n: u64) -> PathBuf {
        self.dir.join(format!("gen-{n:06}"))
    }

    /// Snapshot path of generation `n`.
    #[must_use]
    pub fn snapshot_path(&self, n: u64) -> PathBuf {
        self.generation_dir(n).join(SNAPSHOT_FILE)
    }

    /// Generation numbers currently on disk, ascending. Malformed directory
    /// names are ignored — the scan is a recovery path and must not fail on
    /// litter.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(n) =
                    name.to_str().and_then(|s| s.strip_prefix("gen-")).and_then(|s| s.parse().ok())
                {
                    if self.snapshot_path(n).exists() {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The generation named by the last-good pointer, if the pointer file
    /// exists and parses.
    #[must_use]
    pub fn last_good(&self) -> Option<u64> {
        let text = fs::read_to_string(self.last_good_path()).ok()?;
        text.trim().parse().ok()
    }

    /// Parses the manifest ledger. A missing manifest yields an empty list
    /// (it is a hint, not a trust anchor); a malformed one is an error.
    ///
    /// # Errors
    /// [`StoreError::Manifest`] if the file exists but cannot be parsed.
    pub fn manifest(&self) -> Result<Vec<GenerationInfo>, StoreError> {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(format!("read {}", path.display()), e)),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            other => {
                return Err(StoreError::Manifest {
                    detail: format!("bad manifest header: {other:?}"),
                })
            }
        }
        let mut out = Vec::new();
        for line in lines {
            if line.is_empty() || line.starts_with("model ") || line.starts_with("config ") {
                continue;
            }
            out.push(parse_manifest_line(line)?);
        }
        Ok(out)
    }

    /// Saves `model` as the next generation, updates the manifest and the
    /// last-good pointer, and prunes generations beyond the retention
    /// policy. Returns the new generation number.
    ///
    /// # Errors
    /// Encoding or I/O errors; on failure the previous generations and
    /// pointer are left intact.
    pub fn save(&self, model: &dyn Persistable, note: &str) -> Result<u64, StoreError> {
        let bytes = snapshot_bytes(model)?;
        let next = self.generations().last().copied().unwrap_or(0) + 1;
        let gen_dir = self.generation_dir(next);
        fs::create_dir_all(&gen_dir)
            .map_err(|e| StoreError::io(format!("create {}", gen_dir.display()), e))?;
        write_atomic(&self.snapshot_path(next), &bytes)?;

        // Prune before rewriting the ledger so the manifest reflects what
        // is actually on disk. Never prune the generation just written.
        let mut gens = self.generations();
        while gens.len() > self.retain {
            let victim = gens.remove(0);
            if victim == next {
                break;
            }
            let _ = fs::remove_dir_all(self.generation_dir(victim));
        }

        let entry = GenerationInfo {
            number: next,
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
            note: note.replace(['\n', '\r'], " "),
        };
        self.rewrite_manifest(model, &entry)?;
        write_atomic(&self.last_good_path(), format!("{next}\n").as_bytes())?;
        Ok(next)
    }

    fn rewrite_manifest(
        &self,
        model: &dyn Persistable,
        new_entry: &GenerationInfo,
    ) -> Result<(), StoreError> {
        let retained = self.generations();
        let mut previous = self.manifest().unwrap_or_default();
        previous.retain(|e| retained.contains(&e.number) && e.number != new_entry.number);
        previous.push(new_entry.clone());
        previous.sort_by_key(|e| e.number);

        let mut text = String::new();
        text.push_str(MANIFEST_HEADER);
        text.push('\n');
        text.push_str(&format!("model {}\n", model.snapshot_id()));
        text.push_str(&format!("config {:016x}\n", model.config_hash()));
        for e in &previous {
            text.push_str(&format!(
                "gen {} bytes={} crc={:08x} note={}\n",
                e.number, e.bytes, e.crc, e.note
            ));
        }
        write_atomic(&self.manifest_path(), text.as_bytes())
    }

    /// Restores the most recent usable generation into `model`.
    ///
    /// Tries the last-good pointer first, then every other generation
    /// newest-first. Each rejected candidate is recorded in
    /// [`Recovery::skipped`] with the reason.
    ///
    /// # Errors
    /// [`StoreError::NoUsableGeneration`] when every candidate is rejected
    /// — the caller should fall back to fresh training.
    pub fn load_into(&self, model: &mut dyn Persistable) -> Result<Recovery, StoreError> {
        let mut candidates = Vec::new();
        if let Some(lg) = self.last_good() {
            candidates.push(lg);
        }
        let mut gens = self.generations();
        gens.reverse();
        for g in gens {
            if !candidates.contains(&g) {
                candidates.push(g);
            }
        }

        let mut skipped = Vec::new();
        for g in candidates {
            match SnapshotReader::open(&self.snapshot_path(g))
                .and_then(|reader| read_verified(&reader, model))
            {
                Ok(()) => return Ok(Recovery { generation: g, skipped }),
                Err(e) => skipped.push((g, e.to_string())),
            }
        }
        Err(StoreError::NoUsableGeneration { tried: skipped.len() })
    }
}

fn parse_manifest_line(line: &str) -> Result<GenerationInfo, StoreError> {
    let bad = || StoreError::Manifest { detail: format!("bad manifest line: {line}") };
    let rest = line.strip_prefix("gen ").ok_or_else(bad)?;
    let (num, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let number = num.parse().map_err(|_| bad())?;
    let (bytes_kv, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let bytes = bytes_kv.strip_prefix("bytes=").ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let (crc_kv, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let crc_hex = crc_kv.strip_prefix("crc=").ok_or_else(bad)?;
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| bad())?;
    let note = rest.strip_prefix("note=").ok_or_else(bad)?.to_string();
    Ok(GenerationInfo { number, bytes, crc, note })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Section, SnapshotWriter};

    struct Probe {
        values: Vec<f32>,
    }

    impl Persistable for Probe {
        fn snapshot_id(&self) -> &'static str {
            "probe"
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
            self.values.copy_from_slice(&c.take_f32s(n)?);
            Ok(())
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgrec_store_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_assigns_increasing_generations_and_updates_pointer() {
        let dir = scratch("gens");
        let store = CheckpointStore::open(&dir).expect("open");
        let probe = Probe { values: vec![1.0, 2.0] };
        assert_eq!(store.save(&probe, "first").expect("save"), 1);
        assert_eq!(store.save(&probe, "second").expect("save"), 2);
        assert_eq!(store.generations(), vec![1, 2]);
        assert_eq!(store.last_good(), Some(2));
        let manifest = store.manifest().expect("manifest");
        assert_eq!(manifest.len(), 2);
        assert_eq!(manifest[1].note, "second");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_restores_newest_generation() {
        let dir = scratch("load");
        let store = CheckpointStore::open(&dir).expect("open");
        store.save(&Probe { values: vec![1.0, 1.0] }, "g1").expect("save");
        store.save(&Probe { values: vec![2.5, -2.5] }, "g2").expect("save");
        let mut restored = Probe { values: vec![0.0, 0.0] };
        let rec = store.load_into(&mut restored).expect("load");
        assert_eq!(rec.generation, 2);
        assert!(rec.skipped.is_empty());
        assert_eq!(restored.values[0].to_bits(), 2.5f32.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = scratch("fallback");
        let store = CheckpointStore::open(&dir).expect("open");
        store.save(&Probe { values: vec![1.0] }, "good").expect("save");
        store.save(&Probe { values: vec![9.0] }, "doomed").expect("save");
        // Flip a payload bit in generation 2.
        let path = store.snapshot_path(2);
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");

        let mut restored = Probe { values: vec![0.0] };
        let rec = store.load_into(&mut restored).expect("load");
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.skipped.len(), 1);
        assert_eq!(rec.skipped[0].0, 2);
        assert_eq!(restored.values[0].to_bits(), 1.0f32.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_reports_no_usable_generation() {
        let dir = scratch("empty");
        let store = CheckpointStore::open(&dir).expect("open");
        let mut probe = Probe { values: vec![0.0] };
        assert!(matches!(
            store.load_into(&mut probe),
            Err(StoreError::NoUsableGeneration { tried: 0 })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_oldest_but_keeps_last_good() {
        let dir = scratch("retain");
        let store = CheckpointStore::open(&dir).expect("open").with_retention(2);
        let probe = Probe { values: vec![4.0] };
        for note in ["a", "b", "c", "d"] {
            store.save(&probe, note).expect("save");
        }
        assert_eq!(store.generations(), vec![3, 4]);
        assert_eq!(store.last_good(), Some(4));
        let manifest = store.manifest().expect("manifest");
        assert_eq!(manifest.iter().map(|e| e.number).collect::<Vec<_>>(), vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_last_good_is_survivable() {
        let dir = scratch("dangling");
        let store = CheckpointStore::open(&dir).expect("open");
        store.save(&Probe { values: vec![7.0] }, "only").expect("save");
        write_atomic(&store.last_good_path(), b"999999\n").expect("dangle");
        let mut restored = Probe { values: vec![0.0] };
        let rec = store.load_into(&mut restored).expect("load");
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.skipped.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_notes() {
        let line = "gen 12 bytes=3456 crc=deadbeef note=epoch=3 loss=0.5";
        let info = parse_manifest_line(line).expect("parse");
        assert_eq!(info.number, 12);
        assert_eq!(info.bytes, 3456);
        assert_eq!(info.crc, 0xDEAD_BEEF);
        assert_eq!(info.note, "epoch=3 loss=0.5");
    }
}
