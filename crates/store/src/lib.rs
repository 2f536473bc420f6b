//! Crash-safe versioned model persistence for the kgrec workspace.
//!
//! ROADMAP item 1 (online serving) is blocked on "versioned save/load of
//! embedding tables and model state". This crate provides that layer with
//! zero external dependencies, consistent with the vendored-offline build:
//!
//! * `snapshot` — a hand-rolled binary snapshot format: magic + format
//!   version + model id + seed + config hash header, a section table, and a
//!   CRC32 checksum per section. No serde.
//! * [`atomic`] — atomic file replacement (temp file + fsync + rename +
//!   parent-directory fsync) so a crash mid-write never leaves a torn file
//!   where a reader expects a snapshot.
//! * `persist` — the [`Persistable`] trait every checkpointable model
//!   implements, plus save/load entry points.
//! * `checkpoint` — a generation-numbered checkpoint directory with a
//!   manifest, a last-good pointer, and retention.
//! * `faults` — a deterministic storage-fault injector in the spirit of
//!   `kgrec_data::faults`, used by the recovery-matrix tests and the
//!   `eval_suite` / `crash_drill` storage drills.
//!
//! The recovery contract: a corrupted artifact must *reject cleanly* (an
//! error, never a panic and never silently loaded garbage), and recovery
//! falls back generation by generation to the most recent artifact that
//! still verifies, then to fresh training.

pub mod atomic;
mod checkpoint;
mod crc;
mod error;
mod faults;
mod persist;
mod snapshot;

pub use checkpoint::{CheckpointStore, GenerationInfo, Recovery, MANIFEST_FILE};
pub use error::StoreError;
pub use faults::{inject_storage, StorageFault};
pub use persist::{load_snapshot, save_snapshot, Persistable};
pub use snapshot::{Section, SectionCursor, SnapshotMeta, SnapshotReader, SnapshotWriter};

/// Hashes a list of config fragments into a single snapshot config hash.
///
/// Fragments are joined with an unambiguous separator before hashing so
/// `["ab", "c"]` and `["a", "bc"]` produce different fingerprints.
#[must_use]
pub fn config_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        h = fnv1a_continue(h, part.as_bytes());
        h = fnv1a_continue(h, &[0x1f]);
    }
    h
}

fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values for FNV-1a 64 from the FNV specification.
        let fnv1a = |bytes: &[u8]| fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn config_hash_is_separator_sensitive() {
        assert_ne!(config_hash(&["ab", "c"]), config_hash(&["a", "bc"]));
        assert_ne!(config_hash(&["ab"]), config_hash(&["ab", ""]));
        assert_eq!(config_hash(&["x", "y"]), config_hash(&["x", "y"]));
    }
}
