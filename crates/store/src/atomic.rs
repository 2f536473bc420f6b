//! Atomic file replacement.
//!
//! The only sanctioned way to put bytes on disk in the persistence layer
//! (enforced by kglint SA007). The protocol is the classic crash-safe
//! sequence:
//!
//! 1. write the full payload to a sibling temp file,
//! 2. `fsync` the temp file so the *data* is durable,
//! 3. `rename` over the destination — atomic on POSIX filesystems,
//! 4. `fsync` the parent directory so the *rename* is durable.
//!
//! A crash at any point leaves either the old file or the new file at the
//! destination path, never a prefix of the new one. Stray `.tmp` files from
//! a crash between (1) and (3) are ignored by readers and overwritten by
//! the next writer.

use crate::error::StoreError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Returns the sibling temp path used while writing `path` atomically.
///
/// Exposed so the fault injector can simulate a crash that leaves the temp
/// file behind (torn write) exactly where the writer would have put it.
#[must_use]
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`.
///
/// # Errors
/// Returns [`StoreError::Io`] if any step of the write/sync/rename protocol
/// fails; the destination file is left untouched in that case.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = temp_path(path);
    {
        // kglint::allow(SA007, this is the atomic writer every other persistence path is required to call)
        let mut f = fs::File::create(&tmp)
            .map_err(|e| StoreError::io(format!("create {}", tmp.display()), e))?;
        f.write_all(bytes).map_err(|e| StoreError::io(format!("write {}", tmp.display()), e))?;
        f.sync_all().map_err(|e| StoreError::io(format!("fsync {}", tmp.display()), e))?;
    }
    fs::rename(&tmp, path).map_err(|e| {
        StoreError::io(format!("rename {} -> {}", tmp.display(), path.display()), e)
    })?;
    if let Some(parent) = path.parent() {
        // Make the rename itself durable. Directory fsync can legitimately
        // be unsupported on some filesystems; treat only real failures on
        // openable directories as errors.
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all()
                .map_err(|e| StoreError::io(format!("fsync dir {}", parent.display()), e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgrec_store_atomic_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir("replace");
        let path = dir.join("file.bin");
        write_atomic(&path, b"first").expect("first write");
        assert_eq!(fs::read(&path).expect("read"), b"first");
        write_atomic(&path, b"second, longer payload").expect("second write");
        assert_eq!(fs::read(&path).expect("read"), b"second, longer payload");
        // No temp litter after a successful write.
        assert!(!temp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_path_is_a_sibling() {
        let p = Path::new("/a/b/model.snap");
        assert_eq!(temp_path(p), Path::new("/a/b/model.snap.tmp"));
    }

    #[test]
    fn missing_parent_fails_cleanly() {
        let dir = scratch_dir("noparent");
        let path = dir.join("does/not/exist/file.bin");
        let err = write_atomic(&path, b"x").expect_err("should fail");
        assert!(matches!(err, StoreError::Io { .. }));
        let _ = fs::remove_dir_all(&dir);
    }
}
