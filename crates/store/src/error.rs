//! Error taxonomy for the persistence layer.
//!
//! Every way a stored artifact can be unusable gets its own variant so the
//! recovery machinery (and the recovery-matrix tests) can assert *which*
//! defense rejected a corrupted file. All variants are recoverable in the
//! same way — skip the artifact and fall back — but the distinction matters
//! for diagnostics and for proving each fault is caught by the intended
//! check rather than by accident.

use std::fmt;

/// Everything that can go wrong saving or loading a snapshot / checkpoint.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure, wrapped with the operation that failed.
    Io {
        /// What the store was doing when the OS call failed.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file does not start with the snapshot magic `KGRS`.
    BadMagic {
        /// The four bytes actually found at offset 0.
        found: [u8; 4],
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Highest version this build can read.
        supported: u32,
    },
    /// The file ended before a structurally required field.
    Truncated {
        /// Which structure was being decoded when bytes ran out.
        detail: String,
    },
    /// A section's payload does not match its stored CRC32.
    ChecksumMismatch {
        /// Section name.
        section: String,
        /// CRC stored in the section table.
        stored: u32,
        /// CRC computed over the payload actually on disk.
        computed: u32,
    },
    /// A section the reader requires is absent from the section table.
    MissingSection {
        /// Name of the absent section.
        name: String,
    },
    /// A section decoded, but its shape disagrees with the live model.
    ShapeMismatch {
        /// Section name.
        section: String,
        /// Human-readable expected-vs-found description.
        detail: String,
    },
    /// The snapshot belongs to a different model or configuration.
    ModelMismatch {
        /// Human-readable expected-vs-found description.
        detail: String,
    },
    /// The checkpoint directory's bookkeeping is malformed.
    Manifest {
        /// What was malformed.
        detail: String,
    },
    /// Every candidate generation was tried and rejected.
    NoUsableGeneration {
        /// How many generations were examined before giving up.
        tried: usize,
    },
}

impl StoreError {
    /// Convenience constructor wrapping an I/O error with context.
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io { context: context.into(), source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "io error ({context}): {source}"),
            Self::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}: not a kgrec snapshot")
            }
            Self::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot format v{found} is newer than supported v{supported}")
            }
            Self::Truncated { detail } => write!(f, "truncated snapshot: {detail}"),
            Self::ChecksumMismatch { section, stored, computed } => write!(
                f,
                "checksum mismatch in section `{section}`: stored {stored:08x}, computed {computed:08x}"
            ),
            Self::MissingSection { name } => write!(f, "missing section `{name}`"),
            Self::ShapeMismatch { section, detail } => {
                write!(f, "shape mismatch in section `{section}`: {detail}")
            }
            Self::ModelMismatch { detail } => write!(f, "model mismatch: {detail}"),
            Self::Manifest { detail } => write!(f, "manifest error: {detail}"),
            Self::NoUsableGeneration { tried } => {
                write!(f, "no usable checkpoint generation ({tried} tried)")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
