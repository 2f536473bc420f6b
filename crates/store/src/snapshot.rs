//! The versioned binary snapshot format.
//!
//! Hand-rolled (no serde — the offline build vendors no such crate) and
//! deliberately simple enough to decode with a hex dump:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"KGRS"
//! 4       4     format version   (u32 LE, currently 1)
//! 8       2+n   model id         (u16 LE length + UTF-8 bytes)
//! ..      8     seed             (u64 LE)
//! ..      8     config hash      (u64 LE, FNV-1a of the model config)
//! ..      4     section count    (u32 LE)
//! ..      *     section table:   per section
//!                 u16 LE name length + UTF-8 name
//!                 u64 LE payload offset (relative to payload start)
//!                 u64 LE payload length
//!                 u32 LE CRC32 of the payload bytes
//! ..      *     payload          (concatenated section payloads)
//! ```
//!
//! All integers are little-endian. Floats are stored as raw `f32` LE bits,
//! so a save→load round trip is bit-exact — the foundation of the
//! save→load→score bit-identity property tests.
//!
//! Verification order on open: magic → version → structural decode →
//! per-section CRC. The version check precedes everything else so a future
//! format bump is reported as [`StoreError::UnsupportedVersion`] rather
//! than as a decoding artifact.

use crate::crc::crc32;
use crate::error::StoreError;
use std::fs;
use std::path::Path;

/// Snapshot magic: "KGRS" (KGRec Snapshot).
pub(crate) const MAGIC: [u8; 4] = *b"KGRS";

/// Highest snapshot format version this build reads and the version it
/// writes.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Identity and provenance header carried by every snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Stable model identifier, e.g. `"kge.transe"`.
    pub model_id: String,
    /// RNG seed the persisted state was trained under.
    pub seed: u64,
    /// FNV-1a hash of the model configuration (see [`crate::config_hash`]).
    pub config_hash: u64,
}

/// A growable byte buffer for one named section's payload.
#[derive(Debug, Default)]
pub struct Section {
    bytes: Vec<u8>,
}

impl Section {
    /// Creates an empty section payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as raw LE bits.
    pub fn put_f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice of `f32`s as raw LE bits, without a length prefix.
    ///
    /// Callers record the shape separately (rows/dim) so the reader can
    /// validate it against the live model before copying anything.
    pub fn put_f32s(&mut self, vs: &[f32]) {
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Encodes a row-major `rows × dim` table as
    /// `rows (u64) | dim (u64) | data (f32 LE)`, the layout every
    /// embedding-table section shares; [`SnapshotReader::table`] decodes
    /// it.
    #[must_use]
    pub fn table(rows: usize, dim: usize, data: &[f32]) -> Self {
        let mut s = Self::new();
        s.put_u64(rows as u64);
        s.put_u64(dim as u64);
        s.put_f32s(data);
        s
    }
}

/// Builds a snapshot: metadata plus an ordered list of named sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    meta: SnapshotMeta,
    sections: Vec<(String, Section)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the given metadata header.
    #[must_use]
    pub(crate) fn new(meta: SnapshotMeta) -> Self {
        Self { meta, sections: Vec::new() }
    }

    /// Adds a named section. Names must be unique within a snapshot;
    /// duplicates would make [`SnapshotReader::section`] ambiguous, so the
    /// writer rejects them.
    ///
    /// # Errors
    /// [`StoreError::Manifest`] if `name` was already added.
    pub fn add(&mut self, name: &str, section: Section) -> Result<(), StoreError> {
        if self.sections.iter().any(|(n, _)| n == name) {
            return Err(StoreError::Manifest { detail: format!("duplicate section `{name}`") });
        }
        self.sections.push((name.to_string(), section));
        Ok(())
    }

    /// Serializes the snapshot to its on-disk byte representation.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_str(&mut header, &self.meta.model_id);
        header.extend_from_slice(&self.meta.seed.to_le_bytes());
        header.extend_from_slice(&self.meta.config_hash.to_le_bytes());
        let count = u32::try_from(self.sections.len()).unwrap_or(u32::MAX);
        header.extend_from_slice(&count.to_le_bytes());
        let mut offset: u64 = 0;
        for (name, section) in &self.sections {
            put_str(&mut header, name);
            header.extend_from_slice(&offset.to_le_bytes());
            header.extend_from_slice(&(section.bytes.len() as u64).to_le_bytes());
            header.extend_from_slice(&crc32(&section.bytes).to_le_bytes());
            offset += section.bytes.len() as u64;
        }
        let mut out = header;
        for (_, section) in &self.sections {
            out.extend_from_slice(&section.bytes);
        }
        out
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).unwrap_or(u16::MAX);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// One decoded section-table entry.
#[derive(Debug)]
struct TocEntry {
    name: String,
    /// Absolute byte range of the payload within the file.
    start: usize,
    end: usize,
    crc: u32,
    /// Absolute offset of the stored CRC field itself (fault injection).
    crc_field_offset: usize,
}

/// A fully verified, in-memory snapshot ready for section reads.
#[derive(Debug)]
pub struct SnapshotReader {
    meta: SnapshotMeta,
    toc: Vec<TocEntry>,
    data: Vec<u8>,
}

impl SnapshotReader {
    /// Decodes and verifies a snapshot from raw bytes.
    ///
    /// Every section CRC is checked here, up front: a reader that got past
    /// this constructor can never hand out corrupted payload bytes.
    ///
    /// # Errors
    /// Any [`StoreError`] integrity variant, depending on which defense
    /// rejected the bytes.
    pub(crate) fn from_bytes(data: Vec<u8>) -> Result<Self, StoreError> {
        let (meta, toc) = parse_header(&data)?;
        for entry in &toc {
            let computed = crc32(&data[entry.start..entry.end]);
            if computed != entry.crc {
                return Err(StoreError::ChecksumMismatch {
                    section: entry.name.clone(),
                    stored: entry.crc,
                    computed,
                });
            }
        }
        Ok(Self { meta, toc, data })
    }

    /// Reads and verifies a snapshot file.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the file cannot be read, otherwise any
    /// integrity error from [`Self::from_bytes`].
    pub(crate) fn open(path: &Path) -> Result<Self, StoreError> {
        let data =
            fs::read(path).map_err(|e| StoreError::io(format!("read {}", path.display()), e))?;
        Self::from_bytes(data)
    }

    /// The snapshot's identity header.
    #[must_use]
    pub(crate) fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Opens a cursor over a named section's payload.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`] if no section has that name.
    pub fn section(&self, name: &str) -> Result<SectionCursor<'_>, StoreError> {
        let entry = self
            .toc
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| StoreError::MissingSection { name: name.to_string() })?;
        Ok(SectionCursor { name: &entry.name, bytes: &self.data[entry.start..entry.end], pos: 0 })
    }

    /// Decodes a [`Section::table`] section into `(rows, dim, data)`.
    ///
    /// With `expect = Some((rows, dim))` a differently shaped stored table
    /// is rejected before its data is read; `None` accepts any shape. The
    /// caller owns the shape rule.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`], [`StoreError::ShapeMismatch`] or
    /// [`StoreError::Truncated`].
    pub fn table(
        &self,
        name: &str,
        expect: Option<(usize, usize)>,
    ) -> Result<(usize, usize, Vec<f32>), StoreError> {
        let mut c = self.section(name)?;
        let rows = c.take_u64()? as usize;
        let dim = c.take_u64()? as usize;
        if let Some((live_rows, live_dim)) = expect {
            if (rows, dim) != (live_rows, live_dim) {
                return Err(StoreError::ShapeMismatch {
                    section: name.to_string(),
                    detail: format!("stored {rows}×{dim}, live {live_rows}×{live_dim}"),
                });
            }
        }
        let data = c.take_f32s(rows.saturating_mul(dim))?;
        Ok((rows, dim, data))
    }
}

/// Sequential reader over one section's payload.
///
/// Every `take_*` returns [`StoreError::Truncated`] on underrun instead of
/// panicking — a structurally valid snapshot with a short section must
/// reject cleanly, not crash the recovery path.
#[derive(Debug)]
pub struct SectionCursor<'a> {
    name: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl SectionCursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], StoreError> {
        let have = self.bytes.len() - self.pos;
        if n > have {
            return Err(StoreError::Truncated {
                detail: format!(
                    "section `{}`: wanted {n} bytes at {}, have {have}",
                    self.name, self.pos
                ),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u64` (LE).
    ///
    /// # Errors
    /// [`StoreError::Truncated`] on underrun.
    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f32` from raw LE bits.
    ///
    /// # Errors
    /// [`StoreError::Truncated`] on underrun.
    pub fn take_f32(&mut self) -> Result<f32, StoreError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads exactly `n` `f32`s into a fresh vector.
    ///
    /// # Errors
    /// [`StoreError::Truncated`] on underrun.
    pub fn take_f32s(&mut self, n: usize) -> Result<Vec<f32>, StoreError> {
        // `n` may come from the snapshot itself: saturate, so a length no
        // section can hold reports as truncation instead of overflowing.
        let raw = self.take(n.saturating_mul(4))?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(4) {
            out.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(out)
    }
}

fn parse_header(data: &[u8]) -> Result<(SnapshotMeta, Vec<TocEntry>), StoreError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize, what: &str| -> Result<usize, StoreError> {
        if *pos + n > data.len() {
            return Err(StoreError::Truncated { detail: format!("header: {what}") });
        }
        let at = *pos;
        *pos += n;
        Ok(at)
    };

    let at = take(&mut pos, 4, "magic")?;
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&data[at..at + 4]);
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let at = take(&mut pos, 4, "format version")?;
    let version = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
    if version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let model_id = take_str(data, &mut pos, "model id")?;
    let at = take(&mut pos, 8, "seed")?;
    let seed = u64_at(data, at);
    let at = take(&mut pos, 8, "config hash")?;
    let config_hash = u64_at(data, at);
    let at = take(&mut pos, 4, "section count")?;
    let count = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
    // A snapshot holds a handful of sections; an absurd count means the
    // header bytes are garbage that happened to keep the magic intact.
    if count > 4096 {
        return Err(StoreError::Truncated {
            detail: format!("section count {count} is implausible"),
        });
    }

    let mut raw = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = take_str(data, &mut pos, "section name")?;
        let at = take(&mut pos, 8, "section offset")?;
        let offset = u64_at(data, at);
        let at = take(&mut pos, 8, "section length")?;
        let len = u64_at(data, at);
        let at = take(&mut pos, 4, "section crc")?;
        let crc = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        raw.push((name, offset, len, crc, at));
    }
    let payload_start = pos;
    let payload_len = data.len() - payload_start;

    let mut toc = Vec::with_capacity(raw.len());
    for (name, offset, len, crc, crc_field_offset) in raw {
        let end = offset.checked_add(len);
        let fits = end.is_some_and(|e| e <= payload_len as u64);
        if !fits {
            return Err(StoreError::Truncated {
                detail: format!(
                    "section `{name}`: range {offset}+{len} exceeds payload of {payload_len} bytes"
                ),
            });
        }
        let start = payload_start + offset as usize;
        toc.push(TocEntry { name, start, end: start + len as usize, crc, crc_field_offset });
    }
    Ok((SnapshotMeta { model_id, seed, config_hash }, toc))
}

fn u64_at(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

fn take_str(data: &[u8], pos: &mut usize, what: &str) -> Result<String, StoreError> {
    if *pos + 2 > data.len() {
        return Err(StoreError::Truncated { detail: format!("header: {what} length") });
    }
    let len = u16::from_le_bytes([data[*pos], data[*pos + 1]]) as usize;
    *pos += 2;
    if *pos + len > data.len() {
        return Err(StoreError::Truncated { detail: format!("header: {what} bytes") });
    }
    let s = std::str::from_utf8(&data[*pos..*pos + len])
        .map_err(|_| StoreError::Truncated { detail: format!("header: {what} not UTF-8") })?
        .to_string();
    *pos += len;
    Ok(s)
}

/// Flips bits in the *stored* CRC of the first section, leaving the payload
/// intact. Used by [`crate::faults`] to exercise the checksum defense in
/// isolation from payload corruption.
pub(crate) fn corrupt_first_stored_crc(bytes: &mut [u8]) -> Result<(), StoreError> {
    let (_, toc) = parse_header(bytes)?;
    let entry = toc
        .first()
        .ok_or(StoreError::Truncated { detail: "no sections to corrupt".to_string() })?;
    bytes[entry.crc_field_offset] ^= 0xFF;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let meta = SnapshotMeta {
            model_id: "kge.test".to_string(),
            seed: 42,
            config_hash: 0xDEAD_BEEF_CAFE_F00D,
        };
        let mut w = SnapshotWriter::new(meta);
        let mut s = Section::new();
        s.put_u64(3);
        s.put_f32s(&[1.0, -2.5, f32::MIN_POSITIVE]);
        w.add("weights", s).expect("add");
        let mut h = Section::new();
        h.put_f32(0.5);
        w.add("hyper", h).expect("add");
        w
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let bytes = sample().to_bytes();
        let r = SnapshotReader::from_bytes(bytes).expect("decode");
        assert_eq!(r.meta().model_id, "kge.test");
        assert_eq!(r.meta().seed, 42);
        assert_eq!(r.meta().config_hash, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.toc.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(), ["weights", "hyper"]);
        let mut c = r.section("weights").expect("section");
        assert_eq!(c.take_u64().expect("n"), 3);
        let vs = c.take_f32s(3).expect("f32s");
        assert_eq!(vs[0].to_bits(), 1.0f32.to_bits());
        assert_eq!(vs[1].to_bits(), (-2.5f32).to_bits());
        assert_eq!(vs[2].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert_eq!(c.pos, c.bytes.len(), "section fully consumed");
    }

    #[test]
    fn duplicate_section_rejected() {
        let mut w = sample();
        let err = w.add("weights", Section::new()).expect_err("dup");
        assert!(matches!(err, StoreError::Manifest { .. }));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(SnapshotReader::from_bytes(bytes), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn future_version_rejected_before_anything_else() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(StoreError::UnsupportedVersion { found: 999, .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [3, 7, 10, bytes.len() / 2, bytes.len() - 1] {
            let short = bytes[..cut].to_vec();
            let err = SnapshotReader::from_bytes(short).expect_err("truncated must fail");
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_rejected() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn stored_crc_corruption_rejected() {
        let mut bytes = sample().to_bytes();
        corrupt_first_stored_crc(&mut bytes).expect("corrupt");
        let err = SnapshotReader::from_bytes(bytes).expect_err("must fail");
        match err {
            StoreError::ChecksumMismatch { section, .. } => assert_eq!(section, "weights"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn missing_section_reported() {
        let r = SnapshotReader::from_bytes(sample().to_bytes()).expect("decode");
        assert!(matches!(r.section("nope"), Err(StoreError::MissingSection { .. })));
    }

    #[test]
    fn cursor_underrun_is_an_error_not_a_panic() {
        let r = SnapshotReader::from_bytes(sample().to_bytes()).expect("decode");
        let mut c = r.section("hyper").expect("section");
        c.take_f32().expect("first f32");
        assert!(matches!(c.take_u64(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn table_section_round_trips_and_checks_an_expected_shape() {
        let mut w = sample();
        let data = [1.0, -0.0, 3.5, f32::MIN_POSITIVE, 5.0, 6.0];
        w.add("table", Section::table(2, 3, &data)).expect("add");
        let r = SnapshotReader::from_bytes(w.to_bytes()).expect("decode");
        let mut c = r.section("table").expect("section");
        assert_eq!((c.take_u64().expect("rows"), c.take_u64().expect("dim")), (2, 3));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c.take_f32s(6).expect("data")), bits(&data));
        for expect in [None, Some((2, 3))] {
            let (rows, dim, got) = r.table("table", expect).expect("decode table");
            assert_eq!((rows, dim, bits(&got)), (2, 3, bits(&data)));
        }
        for wrong in [(0, 3), (3, 2), (2, 4)] {
            assert!(matches!(
                r.table("table", Some(wrong)),
                Err(StoreError::ShapeMismatch { ref section, .. }) if section == "table"
            ));
        }
        assert!(matches!(r.table("hyper", None), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn impossible_stored_length_is_truncation_not_a_panic() {
        let mut w = sample();
        let mut s = Section::new();
        s.put_u64(u64::MAX);
        s.put_u64(2);
        s.put_f32s(&[1.0; 4]);
        w.add("huge", s).expect("add");
        let r = SnapshotReader::from_bytes(w.to_bytes()).expect("decode");
        assert!(matches!(r.table("huge", None), Err(StoreError::Truncated { .. })));
        let mut c = r.section("huge").expect("section");
        c.take_u64().expect("rows");
        assert!(matches!(c.take_f32s(usize::MAX / 2), Err(StoreError::Truncated { .. })));
    }
}
