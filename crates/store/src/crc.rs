//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Table-driven with the table built in a `const fn`, so there is no lazy
//! initialization and no runtime cost beyond the lookup itself. This is the
//! same CRC gzip/zlib/PNG use, which keeps the snapshot format inspectable
//! with standard tooling.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = make_table();

/// CRC32 of `bytes` in one shot.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Folds `bytes` into a running (pre-inverted) CRC state.
///
/// Start from `!0`, fold in chunks, finish with a final `!`. [`crc32`] does
/// exactly this for the single-buffer case.
#[must_use]
pub(crate) fn update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        let idx = (state ^ u32::from(b)) & 0xFF;
        state = (state >> 8) ^ TABLE[idx as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut state = !0u32;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(!state, crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 64];
        let before = crc32(&data);
        data[33] ^= 0x10;
        assert_ne!(crc32(&data), before);
    }
}
