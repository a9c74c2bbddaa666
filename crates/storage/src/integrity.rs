//! Data integrity: checksum algorithms and corruption detection.
//!
//! The paper requires "CDN folders to have associated properties of data
//! integrity" (Section V); every segment carries a checksum verified after
//! each transfer. Both algorithms are implemented locally — the offline
//! dependency set has no hashing crates.
//!
//! [`Checksum::of`] runs on every fetch and promotion, so it computes both
//! digests in one pass over 8-byte words: slicing-by-8 CRC-32 (eight
//! 256-entry tables, one lookup per byte but no serial dependency between
//! the lookups of one word) interleaved with FNV-1a, whose multiply chain
//! is inherently byte-serial and sets the floor. The byte-at-a-time
//! [`fnv1a64`] and [`crc32`] stay as the reference oracles the one-pass
//! kernel is tested against.

/// FNV-1a 64 offset basis (the one-pass kernel's copy; [`fnv1a64`] keeps
/// its own so the oracle shares no code with the kernel).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a hash — fast, adequate for integrity checks in a simulated
/// network (not cryptographic).
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xff) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

/// Lazily built CRC-32 lookup table.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing-by-8 CRC-32 tables, built at compile time. `CRC_SLICES[0]` is
/// [`CRC_TABLE`]; `CRC_SLICES[k][i]` is the CRC of byte `i` followed by
/// `k` zero bytes, so the eight bytes of one word can be looked up
/// independently and XORed together.
static CRC_SLICES: [[u32; 256]; 8] = build_crc_slices();

const fn build_crc_slices() -> [[u32; 256]; 8] {
    let mut slices = [build_crc_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ slices[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

/// The checksum attached to stored segments (both algorithms, so either
/// endpoint implementation can verify).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum {
    /// FNV-1a 64 digest.
    pub fnv: u64,
    /// CRC-32 digest.
    pub crc: u32,
}

impl Checksum {
    /// Compute the checksum of `data`: bit-identical to
    /// `(fnv1a64(data), crc32(data))`, in one pass over 8-byte words.
    pub fn of(data: &[u8]) -> Checksum {
        let t = &CRC_SLICES;
        let mut fnv = FNV_OFFSET;
        let mut crc = !0u32;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
            let lo = w as u32 ^ crc;
            let hi = (w >> 32) as u32;
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
            for k in 0..8 {
                fnv ^= (w >> (8 * k)) & 0xff;
                fnv = fnv.wrapping_mul(FNV_PRIME);
            }
        }
        for &b in words.remainder() {
            fnv ^= b as u64;
            fnv = fnv.wrapping_mul(FNV_PRIME);
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        Checksum { fnv, crc: !crc }
    }

    /// Verify `data` against this checksum.
    pub fn verify(&self, data: &[u8]) -> bool {
        *self == Checksum::of(data)
    }
}

/// Flip one bit of `data` at `bit_index % (len*8)` — used by the
/// failure-injection tests to prove corruption is caught. No-op on empty
/// input.
pub fn corrupt_bit(data: &mut [u8], bit_index: usize) {
    if data.is_empty() {
        return;
    }
    let bit = bit_index % (data.len() * 8);
    data[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_known_vectors() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        // "a" → 0xaf63dc4c8601ec8c (published FNV-1a test vector).
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn checksum_round_trip() {
        let data = b"neuroimaging session 001";
        let c = Checksum::of(data);
        assert!(c.verify(data));
        assert!(!c.verify(b"neuroimaging session 002"));
    }

    #[test]
    fn corruption_is_detected() {
        let mut data = vec![0xAAu8; 128];
        let c = Checksum::of(&data);
        corrupt_bit(&mut data, 777);
        assert!(!c.verify(&data));
        // Flipping the same bit back restores integrity.
        corrupt_bit(&mut data, 777);
        assert!(c.verify(&data));
    }

    #[test]
    fn slicing_tables_extend_the_byte_table() {
        // Slice k is the byte table applied after k zero bytes.
        assert_eq!(CRC_SLICES[0], CRC_TABLE);
        for (i, &byte_crc) in CRC_TABLE.iter().enumerate() {
            let mut c = byte_crc;
            for (k, slice) in CRC_SLICES.iter().enumerate().skip(1) {
                c = (c >> 8) ^ CRC_TABLE[(c & 0xff) as usize];
                assert_eq!(slice[i], c, "slice {k} entry {i}");
            }
        }
    }

    #[test]
    fn corrupt_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        corrupt_bit(&mut data, 5);
        assert!(data.is_empty());
    }
}
