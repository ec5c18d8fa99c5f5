//! FNV-1a 64-bit hashing — a compact, dependency-free way to pin a large
//! count grid or a whole rendered report in a JSON artifact without
//! serializing every cell.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a byte string and render the digest as 16 lowercase hex characters.
pub fn fnv1a_bytes(bytes: &[u8]) -> String {
    format!("{:016x}", fold(FNV_OFFSET, bytes))
}

/// Hash a sequence of `u64` words (as their 8 little-endian bytes each) and
/// render the digest as 16 lowercase hex characters.
pub fn fnv1a_u64s<I: IntoIterator<Item = u64>>(words: I) -> String {
    let h = words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fold(h, &w.to_le_bytes()));
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_match_the_reference_vectors_and_the_word_hasher() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_bytes(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_bytes(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_bytes(b"foobar"), "85944171f73967e8");
        let words = [7u64, u64::MAX];
        let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_bytes(&le), fnv1a_u64s(words));
    }

    #[test]
    fn stable_and_order_sensitive() {
        let a = fnv1a_u64s([1, 2, 3]);
        assert_eq!(a, fnv1a_u64s([1, 2, 3]));
        assert_ne!(a, fnv1a_u64s([3, 2, 1]));
        assert_eq!(a.len(), 16);
    }
}
