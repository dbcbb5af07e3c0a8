//! FxHash-style fast hashing for hot-path hash maps.
//!
//! The default `SipHash 1-3` hasher of the standard library trades speed for
//! HashDoS resistance. The VMIS-kNN inner loops perform one hash-map probe
//! per `(item, historical session)` pair — up to `|s| · m` probes per request
//! — so hashing cost directly bounds the serving latency. We use the FxHash
//! multiply-rotate scheme (as popularised by rustc and recommended by the
//! Rust Performance Book) implemented locally to stay within the approved
//! dependency set. Keys are internal integer identifiers, never
//! attacker-controlled strings, so HashDoS is not a concern here.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx (Firefox/rustc) hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher for integer-keyed maps.
///
/// Identical scheme to `rustc-hash`'s `FxHasher`: for every 8-byte word `w`,
/// `state = (state.rotate_left(5) ^ w) * SEED`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("abc"), hash_one("abc"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        // Not a collision-resistance claim; just a sanity check that the
        // multiply actually mixes.
        let h: Vec<u64> = (0u64..64).map(hash_one).collect();
        let mut sorted = h.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "nearby integers must not collide");
    }

    #[test]
    fn partial_words_are_hashed() {
        assert_ne!(hash_one([1u8, 2, 3]), hash_one([1u8, 2, 4]));
        assert_ne!(hash_one([1u8; 9]), hash_one([1u8; 10]));
    }

    #[test]
    fn map_and_set_are_usable() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(5);
        assert!(s.contains(&5));
        assert!(!s.contains(&6));
    }
}
