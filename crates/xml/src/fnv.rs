//! FNV-1a hashing for the crate's hot, internally keyed maps.
//!
//! The standard library's default SipHash is built to resist keys
//! crafted to collide, at several times the cost of FNV on the short keys
//! here. Only maps whose keys the program itself assigns —
//! [`NameId`](crate::NameId)s — use [`FnvMap`]; maps keyed by strings
//! from documents or queries keep the default hasher. (The parser's name
//! memo hashes names with FNV too, but only to pick a slot whose hit it
//! then verifies, so a collision costs a miss, never a wrong answer.)

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
