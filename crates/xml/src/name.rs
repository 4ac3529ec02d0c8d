//! Interned XML names.
//!
//! Element and attribute names are interned once per [`NamePool`] so that
//! node tests in the step operator compare a single `u32` instead of string
//! contents. A pool is shared by all documents of a
//! [`Catalog`](crate::catalog::Catalog), which makes names comparable
//! across the base documents and — via the overlay interning of
//! [`FragArena`](crate::catalog::FragArena) — runtime-constructed
//! fragments.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned name. `NameId::NONE` marks unnamed nodes (text, comments,
/// document roots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// Sentinel for nodes that carry no name.
    pub const NONE: NameId = NameId(u32::MAX);

    /// Whether this id denotes an actual name.
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(f, "n{}", self.0)
        } else {
            write!(f, "n⊥")
        }
    }
}

/// Bidirectional string ↔ [`NameId`] mapping.
///
/// Each name is stored once: `names` and the keys of `index` share one
/// `Arc<str>` allocation, so cloning a pool (lazy materialization parses
/// against a scratch copy) bumps refcounts instead of copying strings.
#[derive(Debug, Default, Clone)]
pub struct NamePool {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, NameId>,
}

impl NamePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, id);
        id
    }

    /// Look up a name without interning it. Returns `None` for names never
    /// seen by this pool (useful for node tests against unknown tags: such a
    /// test can never match).
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied()
    }

    /// Resolve an id back to its string. Panics on `NameId::NONE` or ids
    /// from a different pool.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// All interned names, in `NameId` order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    /// Resolve an id, returning `None` for `NameId::NONE` or ids beyond
    /// this pool (e.g. overlay-interned names of a later execution).
    pub fn get(&self, id: NameId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|n| &**n)
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut pool = NamePool::new();
        let a = pool.intern("item");
        let b = pool.intern("person");
        let a2 = pool.intern("item");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.resolve(a), "item");
        assert_eq!(pool.resolve(b), "person");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut pool = NamePool::new();
        assert_eq!(pool.lookup("ghost"), None);
        assert!(pool.is_empty());
        let id = pool.intern("ghost");
        assert_eq!(pool.lookup("ghost"), Some(id));
    }

    #[test]
    fn none_sentinel() {
        assert!(!NameId::NONE.is_some());
        assert!(NameId(0).is_some());
    }
}
