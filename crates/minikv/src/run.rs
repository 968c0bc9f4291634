//! Immutable runs — the in-memory analog of LevelDB's SSTables.
//!
//! A [`Run`] is a frozen memtable hashed by key, so a probe is one hash
//! lookup. Runs keep no key order: minikv serves point lookups only (no
//! scans, no on-disk format), so nothing reads order. Runs are shared via
//! `Arc`, so readers can search them *outside* the central mutex, exactly
//! as LevelDB's `Get` drops `DBImpl::Mutex` before touching table files.

use crate::memtable::Slot;
use std::collections::HashMap;

/// Immutable key-value run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Keys arrive from the network, so the map keeps std's randomly
    /// seeded hasher (crafted keys cannot force collisions).
    entries: HashMap<Box<[u8]>, Slot>,
}

impl Run {
    /// Builds a run from drained memtable entries (as produced by
    /// [`crate::memtable::Memtable::into_entries`]).
    pub fn from_entries(entries: Vec<(Box<[u8]>, Slot)>) -> Self {
        Self {
            entries: entries.into_iter().collect(),
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<&Slot> {
        self.entries.get(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `newer` over `older`, reusing `older`'s map (newer entries
    /// win; tombstones from the newer run suppress older values but are
    /// retained, since an even older run may still hold the key).
    pub fn merge(newer: Run, older: Run) -> Run {
        let mut entries = older.entries;
        entries.extend(newer.entries);
        Run { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;

    fn run_of(pairs: &[(&[u8], Option<&[u8]>)]) -> Run {
        let m: Memtable = Memtable::new();
        for (k, v) in pairs {
            m.insert(k, v.map(|v| v.to_vec().into()));
        }
        Run::from_entries(m.into_entries())
    }

    #[test]
    fn point_lookup() {
        let r = run_of(&[(b"a", Some(b"1")), (b"c", Some(b"3")), (b"e", Some(b"5"))]);
        assert_eq!(r.get(b"c"), Some(&Some(b"3".to_vec().into())));
        assert_eq!(r.get(b"b"), None);
        assert_eq!(r.get(b"e"), Some(&Some(b"5".to_vec().into())));
    }

    #[test]
    fn merge_newer_wins() {
        let newer = run_of(&[(b"a", Some(b"new")), (b"b", None)]);
        let older = run_of(&[
            (b"a", Some(b"old")),
            (b"b", Some(b"old")),
            (b"c", Some(b"keep")),
        ]);
        let merged = Run::merge(newer, older);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.get(b"a"), Some(&Some(b"new".to_vec().into())));
        assert_eq!(merged.get(b"b"), Some(&None), "tombstone retained");
        assert_eq!(merged.get(b"c"), Some(&Some(b"keep".to_vec().into())));
    }

    #[test]
    fn merge_disjoint_interleaves() {
        let a = run_of(&[(b"a", Some(b"1")), (b"c", Some(b"3"))]);
        let b = run_of(&[(b"b", Some(b"2")), (b"d", Some(b"4"))]);
        let merged = Run::merge(a, b);
        assert_eq!(merged.len(), 4);
        for k in [b"a".as_slice(), b"b", b"c", b"d"] {
            assert!(merged.get(k).is_some());
        }
    }
}
