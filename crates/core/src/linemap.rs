//! Small sorted map keyed by line address.
//!
//! The BSHR and DCUB are architecturally *small* structures — the
//! evaluated BSHR holds 128 entries (§4.2) and the DCUB is bounded by
//! the instruction window — yet they sat on `HashMap<u64, _>`, paying a
//! SipHash per probe on the simulator's hottest per-access paths. This
//! map keeps entries in a `Vec` sorted by line address and binary
//! searches: at these occupancies the probe touches one or two cache
//! lines and never hashes. Inserts shift the tail, which is cheap at
//! double-digit lengths and irrelevant off the probe path.
//!
//! The rule that follows: a `LineMap` is only for a map bounded by a
//! modelled hardware structure (BSHR entries, the DCUB's instruction
//! window, outstanding requests). A map that grows with the program's
//! footprint — an entry for every line a node ever touched — makes each
//! first insert shift the whole tail: the per-line broadcast tags sat
//! in one until it held 16,000 lines per node on li and 13% of host
//! time went to `memmove`. Such maps hang off the page table's dense
//! page ordinal instead (`node::BroadcastTags`), keeping a `LineMap`
//! only as the fallback for lines on undeclared pages, which no
//! workload has.

/// A sorted-vector map from line address to `V`.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    entries: Vec<(u64, V)>,
}

impl<V> Default for LineMap<V> {
    fn default() -> Self {
        LineMap { entries: Vec::new() }
    }
}

impl<V> LineMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, line: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |&(l, _)| l)
    }

    pub fn get(&self, line: u64) -> Option<&V> {
        self.find(line).ok().map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, line: u64) -> Option<&mut V> {
        match self.find(line) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    pub fn contains_key(&self, line: u64) -> bool {
        self.find(line).is_ok()
    }

    /// Inserts `value`, returning the previous value if one existed.
    pub fn insert(&mut self, line: u64, value: V) -> Option<V> {
        match self.find(line) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (line, value));
                None
            }
        }
    }

    pub fn remove(&mut self, line: u64) -> Option<V> {
        match self.find(line) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value for `line`, inserting a default first if absent.
    pub fn get_mut_or_default(&mut self, line: u64) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(line) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (line, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in ascending line-address order. Iteration over a
    /// `LineMap` is deterministic by construction — this is the
    /// property the d1 lint rule exists to protect.
    pub fn entries(&self) -> &[(u64, V)] {
        &self.entries
    }

    /// Mutable access to the entries, still in ascending line-address
    /// order. Keys must not be modified (the sort order is the map).
    pub fn entries_mut(&mut self) -> &mut [(u64, V)] {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = LineMap::new();
        assert_eq!(m.insert(0x80, 'b'), None);
        assert_eq!(m.insert(0x40, 'a'), None);
        assert_eq!(m.insert(0xc0, 'c'), None);
        assert_eq!(m.get(0x40), Some(&'a'));
        assert_eq!(m.get(0x80), Some(&'b'));
        assert_eq!(m.get(0x41), None);
        assert_eq!(m.insert(0x80, 'B'), Some('b'));
        assert_eq!(m.remove(0x80), Some('B'));
        assert_eq!(m.remove(0x80), None);
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(0xc0));
        assert!(!m.contains_key(0x80));
    }

    #[test]
    fn get_mut_or_default_inserts_once() {
        let mut m: LineMap<Vec<u32>> = LineMap::new();
        m.get_mut_or_default(0x100).push(1);
        m.get_mut_or_default(0x100).push(2);
        assert_eq!(m.get(0x100), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
        *m.get_mut(0x100).unwrap() = vec![9];
        assert_eq!(m.remove(0x100), Some(vec![9]));
    }
}
