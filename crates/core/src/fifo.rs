//! A bounded map that evicts in insertion order: the one memo structure
//! beneath the annealer's interconnect label cache
//! ([`crate::flowcache`]) and the engine's result cache and fault-sim
//! session memo.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map bounded to `capacity` entries (at least 1) that evicts the
/// oldest-inserted entry first. A hit never reorders entries, so what
/// is evicted depends only on the sequence of inserts.
#[derive(Debug)]
pub struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> FifoMap<K, V> {
    /// An empty map bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The bound on the number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stores `value` under `key` and returns how many entries were
    /// evicted to make room. Overwriting a key evicts nothing and keeps
    /// the key's place in the eviction order.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                self.map.remove(&oldest);
                evicted += 1;
            }
            self.order.push_back(key.clone());
        }
        self.map.insert(key, value);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_oldest_insert_first() {
        let mut m = FifoMap::new(2);
        assert_eq!(m.insert(1, 10), 0);
        assert_eq!(m.insert(2, 20), 0);
        // A hit does not reorder: key 1 is still the oldest.
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.insert(3, 30), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), None);
        // Overwriting evicts nothing and keeps the key's place.
        assert_eq!(m.insert(2, 21), 0);
        assert_eq!(m.get(&2), Some(&21));
        // The evicted key comes back, evicting the next oldest.
        assert_eq!(m.insert(1, 11), 1);
        assert_eq!(m.get(&2), None);
        assert_eq!((m.get(&3), m.get(&1)), (Some(&30), Some(&11)));
        assert_eq!(FifoMap::<u8, u8>::new(0).capacity(), 1);
    }
}
