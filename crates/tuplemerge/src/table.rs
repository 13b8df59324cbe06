//! One tuple table: a hash map from masked header bits to rule buckets.

use crate::hasher::{FxBuild, FxMix};
use crate::tuple::Tuple;
use nm_common::memsize;
use nm_common::rule::{Priority, Rule};
use nm_common::ruleset::FieldsSpec;
use std::collections::HashMap;

/// A hash table holding every rule filed under one (possibly relaxed)
/// tuple. Buckets store indices into the engine's rule slab.
#[derive(Clone, Debug)]
pub struct Table {
    /// Mask lengths per field.
    pub lens: Tuple,
    map: HashMap<u64, Vec<u32>, FxBuild>,
    /// Lower bound on the best (numerically smallest) priority stored.
    /// Maintained as a running min on insert; removals never raise it, so it
    /// stays a valid bound for early exit (at worst one spurious probe).
    pub best_priority: Priority,
    count: usize,
}

impl Table {
    /// Creates an empty table for the given mask lengths.
    pub fn new(lens: Tuple) -> Self {
        Self { lens, map: HashMap::with_hasher(FxBuild), best_priority: Priority::MAX, count: 0 }
    }

    /// Hash of a rule's masked field values (uses each range's lower bound —
    /// identical to any other value in the range under a mask the rule fits).
    pub fn hash_rule(&self, rule: &Rule, spec: &FieldsSpec) -> u64 {
        let mut h = FxMix::new();
        for (d, f) in rule.fields.iter().enumerate() {
            h.write(self.lens.mask_value(d, f.lo, spec.bits(d)));
        }
        h.finish()
    }

    /// Hash of a packet key under this table's masks.
    #[inline]
    pub fn hash_key(&self, key: &[u64], spec: &FieldsSpec) -> u64 {
        let mut h = FxMix::new();
        for (d, &v) in key.iter().enumerate() {
            h.write(self.lens.mask_value(d, v, spec.bits(d)));
        }
        h.finish()
    }

    /// Inserts a slab index under `hash`; returns the bucket size after
    /// insertion (the collision-limit check).
    pub fn insert(&mut self, hash: u64, slab_idx: u32, priority: Priority) -> usize {
        self.best_priority = self.best_priority.min(priority);
        self.count += 1;
        let bucket = self.map.entry(hash).or_default();
        bucket.push(slab_idx);
        bucket.len()
    }

    /// Removes a slab index from its bucket; returns true if found.
    pub fn remove(&mut self, hash: u64, slab_idx: u32) -> bool {
        if let Some(bucket) = self.map.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|&i| i == slab_idx) {
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.map.remove(&hash);
                }
                self.count -= 1;
                return true;
            }
        }
        false
    }

    /// The bucket for a hash, if any.
    #[inline]
    pub fn bucket(&self, hash: u64) -> Option<&[u32]> {
        self.map.get(&hash).map(Vec::as_slice)
    }

    /// Number of rules stored.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drains every slab index (table split).
    pub fn drain_all(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count);
        for (_, mut bucket) in self.map.drain() {
            out.append(&mut bucket);
        }
        self.count = 0;
        self.best_priority = Priority::MAX;
        out
    }

    /// Rewrites every stored slab index `i` to `map[i]`, keeping each
    /// bucket's order (slab compaction).
    pub fn remap(&mut self, map: &[u32]) {
        for bucket in self.map.values_mut() {
            for i in bucket {
                *i = map[*i as usize];
            }
        }
    }

    /// Largest bucket size (diagnostics).
    pub fn max_bucket(&self) -> usize {
        self.map.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Index bytes: the hash map plus bucket storage (slab indices), the
    /// structures walked during lookup.
    pub fn memory_bytes(&self) -> usize {
        memsize::hashmap_bytes::<u64, Vec<u32>>(self.map.len())
            + self.map.values().map(|b| b.capacity() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FieldRange, FieldsSpec};

    fn rule_five(dst_port: (u16, u16), pri: Priority) -> Rule {
        Rule::new(
            pri,
            pri,
            vec![
                FieldRange::wildcard(32),
                FieldRange::wildcard(32),
                FieldRange::wildcard(16),
                FieldRange::new(dst_port.0 as u64, dst_port.1 as u64),
                FieldRange::wildcard(8),
            ],
        )
    }

    #[test]
    fn insert_probe_remove() {
        let spec = FieldsSpec::five_tuple();
        let rule = rule_five((443, 443), 3);
        let mut t = Table::new(Tuple(vec![0, 0, 0, 16, 0]));
        let h = t.hash_rule(&rule, &spec);
        assert_eq!(t.insert(h, 7, 3), 1);
        assert_eq!(t.best_priority, 3);
        assert_eq!(t.len(), 1);
        // A key with dst-port 443 probes the same bucket.
        let key = [1u64, 2, 3, 443, 6];
        assert_eq!(t.hash_key(&key, &spec), h);
        assert_eq!(t.bucket(h), Some(&[7u32][..]));
        assert!(t.remove(h, 7));
        assert!(!t.remove(h, 7));
        assert!(t.is_empty());
    }

    #[test]
    fn range_rule_and_in_range_keys_share_hash() {
        let spec = FieldsSpec::five_tuple();
        // 1024-2047 = one /6 block; table masks dst-port at /6.
        let rule = rule_five((1024, 2047), 0);
        let t = Table::new(Tuple(vec![0, 0, 0, 6, 0]));
        let h = t.hash_rule(&rule, &spec);
        for port in [1024u64, 1500, 2047] {
            assert_eq!(t.hash_key(&[0, 0, 0, port, 0], &spec), h);
        }
        assert_ne!(t.hash_key(&[0, 0, 0, 1023, 0], &spec), h);
    }

    #[test]
    fn drain_returns_everything() {
        let spec = FieldsSpec::five_tuple();
        let mut t = Table::new(Tuple(vec![0, 0, 0, 16, 0]));
        for i in 0..10u32 {
            let rule = rule_five((i as u16, i as u16), i);
            let h = t.hash_rule(&rule, &spec);
            t.insert(h, i, i);
        }
        let mut drained = t.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, (0..10).collect::<Vec<u32>>());
        assert!(t.is_empty());
    }
}
