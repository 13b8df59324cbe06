//! The TupleMerge / Tuple Space Search engines.

use crate::table::Table;
use crate::tuple::Tuple;
use nm_common::classifier::{Classifier, MatchResult};
use nm_common::memsize;
use nm_common::prefetch::prefetch_index;
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::{FieldsSpec, RuleSet};
use nm_common::update::{BatchUpdatable, Generation, UpdateBatch, UpdateReport};
use std::collections::HashMap;

/// Dead slab slots tolerated beyond the live count before the slab is
/// compacted.
const SLAB_SLACK: usize = 64;

/// TupleMerge parameters.
#[derive(Clone, Copy, Debug)]
pub struct TupleMergeConfig {
    /// Maximum bucket size before a table splits (paper: 40, §5.1).
    pub collision_limit: usize,
    /// Relax natural tuples so related tuples share tables (TupleMerge).
    /// `false` gives classic Tuple Space Search.
    pub relax: bool,
}

impl Default for TupleMergeConfig {
    fn default() -> Self {
        Self { collision_limit: 40, relax: true }
    }
}

/// Hash-based classifier with tuple merging and online updates (via
/// [`BatchUpdatable`]; `Clone` supports copy-on-write snapshot pipelines).
#[derive(Clone)]
pub struct TupleMerge {
    spec: FieldsSpec,
    cfg: TupleMergeConfig,
    tables: Vec<Table>,
    /// Table indices sorted by `best_priority` — the probe order that makes
    /// early exit effective.
    order: Vec<u32>,
    /// Rule storage; `None` marks a removed slot.
    slab: Vec<Option<Rule>>,
    by_id: HashMap<RuleId, u32>,
    /// Update stamp (see [`Classifier::generation`]); build-time inserts do
    /// not count.
    generation: Generation,
    name: &'static str,
}

impl TupleMerge {
    /// Builds a TupleMerge classifier over a rule-set.
    pub fn build(set: &RuleSet) -> Self {
        Self::with_config(set, TupleMergeConfig::default())
    }

    /// Builds with explicit parameters.
    pub fn with_config(set: &RuleSet, cfg: TupleMergeConfig) -> Self {
        let name = if cfg.relax { "tm" } else { "tss" };
        let mut tm = Self {
            spec: set.spec().clone(),
            cfg,
            tables: Vec::new(),
            order: Vec::new(),
            slab: Vec::with_capacity(set.len()),
            by_id: HashMap::with_capacity(set.len()),
            generation: 0,
            name,
        };
        for rule in set.rules() {
            tm.insert_rule(rule.clone());
        }
        tm
    }

    /// Number of tuple tables currently allocated (Figure 11 diagnostics —
    /// more tables means more probes per lookup).
    pub fn num_tables(&self) -> usize {
        self.tables.iter().filter(|t| !t.is_empty()).count()
    }

    /// Largest bucket across tables (collision-limit verification).
    pub fn max_bucket(&self) -> usize {
        self.tables.iter().map(Table::max_bucket).max().unwrap_or(0)
    }

    fn table_tuple_for(&self, natural: &Tuple) -> Tuple {
        if self.cfg.relax {
            natural.relaxed(&self.spec)
        } else {
            natural.clone()
        }
    }

    /// Picks the finest existing table the rule fits in, if any.
    fn find_table(&self, natural: &Tuple) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for (i, t) in self.tables.iter().enumerate() {
            if natural.fits_in(&t.lens) {
                let fineness: u32 = t.lens.0.iter().map(|&l| l as u32).sum();
                if best.map_or(true, |(_, bf)| fineness > bf) {
                    best = Some((i, fineness));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    fn resort_order(&mut self) {
        self.order = (0..self.tables.len() as u32).collect();
        let tables = &self.tables;
        self.order.sort_by_key(|&i| tables[i as usize].best_priority);
    }

    fn insert_slab(&mut self, rule: Rule) -> u32 {
        let idx = self.slab.len() as u32;
        self.by_id.insert(rule.id, idx);
        self.slab.push(Some(rule));
        idx
    }

    fn insert_into_tables(&mut self, slab_idx: u32) {
        let (table_idx, bucket_len) = self.file(slab_idx);
        if bucket_len > self.cfg.collision_limit {
            self.split(table_idx);
        }
        self.resort_order();
    }

    /// Files a slab rule into the finest table it fits (a fresh one if
    /// none); returns the table and the bucket size after the insert.
    fn file(&mut self, slab_idx: u32) -> (usize, usize) {
        let rule = self.slab[slab_idx as usize].as_ref().expect("live rule");
        let natural = Tuple::natural(&rule.fields, &self.spec);
        let table_idx = match self.find_table(&natural) {
            Some(i) => i,
            None => {
                self.tables.push(Table::new(self.table_tuple_for(&natural)));
                self.tables.len() - 1
            }
        };
        let table = &mut self.tables[table_idx];
        let h = table.hash_rule(rule, &self.spec);
        (table_idx, table.insert(h, slab_idx, rule.priority))
    }

    /// Splits an overflowing table: refine the field where the most members
    /// have headroom (their natural lengths allow a longer mask) and re-file
    /// every rule. Rules are re-inserted through the normal path, so they
    /// land in the refined table when they fit and in coarser tables (or a
    /// fresh one matching their own relaxed tuple) otherwise.
    ///
    /// The refinement step is the smallest *positive* headroom among the
    /// members that can refine at all — a single mask-exact rule in a mixed
    /// bucket must not veto the split (it simply stays behind in a coarser
    /// table). Min-over-everyone here made table formation brutally
    /// insertion-order-sensitive: one early coarse rule could pin thousands
    /// of later, finer rules into an unsplittable bucket, which is exactly
    /// what control-plane retrains (which re-file the whole rule list) kept
    /// hitting.
    fn split(&mut self, table_idx: usize) {
        let lens = self.tables[table_idx].lens.clone();
        let members = self.tables[table_idx].drain_all();
        // Per-field: how many members could accept a longer mask, and the
        // smallest positive headroom among them.
        let nf = lens.0.len();
        let mut refinable = vec![0usize; nf];
        let mut step = vec![u8::MAX; nf];
        for &m in &members {
            let rule = self.slab[m as usize].as_ref().expect("live rule");
            let nat = Tuple::natural(&rule.fields, &self.spec);
            for d in 0..nf {
                let hr = nat.0[d].saturating_sub(lens.0[d]);
                if hr > 0 {
                    refinable[d] += 1;
                    step[d] = step[d].min(hr);
                }
            }
        }
        let best_dim = (0..nf).max_by_key(|&d| refinable[d]).unwrap_or(0);
        if refinable[best_dim] == 0 {
            // Nothing to refine (identical natural tuples): accept the long
            // bucket — correctness is unaffected, the scan just costs more.
            let mut t = Table::new(lens);
            for m in &members {
                let rule = self.slab[*m as usize].as_ref().expect("live rule");
                let h = t.hash_rule(rule, &self.spec);
                t.insert(h, *m, rule.priority);
            }
            self.tables[table_idx] = t;
            return;
        }
        let step = step[best_dim].clamp(1, 4);
        let mut new_lens = lens.clone();
        new_lens.0[best_dim] += step;
        self.tables[table_idx] = Table::new(new_lens);
        for m in members {
            self.file(m);
        }
        // One refinement round per overflow keeps splits terminating; if a
        // bucket still exceeds the limit the next insert refines again.
    }

    /// Table-major batched probe — the batch form of [`TupleMerge::probe`].
    ///
    /// The per-key probe walks every table for one packet before touching
    /// the next packet, reloading each table's tuple masks and hash state
    /// per packet. This walks every *packet* for one table before moving to
    /// the next table: the table metadata stays in registers, the hash loop
    /// runs tight, and the independent bucket lookups give the out-of-order
    /// core memory-level parallelism. Per-key results are bit-identical to
    /// [`TupleMerge::probe`] — the loop interchange never reorders work
    /// *within* a key, and each key keeps its own early-exit bound
    /// (`min(best.priority, floor)`, checked against the same
    /// priority-sorted table order).
    ///
    /// `floors[i] == Priority::MAX` means no floor for key `i` (see
    /// [`Classifier::classify_batch_with_floors`]).
    fn probe_batch(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        const CHUNK: usize = 64;
        let n = out.len();
        assert!(stride > 0, "probe_batch: stride must be positive");
        assert_eq!(keys.len(), stride * n, "probe_batch: key buffer length mismatch");
        let mut hashes = [0u64; CHUNK];
        let mut base = 0usize;
        while base < n {
            let m = CHUNK.min(n - base);
            let mut best: [Option<MatchResult>; CHUNK] = [None; CHUNK];
            // bound[i] = min(best[i].priority, floor[i]): a rule must beat it.
            let mut bound = [Priority::MAX; CHUNK];
            if let Some(f) = floors {
                bound[..m].copy_from_slice(&f[base..base + m]);
            }
            for &ti in &self.order {
                let table = &self.tables[ti as usize];
                // A key is live while some rule in this (or a later) table
                // could still beat its bound; tables are sorted by
                // best_priority, so a key dead here stays dead.
                let mut any_live = false;
                if !table.is_empty() {
                    // Phase 1: hash every live key against this table.
                    for i in 0..m {
                        if bound[i] > table.best_priority {
                            let key = &keys[(base + i) * stride..(base + i + 1) * stride];
                            hashes[i] = table.hash_key(key, &self.spec);
                            any_live = true;
                        }
                    }
                } else {
                    any_live = (0..m).any(|i| bound[i] > table.best_priority);
                }
                if !any_live {
                    break;
                }
                if table.is_empty() {
                    continue;
                }
                // Phase 2a: bucket lookups for all live keys, prefetching the
                // head of each bucket's slab rules so phase 2b's (pointer-
                // chasing) scans start with warm lines.
                let mut buckets: [&[u32]; CHUNK] = [&[]; CHUNK];
                for i in 0..m {
                    if bound[i] <= table.best_priority {
                        continue;
                    }
                    if let Some(bucket) = table.bucket(hashes[i]) {
                        buckets[i] = bucket;
                        for &si in bucket.iter().take(8) {
                            prefetch_index(&self.slab, si as usize);
                        }
                    }
                }
                // Phase 2b: bucket scans (independent across keys).
                for i in 0..m {
                    if bound[i] <= table.best_priority {
                        continue;
                    }
                    let key = &keys[(base + i) * stride..(base + i + 1) * stride];
                    for &si in buckets[i] {
                        if let Some(rule) = &self.slab[si as usize] {
                            if rule.priority < bound[i] && rule.matches(key) {
                                best[i] = Some(MatchResult::new(rule.id, rule.priority));
                                bound[i] = rule.priority;
                            }
                        }
                    }
                }
            }
            out[base..base + m].copy_from_slice(&best[..m]);
            base += m;
        }
    }

    #[inline]
    fn probe(
        &self,
        key: &[u64],
        mut best: Option<MatchResult>,
        floor: Priority,
    ) -> Option<MatchResult> {
        for &ti in &self.order {
            let table = &self.tables[ti as usize];
            let bound = best.map_or(floor, |b| b.priority.min(floor));
            if bound <= table.best_priority {
                break; // no remaining table can beat the bound
            }
            if table.is_empty() {
                continue;
            }
            let h = table.hash_key(key, &self.spec);
            if let Some(bucket) = table.bucket(h) {
                for &si in bucket {
                    if let Some(rule) = &self.slab[si as usize] {
                        let cur = best.map_or(floor, |b| b.priority.min(floor));
                        if rule.priority < cur && rule.matches(key) {
                            best = Some(MatchResult::new(rule.id, rule.priority));
                        }
                    }
                }
            }
        }
        best.filter(|m| m.priority < floor)
    }
}

impl Classifier for TupleMerge {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.probe(key, None, Priority::MAX)
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        self.probe(key, None, floor)
    }

    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.probe_batch(keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        // Lookup-path index: tables (+ their buckets of slab indices) and the
        // probe order. The slab is rule storage; by_id is update bookkeeping.
        self.tables.iter().map(Table::memory_bytes).sum::<usize>()
            + memsize::vec_bytes(&self.order)
            + self.tables.len() * std::mem::size_of::<Table>()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn num_rules(&self) -> usize {
        self.by_id.len()
    }

    fn generation(&self) -> Generation {
        self.generation
    }
}

impl BatchUpdatable for TupleMerge {
    fn apply(&mut self, batch: &UpdateBatch) -> UpdateReport {
        let report =
            nm_common::update::apply_ops(self, batch, Self::insert_rule, |s, id| s.remove_rule(id));
        // Bump only when content changed: a batch of pure misses serves the
        // same rules, and a spurious bump stampedes caches layered above.
        if report.changed() {
            self.generation += 1;
        }
        self.compact();
        report
    }

    fn export_rules(&self) -> Vec<Rule> {
        self.slab.iter().filter_map(|slot| slot.clone()).collect()
    }
}

impl TupleMerge {
    /// Single-rule insert primitive shared by construction (which must not
    /// bump the generation) and the batch path (which does).
    fn insert_rule(&mut self, rule: Rule) {
        if let Some(&old) = self.by_id.get(&rule.id) {
            // Same id re-inserted: drop the stale version first.
            self.remove_slab(old);
        }
        let idx = self.insert_slab(rule);
        self.insert_into_tables(idx);
    }

    fn remove_rule(&mut self, id: RuleId) -> bool {
        match self.by_id.remove(&id) {
            Some(idx) => {
                self.remove_slab(idx);
                true
            }
            None => false,
        }
    }

    /// Renumbers the slab densely once dead slots outnumber live ones by
    /// more than [`SLAB_SLACK`]. Every modify leaves a dead slot behind and
    /// clones carry them along, so without this the slab grows by one slot
    /// per modify for the engine's whole life. Tables, bucket order and the
    /// probe order stay as they are, so lookups are unchanged; the result
    /// depends only on the engine's state, so replaying the same batches
    /// onto an equal engine compacts at the same points.
    fn compact(&mut self) {
        let live = self.by_id.len();
        if self.slab.len() - live <= live + SLAB_SLACK {
            return;
        }
        let mut map = vec![u32::MAX; self.slab.len()];
        let mut next = 0u32;
        for (slot, new) in self.slab.iter().zip(&mut map) {
            if slot.is_some() {
                *new = next;
                next += 1;
            }
        }
        self.slab.retain(Option::is_some);
        for table in &mut self.tables {
            table.remap(&map);
        }
        for idx in self.by_id.values_mut() {
            *idx = map[*idx as usize];
        }
    }

    fn remove_slab(&mut self, idx: u32) {
        if let Some(rule) = self.slab[idx as usize].take() {
            for t in &mut self.tables {
                let h = t.hash_rule(&rule, &self.spec);
                if t.remove(h, idx) {
                    break;
                }
            }
            self.by_id.remove(&rule.id);
        }
    }
}

/// Classic Tuple Space Search: one table per natural tuple, no merging.
pub struct TupleSpaceSearch;

impl TupleSpaceSearch {
    /// Builds a TSS classifier (a [`TupleMerge`] with relaxation disabled
    /// and no collision limit).
    pub fn build(set: &RuleSet) -> TupleMerge {
        TupleMerge::with_config(set, TupleMergeConfig { collision_limit: usize::MAX, relax: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::{FiveTuple, LinearSearch, SplitMix64};

    fn random_set(seed: u64, n: usize) -> RuleSet {
        let mut rng = SplitMix64::new(seed);
        let rules: Vec<Rule> = (0..n)
            .map(|i| {
                let mut ft = FiveTuple::new();
                match rng.below(4) {
                    0 => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 8 + rng.below(25) as u8)
                            .proto_exact(6);
                    }
                    1 => {
                        ft = ft
                            .dst_prefix_raw(rng.next_u64() as u32, 8 + rng.below(25) as u8)
                            .dst_port_exact(rng.below(1024) as u16);
                    }
                    2 => {
                        let lo = rng.below(60_000) as u16;
                        ft = ft.dst_port_range(lo, lo + rng.below(5_000) as u16);
                    }
                    _ => {
                        ft = ft
                            .src_prefix_raw(rng.next_u64() as u32, 16)
                            .dst_prefix_raw(rng.next_u64() as u32, 16);
                    }
                }
                ft.into_rule(i as RuleId, i as Priority)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn random_keys(seed: u64, n: usize, set: &RuleSet) -> Vec<[u64; 5]> {
        // Half random, half generated inside random rules so matches happen.
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 || set.is_empty() {
                    [
                        rng.next_u64() & 0xffff_ffff,
                        rng.next_u64() & 0xffff_ffff,
                        rng.below(65_536),
                        rng.below(65_536),
                        rng.below(256),
                    ]
                } else {
                    let rule = set.rule_at(rng.below(set.len() as u64) as usize);
                    let mut k = [0u64; 5];
                    for (d, f) in rule.fields.iter().enumerate() {
                        k[d] = rng.range_inclusive(f.lo, f.hi);
                    }
                    k
                }
            })
            .collect()
    }

    #[test]
    fn agrees_with_linear_search() {
        for seed in [1u64, 2] {
            let set = random_set(seed, 300);
            let tm = TupleMerge::build(&set);
            let tss = TupleSpaceSearch::build(&set);
            let oracle = LinearSearch::build(&set);
            for key in random_keys(seed + 100, 500, &set) {
                let want = oracle.classify(&key);
                assert_eq!(tm.classify(&key), want, "tm diverged on {key:?}");
                assert_eq!(tss.classify(&key), want, "tss diverged on {key:?}");
            }
        }
    }

    #[test]
    fn merging_uses_fewer_tables_than_tss() {
        let set = random_set(7, 500);
        let tm = TupleMerge::build(&set);
        let tss = TupleSpaceSearch::build(&set);
        assert!(
            tm.num_tables() <= tss.num_tables(),
            "tm {} vs tss {}",
            tm.num_tables(),
            tss.num_tables()
        );
    }

    #[test]
    fn collision_limit_triggers_splits() {
        // 300 exact dst-IP rules under /0 would share one bucket without
        // splitting; the limit must refine the table.
        let rules: Vec<Rule> = (0..300u32)
            .map(|i| FiveTuple::new().dst_prefix_raw(0x0a00_0000 | i, 32).into_rule(i, i))
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::with_config(&set, Default::default());
        assert!(tm.max_bucket() <= 40, "max bucket {}", tm.max_bucket());
        let oracle = LinearSearch::build(&set);
        for i in 0..300u64 {
            let key = [0, 0x0a00_0000 | i, 0, 0, 0];
            assert_eq!(tm.classify(&key), oracle.classify(&key));
        }
    }

    #[test]
    fn floor_prunes_consistently() {
        let set = random_set(3, 200);
        let tm = TupleMerge::build(&set);
        for key in random_keys(33, 300, &set) {
            let full = tm.classify(&key);
            for floor in [0u32, 10, 100, Priority::MAX] {
                let got = tm.classify_with_floor(&key, floor);
                let want = full.filter(|m| m.priority < floor);
                assert_eq!(got, want, "floor {floor} key {key:?}");
            }
        }
    }

    #[test]
    fn updates_match_rebuild() {
        let set = random_set(5, 200);
        let mut tm = TupleMerge::build(&set);
        assert_eq!(tm.generation(), 0, "build-time inserts must not count as updates");
        // One transaction: remove every third rule, add 20 new ones.
        let mut rules: Vec<Rule> = set.rules().to_vec();
        rules.retain(|r| r.id % 3 != 0);
        let mut batch = UpdateBatch::new();
        for id in 0..200u32 {
            if id % 3 == 0 {
                batch = batch.remove(id);
            }
        }
        for i in 0..20u32 {
            let rule =
                FiveTuple::new().dst_port_exact(40_000 + i as u16).into_rule(1_000 + i, 500 + i);
            rules.push(rule.clone());
            batch = batch.insert(rule);
        }
        let report = tm.apply(&batch);
        assert_eq!(report.removed, 67);
        assert_eq!(report.inserted, 20);
        assert_eq!(report.missing, 0);
        assert_eq!(tm.generation(), 1);
        let rebuilt = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let oracle = LinearSearch::build(&rebuilt);
        for key in random_keys(55, 400, &rebuilt) {
            assert_eq!(tm.classify(&key), oracle.classify(&key), "key {key:?}");
        }
        assert_eq!(tm.num_rules(), rebuilt.len());
        let mut exported = tm.export_rules();
        exported.sort_by_key(|r| r.id);
        assert_eq!(exported.len(), rebuilt.len());
    }

    #[test]
    fn upsert_reports_replaced_and_noop_batches_do_not_bump() {
        let set = random_set(31, 80);
        let mut tm = TupleMerge::build(&set);
        // Re-insert a live id: replacement, not removal.
        let r = tm.apply(&UpdateBatch::new().insert(set.rule_at(5).clone()));
        assert_eq!((r.inserted, r.replaced, r.removed), (1, 1, 0));
        assert_eq!(tm.num_rules(), 80);
        let g = tm.generation();
        // A non-empty batch of pure misses must not bump the generation
        // (regression: it used to, stampeding FlowCache invalidation).
        let r = tm.apply(
            &UpdateBatch::new()
                .remove(9_999)
                .modify(FiveTuple::new().dst_port_exact(1).into_rule(8_888, 0)),
        );
        // The modify inserts its new version even on a miss, so only the
        // pure-remove miss leaves content untouched.
        assert_eq!(r.missing, 2);
        assert!(r.changed(), "modify-of-absent still inserts");
        assert_eq!(tm.generation(), g + 1);
        let g = tm.generation();
        let r = tm.apply(&UpdateBatch::new().remove(9_999).remove(9_998));
        assert_eq!((r.missing, r.changed()), (2, false));
        assert_eq!(tm.generation(), g, "miss-only batch must not bump");
    }

    #[test]
    fn clone_then_update_leaves_original_untouched() {
        // The copy-on-write property snapshot pipelines rely on.
        let set = random_set(13, 150);
        let tm = TupleMerge::build(&set);
        let mut copy = tm.clone();
        copy.apply(&UpdateBatch::new().remove(0).remove(1).remove(2));
        assert_eq!(tm.num_rules(), 150);
        assert_eq!(copy.num_rules(), 147);
        assert_eq!(tm.generation(), 0);
        assert_eq!(copy.generation(), 1);
        let oracle = LinearSearch::build(&set);
        for key in random_keys(77, 200, &set) {
            assert_eq!(tm.classify(&key), oracle.classify(&key), "original drifted on {key:?}");
        }
    }

    #[test]
    fn slab_stays_dense_across_modify_and_shrink_cycles() {
        // Each cycle is what the remainder sees between retrains: a burst
        // of modifies (each leaves a dead slot), then a partial retrain's
        // shrink, which removes the re-admitted rules from a clone.
        let set = random_set(21, 400);
        let mut tm = TupleMerge::build(&set);
        let mut truth: HashMap<RuleId, Rule> =
            set.rules().iter().map(|r| (r.id, r.clone())).collect();
        let mut rng = SplitMix64::new(21);
        for cycle in 0..10u32 {
            let mut modifies = UpdateBatch::new();
            for _ in 0..160 {
                let id = rng.below(400) as RuleId;
                let lo = rng.below(60_000) as u16;
                let rule = FiveTuple::new()
                    .dst_port_range(lo, lo + rng.below(2_000) as u16)
                    .into_rule(id, id);
                truth.insert(id, rule.clone());
                modifies = modifies.modify(rule);
            }
            tm.apply(&modifies);
            let mut shrink = UpdateBatch::new();
            for id in (cycle..400).step_by(5) {
                truth.remove(&id);
                shrink = shrink.remove(id);
            }
            tm = tm.clone();
            tm.apply(&shrink);
            assert!(
                tm.slab.len() <= 2 * tm.num_rules() + SLAB_SLACK,
                "cycle {cycle}: {} slots for {} live rules",
                tm.slab.len(),
                tm.num_rules()
            );
            let mut rules: Vec<Rule> = truth.values().cloned().collect();
            rules.sort_by_key(|r| r.id);
            let now = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
            let oracle = LinearSearch::build(&now);
            for key in random_keys(cycle as u64, 300, &now) {
                assert_eq!(tm.classify(&key), oracle.classify(&key), "cycle {cycle} key {key:?}");
            }
        }
    }

    #[test]
    fn memory_grows_with_rules() {
        let small = TupleMerge::build(&random_set(9, 50));
        let large = TupleMerge::build(&random_set(9, 2_000));
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn empty_set_classifies_nothing() {
        let set = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        let tm = TupleMerge::build(&set);
        assert_eq!(tm.classify(&[1, 2, 3, 4, 5]), None);
        assert_eq!(tm.num_rules(), 0);
    }

    #[test]
    fn range_rules_survive_relaxation() {
        // Arbitrary port ranges whose covering prefix is /0 must still match.
        let rules = vec![
            FiveTuple::new().dst_port_range(100, 40_000).into_rule(0, 0),
            FiveTuple::new().dst_port_range(30_000, 65_000).into_rule(1, 1),
        ];
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
        let tm = TupleMerge::build(&set);
        assert_eq!(tm.classify(&[0, 0, 0, 35_000, 0]).unwrap().rule, 0);
        assert_eq!(tm.classify(&[0, 0, 0, 50_000, 0]).unwrap().rule, 1);
        assert_eq!(tm.classify(&[0, 0, 0, 99, 0]), None);
    }
}
