//! Sharded data planes: per-shard engines behind one steering stage.
//!
//! Both flavours serve through one [`ShardEpoch`] — the steering plan plus
//! every shard's engine, frozen together under one logical generation:
//!
//! * [`ShardedClassifier`] — one static epoch of engines built once from
//!   the plan's subsets. Any [`Classifier`] works (TupleMerge, CutSplit,
//!   NeuroCuts, NuevoMatch, boxed engines); this is the form `nmctl bench
//!   --shards` and the checksum-equivalence tests use.
//! * [`ShardedHandle`] — the live [`Handle`] publishing epochs of plain
//!   [`NuevoMatch`] engines, with the same apply/retrain/publish core as the
//!   whole-set [`ClassifierHandle`](crate::ClassifierHandle). `UpdateBatch`
//!   applies **route** each op to the shard the plan steers its rule to
//!   (moving shards when a modify changes the steering field), clone only
//!   the shards they touch, and publish one epoch under one logical
//!   generation. Readers pin the epoch with two atomic ops; a pinned epoch
//!   is immutable, so **no batch can ever mix generations across shards** —
//!   the coherence the runtime's checksum equivalence rests on. Retrains
//!   train every shard concurrently and publish the fresh engines together.
//!
//! Both implement [`Classifier`] (steer → per-shard lookup → priority
//! merge), so they drop into every existing harness, and both implement
//! [`ServePlane`] over an `Arc<ShardEpoch>` pin, so the serve front-end and
//! [`Runtime::run`](super::Runtime::run) drive them like any other plane.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::{Priority, Rule};
use nm_common::ruleset::{FieldsSpec, RuleSet};
use nm_common::shard::{ShardPlan, ShardPlanConfig, ShardRoute, ShardStrategy};
use nm_common::update::{
    BatchUpdatable, EngineBuilder, Generation, UpdateBatch, UpdateOp, UpdateReport,
};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::system::handle::{fold, Handle, Lifecycle, Recipe, Truth};
use crate::system::serve::plane::{PinnedPlane, ServePlane};
use crate::system::NuevoMatch;

/// Scatters `sub`'s verdicts (computed for the gathered keys at `idx`) back
/// into `out`, merging by priority.
fn scatter_merge(idx: &[u32], sub: &[Option<MatchResult>], out: &mut [Option<MatchResult>]) {
    for (j, &i) in idx.iter().enumerate() {
        out[i as usize] = MatchResult::better(out[i as usize], sub[j]);
    }
}

/// Applies caller floors as the final filter (the `classify_with_floor ≡
/// classify().filter(p < floor)` contract, batch-wide).
pub(super) fn apply_floors(floors: Option<&[Priority]>, out: &mut [Option<MatchResult>]) {
    if let Some(f) = floors {
        for i in 0..out.len() {
            if f[i] != Priority::MAX {
                out[i] = out[i].filter(|m| m.priority < f[i]);
            }
        }
    }
}

/// Gathers the keys steered to one shard into a flat buffer.
fn gather_keys(keys: &[u64], stride: usize, idx: &[u32], buf: &mut Vec<u64>) {
    buf.clear();
    for &i in idx {
        let i = i as usize;
        buf.extend_from_slice(&keys[i * stride..(i + 1) * stride]);
    }
}

/// Sweeps the broadcast engine over the whole batch and merges its verdicts
/// into `out` by priority.
fn merge_broadcast<B: Classifier + ?Sized>(
    broadcast: &B,
    keys: &[u64],
    stride: usize,
    out: &mut [Option<MatchResult>],
) {
    let mut tmp = vec![None; out.len()];
    broadcast.classify_batch(keys, stride, &mut tmp);
    for (o, t) in out.iter_mut().zip(tmp) {
        *o = MatchResult::better(*o, t);
    }
}

// ---------------------------------------------------------------------------
// The epoch: one coherent generation of every shard
// ---------------------------------------------------------------------------

/// One coherent cross-shard generation: the steering plan, every home
/// shard's engine and the broadcast engine, pinned together under a single
/// logical generation. Immutable once built — a reader holding an epoch can
/// never observe two shards from different generations, whatever the
/// control plane does meanwhile.
///
/// The epoch owns the whole steered lookup (steer, gather per home shard,
/// sweep, broadcast merge, floors) through its [`Classifier`] impl, and the
/// runtime's per-shard sweep through [`PinnedPlane::classify_shard`].
#[derive(Clone)]
pub struct ShardEpoch<E> {
    plan: Arc<ShardPlan>,
    generation: Generation,
    home: Vec<Arc<E>>,
    /// Engine over the broadcast subset; `None` when no rule broadcasts.
    broadcast: Option<Arc<E>>,
}

impl<E: Classifier> ShardEpoch<E> {
    /// The logical generation (bumps once per effective apply or retrain).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of home shards.
    pub fn shards(&self) -> usize {
        self.home.len()
    }

    /// The pinned home-shard engines' own generations (instrumentation:
    /// coherence tests assert one epoch always reports the same vector).
    pub fn home_generations(&self) -> Vec<Generation> {
        self.home.iter().map(|e| e.generation()).collect()
    }

    /// The broadcast engine, when it holds any rule.
    fn live_broadcast(&self) -> Option<&E> {
        self.broadcast.as_deref().filter(|b| b.num_rules() > 0)
    }

    /// Classifies one shard's gathered sub-batch: home engine plus the
    /// broadcast engine, merged.
    fn classify_sub(
        &self,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        self.home[shard].classify_batch(keys, stride, out);
        if let Some(b) = self.live_broadcast() {
            merge_broadcast(b, keys, stride, out);
        }
    }
}

impl<E: Classifier> Classifier for ShardEpoch<E> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        // Replicated plans hold the whole set in every home shard, so any
        // shard answers; keyed plans steer by content.
        let mut out = [None];
        self.classify_sub(self.plan.steer(key, 0), key, key.len(), &mut out);
        out[0]
    }

    /// Steer per key, gather per home shard, sweep each sub-batch through
    /// its engine's batched pipeline, merge the broadcast engine over the
    /// whole batch, apply caller floors last — verdict-equivalent to one
    /// whole-set engine by the plan's construction invariant.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        if self.plan.strategy() == ShardStrategy::RoundRobin {
            // Whole-set replicas: no steering needed inside one call.
            self.home[0].batch_lookup(keys, stride, floors, out);
            return;
        }
        out.fill(None);
        let mut idx: Vec<Vec<u32>> = vec![Vec::new(); self.home.len()];
        for (i, key) in keys.chunks_exact(stride).enumerate() {
            idx[self.plan.steer(key, 0)].push(i as u32);
        }
        let mut buf = Vec::new();
        let mut sub = Vec::new();
        for (home, ids) in self.home.iter().zip(&idx) {
            if ids.is_empty() {
                continue;
            }
            gather_keys(keys, stride, ids, &mut buf);
            sub.clear();
            sub.resize(ids.len(), None);
            home.classify_batch(&buf, stride, &mut sub);
            scatter_merge(ids, &sub, out);
        }
        if let Some(b) = self.live_broadcast() {
            merge_broadcast(b, keys, stride, out);
        }
        apply_floors(floors, out);
    }

    fn generation(&self) -> Generation {
        self.generation
    }

    fn memory_bytes(&self) -> usize {
        self.home.iter().chain(&self.broadcast).map(|e| e.memory_bytes()).sum()
    }

    fn name(&self) -> &'static str {
        "sharded"
    }

    fn num_rules(&self) -> usize {
        match self.plan.strategy() {
            ShardStrategy::RoundRobin => self.home[0].num_rules(),
            _ => self.home.iter().chain(&self.broadcast).map(|e| e.num_rules()).sum(),
        }
    }
}

impl<E: Classifier> PinnedPlane for Arc<ShardEpoch<E>> {
    fn generation(&self) -> Generation {
        self.generation
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(&**self, keys, stride, out);
    }

    fn classify_shard(
        &self,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        self.classify_sub(shard, keys, stride, out);
    }
}

// ---------------------------------------------------------------------------
// Static shards
// ---------------------------------------------------------------------------

/// Per-shard engine replicas built once from a [`ShardPlan`] — the static
/// (no-update) sharded data plane: one immutable [`ShardEpoch`] whose
/// generation is the sum of its engines' at assembly.
pub struct ShardedClassifier<C>(Arc<ShardEpoch<C>>);

impl<C: Classifier> ShardedClassifier<C> {
    /// Builds the plan over `set` and one engine per subset.
    pub fn build(
        set: &RuleSet,
        cfg: &ShardPlanConfig,
        builder: impl EngineBuilder<Engine = C>,
    ) -> Result<Self, Error> {
        let plan = ShardPlan::build(set, cfg)?;
        let (home_sets, broadcast_set) = plan.subsets(set);
        let home = home_sets.iter().map(|s| builder.build_engine(s)).collect();
        let broadcast = (!broadcast_set.is_empty()).then(|| builder.build_engine(&broadcast_set));
        Self::from_parts(plan, home, broadcast)
    }

    /// Assembles a sharded classifier from pre-built engines — one per home
    /// shard of `plan`, plus the broadcast engine (when the plan broadcasts
    /// anything). For callers whose engine construction can fail: build the
    /// engines over [`ShardPlan::subsets`] first, then assemble.
    pub fn from_parts(plan: ShardPlan, home: Vec<C>, broadcast: Option<C>) -> Result<Self, Error> {
        if home.len() != plan.shards() {
            return Err(Error::Build {
                msg: format!(
                    "ShardedClassifier::from_parts: {} engines for {} home shards",
                    home.len(),
                    plan.shards()
                ),
            });
        }
        if broadcast.is_none() && !plan.broadcast().is_empty() {
            return Err(Error::Build {
                msg: "ShardedClassifier::from_parts: the plan broadcasts rules but no \
                      broadcast engine was supplied"
                    .to_string(),
            });
        }
        let home: Vec<Arc<C>> = home.into_iter().map(Arc::new).collect();
        let broadcast = broadcast.map(Arc::new);
        let generation = home.iter().chain(&broadcast).map(|e| e.generation()).sum();
        Ok(Self(Arc::new(ShardEpoch { plan: Arc::new(plan), generation, home, broadcast })))
    }

    /// The partition this data plane steers by.
    pub fn plan(&self) -> &ShardPlan {
        &self.0.plan
    }
}

impl<C: Classifier> Classifier for ShardedClassifier<C> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.0.classify(key)
    }

    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.0.batch_lookup(keys, stride, floors, out);
    }

    fn generation(&self) -> Generation {
        self.0.generation
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn num_rules(&self) -> usize {
        self.0.num_rules()
    }
}

impl<C: Classifier + 'static> ServePlane for ShardedClassifier<C> {
    type Pin = Arc<ShardEpoch<C>>;

    fn pin(&self) -> Self::Pin {
        self.0.clone()
    }

    fn shards(&self) -> usize {
        self.0.plan.shards()
    }

    fn steer(&self, key: &[u64], batch: usize) -> usize {
        self.0.plan.steer(key, batch)
    }
}

// ---------------------------------------------------------------------------
// The live sharded handle
// ---------------------------------------------------------------------------

/// The [`Handle`] over [`ShardEpoch`]s of per-shard NuevoMatch engines —
/// the sharded runtime's live control plane. Clone freely; clones address
/// the same shards.
///
/// An applied batch routes each op to the slot the plan steers its rule to
/// (a modify whose new box steers elsewhere **moves**: a remove lands on
/// the old slot and an insert on the new one), clones only the shards it
/// touches and publishes one new epoch. Retrains train every shard
/// concurrently and publish the fresh engines as one epoch. Readers pin
/// epochs lock-free and are never blocked by either.
pub type ShardedHandle<R> = Handle<ShardEpoch<NuevoMatch<R>>>;

/// The slots `rule` lives in: its home shard, every home shard of a
/// replicated plan, or the broadcast slot (`plan.shards()`).
fn slots(plan: &ShardPlan, rule: &Rule) -> Range<usize> {
    let broadcast = plan.shards();
    match plan.route_rule(rule) {
        ShardRoute::Home(s) => s..s + 1,
        ShardRoute::All => 0..broadcast,
        ShardRoute::Broadcast => broadcast..broadcast + 1,
    }
}

/// Runs `f` over every item on its own scoped thread and collects the
/// results in order; any error (or panic) fails the whole map.
fn par_map<T: Sync, U: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<U, Error> + Sync,
) -> Result<Vec<U>, Error> {
    let f = &f;
    let results: Vec<Result<U, Error>> = std::thread::scope(|scope| {
        let joins: Vec<_> = items.iter().map(|item| scope.spawn(move || f(item))).collect();
        joins
            .into_iter()
            .map(|join| {
                join.join().unwrap_or_else(|_| {
                    Err(Error::Build { msg: "sharded build: a shard thread panicked".to_string() })
                })
            })
            .collect()
    });
    results.into_iter().collect()
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> ShardEpoch<NuevoMatch<R>> {
    /// Partitions `rules` over `plan`'s slots, builds every shard's engine
    /// concurrently and assembles the epoch (the broadcast engine is always
    /// built, possibly empty, so later updates can route wildcard rules to
    /// it).
    fn build(
        plan: Arc<ShardPlan>,
        spec: &FieldsSpec,
        rules: &[Rule],
        recipe: &Recipe<R>,
        generation: Generation,
    ) -> Result<Self, Error> {
        let mut parts = vec![Vec::new(); plan.shards() + 1];
        for rule in rules {
            for part in &mut parts[slots(&plan, rule)] {
                part.push(rule.clone());
            }
        }
        let sets = parts
            .into_iter()
            .map(|p| RuleSet::new(spec.clone(), p))
            .collect::<Result<Vec<_>, _>>()?;
        let engines =
            par_map(&sets, |set| NuevoMatch::build(set, &recipe.cfg, recipe.builder.clone()))?;
        Ok(Self::assemble(plan, engines, generation))
    }

    /// An epoch over `engines` (home shards, then broadcast).
    fn assemble(
        plan: Arc<ShardPlan>,
        mut engines: Vec<NuevoMatch<R>>,
        generation: Generation,
    ) -> Self {
        let broadcast = engines.pop().map(Arc::new);
        let home = engines.into_iter().map(Arc::new).collect();
        Self { plan, generation, home, broadcast }
    }
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> Lifecycle for ShardEpoch<NuevoMatch<R>> {
    type Remainder = R;
    /// A sub-batch per slot (home shards, then broadcast) plus the
    /// accounting routing derived from the rule truth.
    type Routed = (Vec<UpdateBatch>, UpdateReport);

    /// Routes each op from the truth as the op found it: the old version's
    /// slots come from the truth map, the new version's from the plan.
    fn route<'b>(
        &self,
        batch: &'b UpdateBatch,
        truth: &mut Option<Truth>,
    ) -> Cow<'b, Self::Routed> {
        let truth = truth.get_or_insert_with(Truth::new);
        let mut per = vec![UpdateBatch::new(); self.home.len() + 1];
        let mut report = UpdateReport::default();
        for op in batch.ops() {
            let old = fold(truth, op).map(|old| slots(&self.plan, &old));
            match op {
                UpdateOp::Insert(r) | UpdateOp::Modify(r) => {
                    let new = slots(&self.plan, r);
                    if old.as_ref() == Some(&new) {
                        new.for_each(|s| per[s].push(op.clone()));
                    } else {
                        // The rule moved (or is new): delete the old version
                        // where it lives, insert the new one where steering
                        // will look for it.
                        old.clone()
                            .unwrap_or_default()
                            .for_each(|s| per[s].push(UpdateOp::Remove(r.id)));
                        new.for_each(|s| per[s].push(UpdateOp::Insert(r.clone())));
                    }
                    // Semantic accounting from the truth, not the per-shard
                    // engine reports (a move shows up down there as one
                    // removal plus one fresh insert).
                    report.inserted += 1;
                    match (old.is_some(), op) {
                        (true, _) => report.replaced += 1,
                        (false, UpdateOp::Modify(_)) => report.missing += 1,
                        (false, _) => {}
                    }
                }
                UpdateOp::Remove(id) => match old {
                    Some(old) => {
                        old.for_each(|s| per[s].push(UpdateOp::Remove(*id)));
                        report.removed += 1;
                    }
                    None => report.missing += 1,
                },
            }
        }
        Cow::Owned((per, report))
    }

    fn apply(mut self, batches: &[Self::Routed], generation: Generation) -> (Self, UpdateReport) {
        let mut report = UpdateReport::default();
        for (per, routed) in batches {
            let engines = self.home.iter_mut().chain(&mut self.broadcast);
            for (engine, sub) in engines.zip(per) {
                if !sub.is_empty() {
                    Arc::make_mut(engine).apply(sub);
                }
            }
            report.absorb(*routed);
        }
        self.generation = generation;
        (self, report)
    }

    /// Patches every shard concurrently; a shard whose partial-retrain
    /// gates refuse is rebuilt in full from its own live rules.
    fn retrain_partial(&self, recipe: &Recipe<R>) -> Result<Self, Error> {
        let engines: Vec<&Arc<NuevoMatch<R>>> = self.home.iter().chain(&self.broadcast).collect();
        let fresh = par_map(&engines, |nm| match nm.partial_retrain(&recipe.cfg) {
            Ok((patched, _report)) => Ok(patched),
            Err(_) => {
                let mut rules = nm.live_rules();
                rules.sort_by_key(|r| (r.priority, r.id));
                let set = RuleSet::new(nm.spec().clone(), rules)?;
                NuevoMatch::build(&set, &recipe.cfg, recipe.builder.clone())
            }
        })?;
        Ok(Self::assemble(self.plan.clone(), fresh, self.generation))
    }

    fn rebuild(&self, rules: Vec<Rule>, recipe: &Recipe<R>) -> Result<Self, Error> {
        let spec = self.home[0].spec();
        Self::build(self.plan.clone(), spec, &rules, recipe, self.generation)
    }

    fn plan(&self) -> Option<&Arc<ShardPlan>> {
        Some(&self.plan)
    }
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> ShardedHandle<R> {
    /// Builds the plan over `set` and one NuevoMatch engine per slot (the
    /// broadcast engine always, possibly empty).
    pub fn new<B>(
        set: &RuleSet,
        cfg: &NuevoMatchConfig,
        plan_cfg: &ShardPlanConfig,
        builder: B,
    ) -> Result<Self, Error>
    where
        B: EngineBuilder<Engine = R> + 'static,
    {
        let plan = Arc::new(ShardPlan::build(set, plan_cfg)?);
        let recipe = Recipe { cfg: cfg.clone(), builder: Arc::new(builder) };
        let epoch = ShardEpoch::build(plan, set.spec(), set.rules(), &recipe, 1)?;
        let rules = set.rules().iter().map(|r| (r.id, r.clone())).collect();
        Ok(Self::assemble(epoch, Some(recipe), Some(rules)))
    }

    /// The partition this handle steers by.
    pub fn plan(&self) -> Arc<ShardPlan> {
        self.snapshot().plan.clone()
    }

    /// Pins the current epoch (two atomic ops, never blocks).
    pub fn epoch(&self) -> Arc<ShardEpoch<NuevoMatch<R>>> {
        self.snapshot()
    }

    /// Rule-weighted §3.9 remainder fraction across the shards — the drift
    /// the whole sharded data plane currently serves (replicated plans
    /// report the identical per-replica value).
    pub fn remainder_fraction(&self) -> f64 {
        let epoch = self.epoch();
        let mut rules = 0usize;
        let mut weighted = 0.0f64;
        for nm in epoch.home.iter().chain(&epoch.broadcast) {
            let n = nm.num_rules();
            rules += n;
            weighted += nm.remainder_fraction() * n as f64;
        }
        if rules == 0 {
            0.0
        } else {
            weighted / rules as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use crate::system::handle::ClassifierHandle;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch};

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn fast_cfg() -> NuevoMatchConfig {
        NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan_cfg(shards: usize) -> ShardPlanConfig {
        ShardPlanConfig { shards, dim: Some(3), strategy: ShardStrategy::Range }
    }

    #[test]
    fn static_sharded_equals_whole_set_engine() {
        let set = port_set(300);
        let whole = LinearSearch::build(&set);
        let keys: Vec<u64> = (0..256u64).flat_map(|i| [1, 2, 3, (i * 157) % 40_000, 6]).collect();
        // Every fourth key carries no floor; the rest prune at, below or
        // above the priority that key matches.
        let floors: Vec<Priority> =
            (0..256u32).map(|i| if i % 4 == 0 { Priority::MAX } else { (i * 41) % 320 }).collect();
        for shards in [1usize, 2, 5] {
            let sc =
                ShardedClassifier::build(&set, &plan_cfg(shards), LinearSearch::build).unwrap();
            let sh = ShardedHandle::new(&set, &fast_cfg(), &plan_cfg(shards), LinearSearch::build)
                .unwrap();
            assert_eq!(sc.num_rules(), 300);
            for port in (0u64..40_000).step_by(37) {
                let key = [1, 2, 3, port, 6];
                assert_eq!(sc.classify(&key), whole.classify(&key), "shards {shards} port {port}");
            }
            // Batched path agrees too, with and without floors, on both
            // sharded planes.
            let planes: [(&str, &dyn Classifier); 2] = [("static", &sc), ("handle", &sh)];
            for (name, plane) in planes {
                let mut out = vec![None; 256];
                plane.classify_batch(&keys, 5, &mut out);
                for i in 0..256 {
                    let want = whole.classify(&keys[i * 5..(i + 1) * 5]);
                    assert_eq!(out[i], want, "{name} shards {shards} packet {i}");
                }
                plane.classify_batch_with_floors(&keys, 5, &floors, &mut out);
                for i in 0..256 {
                    let f = floors[i];
                    let want = whole
                        .classify(&keys[i * 5..(i + 1) * 5])
                        .filter(|m| f == Priority::MAX || m.priority < f);
                    assert_eq!(out[i], want, "{name} shards {shards} packet {i} floor {f}");
                }
            }
        }
    }

    #[test]
    fn sharded_handle_apply_fans_and_stays_coherent_with_reference() {
        let set = port_set(200);
        let reference = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let sharded =
            ShardedHandle::new(&set, &fast_cfg(), &plan_cfg(3), LinearSearch::build).unwrap();
        let probe = |a: &dyn Classifier, b: &dyn Classifier| {
            for port in (0u64..30_000).step_by(23) {
                let key = [0, 0, 0, port, 0];
                assert_eq!(a.classify(&key), b.classify(&key), "port {port}");
            }
        };
        probe(&reference, &sharded);
        // A batch that inserts, removes, and moves a rule across shards.
        let batch = UpdateBatch::new()
            .insert(FiveTuple::new().dst_port_exact(50_000).into_rule(900, 0))
            .remove(5)
            .modify(FiveTuple::new().dst_port_range(19_000, 19_010).into_rule(7, 7));
        let ra = reference.apply(&batch);
        let rb = sharded.apply(&batch);
        assert_eq!(ra, rb, "fan-out accounting must match the whole-set handle");
        probe(&reference, &sharded);
        // Rule 7 now lives on another shard: routing from the truth must
        // find it there to remove it, and re-insert it at home.
        let back = UpdateBatch::new()
            .remove(7)
            .insert(FiveTuple::new().dst_port_range(700, 799).into_rule(7, 7));
        assert_eq!(reference.apply(&back), sharded.apply(&back), "move-back accounting");
        probe(&reference, &sharded);
        // A pure-miss batch publishes nothing.
        let g = sharded.generation();
        let r = sharded.apply(&UpdateBatch::new().remove(9_999));
        assert_eq!((r.missing, sharded.generation()), (1, g));
    }

    #[test]
    fn sharded_retrain_republishes_one_epoch() {
        let set = port_set(240);
        let sharded =
            ShardedHandle::new(&set, &fast_cfg(), &plan_cfg(2), LinearSearch::build).unwrap();
        // Drift a few rules (moves to other shards / broadcast included).
        for i in 0..10u32 {
            sharded.apply(
                &UpdateBatch::new()
                    .modify(FiveTuple::new().dst_port_exact(60_000 + i as u16).into_rule(i, i)),
            );
        }
        let oracle: Vec<_> =
            (0u64..65_536).step_by(61).map(|p| sharded.classify(&[0, 0, 0, p, 0])).collect();
        let g0 = sharded.generation();
        let g = sharded.retrain().unwrap();
        assert_eq!(g, g0 + 1, "retrain publishes exactly one logical generation");
        for (i, p) in (0u64..65_536).step_by(61).enumerate() {
            assert_eq!(sharded.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn sharded_updates_during_retrain_are_replayed() {
        let set = port_set(300);
        let sharded =
            ShardedHandle::new(&set, &fast_cfg(), &plan_cfg(3), LinearSearch::build).unwrap();
        // Race inserts, and moves of rules to another shard, against a
        // background retrain: whatever landed after the pin must replay
        // onto the fresh shards as routed when applied.
        let join = sharded.spawn_retrain();
        for i in 0..20u32 {
            sharded.apply(
                &UpdateBatch::new()
                    .insert(
                        FiveTuple::new().dst_port_exact(50_000 + i as u16).into_rule(10_000 + i, 0),
                    )
                    .modify(FiveTuple::new().dst_port_exact(60_000 + i as u16).into_rule(i, i)),
            );
        }
        join.join().unwrap().unwrap();
        assert_eq!(sharded.retrains_completed(), 1);
        assert!(!sharded.retrain_in_progress());
        for i in 0..20u32 {
            let key = [0u64, 0, 0, 50_000 + i as u64, 0];
            assert_eq!(sharded.classify(&key).unwrap().rule, 10_000 + i, "update {i} lost");
            let moved = [0u64, 0, 0, 60_000 + i as u64, 0];
            assert_eq!(sharded.classify(&moved).unwrap().rule, i, "move {i} lost");
            let old = [0u64, 0, 0, i as u64 * 100 + 50, 0];
            assert_eq!(sharded.classify(&old), None, "rule {i} still served at its old range");
        }
    }

    #[test]
    fn epoch_pin_is_immutable_under_updates() {
        let set = port_set(150);
        let sharded =
            ShardedHandle::new(&set, &fast_cfg(), &plan_cfg(2), LinearSearch::build).unwrap();
        let pinned = sharded.epoch();
        let gens = pinned.home_generations();
        sharded.apply(
            &UpdateBatch::new().insert(FiveTuple::new().dst_port_exact(61_111).into_rule(700, 0)),
        );
        assert_eq!(pinned.home_generations(), gens, "a pinned epoch must never move");
        assert!(sharded.generation() > pinned.generation());
        // The pinned epoch still serves the old content.
        let mut out = [None];
        pinned.classify_sub(
            sharded.plan().steer(&[0, 0, 0, 61_111, 0], 0),
            &[0, 0, 0, 61_111, 0],
            5,
            &mut out,
        );
        assert_eq!(out[0], None);
        assert_eq!(sharded.classify(&[0, 0, 0, 61_111, 0]).unwrap().rule, 700);
    }

    #[test]
    fn replicated_plan_fans_updates_to_every_replica() {
        let set = port_set(80);
        let cfg = ShardPlanConfig { shards: 3, dim: None, strategy: ShardStrategy::RoundRobin };
        let sharded = ShardedHandle::new(&set, &fast_cfg(), &cfg, LinearSearch::build).unwrap();
        sharded.apply(&UpdateBatch::new().remove(5));
        // Every replica must have dropped the rule: probe both the batch
        // path (replica 0) and per-replica epochs.
        assert_eq!(sharded.classify(&[0, 0, 0, 550, 0]), None);
        let epoch = sharded.epoch();
        for s in 0..3 {
            let mut out = [None];
            epoch.home[s].classify_batch(&[0, 0, 0, 550, 0], 5, &mut out);
            assert_eq!(out[0], None, "replica {s} still serves the removed rule");
        }
    }
}
