//! The live handle: the control-plane/data-plane split for NuevoMatch.
//!
//! The paper's §3.9 lifecycle (updates drift rules to the remainder until a
//! background retrain swaps in a fresh model, Figure 7) needs three roles
//! running *concurrently*:
//!
//! * **Readers** classify packets continuously. They must never block — not
//!   on updates and not on the retrain swap.
//! * A single **writer** applies [`UpdateBatch`] transactions: tombstones in
//!   the iSets, inserts/removes in the remainder. A batch is published only
//!   when its report shows an effective change — pure-miss batches bump
//!   nothing and invalidate nothing.
//! * A **retrainer** periodically resets the remainder drift and publishes
//!   the result. Two paths exist: the **full rebuild**
//!   ([`Handle::retrain_full`]) retrains every iSet from the rule truth; the
//!   **partial retrain** ([`Handle::retrain_partial`], §3.9 refinement)
//!   patches only the drifted RQ-RMI leaf submodels and re-admits remainder
//!   rules in place, publishing orders of magnitude sooner.
//!   [`Handle::retrain`] picks partial when the configured
//!   [`PartialRetrainPolicy`](crate::config::PartialRetrainPolicy) gates
//!   pass and falls back to full otherwise (drift too broad, too few rules
//!   re-admittable, or validation failure) — both paths are
//!   verdict-equivalent, so readers cannot tell which one published.
//!
//! [`Handle`] implements this protocol once, generic over the immutable
//! value it publishes: a whole-set [`NmSnapshot`] ([`ClassifierHandle`]) or
//! a [`ShardEpoch`](crate::system::runtime::ShardEpoch) of per-shard
//! NuevoMatch engines ([`ShardedHandle`](crate::system::runtime::ShardedHandle)).
//! The value sits behind an [`arc_swap::ArcSwap`]: readers
//! [`Handle::snapshot`] it (two atomic ops, never a lock) and classify
//! against the pinned generation; the writer builds the next value off to
//! the side, applies the batch to it, and publishes it under the next
//! generation. A batch is therefore **atomic**: readers observe all of it
//! or none of it, on every shard.
//!
//! The next value is built by **recycling** a retired one. Each publish
//! swaps the new value in and gets back the one from two publishes ago,
//! which readers can no longer pin. The writer keeps it as a spare,
//! together with a short log of the batches published since. When the next
//! batch arrives and no reader still holds the spare, the writer replays
//! the log onto it and applies the batch there, so an apply costs what its
//! batches touch, not the size of the remainder engine. When a reader still
//! holds the spare, or a retrain has published since, the writer clones the
//! live value instead. That is cheap for the trained models and untouched
//! shards, which sit behind `Arc`s, but it copies the whole remainder.
//!
//! Retraining pins the live value under the control lock, trains *without*
//! the lock (readers and the writer proceed untouched), then replays the
//! updates that arrived during training and publishes. The swap itself is
//! one atomic pointer store; readers pinned to the old generation finish
//! their batches on it and drop it.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use arc_swap::ArcSwap;
use parking_lot::Mutex;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::RuleSet;
use nm_common::shard::ShardPlan;
use nm_common::update::{
    BatchUpdatable, EngineBuilder, Generation, Snapshot, UpdateBatch, UpdateOp, UpdateReport,
};
use nm_common::Error;

use crate::config::NuevoMatchConfig;
use crate::system::serve::plane::{PinnedPlane, ServePlane};
use crate::system::NuevoMatch;

pub(crate) use lifecycle::{Lifecycle, Recipe, Truth};

/// A generation-stamped immutable NuevoMatch — what a [`ClassifierHandle`]
/// publishes and readers pin.
pub type NmSnapshot<R> = Snapshot<NuevoMatch<R>>;

mod lifecycle {
    use super::*;

    /// The rule truth the control plane keeps: id → live version.
    pub type Truth = HashMap<RuleId, Rule>;

    /// How to rebuild from scratch: the build parameters plus the remainder
    /// [`EngineBuilder`], held by the control plane for every retrain.
    pub struct Recipe<R> {
        pub cfg: NuevoMatchConfig,
        pub builder: Arc<dyn EngineBuilder<Engine = R>>,
    }

    impl<R> Clone for Recipe<R> {
        fn clone(&self) -> Self {
            Self { cfg: self.cfg.clone(), builder: self.builder.clone() }
        }
    }

    /// The lifecycle steps that depend on what a [`Handle`] publishes.
    /// Implemented by [`NmSnapshot`] and the sharded epoch only.
    pub trait Lifecycle: Classifier + Clone + Send + Sync + Sized + 'static {
        /// The remainder engine a [`Recipe`] builds.
        type Remainder: Classifier;
        /// A batch in the form it lands on this value, and replays onto a
        /// freshly trained one.
        type Routed: Clone + Send;

        /// Folds `batch` into `truth` op by op and routes it against the
        /// truth as each op found it.
        fn route<'b>(
            &self,
            batch: &'b UpdateBatch,
            truth: &mut Option<Truth>,
        ) -> Cow<'b, Self::Routed>;

        /// Applies `batches` in order (copy-on-write: parts shared with a
        /// published value are cloned before they change) and stamps the
        /// result `generation`.
        fn apply(self, batches: &[Self::Routed], generation: Generation) -> (Self, UpdateReport);

        /// Patches the drifted leaf submodels in place of a full rebuild.
        fn retrain_partial(&self, recipe: &Recipe<Self::Remainder>) -> Result<Self, Error>;

        /// Builds a fresh value over `rules` (the truth, in priority order).
        fn rebuild(
            &self,
            rules: Vec<Rule>,
            recipe: &Recipe<Self::Remainder>,
        ) -> Result<Self, Error>;

        /// The shard plan readers steer by, when the value is sharded.
        fn plan(&self) -> Option<&Arc<ShardPlan>> {
            None
        }
    }
}

/// A value a [`Handle`] can publish: a whole-set [`NmSnapshot`] or a
/// [`ShardEpoch`](crate::system::runtime::ShardEpoch) of NuevoMatch shards.
/// Sealed — the lifecycle steps the two differ in stay private.
pub trait Published: Lifecycle {}

impl<P: Lifecycle> Published for P {}

/// Folds one op into the truth map; returns the version it replaced.
pub(crate) fn fold(truth: &mut Truth, op: &UpdateOp) -> Option<Rule> {
    match op {
        UpdateOp::Insert(r) | UpdateOp::Modify(r) => truth.insert(r.id, r.clone()),
        UpdateOp::Remove(id) => truth.remove(id),
    }
}

/// Control-plane state, touched only by writers (apply / retrain).
struct Control<P: Lifecycle> {
    recipe: Option<Recipe<P::Remainder>>,
    /// Current rule truth. `None` on read-only handles, which never retrain.
    rules: Option<Truth>,
    /// Batches applied while a retrain is in flight, as routed; replayed
    /// onto the fresh value before it is published.
    pending: Vec<P::Routed>,
    /// The value the last publish retired, two publishes old. No reader
    /// can pin it any more, but one that pinned it earlier may still hold
    /// it.
    spare: Option<Arc<P>>,
    /// Every apply published after `spare`, oldest first: replayed, it
    /// turns the spare into the live value. A retrain publish clears it,
    /// so it never leads from a value older than the last retrain.
    log: VecDeque<(Generation, P::Routed)>,
}

impl<P: Lifecycle> Control<P> {
    /// Takes the spare back as the base of the next value: the log must
    /// lead from it to `live`, and no reader may still pin it. Replays the
    /// log onto it.
    fn reclaim(&mut self, live: Generation) -> Option<P> {
        let spare = self.spare.take()?;
        let from = spare.generation();
        if !self.log.iter().map(|(g, _)| *g).eq(from + 1..=live) {
            return None;
        }
        let mut value = Arc::try_unwrap(spare).ok()?;
        for (generation, routed) in &self.log {
            value = value.apply(std::slice::from_ref(routed), *generation).0;
        }
        Some(value)
    }

    /// Keeps the value a publish retired as the next spare and trims the
    /// log to what leads from it.
    fn retire(&mut self, retired: Arc<P>) {
        let from = retired.generation();
        self.log.retain(|(g, _)| *g > from);
        self.spare = Some(retired);
    }
}

struct Shared<P: Lifecycle> {
    live: ArcSwap<P>,
    /// The plan every published value steers by (`None`: one shard).
    plan: Option<Arc<ShardPlan>>,
    ctl: Mutex<Control<P>>,
    retraining: AtomicBool,
    retrains: AtomicU64,
    /// How many completed retrains took the partial (leaf-level) path.
    partial_retrains: AtomicU64,
    /// Applies built on a recycled spare.
    recycled_applies: AtomicU64,
    /// Applies built on a clone of the live value.
    cloned_applies: AtomicU64,
}

/// Marks a retrain in flight for as long as it lives.
struct InFlight<'a>(&'a AtomicBool);

impl<'a> InFlight<'a> {
    fn begin(flag: &'a AtomicBool) -> Option<Self> {
        (!flag.swap(true, SeqCst)).then_some(Self(flag))
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.swap(false, SeqCst);
    }
}

/// Shared handle to a live classifier: lock-free reads against an
/// atomically swapped immutable value `P`, transactional writes, background
/// retrains. Clone it freely — clones address the same classifier.
pub struct Handle<P: Published> {
    shared: Arc<Shared<P>>,
}

/// [`Handle`] over whole-set [`NmSnapshot`]s.
///
/// ```
/// use nm_common::{Classifier, FieldsSpec, FiveTuple, LinearSearch, RuleSet, UpdateBatch};
/// use nuevomatch::{ClassifierHandle, NuevoMatchConfig, RqRmiParams};
///
/// let rules: Vec<_> = (0..300u16)
///     .map(|i| FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32))
///     .collect();
/// let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
/// let cfg = NuevoMatchConfig {
///     rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
///     ..Default::default()
/// };
/// let handle = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
///
/// // Reader side: pin a snapshot, classify lock-free.
/// let snap = handle.snapshot();
/// assert_eq!(snap.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5);
///
/// // Writer side: one transaction, atomically visible.
/// handle.apply(&UpdateBatch::new().remove(5));
/// assert_eq!(handle.classify(&[0, 0, 0, 550, 0]), None);
/// assert_eq!(snap.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5); // pinned view unchanged
///
/// // Control side: retrain folds the drift back into fresh models.
/// handle.retrain().unwrap();
/// assert_eq!(handle.classify(&[0, 0, 0, 550, 0]), None);
/// ```
pub type ClassifierHandle<R> = Handle<NmSnapshot<R>>;

impl<P: Published> Clone for Handle<P> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

impl<P: Published> Handle<P> {
    /// Wraps the first published value. A handle with a `recipe` must track
    /// the rule truth.
    pub(crate) fn assemble(
        value: P,
        recipe: Option<Recipe<P::Remainder>>,
        rules: Option<Truth>,
    ) -> Self {
        debug_assert!(
            recipe.is_none() || rules.is_some(),
            "a handle that can retrain must track the rule truth"
        );
        Self {
            shared: Arc::new(Shared {
                plan: value.plan().cloned(),
                live: ArcSwap::new(Arc::new(value)),
                ctl: Mutex::new(Control {
                    recipe,
                    rules,
                    pending: Vec::new(),
                    spare: None,
                    log: VecDeque::new(),
                }),
                retraining: AtomicBool::new(false),
                retrains: AtomicU64::new(0),
                partial_retrains: AtomicU64::new(0),
                recycled_applies: AtomicU64::new(0),
                cloned_applies: AtomicU64::new(0),
            }),
        }
    }

    /// Pins the current value. Never blocks (two atomic ops); the returned
    /// `Arc` keeps that generation alive for as long as the reader holds
    /// it, regardless of concurrent updates and retrains.
    pub fn snapshot(&self) -> Arc<P> {
        self.shared.live.load_full()
    }

    /// The published generation (bumps on every effective applied batch and
    /// every retrain publish).
    ///
    /// Derived from the live value itself, so it can never disagree with
    /// what a subsequently pinned snapshot reports: pin first, and
    /// `generation() >= snapshot.generation()` holds at every instant. (A
    /// separate atomic mirror — the previous design — was updated after the
    /// snapshot store and could briefly *under-report* the live snapshot's
    /// stamp; and the reverse store order would let a cache observe the new
    /// generation, compute a verdict against the still-published old
    /// snapshot, and keep serving it under the new tag.)
    pub fn generation(&self) -> Generation {
        self.shared.live.load().generation()
    }

    /// True while a retrain is between pin and publish.
    pub fn retrain_in_progress(&self) -> bool {
        self.shared.retraining.load(SeqCst)
    }

    /// Completed retrain publishes since construction (partial + full).
    pub fn retrains_completed(&self) -> u64 {
        self.shared.retrains.load(SeqCst)
    }

    /// Completed retrains that took the partial (leaf-level) path.
    pub fn partial_retrains_completed(&self) -> u64 {
        self.shared.partial_retrains.load(SeqCst)
    }

    /// Applies built on a recycled spare since construction.
    pub fn recycled_applies(&self) -> u64 {
        self.shared.recycled_applies.load(SeqCst)
    }

    /// Applies built on a clone of the live value since construction: the
    /// first two after construction and after each retrain, and every one
    /// whose spare a reader still held.
    pub fn cloned_applies(&self) -> u64 {
        self.shared.cloned_applies.load(SeqCst)
    }

    /// Publishes `value`, stamped `generation() + 1` by its caller, which
    /// holds the ctl lock (single-writer discipline). The stamp lives inside
    /// the value — one atomic store makes both visible together, which is
    /// what keeps [`Handle::generation`] and the published view consistent.
    /// The value the swap retires becomes the next spare.
    fn publish(&self, ctl: &mut Control<P>, value: P) -> Generation {
        let generation = value.generation();
        ctl.retire(self.shared.live.swap(Arc::new(value)));
        generation
    }

    /// Applies one transaction and publishes the result as a new value.
    ///
    /// Concurrent readers never see a partially-applied batch: they keep
    /// classifying against the previous value until the atomic swap, then
    /// see all of it. Writers are serialised by the control lock; a batch
    /// that arrives during a retrain is applied now and replayed onto the
    /// retrained value. Returns the same accounting as [`NuevoMatch::apply`]
    /// on one whole-set engine.
    pub fn apply(&self, batch: &UpdateBatch) -> UpdateReport {
        if batch.is_empty() {
            // Nothing to publish: building a value and bumping the
            // generation for zero ops would only stampede the caches layered
            // above (the generation contract is "bumps when content
            // changes").
            return UpdateReport::default();
        }
        let mut ctl = self.shared.ctl.lock();
        let live = self.snapshot();
        let routed = live.route(batch, &mut ctl.rules);
        let generation = live.generation() + 1;
        let base = match ctl.reclaim(live.generation()) {
            Some(spare) => {
                self.shared.recycled_applies.fetch_add(1, SeqCst);
                spare
            }
            None => {
                self.shared.cloned_applies.fetch_add(1, SeqCst);
                P::clone(&live)
            }
        };
        let (next, report) = base.apply(std::slice::from_ref(&*routed), generation);
        let routed = routed.into_owned();
        if self.retrain_in_progress() {
            ctl.pending.push(routed.clone());
        }
        // A batch of pure misses changed nothing: drop the new value and
        // keep the published one (and its generation) as they are.
        if report.changed() {
            ctl.log.push_back((generation, routed));
            self.publish(&mut ctl, next);
        }
        report
    }

    /// Retrains and atomically swaps in the result, resetting the §3.9
    /// remainder drift. Returns the published generation.
    ///
    /// When the retained config's
    /// [`PartialRetrainPolicy`](crate::config::PartialRetrainPolicy) allows
    /// it, this first attempts the **partial** (leaf-level) path —
    /// [`Handle::retrain_partial`] — and falls back to the full rebuild
    /// ([`Handle::retrain_full`]) when it errors. Either way the published
    /// value serves exactly the current rule truth; the two paths are
    /// verdict-equivalent.
    ///
    /// Errors if the handle was built read-only, if a retrain is already in
    /// flight, or if training fails.
    pub fn retrain(&self) -> Result<Generation, Error> {
        let partial = self
            .shared
            .ctl
            .lock()
            .recipe
            .as_ref()
            .is_some_and(|recipe| recipe.cfg.partial_retrain.enabled);
        if partial {
            // A gate error falls back to the full rebuild; an "in flight"
            // error resurfaces there unchanged (the flag is still set).
            if let Ok(generation) = self.retrain_partial() {
                return Ok(generation);
            }
        }
        self.retrain_full()
    }

    /// Incremental (partial) retrain: patches the pinned value through
    /// [`NuevoMatch::partial_retrain`] — re-admitting drifted remainder
    /// rules into their iSets and re-fitting only the affected RQ-RMI leaf
    /// submodels — and publishes the result. The patch runs *without* the
    /// control lock; batches applied meanwhile are replayed before the
    /// publish, exactly like the full path. Because only a few leaves
    /// train, the publish period (and hence the Figure 7 drift floor) drops
    /// by the measured partial/full latency ratio.
    ///
    /// A whole-set handle errors — **without** falling back — when the
    /// policy gates refuse (use [`Handle::retrain`] for automatic
    /// fallback); a sharded handle rebuilds just the refused shards in
    /// full. Also errors when the handle is read-only or a retrain is
    /// already in flight.
    pub fn retrain_partial(&self) -> Result<Generation, Error> {
        self.retrain_with(true)
    }

    /// Rebuilds from scratch over the current rule truth and atomically
    /// swaps the result in, resetting the §3.9 remainder drift completely
    /// (including the iSet partition). Training runs *without* the control
    /// lock, so the writer keeps applying batches (they are replayed onto
    /// the fresh value before it publishes) and readers never block.
    /// Returns the published generation.
    ///
    /// Errors if the handle was built read-only, if a retrain is already in
    /// flight, or if training fails.
    pub fn retrain_full(&self) -> Result<Generation, Error> {
        self.retrain_with(false)
    }

    /// One retrain: pin, train with no lock held, replay, publish.
    fn retrain_with(&self, partial: bool) -> Result<Generation, Error> {
        // Pin the live value, the recipe and (for a full rebuild) the rule
        // truth under the control lock, so no batch lands between the
        // pending-queue reset and the pin.
        let (pinned, recipe, mut rules, in_flight) = {
            let mut ctl = self.shared.ctl.lock();
            let recipe = ctl.recipe.clone().ok_or_else(|| Error::Build {
                msg: "retrain: read-only handle (no EngineBuilder retained)".to_string(),
            })?;
            let in_flight = InFlight::begin(&self.shared.retraining).ok_or_else(|| {
                Error::Build { msg: "retrain: a retrain is already in flight".to_string() }
            })?;
            ctl.pending.clear();
            // The retrain publish ends the spare's lineage: free it now
            // rather than hold it through training.
            ctl.spare = None;
            let rules: Vec<Rule> = match (&ctl.rules, partial) {
                (Some(map), false) => map.values().cloned().collect(),
                _ => Vec::new(),
            };
            (self.snapshot(), recipe, rules, in_flight)
        };
        // Train: the long pole, executed with no locks held.
        let fresh = if partial {
            pinned.retrain_partial(&recipe)?
        } else {
            // Rebuild in priority order, not map order: engines whose build
            // is insertion-order-sensitive (TupleMerge's table formation)
            // degrade badly on a randomised rule order, and determinism
            // makes retrains reproducible.
            rules.sort_by_key(|r| (r.priority, r.id));
            pinned.rebuild(rules, &recipe)?
        };
        // Publish: replay what arrived during training, swap, count, unmark.
        let mut ctl = self.shared.ctl.lock();
        let (fresh, _) = fresh.apply(&ctl.pending, self.generation() + 1);
        ctl.pending.clear();
        // The fresh value starts a new lineage: nothing retired before it
        // can be replayed into it.
        ctl.log.clear();
        let generation = self.publish(&mut ctl, fresh);
        ctl.spare = None;
        self.shared.retrains.fetch_add(1, SeqCst);
        if partial {
            self.shared.partial_retrains.fetch_add(1, SeqCst);
        }
        drop(in_flight);
        Ok(generation)
    }

    /// Kicks a retrain off on a background thread and returns its join
    /// handle. Dropping the join handle detaches the retrain; its publish
    /// still lands.
    pub fn spawn_retrain(&self) -> std::thread::JoinHandle<Result<Generation, Error>> {
        let handle = self.clone();
        std::thread::spawn(move || handle.retrain())
    }
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> ClassifierHandle<R> {
    /// Builds the classifier from `set` and wraps it in a handle that can
    /// update and retrain. The builder is retained: every retrain re-invokes
    /// it on the then-current rule truth.
    pub fn new<B>(set: &RuleSet, cfg: &NuevoMatchConfig, builder: B) -> Result<Self, Error>
    where
        B: EngineBuilder<Engine = R> + 'static,
    {
        let builder: Arc<dyn EngineBuilder<Engine = R>> = Arc::new(builder);
        let nm = NuevoMatch::build(set, cfg, builder.clone())?;
        let rules = set.rules().iter().map(|r| (r.id, r.clone())).collect();
        let recipe = Recipe { cfg: cfg.clone(), builder };
        Ok(Self::assemble(Snapshot::new(nm, 1), Some(recipe), Some(rules)))
    }

    /// Wraps an already-built classifier in a read/serve-only handle:
    /// snapshots, generation tracking, updates and the parallel runtime all
    /// work, but no rule truth is tracked and no builder retained, so
    /// [`Handle::retrain`] reports an error.
    pub fn read_only(nm: NuevoMatch<R>) -> Self {
        Self::assemble(Snapshot::new(nm, 1), None, None)
    }

    /// Warm-starts a handle from a [`crate::persist::save_snapshot`] image:
    /// models, iSet tables, tombstones and remainder rules all load as
    /// persisted — no retraining — and the handle resumes at the persisted
    /// generation, ready to update and retrain.
    pub fn from_snapshot<B>(data: &[u8], cfg: &NuevoMatchConfig, builder: B) -> Result<Self, Error>
    where
        B: EngineBuilder<Engine = R> + 'static,
    {
        let (nm, generation) = crate::persist::load_snapshot(data, &builder)?;
        let rules = nm.live_rules().into_iter().map(|r| (r.id, r)).collect();
        let recipe = Recipe { cfg: cfg.clone(), builder: Arc::new(builder) };
        Ok(Self::assemble(Snapshot::new(nm, generation.max(1)), Some(recipe), Some(rules)))
    }

    /// Serialises the live snapshot (see [`crate::persist::save_snapshot`]);
    /// a later [`ClassifierHandle::from_snapshot`] resumes from it without
    /// retraining.
    pub fn save(&self) -> Vec<u8> {
        let snap = self.snapshot();
        crate::persist::save_snapshot(snap.engine(), snap.generation())
    }
}

impl<R: BatchUpdatable + Clone + Send + Sync + 'static> Lifecycle for NmSnapshot<R> {
    type Remainder = R;
    type Routed = UpdateBatch;

    fn route<'b>(&self, batch: &'b UpdateBatch, truth: &mut Option<Truth>) -> Cow<'b, UpdateBatch> {
        if let Some(truth) = truth {
            for op in batch.ops() {
                fold(truth, op);
            }
        }
        Cow::Borrowed(batch)
    }

    fn apply(self, batches: &[UpdateBatch], generation: Generation) -> (Self, UpdateReport) {
        let mut nm = self.into_engine();
        let mut report = UpdateReport::default();
        for batch in batches {
            report.absorb(nm.apply(batch));
        }
        (Snapshot::new(nm, generation), report)
    }

    fn retrain_partial(&self, recipe: &Recipe<R>) -> Result<Self, Error> {
        let (nm, _report) = self.engine().partial_retrain(&recipe.cfg)?;
        Ok(Snapshot::new(nm, self.generation()))
    }

    fn rebuild(&self, rules: Vec<Rule>, recipe: &Recipe<R>) -> Result<Self, Error> {
        let set = RuleSet::new(self.engine().spec().clone(), rules)?;
        let nm = NuevoMatch::build(&set, &recipe.cfg, recipe.builder.clone())?;
        Ok(Snapshot::new(nm, self.generation()))
    }
}

impl<P: Published> Classifier for Handle<P> {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        self.snapshot().classify(key)
    }

    fn classify_with_floor(&self, key: &[u64], floor: Priority) -> Option<MatchResult> {
        self.snapshot().classify_with_floor(key, floor)
    }

    /// One snapshot pin per batch: every packet in the batch is classified
    /// against the same generation, on every shard.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.snapshot().batch_lookup(keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.snapshot().memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.snapshot().name()
    }

    fn num_rules(&self) -> usize {
        self.snapshot().num_rules()
    }

    fn generation(&self) -> Generation {
        Handle::generation(self)
    }
}

/// A handle serves the value it publishes; a sharded one also tells the
/// runtime how to steer.
impl<P: Published> ServePlane for Handle<P>
where
    Arc<P>: PinnedPlane,
{
    type Pin = Arc<P>;

    fn pin(&self) -> Arc<P> {
        self.snapshot()
    }

    fn shards(&self) -> usize {
        self.shared.plan.as_ref().map_or(1, |plan| plan.shards())
    }

    fn steer(&self, key: &[u64], batch: usize) -> usize {
        self.shared.plan.as_ref().map_or(0, |plan| plan.steer(key, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
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

    fn handle(n: u16) -> ClassifierHandle<LinearSearch> {
        ClassifierHandle::new(&port_set(n), &fast_cfg(), LinearSearch::build).unwrap()
    }

    #[test]
    fn apply_is_atomic_and_pinned_snapshots_are_stable() {
        let h = handle(200);
        let pinned = h.snapshot();
        let g0 = h.generation();
        let report = h.apply(
            &UpdateBatch::new()
                .remove(5)
                .insert(FiveTuple::new().dst_port_exact(61_000).into_rule(900, 0)),
        );
        assert_eq!((report.removed, report.inserted), (1, 1));
        assert_eq!(h.generation(), g0 + 1);
        // New reads see the whole batch.
        assert_eq!(h.classify(&[0, 0, 0, 550, 0]), None);
        assert_eq!(h.classify(&[0, 0, 0, 61_000, 0]).unwrap().rule, 900);
        // The pinned generation is frozen.
        assert_eq!(pinned.generation(), g0);
        assert_eq!(pinned.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5);
        assert_eq!(pinned.classify(&[0, 0, 0, 61_000, 0]), None);
        // An empty transaction publishes nothing and bumps nothing (the
        // generation contract: bumps only when content changes).
        assert_eq!(h.apply(&UpdateBatch::new()), UpdateReport::default());
        assert_eq!(h.generation(), g0 + 1);
    }

    #[test]
    fn generation_mirror_never_under_reports_the_live_snapshot() {
        // Regression: `publish` used to store the snapshot first and update
        // a separate atomic generation mirror afterwards, so a reader that
        // pinned the fresh snapshot could still see `handle.generation()`
        // reporting the previous stamp. The stamp now lives inside the
        // snapshot itself: once a snapshot is visible, `generation()` must
        // already reflect it (pin first, then compare).
        let h = handle(150);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..2 {
                let h = h.clone();
                let stop = &stop;
                joins.push(scope.spawn(move || {
                    while !stop.load(SeqCst) {
                        let snap = h.snapshot();
                        let g = h.generation();
                        assert!(
                            g >= snap.generation(),
                            "generation() {g} trails the already-visible snapshot {}",
                            snap.generation()
                        );
                    }
                }));
            }
            for i in 0..400u32 {
                let port = 40_000 + (i % 20_000) as u16;
                h.apply(
                    &UpdateBatch::new()
                        .modify(FiveTuple::new().dst_port_exact(port).into_rule(i % 150, i % 150)),
                );
            }
            stop.store(true, SeqCst);
            for j in joins {
                j.join().unwrap();
            }
        });
        // And a snapshot pinned after any quiescent point agrees exactly.
        assert_eq!(h.generation(), h.snapshot().generation());
    }

    #[test]
    fn noop_batch_publishes_nothing() {
        let h = handle(100);
        let g0 = h.generation();
        let pinned = h.snapshot();
        let report = h.apply(&UpdateBatch::new().remove(9_999).remove(8_888));
        assert_eq!((report.missing, report.changed()), (2, false));
        assert_eq!(h.generation(), g0, "miss-only batch must not bump");
        assert!(
            Arc::ptr_eq(&pinned, &h.snapshot()),
            "miss-only batch must not publish a new snapshot"
        );
    }

    #[test]
    fn retrain_partial_resets_concentrated_drift() {
        let set = port_set(300);
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::always(),
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        // Concentrated drift: re-insert a few neighbouring rules unchanged.
        let mut batch = UpdateBatch::new();
        for i in 40..48u32 {
            batch = batch.modify(
                FiveTuple::new()
                    .dst_port_range(i as u16 * 100, i as u16 * 100 + 99)
                    .into_rule(i, i),
            );
        }
        h.apply(&batch);
        assert!(h.snapshot().engine().remainder_fraction() > 0.0);
        let oracle: Vec<_> =
            (0u64..40_000).step_by(41).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        let g = h.retrain_partial().unwrap();
        assert_eq!(g, h.generation());
        assert_eq!(h.partial_retrains_completed(), 1);
        assert_eq!(h.retrains_completed(), 1);
        assert_eq!(
            h.snapshot().engine().remainder_fraction(),
            0.0,
            "unchanged boxes must fully re-admit"
        );
        for (i, p) in (0u64..40_000).step_by(41).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn auto_retrain_falls_back_to_full_when_partial_is_gated() {
        let set = port_set(200);
        // min_readmit_fraction 1.0: any unadmittable drifted rule gates the
        // partial path, forcing the full rebuild.
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy {
                enabled: true,
                max_refit_fraction: 1.0,
                min_readmit_fraction: 1.0,
            },
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        // Rule 7 drifts to a range overlapping live rule 10: unadmittable.
        h.apply(
            &UpdateBatch::new()
                .modify(FiveTuple::new().dst_port_range(1_000, 1_050).into_rule(7, 7)),
        );
        let oracle: Vec<_> =
            (0u64..21_000).step_by(23).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        h.retrain().unwrap();
        assert_eq!(h.retrains_completed(), 1);
        assert_eq!(h.partial_retrains_completed(), 0, "gated partial must not count");
        for (i, p) in (0u64..21_000).step_by(23).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn updates_during_partial_retrain_are_replayed() {
        let set = port_set(300);
        let cfg = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::always(),
            ..fast_cfg()
        };
        let h = ClassifierHandle::new(&set, &cfg, LinearSearch::build).unwrap();
        let mut batch = UpdateBatch::new();
        for i in 10..20u32 {
            batch = batch.modify(
                FiveTuple::new()
                    .dst_port_range(i as u16 * 100, i as u16 * 100 + 99)
                    .into_rule(i, i),
            );
        }
        h.apply(&batch);
        // Race inserts against background auto-retrains (partial-first).
        let join = h.spawn_retrain();
        for i in 0..20u32 {
            h.apply(&UpdateBatch::new().insert(
                FiveTuple::new().dst_port_exact(50_000 + i as u16).into_rule(10_000 + i, 0),
            ));
        }
        join.join().unwrap().unwrap();
        for i in 0..20u32 {
            let key = [0u64, 0, 0, 50_000 + i as u64, 0];
            assert_eq!(h.classify(&key).unwrap().rule, 10_000 + i, "update {i} lost by retrain");
        }
    }

    #[test]
    fn retrain_resets_drift_and_preserves_semantics() {
        let h = handle(300);
        // Drift a quarter of the rules to the remainder.
        for i in 0..75u32 {
            let port = 40_000 + i as u16;
            h.apply(
                &UpdateBatch::new()
                    .modify(FiveTuple::new().dst_port_range(port, port).into_rule(i, i)),
            );
        }
        let drifted = h.snapshot().engine().remainder_fraction();
        assert!(drifted > 0.2, "expected drift, got {drifted}");
        let oracle_before: Vec<_> =
            (0u64..65_536).step_by(97).map(|p| h.classify(&[0, 0, 0, p, 0])).collect();
        let gen = h.retrain().unwrap();
        assert_eq!(gen, h.generation());
        assert_eq!(h.retrains_completed(), 1);
        let fresh = h.snapshot().engine().remainder_fraction();
        assert!(fresh < drifted, "retrain must shrink the remainder: {drifted} -> {fresh}");
        // Same classification behaviour, new structure. Priorities are
        // unique here, so rule identity must be preserved exactly.
        for (i, p) in (0u64..65_536).step_by(97).enumerate() {
            assert_eq!(h.classify(&[0, 0, 0, p, 0]), oracle_before[i], "port {p}");
        }
    }

    #[test]
    fn updates_during_retrain_are_replayed() {
        let h = handle(300);
        // Start a slow-ish retrain on a background thread, then race updates
        // against it.
        let join = h.spawn_retrain();
        for i in 0..20u32 {
            h.apply(&UpdateBatch::new().insert(
                FiveTuple::new().dst_port_exact(50_000 + i as u16).into_rule(10_000 + i, 0),
            ));
        }
        join.join().unwrap().unwrap();
        // Whether an update landed before the pin or during training, the
        // published classifier must serve it.
        for i in 0..20u32 {
            let key = [0u64, 0, 0, 50_000 + i as u64, 0];
            assert_eq!(h.classify(&key).unwrap().rule, 10_000 + i, "update {i} lost by retrain");
        }
    }

    #[test]
    fn read_only_handle_serves_but_refuses_retrain() {
        let set = port_set(100);
        let nm = NuevoMatch::build(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let h = ClassifierHandle::read_only(nm);
        assert_eq!(h.classify(&[0, 0, 0, 550, 0]).unwrap().rule, 5);
        assert!(h.retrain().is_err());
        // Updates still work (truth is simply not tracked for retrains).
        h.apply(&UpdateBatch::new().remove(5));
        assert_eq!(h.classify(&[0, 0, 0, 550, 0]), None);
    }

    #[test]
    fn concurrent_retrain_attempts_do_not_stack() {
        let h = handle(250);
        let a = h.spawn_retrain();
        let b = h.spawn_retrain();
        let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
        // At least one must succeed; both may if they did not overlap.
        assert!(ra.is_ok() || rb.is_ok());
        assert!(h.retrains_completed() >= 1);
        assert!(!h.retrain_in_progress());
    }
}
