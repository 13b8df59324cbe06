//! Concurrent soak test for the control-plane/data-plane split: reader
//! threads classify continuously against `ClassifierHandle` snapshots while
//! a writer thread applies proptest-generated `UpdateBatch` scripts and
//! periodically retrains.
//!
//! The correctness bar is generation-exact: every classification a reader
//! performs must equal a `LinearSearch` oracle rebuilt from the rule truth
//! *at the reader's pinned generation* — not the latest truth. Zero
//! mismatches across the whole run also demonstrates the liveness property
//! the redesign exists for: readers keep classifying (and keep being right)
//! straight through update publishes and retrain swaps, never blocking on
//! either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use nm_common::{
    Classifier, FieldsSpec, FiveTuple, LinearSearch, Rule, RuleSet, ShardPlanConfig, ShardStrategy,
    SplitMix64, UpdateBatch,
};
use nm_tuplemerge::TupleMerge;
use nuevomatch::{
    ClassifierHandle, Handle, NuevoMatchConfig, PartialRetrainPolicy, Published, RqRmiParams,
    ShardedHandle,
};
use proptest::prelude::*;

const N_RULES: u16 = 400;
const READERS: usize = 2;
const KEYS_PER_CHECK: usize = 64;

fn base_set() -> RuleSet {
    let rules: Vec<_> = (0..N_RULES)
        .map(|i| {
            FiveTuple::new().dst_port_range(i * 150, i * 150 + 120).into_rule(i as u32, i as u32)
        })
        .collect();
    RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
}

fn cfg() -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
        ..Default::default()
    }
}

/// Rule-truth history keyed by published generation. The writer records the
/// post-batch truth for every generation it publishes; readers resolve their
/// pinned generation to the truth that produced it.
type History = Mutex<HashMap<u64, Arc<Vec<Rule>>>>;

/// One scripted control-plane op: `(kind, x, y)` decodes to remove / insert
/// / modify with pseudo-random-but-deterministic targets.
fn decode_op(truth: &mut Vec<Rule>, next_id: &mut u32, kind: u64, x: u64, y: u64) -> UpdateBatch {
    match kind {
        0 => {
            // Remove an id that may or may not exist (misses must be safe).
            let id = (x % (N_RULES as u64 + 40)) as u32;
            truth.retain(|r| r.id != id);
            UpdateBatch::new().remove(id)
        }
        1 => {
            let id = *next_id;
            *next_id += 1;
            let port = (x * 131 + y) % 65_000;
            let rule = FiveTuple::new()
                .dst_port_range(port as u16, (port as u16).saturating_add(90))
                .into_rule(id, id);
            truth.push(rule.clone());
            UpdateBatch::new().insert(rule)
        }
        _ => {
            let id = (x % N_RULES as u64) as u32;
            let port = (y * 137) % 64_000;
            let rule = FiveTuple::new()
                .dst_port_range(port as u16, (port as u16).saturating_add(70))
                .into_rule(id, id);
            truth.retain(|r| r.id != id);
            truth.push(rule.clone());
            UpdateBatch::new().modify(rule)
        }
    }
}

/// Pins a snapshot AND the truth that generated it. A reader may observe a
/// generation a beat before the writer records its truth; re-pinning until
/// the entry exists keeps the pairing exact without ever blocking the
/// writer.
fn pin_with_truth(
    handle: &ClassifierHandle<TupleMerge>,
    history: &History,
) -> (Arc<nuevomatch::NmSnapshot<TupleMerge>>, Arc<Vec<Rule>>) {
    loop {
        let snap = handle.snapshot();
        if let Some(rules) = history.lock().unwrap().get(&snap.generation()).cloned() {
            return (snap, rules);
        }
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The satellite acceptance test: concurrent updater + readers, every
    /// batched classification checked against the pinned-generation oracle.
    #[test]
    fn concurrent_soak_matches_pinned_generation_oracle(
        script in proptest::collection::vec((0u64..3, 0u64..65_536, 0u64..65_536), 30..60),
        key_seed in 1u64..1_000_000,
    ) {
        let set = base_set();
        let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).unwrap();
        let history: History = Mutex::new(HashMap::new());
        history
            .lock()
            .unwrap()
            .insert(handle.generation(), Arc::new(set.rules().to_vec()));

        let stop = AtomicBool::new(false);
        let checks = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Readers: pin, oracle at the pinned generation, batched
            // classification, compare per key.
            let mut joins = Vec::new();
            for reader in 0..READERS {
                let handle = handle.clone();
                let history = &history;
                let stop = &stop;
                let checks = &checks;
                joins.push(scope.spawn(move || {
                    let mut rng = SplitMix64::new(key_seed + reader as u64 * 7_919);
                    let mut keys = vec![0u64; KEYS_PER_CHECK * 5];
                    let mut out = vec![None; KEYS_PER_CHECK];
                    while !stop.load(SeqCst) {
                        let (snap, truth) = pin_with_truth(&handle, history);
                        let oracle = LinearSearch::from_rules((*truth).clone());
                        for k in keys.iter_mut() {
                            *k = rng.below(66_000);
                        }
                        // Keys are 5-tuples; zero the non-port fields so the
                        // port-range rules above decide everything.
                        for i in 0..KEYS_PER_CHECK {
                            keys[i * 5] = 0;
                            keys[i * 5 + 1] = 0;
                            keys[i * 5 + 4] = 0;
                        }
                        snap.classify_batch(&keys, 5, &mut out);
                        for i in 0..KEYS_PER_CHECK {
                            let key = &keys[i * 5..(i + 1) * 5];
                            let want = oracle.classify(key);
                            assert_eq!(
                                out[i],
                                want,
                                "reader {reader} diverged from generation-{} oracle on {key:?}",
                                snap.generation()
                            );
                        }
                        checks.fetch_add(KEYS_PER_CHECK as u64, SeqCst);
                    }
                }));
            }

            // Writer: apply the script, retraining every ~15 ops. The truth
            // entry for each published generation is recorded before readers
            // can resolve it (they spin on the history map, not on a lock
            // the writer holds during classification).
            let mut truth = set.rules().to_vec();
            let mut next_id = N_RULES as u32 + 1_000;
            for (i, &(kind, x, y)) in script.iter().enumerate() {
                let batch = decode_op(&mut truth, &mut next_id, kind, x, y);
                handle.apply(&batch);
                history
                    .lock()
                    .unwrap()
                    .insert(handle.generation(), Arc::new(truth.clone()));
                if i % 15 == 14 {
                    // Synchronous retrain: same truth, new generation. The
                    // readers keep running right through the swap.
                    handle.retrain().unwrap();
                    history
                        .lock()
                        .unwrap()
                        .insert(handle.generation(), Arc::new(truth.clone()));
                }
            }
            // Let the readers chew on the final state briefly, then stop.
            std::thread::sleep(std::time::Duration::from_millis(30));
            stop.store(true, SeqCst);
            for j in joins {
                j.join().expect("reader panicked");
            }
        });

        prop_assert!(checks.load(SeqCst) > 0, "readers never got to classify");
        prop_assert!(handle.retrains_completed() >= 1, "script too short to retrain");
        // Final agreement: the handle equals a fresh oracle over the final
        // truth at every port.
        let truth = handle.snapshot();
        let final_rules: Vec<Rule> = {
            let h = history.lock().unwrap();
            (**h.get(&truth.generation()).unwrap()).clone()
        };
        let oracle = LinearSearch::from_rules(final_rules);
        for port in (0u64..66_000).step_by(61) {
            let key = [0, 0, 0, port, 0];
            prop_assert_eq!(truth.classify(&key), oracle.classify(&key), "port {}", port);
        }
    }
}

/// Readers must keep making progress *during* a retrain — the lock-free
/// acceptance criterion, measured rather than assumed.
#[test]
fn readers_progress_while_retrain_runs() {
    let set = base_set();
    let handle = ClassifierHandle::new(&set, &cfg(), TupleMerge::build).unwrap();
    // Drift some rules so the retrain has real work.
    for i in 0..80u32 {
        handle.apply(&UpdateBatch::new().modify(
            FiveTuple::new().dst_port_range((i * 97) as u16, (i * 97 + 50) as u16).into_rule(i, i),
        ));
    }
    let during = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let join = handle.spawn_retrain();
        let handle2 = handle.clone();
        let during = &during;
        let reader = scope.spawn(move || {
            let key = [0u64, 0, 0, 1_234, 0];
            // Classify as long as the retrain is in flight (or until it was
            // too fast to observe at all).
            loop {
                let _ = handle2.classify(&key);
                during.fetch_add(1, SeqCst);
                if !handle2.retrain_in_progress() {
                    break;
                }
            }
        });
        join.join().unwrap().unwrap();
        reader.join().unwrap();
    });
    assert!(during.load(SeqCst) > 0, "reader made no progress during retrain");
    assert_eq!(handle.retrains_completed(), 1);
}

// ---------------------------------------------------------------------------
// Recycling retired snapshots
// ---------------------------------------------------------------------------

const RECYCLE_RULES: u32 = 150;

fn port_rule(id: u32, lo: u64) -> Rule {
    let lo = (lo % 65_000) as u16;
    FiveTuple::new().dst_port_range(lo, lo + 90).into_rule(id, id)
}

fn recycle_cfg() -> NuevoMatchConfig {
    NuevoMatchConfig { partial_retrain: PartialRetrainPolicy::always(), ..cfg() }
}

fn recycle_set() -> RuleSet {
    let rules = (0..RECYCLE_RULES).map(|i| port_rule(i, u64::from(i) * 400)).collect();
    RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
}

fn whole_handle() -> ClassifierHandle<TupleMerge> {
    ClassifierHandle::new(&recycle_set(), &recycle_cfg(), TupleMerge::build).unwrap()
}

fn sharded_handle() -> ShardedHandle<TupleMerge> {
    let plan = ShardPlanConfig { shards: 2, dim: Some(3), strategy: ShardStrategy::Range };
    ShardedHandle::new(&recycle_set(), &recycle_cfg(), &plan, TupleMerge::build).unwrap()
}

/// `value` must serve exactly `truth` on a sweep of ports.
fn assert_serves(value: &dyn Classifier, truth: &HashMap<u32, Rule>, what: &str) {
    let oracle = LinearSearch::from_rules(truth.values().cloned().collect());
    for port in (0u64..66_000).step_by(263) {
        let key = [0, 0, 0, port, 0];
        assert_eq!(value.classify(&key), oracle.classify(&key), "{what}: port {port}");
    }
}

/// One random batch of 1–4 ops over live, absent and repeated ids; about
/// one in six is a batch of pure misses.
fn random_batch(
    rng: &mut SplitMix64,
    truth: &mut HashMap<u32, Rule>,
    next_id: &mut u32,
) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    if rng.below(6) == 0 {
        for _ in 0..1 + rng.below(2) {
            let id = 50_000 + rng.below(100) as u32;
            batch = batch.remove(id);
        }
        return batch;
    }
    // Draw from a small pool so a batch often names one id twice.
    let pool: Vec<u32> = (0..3).map(|_| rng.below(u64::from(RECYCLE_RULES)) as u32).collect();
    for _ in 0..1 + rng.below(4) {
        let id = pool[rng.below(3) as usize];
        batch = match rng.below(3) {
            0 => {
                truth.remove(&id);
                batch.remove(id)
            }
            1 => {
                let rule = port_rule(*next_id, rng.next_u64());
                *next_id += 1;
                truth.insert(rule.id, rule.clone());
                batch.insert(rule)
            }
            _ => {
                let rule = port_rule(id, rng.next_u64());
                truth.insert(id, rule.clone());
                batch.modify(rule)
            }
        };
    }
    batch
}

/// Random interleavings of applies, partial and full retrains, and pins
/// held across 0–3 publishes, run on one thread so each schedule is exact.
/// Every value a pin holds — including the ones whose retired siblings the
/// writer recycled meanwhile — must serve the rule truth at its own
/// generation. Returns the applies made.
fn recycle_interleavings<P: Published>(handle: &Handle<P>, seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<u32, Rule> =
        recycle_set().rules().iter().map(|r| (r.id, r.clone())).collect();
    let mut history: HashMap<u64, HashMap<u32, Rule>> = HashMap::new();
    history.insert(handle.generation(), truth.clone());
    let mut next_id = 10_000;
    let mut pins: Vec<(Arc<P>, u64)> = Vec::new();
    let mut applies = 0;
    for step in 0..120 {
        let before = handle.generation();
        match rng.below(12) {
            0 => drop(handle.retrain_partial()),
            1 => {
                handle.retrain_full().unwrap();
            }
            2 | 3 => pins.push((handle.snapshot(), rng.below(4))),
            _ => {
                let batch = random_batch(&mut rng, &mut truth, &mut next_id);
                handle.apply(&batch);
                applies += 1;
            }
        }
        let now = handle.generation();
        if now == before {
            assert_eq!(history[&now], truth, "step {step}: truth moved without a publish");
        } else {
            history.insert(now, truth.clone());
            // A publish ages every pin; released pins drop here.
            pins.retain_mut(|(_, left)| {
                *left = left.saturating_sub(1);
                *left > 0
            });
        }
        for (pin, _) in &pins {
            let g = Classifier::generation(&**pin);
            assert_serves(&**pin, &history[&g], &format!("step {step}: pin at generation {g}"));
        }
        assert_serves(&*handle.snapshot(), &truth, &format!("step {step}: live"));
    }
    applies
}

#[test]
fn recycled_applies_stay_generation_exact_under_interleavings() {
    for seed in [1u64, 2, 3] {
        let whole = whole_handle();
        let applies = recycle_interleavings(&whole, seed);
        assert_eq!(whole.recycled_applies() + whole.cloned_applies(), applies);
        assert!(whole.recycled_applies() > 0, "seed {seed}: no apply recycled");
        let sharded = sharded_handle();
        let applies = recycle_interleavings(&sharded, seed);
        assert_eq!(sharded.recycled_applies() + sharded.cloned_applies(), applies);
        assert!(sharded.recycled_applies() > 0, "seed {seed}: no sharded apply recycled");
    }
}

/// With no pins held, all but the first few applies reuse the retired
/// value; a reader still pinning the spare forces one clone and keeps its
/// view; and no apply after a retrain recycles a value from before it.
fn steady_state_recycles<P: Published>(handle: &Handle<P>, drift: impl Fn(&Handle<P>) -> f64) {
    const N: u64 = 40;
    let mut truth: HashMap<u32, Rule> =
        recycle_set().rules().iter().map(|r| (r.id, r.clone())).collect();
    // Each modify moves a rule into the gap after its own slot: no overlap,
    // so a retrain re-admits every moved rule and resets the drift.
    let modify = |i: u64, truth: &mut HashMap<u32, Rule>| {
        let id = i % u64::from(RECYCLE_RULES);
        let rule = port_rule(id as u32, id * 400 + 150 + i % 3 * 60);
        truth.insert(rule.id, rule.clone());
        handle.apply(&UpdateBatch::new().modify(rule));
    };
    for i in 0..N {
        modify(i, &mut truth);
    }
    assert_eq!(handle.recycled_applies() + handle.cloned_applies(), N);
    assert!(
        handle.recycled_applies() >= N - 3,
        "{} of {N} applies recycled",
        handle.recycled_applies()
    );
    // Two publishes after this pin, its value is the spare.
    let pinned = handle.snapshot();
    let pinned_truth = truth.clone();
    modify(N, &mut truth);
    modify(N + 1, &mut truth);
    let cloned = handle.cloned_applies();
    modify(N + 2, &mut truth);
    assert_eq!(handle.cloned_applies(), cloned + 1, "a pinned spare must not be recycled");
    assert_serves(&*pinned, &pinned_truth, "pinned spare");
    assert_serves(&*handle.snapshot(), &truth, "live after the forced clone");
    drop(pinned);
    let recycled = handle.recycled_applies();
    modify(N + 3, &mut truth);
    assert_eq!(handle.recycled_applies(), recycled + 1, "recycling resumes once unpinned");
    assert_serves(&*handle.snapshot(), &truth, "live after recycling resumed");
    // The values retired around a retrain hold the drift it reset; none of
    // them may come back as the base of a later apply.
    let drifted = drift(handle);
    handle.retrain_full().unwrap();
    let reset = drift(handle);
    for i in 1..=6 {
        modify(N + 3 + i, &mut truth);
        let after = drift(handle);
        assert!(
            after <= reset + i as f64 / f64::from(RECYCLE_RULES) && after < drifted / 2.0,
            "drift {drifted}, {reset} after the retrain, {after} after {i} modifies: \
             a pre-retrain value came back"
        );
        assert_serves(&*handle.snapshot(), &truth, "live after the retrain");
    }
}

#[test]
fn steady_state_applies_recycle_and_a_pinned_spare_forces_a_clone() {
    steady_state_recycles(&whole_handle(), |h| h.snapshot().engine().remainder_fraction());
    steady_state_recycles(&sharded_handle(), ShardedHandle::remainder_fraction);
}
