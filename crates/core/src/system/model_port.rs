//! Model-checker port of the system's lock-free publication protocol.
//!
//! Compiled only with `--cfg nm_model`. The structures here are a skeleton
//! of [`super::handle::Handle`]'s pin/generation/publish protocol, with
//! the published value reduced to integers: one stamped payload stands in
//! for a whole-set snapshot, a two-shard vector of stamped payloads for a
//! [`super::runtime::ShardEpoch`] — the real handle publishes either one
//! the same way, with one swap. The *synchronization* is the code under
//! test, and it runs on the exact same [`arc_swap::ArcSwap`] left-right
//! cell the real structures use (which under `nm_model` is built on the
//! model's virtual atomics). The `#[cfg(test)]` half then explores every
//! bounded interleaving of ≥2 readers against 1 writer and asserts the
//! invariants the real system relies on:
//!
//! * **generation monotonicity** — per reader, `generation()` never goes
//!   backwards;
//! * **pin/report coherence** — `generation()` leads, never trails: a pin
//!   taken *after* a generation read reports at least that generation, and
//!   a generation read *after* a pin reports at least the pinned stamp;
//! * **no torn epoch** — a pinned two-shard payload always carries every
//!   shard at the same per-shard generation (one coherent publication);
//! * **reclamation safety** — a pinned snapshot's payload stays intact
//!   while later publishes recycle both left-right slots under it;
//! * **recycling safety** — the writer mutates a retired value only when
//!   no reader can reach it: the payload is a race-checked cell, so a write
//!   any reader could still observe fails the schedule.
//!
//! The protocol skeleton mirrors the real publish path line for line:
//! stamp inside the published value, generation derived from the live
//! value (not a separate mirror), writer serialised by a control mutex,
//! the next value built by recycling the value the last swap retired
//! (`try_unwrap`, replay the log, mutate in place) and cloned from the live
//! value only when a reader still holds that spare.
//!
//! Under `--cfg nm_model_mutate` the writer also writes into a spare it
//! could not unwrap — the seeded recycling bug the
//! `model_mutation_recycles_under_a_reader` teeth test must catch.

use std::sync::Arc;

use arc_swap::ArcSwap;
use nm_model::cell::RaceCell;
use nm_model::sync::Mutex;

/// Generation stamp (mirrors `Generation` in the real system).
pub type Gen = u64;

/// Published-value skeleton: the stamp plus a payload standing in for the
/// models (one engine's, or every shard's).
pub struct ModelSnapshot<P = u64> {
    generation: Gen,
    /// Race-checked: the writer overwrites it when it recycles the value.
    payload: RaceCell<P>,
}

impl<P> ModelSnapshot<P> {
    /// The stamp carried inside the value (the real design's invariant:
    /// one atomic store publishes stamp and payload together).
    pub fn generation(&self) -> Gen {
        self.generation
    }
}

impl ModelSnapshot {
    /// The stand-in for the classifier state.
    pub fn payload(&self) -> u64 {
        self.payload.get()
    }
}

/// A sharded payload: every shard's stamp and state, published together
/// (mirrors `ShardEpoch` over per-shard engines).
pub type ModelShards = Vec<(Gen, u64)>;

impl ModelSnapshot<ModelShards> {
    /// The pinned per-shard generations — coherence tests assert one epoch
    /// always reports an all-equal vector (mirrors
    /// `ShardEpoch::home_generations`).
    pub fn shard_generations(&self) -> Vec<Gen> {
        self.payload.get().iter().map(|&(g, _)| g).collect()
    }

    /// Sum of the pinned payloads (a stand-in for classification against
    /// the epoch: it must read every shard's pinned state).
    pub fn payload_sum(&self) -> u64 {
        self.payload.get().iter().map(|&(_, p)| p).sum()
    }
}

/// The writer's state (mirrors the handle's `Control`): the retired spare
/// and the payloads published since it, oldest first.
struct Writer<P> {
    spare: Option<Arc<ModelSnapshot<P>>>,
    log: Vec<(Gen, P)>,
    recycled: u64,
}

impl<P: Clone> Writer<P> {
    /// Takes the spare back when the log leads from it to `live` and no
    /// reader holds it, and replays the log onto it in place (mirrors
    /// `Control::reclaim`).
    fn reclaim(&mut self, live: Gen) -> Option<ModelSnapshot<P>> {
        let spare = self.spare.take()?;
        if !self.log.iter().map(|(g, _)| *g).eq(spare.generation() + 1..=live) {
            return None;
        }
        let spare = match Arc::try_unwrap(spare) {
            Ok(spare) => spare,
            Err(_shared) => {
                // The seeded bug: recycle a value a reader still holds.
                #[cfg(nm_model_mutate)]
                if let Some((_, payload)) = self.log.last() {
                    _shared.payload.set(payload.clone());
                }
                return None;
            }
        };
        for (_, payload) in &self.log {
            spare.payload.set(payload.clone());
        }
        Some(spare)
    }
}

/// Skeleton of `Handle`: a left-right cell of stamped values plus the
/// writer-serialising control mutex.
pub struct ModelHandle<P = u64> {
    live: ArcSwap<ModelSnapshot<P>>,
    ctl: Mutex<Writer<P>>,
}

impl<P: Clone> ModelHandle<P> {
    fn with_payload(payload: P) -> Self {
        Self {
            live: ArcSwap::new(Arc::new(ModelSnapshot {
                generation: 1,
                payload: RaceCell::new(payload),
            })),
            ctl: Mutex::new(Writer { spare: None, log: Vec::new(), recycled: 0 }),
        }
    }

    /// Pins the current value (mirrors `Handle::snapshot`).
    pub fn snapshot(&self) -> Arc<ModelSnapshot<P>> {
        self.live.load_full()
    }

    /// The published generation, derived from the live value itself
    /// (mirrors `Handle::generation` — no separate mirror atomic that could
    /// under-report).
    pub fn generation(&self) -> Gen {
        self.live.load().generation()
    }

    /// Publishes built on a recycled spare (mirrors
    /// `Handle::recycled_applies`).
    pub fn recycled(&self) -> u64 {
        self.ctl.lock().recycled
    }

    /// Publishes `next(live payload, next stamp)` as the next generation
    /// under the writer lock (mirrors `Handle::apply`: recycle the spare or
    /// clone the live value, one swap, keep what it retires). Returns the
    /// new stamp.
    fn publish_with(&self, next: impl FnOnce(&P, Gen) -> P) -> Gen {
        let mut ctl = self.ctl.lock();
        let live = self.live.load();
        let generation = live.generation() + 1;
        let payload = next(&live.payload.get(), generation);
        let value = match ctl.reclaim(live.generation()) {
            Some(mut value) => {
                ctl.recycled += 1;
                value.generation = generation;
                value.payload.set(payload.clone());
                value
            }
            None => ModelSnapshot { generation, payload: RaceCell::new(payload.clone()) },
        };
        ctl.log.push((generation, payload));
        let retired = self.live.swap(Arc::new(value));
        let from = retired.generation();
        ctl.log.retain(|(g, _)| *g > from);
        ctl.spare = Some(retired);
        generation
    }
}

impl ModelHandle {
    /// New handle at generation 1 holding `payload`.
    pub fn new(payload: u64) -> Self {
        Self::with_payload(payload)
    }

    /// Publishes `payload` as the next generation. Returns the new stamp.
    pub fn publish(&self, payload: u64) -> Gen {
        self.publish_with(|_, _| payload)
    }
}

impl ModelHandle<ModelShards> {
    /// `shards` shards holding `payload`, all at generation 1 (mirrors
    /// `ShardedHandle::new`).
    pub fn sharded(shards: usize, payload: u64) -> Self {
        Self::with_payload(vec![(1, payload); shards])
    }

    /// Pins the current epoch (mirrors `ShardedHandle::epoch`).
    pub fn epoch(&self) -> Arc<ModelSnapshot<ModelShards>> {
        self.snapshot()
    }

    /// Writes `payload` to every shard and publishes the shards together as
    /// the next generation — one swap, like every real publish.
    pub fn apply_all(&self, payload: u64) -> Gen {
        self.publish_with(|shards, generation| vec![(generation, payload); shards.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::thread;

    /// Pin/publish under 2 readers + 1 writer: per-reader monotonicity and
    /// the "generation leads, never trails" coherence both ways.
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_handle_generation_leads_never_trails() {
        let out = nm_model::check("handle pin/publish", || {
            let h = Arc::new(ModelHandle::new(100));
            let mut readers = Vec::new();
            for _ in 0..2 {
                let h = Arc::clone(&h);
                readers.push(thread::spawn(move || {
                    // Pin first, then read the reported generation: the
                    // report must be at least the pinned stamp.
                    let snap = h.snapshot();
                    let g1 = h.generation();
                    assert!(
                        g1 >= snap.generation(),
                        "generation() trailed a pinned snapshot: {g1} < {}",
                        snap.generation()
                    );
                    // Read the generation, then pin: the pin must carry at
                    // least the reported stamp.
                    let g2 = h.generation();
                    assert!(g2 >= g1, "reader generation went backwards: {g1} -> {g2}");
                    let snap2 = h.snapshot();
                    assert!(
                        snap2.generation() >= g2,
                        "a pin trailed generation(): {} < {g2}",
                        snap2.generation()
                    );
                    // Stamp and payload publish atomically together.
                    assert_eq!(snap2.payload(), 99 + snap2.generation());
                }));
            }
            let writer = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    // Payload keyed to the stamp so readers can verify the
                    // two were published by one store.
                    h.publish(101);
                    h.publish(102);
                })
            };
            for r in readers {
                r.join();
            }
            writer.join();
            assert_eq!(h.generation(), 3);
        });
        assert!(out.schedules > 1, "exploration degenerated to one schedule");
    }

    /// Cross-shard publication under 2 readers + 1 writer: a pinned epoch
    /// is never torn (all shards at one generation) and epoch generations
    /// are per-reader monotone.
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_shard_epoch_is_never_torn() {
        nm_model::check("sharded epoch publish", || {
            let h = Arc::new(ModelHandle::sharded(2, 10));
            let mut readers = Vec::new();
            for _ in 0..2 {
                let h = Arc::clone(&h);
                readers.push(thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..2 {
                        let epoch = h.epoch();
                        let gens = epoch.shard_generations();
                        assert!(
                            gens.iter().all(|&g| g == gens[0]),
                            "torn epoch: shards at mixed generations {gens:?}"
                        );
                        let g = epoch.generation();
                        assert!(g >= last, "epoch generation went backwards: {last} -> {g}");
                        last = g;
                        // Classification against the pin reads a coherent
                        // cross-shard payload: both shards from the same
                        // publication.
                        assert_eq!(epoch.payload_sum(), 2 * (9 + gens[0]));
                    }
                }));
            }
            let writer = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    h.apply_all(11);
                })
            };
            for r in readers {
                r.join();
            }
            writer.join();
            assert_eq!(h.generation(), 2);
            assert_eq!(h.epoch().shard_generations(), vec![2, 2]);
        });
    }

    /// A snapshot pinned before the writer starts, read by another thread
    /// while three publishes cycle both left-right slots beneath it and try
    /// to recycle it.
    fn pinned_reader_against_three_publishes() {
        let h = Arc::new(ModelHandle::new(7));
        let pinned = h.snapshot();
        let writer = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for payload in 8..11 {
                    h.publish(payload);
                }
            })
        };
        let reader = {
            let pinned = Arc::clone(&pinned);
            thread::spawn(move || {
                for _ in 0..2 {
                    assert_eq!(pinned.payload(), 7, "pinned payload changed under the reader");
                }
                assert_eq!(pinned.generation(), 1);
            })
        };
        reader.join();
        writer.join();
        assert_eq!(pinned.payload(), 7);
        assert_eq!(h.snapshot().payload(), 10);
    }

    /// Reclamation safety of the two-slot swap: a pinned snapshot's payload
    /// survives while later publishes recycle both slots beneath it, and
    /// the writer never recycles the pinned value itself.
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_pinned_snapshot_outlives_slot_recycling() {
        nm_model::check("pinned snapshot reclamation", pinned_reader_against_three_publishes);
    }

    /// One reader pinning, re-reading and re-pinning while the writer
    /// publishes three times — the third publish is the first that can
    /// recycle. The reader's pinned payload must never change under it, and
    /// a pin of the recycled value must see its new contents whole.
    #[cfg(not(nm_model_mutate))]
    fn reader_against_recycling() -> bool {
        let h = Arc::new(ModelHandle::new(100));
        let reader = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for _ in 0..2 {
                    let snap = h.snapshot();
                    let first = snap.payload();
                    assert_eq!(first, 99 + snap.generation(), "stamp and payload disagree");
                    assert_eq!(snap.payload(), first, "payload changed under a pin");
                }
            })
        };
        for payload in 101..104 {
            h.publish(payload);
        }
        reader.join();
        assert_eq!((h.generation(), h.snapshot().payload()), (4, 103));
        h.recycled() > 0
    }

    /// Recycling never writes a value a reader holds, and the checker
    /// reaches both outcomes of the third publish: the reader had let the
    /// spare go (recycled) or still held it (cloned).
    #[cfg(not(nm_model_mutate))]
    #[test]
    fn model_recycled_value_is_never_mutated_under_a_reader() {
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        static OUTCOMES: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
        nm_model::check("handle recycling", || {
            OUTCOMES[usize::from(reader_against_recycling())].fetch_add(1, SeqCst);
        });
        assert!(OUTCOMES[0].load(SeqCst) > 0, "no schedule held the spare");
        assert!(OUTCOMES[1].load(SeqCst) > 0, "no schedule recycled");
    }

    /// The seeded recycling bug (`--cfg nm_model_mutate` writes into a
    /// spare a reader still holds) must surface as a data race. The reader
    /// pinned before the writer started, so the weakened flip seeded
    /// alongside cannot be what the checker finds here.
    #[cfg(nm_model_mutate)]
    #[test]
    fn model_mutation_recycles_under_a_reader() {
        let v = nm_model::find_violation(pinned_reader_against_three_publishes)
            .expect("writing a held spare must surface as a model violation");
        assert!(v.message.contains("data race"), "unexpected violation kind: {}", v.message);
    }

    /// With the seeded arc-swap mutation (`--cfg nm_model_mutate`), the
    /// ported handle protocol must also surface a violation — the weakened
    /// flip breaks exactly the pin/publish publication the port models.
    #[cfg(nm_model_mutate)]
    #[test]
    fn model_mutation_breaks_handle_publication() {
        let v = nm_model::find_violation(|| {
            let h = Arc::new(ModelHandle::new(100));
            let reader = {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    let snap = h.snapshot();
                    assert!(snap.generation() >= 1);
                })
            };
            h.publish(101);
            reader.join();
        })
        .expect("the Relaxed current-flip must surface through the handle port");
        assert!(v.message.contains("data race"), "unexpected violation kind: {}", v.message);
    }
}
