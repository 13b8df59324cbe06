//! The traced in-process run: each layer's public entry point timed from
//! the benchmark on its own pass over fresh keys.
//!
//! Timing two stages back to back on one batch overcounts (the first
//! stage warms the second's cache lines), so every stage gets its own
//! blocks of the trace, round-robin, and the stage sum is compared with
//! the untraced `classify_batch` cost of the same kind of block.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nm_common::TraceBuf;
use nm_common::{Classifier, MatchResult, Priority};
use nuevomatch::CompiledRqRmi;

use crate::inproc::{median, Snap};
use crate::serve::Handle;

/// Keys per stage pass.
const BLOCK: usize = 4_096;
/// Keys per `classify_isets_batch` / remainder call: the batch size the
/// pipeline itself uses.
const BATCH: usize = 128;

/// Per-layer in-process costs.
#[derive(Debug)]
pub struct Stages {
    pub predict_ns_per_key: f64,
    pub search_window_mean: f64,
    pub iset_ns_per_key: f64,
    pub candidate_share: f64,
    pub coverage: f64,
    pub remainder_ns_per_key: f64,
    pub remainder_win_share: f64,
    pub b1_ns_per_key: f64,
    pub b8_ns_per_key: f64,
    pub b128_ns_per_key: f64,
    pub snapshot_ns: f64,
}

impl Stages {
    /// Untraced batch-128 cost not covered by the iSet and remainder
    /// stages (negative when the stage sum overcounts).
    pub fn unaccounted_ns_per_key(&self) -> f64 {
        self.b128_ns_per_key - (self.iset_ns_per_key + self.remainder_ns_per_key)
    }

    pub fn unaccounted_share(&self) -> f64 {
        self.unaccounted_ns_per_key() / self.b128_ns_per_key
    }
}

/// Stage passes in one round.
const STAGES: usize = 6;

/// Times every stage within `budget`.
pub fn measure(handle: &Handle, snap: &Snap, trace: &TraceBuf, budget: Duration) -> Stages {
    let nm = snap.engine();
    let (raw, stride) = (trace.raw(), trace.stride());
    let block = BLOCK.min(trace.len());
    let blocks = trace.len() / block;
    let models: Vec<(usize, usize, CompiledRqRmi)> =
        nm.isets().iter().map(|s| (s.dim(), s.len(), CompiledRqRmi::new(s.model()))).collect();

    let mut samples: [Vec<f64>; STAGES] = Default::default();
    let (mut windows, mut predicted) = (0u64, 0u64);
    let (mut candidates, mut iset_keys) = (0u64, 0u64);
    let (mut rem_wins, mut matched) = (0u64, 0u64);
    let mut vals = vec![0u64; block];
    let (mut preds, mut errs) = (vec![0usize; block], vec![0u32; block]);
    let mut cand = vec![None; block];
    let mut rem: Vec<Option<MatchResult>> = vec![None; block];
    let mut floors: Vec<Priority> = vec![Priority::MAX; block];
    let mut out = vec![None; block];

    let end = Instant::now() + budget;
    let mut round = 0usize;
    while round < 2 || Instant::now() < end {
        for (stage, sample) in samples.iter_mut().enumerate() {
            let b = (round * STAGES + stage) % blocks;
            let keys = &raw[b * block * stride..(b + 1) * block * stride];
            let ns = match stage {
                // RQ-RMI inference on each iSet's field projection.
                0 => {
                    let mut ns = 0u128;
                    for (dim, len, model) in &models {
                        for (v, k) in vals.iter_mut().zip(keys.chunks(stride)) {
                            *v = k[*dim];
                        }
                        let t = Instant::now();
                        model.predict_batch(black_box(&vals), &mut preds, &mut errs);
                        ns += t.elapsed().as_nanos();
                        for (&p, &e) in preds.iter().zip(&errs) {
                            let lo = p.saturating_sub(e as usize);
                            let hi = (p + e as usize).min(len.saturating_sub(1));
                            windows += (hi + 1).saturating_sub(lo) as u64;
                        }
                        predicted += block as u64;
                    }
                    ns
                }
                // The whole iSet pipeline: predict, search, validate.
                1 => {
                    let t = Instant::now();
                    for (k, o) in keys.chunks(BATCH * stride).zip(cand.chunks_mut(BATCH)) {
                        nm.classify_isets_batch(black_box(k), stride, o);
                    }
                    let ns = t.elapsed().as_nanos();
                    candidates += cand.iter().filter(|c| c.is_some()).count() as u64;
                    iset_keys += block as u64;
                    ns
                }
                // The remainder with the iSet candidates as floors (the
                // floors are computed untimed first).
                2 => {
                    for (k, o) in keys.chunks(BATCH * stride).zip(cand.chunks_mut(BATCH)) {
                        nm.classify_isets_batch(k, stride, o);
                    }
                    for (f, c) in floors.iter_mut().zip(&cand) {
                        *f = c.map_or(Priority::MAX, |m| m.priority);
                    }
                    let t = Instant::now();
                    for ((k, f), o) in keys
                        .chunks(BATCH * stride)
                        .zip(floors.chunks(BATCH))
                        .zip(rem.chunks_mut(BATCH))
                    {
                        nm.remainder().classify_batch_with_floors(black_box(k), stride, f, o);
                    }
                    let ns = t.elapsed().as_nanos();
                    for (r, c) in rem.iter().zip(&cand) {
                        matched += u64::from(r.is_some() || c.is_some());
                        rem_wins += u64::from(r.is_some());
                    }
                    ns
                }
                // The whole classifier at batch 1, 8 and 128.
                _ => {
                    let batch = [1, 8, 128][stage - 3];
                    let c: &dyn Classifier = &**snap;
                    let t = Instant::now();
                    for (k, o) in keys.chunks(batch * stride).zip(out.chunks_mut(batch)) {
                        c.classify_batch(black_box(k), stride, o);
                    }
                    t.elapsed().as_nanos()
                }
            };
            sample.push(ns as f64 / block as f64);
        }
        round += 1;
    }

    // The reader-side pin: one `snapshot()` per served micro-batch.
    let pins = 200_000;
    let t = Instant::now();
    for _ in 0..pins {
        black_box(handle.snapshot());
    }
    let snapshot_ns = t.elapsed().as_nanos() as f64 / pins as f64;

    Stages {
        predict_ns_per_key: median(&samples[0]),
        search_window_mean: windows as f64 / predicted.max(1) as f64,
        iset_ns_per_key: median(&samples[1]),
        candidate_share: candidates as f64 / iset_keys.max(1) as f64,
        coverage: nm.coverage(),
        remainder_ns_per_key: median(&samples[2]),
        remainder_win_share: rem_wins as f64 / matched.max(1) as f64,
        b1_ns_per_key: median(&samples[3]),
        b8_ns_per_key: median(&samples[4]),
        b128_ns_per_key: median(&samples[5]),
        snapshot_ns,
    }
}
