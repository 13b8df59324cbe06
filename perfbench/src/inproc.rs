//! In-process lookup: the correctness gate over the whole trace and the
//! untraced throughput figures (batch 128, batch 1, and the sharded
//! runtime), which the run record carries.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nm_common::{Classifier, LinearSearch, MatchResult, RuleSet, SplitMix64, TraceBuf};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::parallel::run_sequential;
use nuevomatch::{NmSnapshot, RunStats, Runtime, RuntimeConfig, ShardedHandle};

use crate::gate::{compare, Tally};

pub type Snap = Arc<NmSnapshot<TupleMerge>>;

/// Keys per timed block of the batch-128 measurement.
const BLOCK: usize = 2_048;
/// Keys per timed block of the batch-1 measurement.
const BLOCK_B1: usize = 512;
/// Keys a sharded run classifies.
const SHARDED_KEYS: usize = 32_768;
/// Keys checked against `LinearSearch`.
const LINEAR_SAMPLE: usize = 1_000;

/// The `p`-quantile of `v`, linearly interpolated (0 when empty).
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Verdicts of `classify_batch` over `keys` (`stride` words each) in
/// batches of `batch`.
pub fn batched(
    c: &dyn Classifier,
    keys: &[u64],
    stride: usize,
    batch: usize,
) -> Vec<Option<MatchResult>> {
    let mut out = vec![None; keys.len() / stride];
    for (k, o) in keys.chunks(batch * stride).zip(out.chunks_mut(batch)) {
        c.classify_batch(k, stride, o);
    }
    out
}

/// The in-process gate. Batch-128 verdicts must equal per-key `classify`
/// on every key of the trace, batch-1 verdicts on a prefix, and per-key
/// verdicts must equal `LinearSearch` on a seeded sample. Returns the tally
/// and the per-key verdicts, which become the served keys' expectations.
///
/// `inject_wrong` corrupts one expected verdict first, to show the gate
/// fails when it should.
pub fn gate(
    snap: &Snap,
    set: &RuleSet,
    trace: &TraceBuf,
    seed: u64,
    inject_wrong: bool,
) -> (Tally, Vec<Option<MatchResult>>) {
    let c: &dyn Classifier = &**snap;
    let mut expected: Vec<Option<MatchResult>> = trace.iter().map(|k| c.classify(k)).collect();
    if inject_wrong {
        let i = expected.len() / 2;
        expected[i] = match expected[i] {
            Some(m) => Some(MatchResult::new(m.rule.wrapping_add(1), m.priority)),
            None => Some(MatchResult::new(0, 0)),
        };
    }
    let (raw, stride) = (trace.raw(), trace.stride());
    let mut tally = compare(&batched(c, raw, stride, 128), &expected);
    let b1_keys = trace.len().min(8_192);
    tally.add(&compare(&batched(c, &raw[..b1_keys * stride], stride, 1), &expected[..b1_keys]));

    let linear = LinearSearch::build(set);
    let mut rng = SplitMix64::new(seed ^ 0x11ea_5ea5);
    let sample: Vec<usize> = (0..LINEAR_SAMPLE.min(trace.len()))
        .map(|_| rng.below(trace.len() as u64) as usize)
        .collect();
    let want: Vec<_> = sample.iter().map(|&i| linear.classify(trace.key(i))).collect();
    let got: Vec<_> = sample.iter().map(|&i| expected[i]).collect();
    tally.add(&compare(&got, &want));
    (tally, expected)
}

/// Untraced in-process throughput.
pub struct Lookup {
    pub lookup_mpps: f64,
    pub lookup_b1_mpps: f64,
    pub sharded_mpps: f64,
    pub index_bytes: usize,
    pub runs: Vec<RunStats>,
    pub tally: Tally,
}

/// Median Mpps over timed blocks of `block` keys at batch `batch` (a block
/// the host stole time from is an outlier, not a trend), cycling through
/// the trace until `budget` is spent.
fn block_rate(snap: &Snap, trace: &TraceBuf, block: usize, batch: usize, budget: Duration) -> f64 {
    let c: &dyn Classifier = &**snap;
    let (raw, stride) = (trace.raw(), trace.stride());
    let block = block.min(trace.len());
    let blocks = trace.len() / block;
    let mut out = vec![None; batch];
    let mut rates = Vec::new();
    let end = Instant::now() + budget;
    while rates.len() < 3 || Instant::now() < end {
        let b = rates.len() % blocks;
        let keys = &raw[b * block * stride..(b + 1) * block * stride];
        let t = Instant::now();
        for k in keys.chunks(batch * stride) {
            c.classify_batch(black_box(k), stride, &mut out[..k.len() / stride]);
            black_box(&out);
        }
        rates.push(block as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    median(&rates)
}

/// The first `n` keys of `trace` as a trace of their own.
pub fn prefix(trace: &TraceBuf, n: usize) -> TraceBuf {
    let mut sub = TraceBuf::with_capacity(trace.stride(), n.min(trace.len()));
    for k in trace.iter().take(n) {
        sub.push(k);
    }
    sub
}

/// `Runtime::run` over a 2-shard handle, repeated until `budget` is spent.
/// Every run's checksum must equal the sequential reference's.
pub fn sharded_runs(
    snap: &Snap,
    sharded: &ShardedHandle<TupleMerge>,
    trace: &TraceBuf,
    budget: Duration,
) -> Result<(Vec<RunStats>, Tally), String> {
    let sub = prefix(trace, SHARDED_KEYS);
    let reference = run_sequential(&**snap, &sub).checksum;
    let runtime = Runtime::new(RuntimeConfig::default());
    let mut runs = Vec::new();
    let mut tally = Tally::default();
    let end = Instant::now() + budget;
    while runs.len() < 3 || Instant::now() < end {
        let stats = runtime.run(sharded, &sub).map_err(|e| format!("sharded run: {e}"))?;
        tally.attempted += 1;
        tally.wrong += u64::from(stats.checksum != reference);
        runs.push(stats);
    }
    Ok((runs, tally))
}

/// Measures the untraced in-process throughput within `budget`.
pub fn measure(
    snap: &Snap,
    sharded: &ShardedHandle<TupleMerge>,
    trace: &TraceBuf,
    budget: Duration,
) -> Result<Lookup, String> {
    let lookup_mpps = block_rate(snap, trace, BLOCK, 128, budget.mul_f64(0.35));
    let lookup_b1_mpps = block_rate(snap, trace, BLOCK_B1, 1, budget.mul_f64(0.2));
    let (runs, tally) = sharded_runs(snap, sharded, trace, budget.mul_f64(0.45))?;
    // Two workers wait on whichever CPU the host stole from last, so the
    // host only ever slows a run down: report the quiet runs' rate, the
    // 90th percentile over runs.
    let rates: Vec<f64> = runs.iter().map(|r| r.pps / 1e6).collect();
    Ok(Lookup {
        lookup_mpps,
        lookup_b1_mpps,
        sharded_mpps: quantile(&rates, 0.9),
        index_bytes: snap.memory_bytes(),
        runs,
        tally,
    })
}
