//! The plane/pin pair every batched data path runs on.
//!
//! A batch must classify against **one** pinned generation — that is the
//! coherence contract the response `generation` field advertises, the
//! oracle validator checks, and the worker runtime's checksum equivalence
//! rests on. A pin is whatever "one generation" means for the engine: the
//! `Arc` of the value a live [`Handle`] published (a snapshot, or a
//! [`ShardEpoch`] for the sharded handle), a [`ShardEpoch`] for static
//! shards, a bare reference for an immutable engine (the runtime's
//! replicated mode). The serve front-end classifies whole flushed batches; the
//! [`Runtime`] additionally reads the plane's shard layout
//! ([`ServePlane::shards`], [`ServePlane::mirror`], [`ServePlane::steer`])
//! to spread each batch over worker groups.
//!
//! [`Handle`]: crate::system::handle::Handle
//! [`ShardEpoch`]: crate::system::runtime::ShardEpoch
//! [`Runtime`]: crate::system::runtime::Runtime

use std::sync::Arc;

use nm_common::classifier::{Classifier, MatchResult};
use nm_common::update::Generation;

use crate::system::handle::NmSnapshot;

/// A batched data plane: pins generations and describes how the runtime
/// may split a batch across worker groups. `'static` because the serve
/// front-end moves the plane into its reader threads.
pub trait ServePlane: Send + Sync + 'static {
    /// An owning, immutable view of one published generation.
    type Pin: PinnedPlane;

    /// Pins the currently published generation (never blocks).
    fn pin(&self) -> Self::Pin;

    /// Number of home shards (worker groups).
    fn shards(&self) -> usize {
        1
    }

    /// `true` for stage-parallel plans: every batch is sent whole to every
    /// shard and the per-shard verdicts merge by priority (the two-worker
    /// iSet/remainder split). `false` for data-parallel plans, where each
    /// packet is steered to exactly one shard.
    fn mirror(&self) -> bool {
        false
    }

    /// Steers one packet (`batch` is the batch index — round-robin plans
    /// deal whole batches, content-steered plans ignore it). Unused by
    /// mirrored plans.
    fn steer(&self, _key: &[u64], _batch: usize) -> usize {
        0
    }
}

/// One pinned generation of a [`ServePlane`].
pub trait PinnedPlane: Send {
    /// The generation every verdict from this pin is stamped with.
    fn generation(&self) -> Generation;

    /// Classifies `keys` (flat, `stride` words per key) into `out`.
    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]);

    /// Classifies a gathered sub-batch as shard `shard` sees it — including
    /// any broadcast-shard merge, so the runtime's priority merge over
    /// shards yields final verdicts. Single-shard planes classify the whole
    /// batch.
    fn classify_shard(
        &self,
        _shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        self.classify_batch(keys, stride, out);
    }
}

/// A fixed snapshot is a plane that always pins itself.
impl<R: Classifier + Send + Sync + 'static> ServePlane for Arc<NmSnapshot<R>> {
    type Pin = Self;

    fn pin(&self) -> Self {
        self.clone()
    }
}

impl<R: Classifier> PinnedPlane for Arc<NmSnapshot<R>> {
    fn generation(&self) -> Generation {
        NmSnapshot::generation(self)
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(&**self, keys, stride, out);
    }
}

/// An immutable engine pins as itself; its generation is whatever it
/// reports.
impl PinnedPlane for &dyn Classifier {
    fn generation(&self) -> Generation {
        Classifier::generation(*self)
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(*self, keys, stride, out);
    }
}
