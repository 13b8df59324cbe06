//! [`RaceCell`]: a shared non-atomic storage cell with data-race detection.
//!
//! Models the `UnsafeCell` slots of the lock-free protocols under test. A
//! read must be uniquely determined by the reader's synchronization state:
//! if the reader's coherence floor for the cell is below its latest store —
//! i.e. no acquire edge ordered the last write before this read — more than
//! one store is observable and the run fails as a data race. That check is
//! what catches unsynchronized reclamation (reading a slot a writer may
//! have already overwritten) without any actual undefined behavior.

use std::sync::{Mutex, PoisonError};

use crate::scheduler::StepResult;
use crate::{ctx, Ctx};

/// A shared mutable cell accessed without atomics, like `UnsafeCell`, but
/// safe: under exploration every access is checked for races; outside it
/// the cell is just a mutex-protected value.
pub struct RaceCell<T> {
    /// Store history for the current run; indices align with the
    /// scheduler's history for the registered location. Only the last
    /// element holds its value: a read that could observe an earlier store
    /// fails the schedule instead of returning it, so superseded values are
    /// dropped when they are overwritten, as in a real cell (an `Arc` kept
    /// alive here would make the model's reference counts differ from the
    /// real build's).
    vals: Mutex<Vec<Option<T>>>,
    key: std::sync::atomic::AtomicU64,
}

/// Appends the store `v`, dropping the value it supersedes.
fn push<T>(vals: &mut Vec<Option<T>>, v: T) {
    if let Some(last) = vals.last_mut() {
        *last = None;
    }
    vals.push(Some(v));
}

impl<T: Clone> RaceCell<T> {
    /// Creates the cell holding `v`.
    pub fn new(v: T) -> Self {
        Self { vals: Mutex::new(vec![Some(v)]), key: std::sync::atomic::AtomicU64::new(0) }
    }

    fn vals(&self) -> std::sync::MutexGuard<'_, Vec<Option<T>>> {
        self.vals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value of store `idx`, which must be the latest.
    fn value(vals: &[Option<T>], idx: usize) -> T {
        vals[idx].clone().expect("only the latest store is ever read")
    }

    /// Registers (or re-registers, on a new run) the cell with the
    /// scheduler, truncating history to the live value.
    fn loc(&self, c: &Ctx) -> usize {
        use std::sync::atomic::Ordering::SeqCst;
        let k = self.key.load(SeqCst);
        if k >> 32 == c.sched.uid && (k & 0xffff_ffff) != 0 {
            return (k & 0xffff_ffff) as usize - 1;
        }
        let mut vals = self.vals();
        let keep = vals.len() - 1;
        vals.drain(..keep);
        let loc = c.sched.with_state(|g| g.register_loc(0));
        self.key.store(c.sched.uid << 32 | (loc as u64 + 1), SeqCst);
        loc
    }

    /// Reads the cell. Fails the schedule if the read is unsynchronized
    /// (more than one store is observable).
    pub fn get(&self) -> T {
        match ctx() {
            None => {
                let vals = self.vals();
                Self::value(&vals, vals.len() - 1)
            }
            Some(c) => {
                let loc = self.loc(&c);
                let idx = c.sched.step(
                    c.tid,
                    false,
                    |i| format!("cell read #{i}"),
                    |g, me| match g.cell_read(me, loc) {
                        Ok(idx) => StepResult::Ready(idx),
                        Err(msg) => StepResult::Violation(msg),
                    },
                );
                Self::value(&self.vals(), idx)
            }
        }
    }

    /// Writes the cell (non-atomic store: observable only through a later
    /// acquire edge).
    pub fn set(&self, v: T) {
        match ctx() {
            None => *self.vals() = vec![Some(v)],
            Some(c) => {
                let loc = self.loc(&c);
                let idx = c.sched.step(
                    c.tid,
                    false,
                    |i| format!("cell write #{i}"),
                    |g, me| StepResult::Ready(g.cell_write(me, loc)),
                );
                let mut vals = self.vals();
                debug_assert_eq!(vals.len(), idx);
                push(&mut vals, v);
            }
        }
    }

    /// Writes the cell and returns the previous value, as one un-preempted
    /// operation (the single-threaded read side still race-checks).
    pub fn replace(&self, v: T) -> T {
        match ctx() {
            None => {
                let mut vals = self.vals();
                let old = vals.pop().flatten().expect("cell is never empty");
                *vals = vec![Some(v)];
                old
            }
            Some(c) => {
                let loc = self.loc(&c);
                let (old_idx, new_idx) = c.sched.step(
                    c.tid,
                    false,
                    |(o, n)| format!("cell replace #{o} -> #{n}"),
                    |g, me| match g.cell_read(me, loc) {
                        Ok(old) => StepResult::Ready((old, g.cell_write(me, loc))),
                        Err(msg) => StepResult::Violation(msg),
                    },
                );
                let mut vals = self.vals();
                debug_assert_eq!(vals.len(), new_idx);
                let old = vals[old_idx].take().expect("only the latest store is ever read");
                vals.push(Some(v));
                old
            }
        }
    }
}
