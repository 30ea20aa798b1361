//! Intra-query parallelism: scoped-worker infrastructure for GApply's
//! per-group execution phase.
//!
//! The paper's §3 definition of GApply — `⋃_c {c} × PGQ(σ_{C=c} RE1)` —
//! is a union of *independent* per-group computations, which makes the
//! execution phase embarrassingly parallel. This module provides the
//! pieces [`GApplyOp`](crate::ops::GApplyOp) uses to exploit that:
//!
//! * [`TaskCursor`] — a lock-free work-stealing chunk dispenser: workers
//!   claim contiguous ranges of task indices with a single atomic
//!   fetch-add, so skewed tasks self-balance without a scheduler;
//! * [`run_scoped`] — runs a set of worker closures on scoped threads
//!   (`std::thread::scope`, so no `'static` bound and no external
//!   dependencies), executing the first worker inline on the calling
//!   thread, converting worker panics into `Err` via `catch_unwind`, and
//!   returning per-worker results in worker order so error selection
//!   stays deterministic.
//!
//! Determinism contract: parallelism never changes *what* is computed or
//! the order results are merged in. Workers buffer per-group output and
//! the merge step reassembles it in the exact group order the serial
//! path produces (first-seen for hash partitioning, key order for sort),
//! so result rows — and the XML documents tagged from them — are
//! byte-identical at any degree of parallelism. Only wall-clock time and
//! batch boundaries may differ.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use xmlpub_common::{Error, Result};

/// A work-stealing chunk dispenser over task indices `0..count`.
///
/// Every worker loops on [`claim`](Self::claim) until it returns `None`;
/// a worker hitting an error calls [`abort`](Self::abort) so its
/// siblings stop claiming new work instead of running to completion.
///
/// # Memory ordering
///
/// Two atomics with two distinct jobs:
///
/// * `next` — the dispensing counter. Exactly-once dispensing needs
///   only the *atomicity* of the `fetch_add`: RMWs on one location form
///   a single modification order, so two claims can never observe the
///   same start index, at any ordering. The `AcqRel` on the RMW is
///   about the surrounding protocol, not uniqueness: it keeps each
///   claim from being reordered with the claiming worker's subsequent
///   writes to its per-task output slots, so "claimed range r" reliably
///   happens-before "filled r's results" on every worker.
/// * `aborted` — a message-passing flag. [`abort`](Self::abort) stores
///   with `Release` *after* the aborting worker has recorded its error;
///   [`claim`](Self::claim) loads with `Acquire` *before* deciding to
///   hand out more work. A sibling that observes `true` therefore also
///   observes everything the aborting worker wrote first. The flag is
///   best-effort by design: a claim that raced ahead of the store still
///   completes its chunk — cancellation here trims wasted work, it is
///   not a correctness boundary.
///
/// The protocol invariants (no index dispensed twice, no claim after an
/// observed abort, every range within `0..count`) are checked under
/// every possible 2-thread schedule in `exhaustive_two_thread_interleavings`.
pub(crate) struct TaskCursor {
    next: AtomicUsize,
    count: usize,
    chunk: usize,
    aborted: AtomicBool,
}

impl TaskCursor {
    /// A cursor over `count` tasks handed out `chunk` at a time.
    pub fn new(count: usize, chunk: usize) -> Self {
        TaskCursor {
            next: AtomicUsize::new(0),
            count,
            chunk: chunk.max(1),
            aborted: AtomicBool::new(false),
        }
    }

    /// The chunk size that balances steal traffic against skew for
    /// `count` tasks on `workers` threads: ~4 claims per worker.
    pub fn balanced_chunk(count: usize, workers: usize) -> usize {
        (count / (workers.max(1) * 4)).max(1)
    }

    /// Claim the next chunk of task indices, or `None` when the tasks
    /// are exhausted or a sibling aborted.
    pub fn claim(&self) -> Option<Range<usize>> {
        if self.aborted.load(Ordering::Acquire) {
            return None;
        }
        let start = self.next.fetch_add(self.chunk, Ordering::AcqRel);
        if start >= self.count {
            return None;
        }
        Some(start..(start + self.chunk).min(self.count))
    }

    /// Stop siblings from claiming further chunks (best-effort: a chunk
    /// already claimed still finishes or errors on its own).
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }
}

/// Run worker closures on scoped threads and collect their results in
/// worker order.
///
/// The first worker runs inline on the calling thread (a `dop`-worker
/// plan spawns `dop - 1` threads). A panicking worker is converted to an
/// `Err` carrying the panic message — the panic is contained by
/// `catch_unwind` inside the worker thread itself, so no thread dies
/// unjoined and `std::thread::scope` never re-raises. `AssertUnwindSafe`
/// is sound here because a worker that panics has its entire output
/// discarded: nothing outside the closure observes torn state.
pub(crate) fn run_scoped<R, F>(workers: Vec<F>) -> Vec<Result<R>>
where
    R: Send,
    F: FnOnce() -> Result<R> + Send,
{
    let n = workers.len();
    let mut results: Vec<Option<Result<R>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|s| {
        let mut workers = workers.into_iter();
        let first = workers.next();
        let handles: Vec<_> = workers.map(|w| s.spawn(move || contain_panic(w))).collect();
        if let Some(w) = first {
            results[0] = Some(contain_panic(w));
        }
        for (slot, handle) in results.iter_mut().skip(1).zip(handles) {
            *slot = Some(handle.join().unwrap_or_else(|_| {
                Err(Error::exec("parallel worker died before reporting a result"))
            }));
        }
    });
    results.into_iter().map(|r| r.expect("every worker slot filled")).collect()
}

fn contain_panic<R>(work: impl FnOnce() -> Result<R>) -> Result<R> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(Error::exec(format!("parallel worker panicked: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn cursor_hands_out_every_task_exactly_once() {
        let cursor = TaskCursor::new(103, 7);
        let seen = Mutex::new(HashSet::new());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let cursor = &cursor;
                let seen = &seen;
                move || {
                    while let Some(range) = cursor.claim() {
                        let mut seen = seen.lock().unwrap();
                        for i in range {
                            assert!(seen.insert(i), "task {i} dispensed twice");
                        }
                    }
                    Ok(())
                }
            })
            .collect();
        for r in run_scoped(workers) {
            r.unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), 103);
    }

    #[test]
    fn abort_stops_further_claims() {
        let cursor = TaskCursor::new(100, 1);
        assert!(cursor.claim().is_some());
        cursor.abort();
        assert!(cursor.claim().is_none());
    }

    /// One step of a worker's program against the cursor.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Claim,
        Abort,
    }

    /// Enumerate every interleaving of two straight-line programs (each
    /// a sequence of [`Step`]s) and run each schedule against a fresh
    /// cursor, checking the dispenser's protocol invariants after every
    /// step. The steps execute sequentially — the enumeration covers
    /// every *schedule* two threads could take through the protocol,
    /// which is exactly the state space of this lock-free algorithm:
    /// each step is a single atomic op, so a real 2-thread execution is
    /// always equivalent to one of these sequentialisations.
    fn check_all_interleavings(count: usize, chunk: usize, a: &[Step], b: &[Step]) {
        // A schedule is a bitmask over a.len()+b.len() slots choosing
        // which program supplies each next step.
        let (na, nb) = (a.len(), b.len());
        let total = na + nb;
        let mut schedules = 0u32;
        for mask in 0..(1u32 << total) {
            if (mask.count_ones() as usize) != na {
                continue;
            }
            schedules += 1;
            let cursor = TaskCursor::new(count, chunk);
            let mut dispensed = HashSet::new();
            let mut abort_seen = false;
            let (mut ia, mut ib) = (0, 0);
            for slot in 0..total {
                let step = if mask & (1 << slot) != 0 {
                    let s = a[ia];
                    ia += 1;
                    s
                } else {
                    let s = b[ib];
                    ib += 1;
                    s
                };
                match step {
                    Step::Abort => {
                        cursor.abort();
                        abort_seen = true;
                    }
                    Step::Claim => match cursor.claim() {
                        None => {}
                        Some(range) => {
                            assert!(
                                !abort_seen,
                                "claim succeeded after abort (schedule {mask:#b})"
                            );
                            assert!(
                                range.start < range.end && range.end <= count,
                                "range {range:?} escapes 0..{count} (schedule {mask:#b})"
                            );
                            for i in range {
                                assert!(
                                    dispensed.insert(i),
                                    "task {i} dispensed twice (schedule {mask:#b})"
                                );
                            }
                        }
                    },
                }
            }
            assert_eq!(ia, na);
            assert_eq!(ib, nb);
            if !abort_seen {
                // Enough claims to drain the cursor must cover everything.
                let claims = a.iter().chain(b).filter(|s| **s == Step::Claim).count();
                if claims * chunk >= count {
                    assert_eq!(dispensed.len(), count, "schedule {mask:#b} lost tasks");
                }
            }
        }
        // C(na+nb, na) schedules — make sure the enumeration really ran.
        assert!(schedules > 1, "degenerate enumeration");
    }

    #[test]
    fn exhaustive_two_thread_interleavings() {
        use Step::{Abort, Claim};
        // Two workers draining 5 tasks 2 at a time: C(7,4) = 35 schedules.
        check_all_interleavings(5, 2, &[Claim, Claim, Claim, Claim], &[Claim, Claim, Claim]);
        // One worker aborts mid-stream: C(7,3) = 35 schedules; claims
        // scheduled after the abort must observe it.
        check_all_interleavings(8, 1, &[Claim, Abort, Claim], &[Claim, Claim, Claim, Claim]);
        // Both workers abort: no schedule may dispense after either.
        check_all_interleavings(4, 1, &[Claim, Abort], &[Claim, Abort, Claim]);
        // Chunk larger than the task count: single claim drains it.
        check_all_interleavings(3, 8, &[Claim, Claim], &[Claim]);
    }

    #[test]
    fn panicking_worker_becomes_an_error_in_its_slot() {
        let results = run_scoped(vec![
            Box::new(|| Ok(1)) as Box<dyn FnOnce() -> Result<i32> + Send>,
            Box::new(|| panic!("kaboom")),
        ]);
        assert_eq!(results.len(), 2);
        assert_eq!(*results[0].as_ref().unwrap(), 1);
        let err = results[1].as_ref().unwrap_err().to_string();
        assert!(err.contains("panicked") && err.contains("kaboom"), "{err}");
    }

    #[test]
    fn balanced_chunk_never_zero() {
        assert_eq!(TaskCursor::balanced_chunk(0, 4), 1);
        assert_eq!(TaskCursor::balanced_chunk(3, 4), 1);
        assert!(TaskCursor::balanced_chunk(1000, 4) >= 1);
    }
}
