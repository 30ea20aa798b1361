//! Bounded worker pool with admission control.
//!
//! The service deliberately does *not* spawn a thread per request: a
//! fixed set of workers drains a bounded queue, and a request arriving
//! while the queue is full is **shed** with an error instead of being
//! buffered without limit. Overload therefore degrades into fast,
//! explicit rejections (which the load generator counts) rather than
//! unbounded memory growth — the backpressure contract documented in
//! `docs/serving.md`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use xmlpub_common::{Error, Result};

/// A unit of work: runs on a worker thread, reports back through
/// whatever channel the submitter captured.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between submitters and workers.
pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    queue_depth: usize,
    /// Requests admitted to the queue.
    admitted: AtomicU64,
    /// Requests a worker finished running.
    executed: AtomicU64,
    /// Requests rejected because the queue was full.
    shed: AtomicU64,
    /// Jobs that panicked on a worker (the worker survives).
    panicked: AtomicU64,
}

/// A cheap handle for submitting work; sessions hold one each.
#[derive(Clone)]
pub(crate) struct PoolHandle(Arc<PoolShared>);

impl PoolHandle {
    /// Enqueue a job, or shed it with [`Error::Busy`] when the admission
    /// queue is at depth.
    pub fn submit(&self, job: Job) -> Result<()> {
        let shared = &self.0;
        let mut state = shared.state.lock().expect("pool mutex poisoned");
        if state.shutdown {
            return Err(Error::exec("server is shut down"));
        }
        if state.queue.len() >= shared.queue_depth {
            drop(state);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Busy(format!(
                "admission queue full ({} waiting): request shed",
                shared.queue_depth
            )));
        }
        state.queue.push_back(job);
        drop(state);
        shared.admitted.fetch_add(1, Ordering::Relaxed);
        shared.work_ready.notify_one();
        Ok(())
    }

    /// Current counter values (sessions embed these in analyze reports).
    pub fn counters(&self) -> PoolCounters {
        counters_of(&self.0)
    }
}

fn counters_of(shared: &PoolShared) -> PoolCounters {
    PoolCounters {
        admitted: shared.admitted.load(Ordering::Relaxed),
        executed: shared.executed.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        panicked: shared.panicked.load(Ordering::Relaxed),
        in_queue: shared.state.lock().expect("pool mutex poisoned").queue.len(),
    }
}

/// Counter snapshot (see [`crate::ServerStats`] for the assembled view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Requests admitted to the queue since startup.
    pub admitted: u64,
    /// Requests fully executed.
    pub executed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Jobs that panicked on a worker thread (counted in `executed` too;
    /// the worker keeps running).
    pub panicked: u64,
    /// Requests currently waiting in the queue.
    pub in_queue: usize,
}

/// The worker threads plus the shared queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads draining a queue bounded at `queue_depth`.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            queue_depth: queue_depth.max(1),
            admitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xmlpub-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    pub fn handle(&self) -> PoolHandle {
        PoolHandle(Arc::clone(&self.shared))
    }

    pub fn counters(&self) -> PoolCounters {
        counters_of(&self.shared)
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.shutdown = true;
        }
        self.work_ready_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl WorkerPool {
    fn work_ready_all(&self) {
        self.shared.work_ready.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool mutex poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).expect("pool mutex poisoned");
            }
        };
        // A panicking job must not take the worker down with it: dead
        // workers would leave admitted jobs queued forever while their
        // submitters block on a response that never comes. Job closures
        // own their captures ('static), so unwind safety is trivially
        // AssertUnwindSafe — nothing outside the job observes torn state.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "xmlpub-server: job panicked on {}; worker continues",
                std::thread::current().name().unwrap_or("worker")
            );
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_counters_advance() {
        let pool = WorkerPool::new(2, 8);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            let tx = tx.clone();
            handle.submit(Box::new(move || tx.send(i).unwrap())).unwrap();
        }
        let mut got: Vec<i32> = (0..5).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        let c = pool.counters();
        assert_eq!(c.admitted, 5);
        assert_eq!(c.shed, 0);
    }

    #[test]
    fn overflow_sheds_with_error() {
        // One worker parked on a gate + a depth-1 queue: the third
        // submission must shed.
        let pool = WorkerPool::new(1, 1);
        let handle = pool.handle();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        handle
            .submit(Box::new(move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }))
            .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        handle.submit(Box::new(|| {})).unwrap(); // fills the queue
        let err = handle.submit(Box::new(|| {})).unwrap_err();
        assert!(matches!(err, Error::Busy(_)), "{err}");
        assert_eq!(pool.counters().shed, 1);
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        let handle = pool.handle();
        handle.submit(Box::new(|| panic!("job blew up"))).unwrap();
        // The single worker must survive to run this job.
        let (tx, rx) = mpsc::channel();
        handle.submit(Box::new(move || tx.send(42).unwrap())).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        // `executed` is bumped after the job body returns, so give the
        // worker a moment to get there.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let c = loop {
            let c = pool.counters();
            if c.executed == 2 || std::time::Instant::now() >= deadline {
                break c;
            }
            std::thread::yield_now();
        };
        assert_eq!(c.panicked, 1);
        assert_eq!(c.executed, 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3, 4);
        let handle = pool.handle();
        handle.submit(Box::new(|| {})).unwrap();
        drop(pool); // must not hang
                    // Submitting after shutdown fails cleanly.
        assert!(handle.submit(Box::new(|| {})).is_err());
    }
}
