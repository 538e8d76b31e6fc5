//! The persistent work-helping worker pool (moved here from `tfe-runtime`
//! so the tensor kernels below the runtime can share it).
//!
//! Workers are spawned once, lazily, and parked on a condition variable;
//! both the graph scheduler and the intra-op splitter enqueue jobs on the
//! same queue. Threads that must wait for a result — the caller of a run, a
//! worker executing a nested `call`, or a kernel waiting for its tiles — do
//! not block idly: they *help*, popping jobs off the same queue until their
//! own completion condition holds. That work-helping loop is what makes
//! nested parallel runs deadlock-free even when every worker is busy.

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A unit of work: one ready graph node, or one kernel tile batch.
pub type Job = Box<dyn FnOnce() + Send>;

/// The shared job queue plus its wakeup signal.
pub struct Pool {
    queue: Mutex<VecDeque<Job>>,
    signal: Condvar,
}

/// Number of worker threads the global pool runs: the machine's available
/// parallelism clamped to 1..=16, overridable with the `TFE_NUM_THREADS`
/// environment variable (read once, at first use).
pub fn worker_count() -> usize {
    static COUNT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *COUNT.get_or_init(|| {
        if let Ok(v) = std::env::var("TFE_NUM_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) => return n.clamp(1, 64),
                Err(_) => eprintln!(
                    "tf-eager: ignoring unparseable TFE_NUM_THREADS={v:?} \
                     (expected a positive integer); using detected parallelism"
                ),
            }
        }
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).clamp(1, 16)
    })
}

/// The process-wide pool. Workers are spawned on first access.
pub fn global() -> &'static Pool {
    static POOL: std::sync::OnceLock<Pool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Pool { queue: Mutex::new(VecDeque::new()), signal: Condvar::new() };
        for i in 0..worker_count() {
            std::thread::Builder::new()
                .name(format!("tfe-exec-{i}"))
                .spawn(worker_loop)
                .expect("spawn executor worker");
        }
        pool
    })
}

fn worker_loop() {
    let pool = global();
    loop {
        // Idle-gap sampling: when profiling is on, the stretch between
        // finishing one job and acquiring the next becomes an `idle` span
        // on this worker's timeline row (sub-10µs gaps are noise and
        // would swamp the trace, so they are dropped).
        let idle_from = tfe_profile::enabled().then(tfe_profile::now_ns);
        let job = {
            let mut q = lock(&pool.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = pool.signal.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(t0) = idle_from {
            if tfe_profile::now_ns().saturating_sub(t0) > 10_000 {
                tfe_profile::span_from("pool", || "idle".to_string(), t0);
            }
        }
        // Job bodies catch node/tile-level panics themselves; a stray panic
        // here would only kill this worker, and the helping waiters still
        // drain the queue, so the pool degrades rather than deadlocks.
        job();
    }
}

impl Pool {
    /// Enqueue a job and wake a worker. Returns the queue depth right after
    /// the push (for scheduler telemetry).
    pub fn submit(&self, job: Job) -> usize {
        tfe_metrics::static_counter!(
            "tfe_pool_jobs_total",
            "Jobs submitted to the shared worker pool (graph nodes + kernel tiles)"
        )
        .inc();
        // Pool task latency: every job is wrapped so the executing thread
        // records how long it sat in the queue (always-on histogram; the
        // profiler additionally gets per-job counters when enabled). The
        // wrapper is also the causal envelope: the submitter's trace group
        // is captured here and re-installed on whichever thread runs the
        // job, so graph nodes and kernel tiles stay attributed to the
        // request that scheduled them.
        let submitted = std::time::Instant::now();
        let profiling = tfe_profile::enabled();
        let group = tfe_profile::current_group();
        let job = Box::new(move || {
            let _trace = tfe_profile::adopt(group.as_ref(), "pool");
            let waited = submitted.elapsed().as_nanos() as u64;
            tfe_metrics::static_histogram!(
                "tfe_pool_queue_wait_ns",
                "Nanoseconds a pool job waited between submission and execution",
                tfe_metrics::DEFAULT_NS_BUCKETS
            )
            .observe(waited);
            if profiling {
                tfe_profile::counter("pool", "queue_wait_ns", waited);
            }
            job();
        }) as Job;
        let depth = {
            let mut q = lock(&self.queue);
            q.push_back(job);
            q.len()
        };
        self.signal.notify_all();
        depth
    }

    /// Pop and run one job if any is queued. Returns whether a job ran.
    pub fn help_one(&self) -> bool {
        let job = lock(&self.queue).pop_front();
        match job {
            Some(job) => {
                // A waiter stole work from the queue instead of blocking.
                tfe_metrics::static_counter!(
                    "tfe_pool_helped_jobs_total",
                    "Jobs executed by a work-helping waiter instead of a pool worker"
                )
                .inc();
                job();
                true
            }
            None => false,
        }
    }

    /// Block until `done()` holds, executing queued jobs while waiting.
    ///
    /// Completion signals arrive via [`Pool::notify`]; the short timeout is
    /// only a safety net against missed wakeups.
    pub fn wait_until(&self, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            if self.help_one() {
                continue;
            }
            let q = lock(&self.queue);
            if q.is_empty() && !done() {
                drop(self.signal.wait_timeout(q, Duration::from_millis(1)));
            }
        }
    }

    /// Wake every waiter (used when a run or tile batch completes, so
    /// threads parked in [`Pool::wait_until`] re-check their condition).
    pub fn notify(&self) {
        self.signal.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_on_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = counter.clone();
            global().submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                global().notify();
            }));
        }
        global().wait_until(|| counter.load(Ordering::SeqCst) == 64);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn wait_until_helps_with_queued_work() {
        // Even with no workers making progress on these particular jobs,
        // the waiting thread itself drains the queue.
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = Pool { queue: Mutex::new(VecDeque::new()), signal: Condvar::new() };
        for _ in 0..8 {
            let c = counter.clone();
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.wait_until(|| counter.load(Ordering::SeqCst) == 8);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn worker_count_is_bounded() {
        let w = worker_count();
        assert!((1..=64).contains(&w));
    }
}
