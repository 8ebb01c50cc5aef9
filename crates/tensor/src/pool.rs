//! The std-only compute worker pool behind the tensor kernels.
//!
//! [`ComputePool`] owns `threads − 1` long-lived worker threads (the
//! caller is the remaining participant) and dispatches *index jobs* to
//! them over per-worker channels. Kernels partition their work into
//! **disjoint output ranges** whose count depends only on the problem
//! size — never on the thread count — and every output element is
//! accumulated in a fixed order, so results are bitwise identical to the
//! serial reference at every thread count. Parallelism changes *who*
//! computes a chunk, never *what* is computed.
//!
//! The process-wide pool ([`ComputePool::global`]) sizes itself from the
//! `SLM_THREADS` environment variable (default: available parallelism,
//! clamped to [`MAX_THREADS`]); `SLM_THREADS=1` takes the serial path
//! with no worker threads at all. Unparseable or out-of-range values
//! warn through `sl_telemetry` instead of silently falling back.
//!
//! Observability: the pool counts dispatched jobs and accumulated
//! load-imbalance idle time; [`ComputePool::publish_metrics`] pushes
//! both into a [`Telemetry`] handle as `tensor.pool.*` gauges. Each
//! public kernel times itself through `sl_telemetry::host` into
//! `tensor.kernel.<name>.host_s`, on the calling thread and only while
//! that thread records.
//!
//! This module is the one place in the numeric crates where OS threads
//! and wall clocks are allowed; the `no-nondeterminism` lint flags both
//! elsewhere (the inline waivers below carry the justification).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use sl_telemetry::Telemetry;

/// Upper clamp for the worker count — beyond this, per-call dispatch
/// overhead dwarfs any speedup at the paper's tensor sizes.
pub const MAX_THREADS: usize = 64;

/// Lifetime-erased pointer to the per-call job body. Only dereferenced
/// by participants holding a claimed job index `< n_jobs`, and every
/// such job completes before [`ComputePool::run`] returns, so the
/// pointee outlives all dereferences.
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from several workers are
// fine) and the pointer itself is only a capability to reach it; see the
// lifetime argument on [`TaskPtr`].
// slm-lint: allow(unsafe-containment) pool task-pointer plumbing, justified by the SAFETY note above
unsafe impl Send for TaskPtr {}
// slm-lint: allow(unsafe-containment) pool task-pointer plumbing, justified by the SAFETY note above
unsafe impl Sync for TaskPtr {}

/// Shared state of one `run` call: the job body, an atomic job cursor,
/// a completion latch and the per-call imbalance accounting.
struct CallShared {
    task: TaskPtr,
    n_jobs: usize,
    /// Next unclaimed job index (may run past `n_jobs`; claims beyond it
    /// are no-ops).
    next: AtomicUsize,
    /// Jobs not yet finished; the participant that takes it to zero
    /// latches `done`.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Call start, the common time base of the imbalance metric.
    start: Instant,
    /// Sum over participants of nanoseconds-from-start at claim-loop exit.
    exit_sum_nanos: AtomicU64,
    /// Max over participants of nanoseconds-from-start at claim-loop exit.
    exit_max_nanos: AtomicU64,
    /// Participants that executed at least one job.
    participants: AtomicU64,
}

impl CallShared {
    /// Claims and runs jobs until the cursor is exhausted; returns
    /// whether this participant ran any job.
    fn work(&self) -> bool {
        // SAFETY: see [`TaskPtr`] — `run` keeps the body alive until
        // `remaining` hits zero, and a claim `< n_jobs` precedes every
        // dereference.
        // slm-lint: allow(unsafe-containment) scoped deref under the TaskPtr lifetime contract
        let task = unsafe { &*self.task.0 };
        let mut ran = false;
        loop {
            let job = self.next.fetch_add(1, Ordering::Relaxed);
            if job >= self.n_jobs {
                break;
            }
            ran = true;
            task(job);
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // slm-lint: allow(no-unwrap) latch mutex is never poisoned: no panic can occur while it is held
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
        if ran {
            let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.exit_sum_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.exit_max_nanos.fetch_max(nanos, Ordering::Relaxed);
            self.participants.fetch_add(1, Ordering::Relaxed);
        }
        ran
    }

    /// Blocks until every job has finished.
    fn wait(&self) {
        // slm-lint: allow(no-unwrap) latch mutex is never poisoned: no panic can occur while it is held
        let mut done = self.done.lock().unwrap();
        while !*done {
            // slm-lint: allow(no-unwrap) condvar wait only fails on a poisoned mutex, excluded above
            done = self.done_cv.wait(done).unwrap();
        }
    }
}

/// Raw pointer to a mutable `f32` buffer, capturable by a `Sync` job
/// body. Safe because [`ComputePool::run_chunks`] hands each job a
/// *disjoint* sub-slice.
struct BufPtr(*mut f32);

impl BufPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

// SAFETY: jobs address disjoint ranges of the buffer (enforced by the
// chunk arithmetic in `run_chunks`), so shared access never aliases.
// slm-lint: allow(unsafe-containment) disjoint-chunk buffer sharing, justified by the SAFETY note above
unsafe impl Send for BufPtr {}
// slm-lint: allow(unsafe-containment) disjoint-chunk buffer sharing, justified by the SAFETY note above
unsafe impl Sync for BufPtr {}

/// A reusable worker pool with deterministic job partitioning.
///
/// See the module docs for the determinism contract. Construct explicit
/// pools ([`ComputePool::new`]) in tests/benches; production code goes
/// through [`ComputePool::global`].
pub struct ComputePool {
    /// One channel per worker; `run` broadcasts the call to all of them.
    senders: Vec<Sender<Arc<CallShared>>>,
    threads: usize,
    jobs: AtomicU64,
    steal_idle_nanos: AtomicU64,
}

impl ComputePool {
    /// Builds a pool that computes with `threads` participants: the
    /// caller plus `threads − 1` spawned workers. `threads` is clamped
    /// to `1..=`[`MAX_THREADS`].
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let mut senders = Vec::with_capacity(threads.saturating_sub(1));
        for _worker in 1..threads {
            let (tx, rx) = channel::<Arc<CallShared>>();
            senders.push(tx);
            // Workers live for the process: detached, blocked in `recv`
            // until the pool (a process-wide singleton in production)
            // drops its sender.
            // slm-lint: allow(no-nondeterminism) the one sanctioned thread spawn: workers only compute pre-partitioned disjoint chunks
            let _ = thread::spawn(move || {
                while let Ok(call) = rx.recv() {
                    call.work();
                }
            });
        }
        ComputePool {
            senders,
            threads,
            jobs: AtomicU64::new(0),
            steal_idle_nanos: AtomicU64::new(0),
        }
    }

    /// The process-wide pool, lazily built from `SLM_THREADS` on first
    /// use (see the module docs for the parsing rules).
    pub fn global() -> &'static ComputePool {
        static GLOBAL: OnceLock<ComputePool> = OnceLock::new();
        GLOBAL.get_or_init(|| ComputePool::new(configured_threads()))
    }

    /// Number of participants (caller + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs dispatched so far.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Accumulated load-imbalance idle seconds: for each parallel call,
    /// the time participants spent finished-but-waiting for the slowest
    /// participant (0 on the serial path).
    pub fn steal_idle_s(&self) -> f64 {
        self.steal_idle_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Runs `body(job)` for every `job < n_jobs`, spread over the pool.
    ///
    /// Jobs must be independent: the partitioning into jobs (and
    /// therefore the result) must not depend on the thread count. With
    /// one participant, or a single job, everything runs inline on the
    /// caller.
    pub fn run<F>(&self, n_jobs: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.jobs.fetch_add(n_jobs as u64, Ordering::Relaxed);
        if self.threads == 1 || n_jobs <= 1 {
            for job in 0..n_jobs {
                body(job);
            }
            return;
        }
        // SAFETY: pure lifetime erasure (same fat-pointer layout); the
        // invariants on [`TaskPtr`] keep every dereference inside the
        // borrow of `body`.
        // slm-lint: allow(unsafe-containment) lifetime erasure scoped to this call, see SAFETY note
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(&body)
        });
        let shared = Arc::new(CallShared {
            task,
            n_jobs,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n_jobs),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            // slm-lint: allow(no-nondeterminism) imbalance accounting only; never feeds numerics
            start: Instant::now(),
            exit_sum_nanos: AtomicU64::new(0),
            exit_max_nanos: AtomicU64::new(0),
            participants: AtomicU64::new(0),
        });
        for tx in &self.senders {
            // A worker that died (panicked job) just means less help;
            // the caller's own claim loop still drains every job.
            let _ = tx.send(Arc::clone(&shared));
        }
        shared.work();
        shared.wait();
        // Imbalance: participants × slowest-exit − Σ exits. Workers that
        // arrive after completion claim nothing and record nothing.
        let participants = shared.participants.load(Ordering::Relaxed);
        let max = shared.exit_max_nanos.load(Ordering::Relaxed);
        let sum = shared.exit_sum_nanos.load(Ordering::Relaxed);
        let idle = (participants * max).saturating_sub(sum);
        self.steal_idle_nanos.fetch_add(idle, Ordering::Relaxed);
    }

    /// Splits `out` into consecutive `chunk_len`-sized sub-slices (the
    /// last may be shorter) and runs `body(chunk_index, chunk)` for each,
    /// spread over the pool. The chunk count depends only on
    /// `out.len()` and `chunk_len`, keeping results thread-count
    /// independent.
    pub fn run_chunks<F>(&self, out: &mut [f32], chunk_len: usize, body: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert!(chunk_len > 0, "run_chunks: chunk_len must be positive");
        let len = out.len();
        if len == 0 {
            return;
        }
        let n_jobs = len.div_ceil(chunk_len);
        let base = BufPtr(out.as_mut_ptr());
        self.run(n_jobs, |job| {
            let lo = job * chunk_len;
            let hi = (lo + chunk_len).min(len);
            // SAFETY: [lo, hi) ranges of distinct jobs are disjoint by
            // construction and within the buffer; `out` is mutably
            // borrowed for the whole call.
            // slm-lint: allow(unsafe-containment) disjoint per-job slices, see SAFETY note
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            body(job, chunk);
        });
    }

    /// Publishes the pool counters as telemetry gauges:
    /// `tensor.pool.{threads,jobs,steal_idle_s}` and the selected
    /// `tensor.backend` (its [`crate::backend::BackendKind::index`]).
    pub fn publish_metrics(&self, tele: &mut Telemetry) {
        tele.gauge_set("tensor.pool.threads", self.threads as f64);
        tele.gauge_set(
            "tensor.backend",
            crate::backend::global_backend_kind().index() as f64,
        );
        tele.gauge_set("tensor.pool.jobs", self.jobs_dispatched() as f64);
        tele.gauge_set("tensor.pool.steal_idle_s", self.steal_idle_s());
    }
}

/// Resolves the global pool's thread count from `SLM_THREADS`.
///
/// Unset → available parallelism (clamped to [`MAX_THREADS`]).
/// Unparseable or `0` → warn and use the default; values above the
/// clamp warn and clamp.
fn configured_threads() -> usize {
    // slm-lint: allow(no-nondeterminism) queried once to size the pool; the job partitioning never depends on it
    let default = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS);
    let Ok(raw) = std::env::var("SLM_THREADS") else {
        return default;
    };
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => {
            Telemetry::disabled().warn(&format!(
                "unusable SLM_THREADS value {raw:?} (expected 1..={MAX_THREADS}); \
                 using {default} (available parallelism)"
            ));
            default
        }
        Ok(n) if n > MAX_THREADS => {
            Telemetry::disabled().warn(&format!(
                "SLM_THREADS={n} exceeds the clamp; using {MAX_THREADS}"
            ));
            MAX_THREADS
        }
        Ok(n) => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_pool_runs_all_jobs_inline() {
        let pool = ComputePool::new(1);
        let hits = AtomicU32::new(0);
        pool.run(17, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.jobs_dispatched(), 17);
    }

    #[test]
    fn parallel_pool_runs_each_job_exactly_once() {
        let pool = ComputePool::new(4);
        let mut out = vec![0.0f32; 1000];
        pool.run_chunks(&mut out, 7, |job, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (job * 7 + off) as f32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32, "element {i} written by the wrong job");
        }
    }

    #[test]
    fn chunk_partitioning_is_thread_count_independent() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ComputePool::new(threads);
            let mut out = vec![0.0f32; 103]; // ragged vs chunk_len 10
            pool.run_chunks(&mut out, 10, |job, chunk| {
                for v in chunk.iter_mut() {
                    *v = job as f32;
                }
            });
            let expect: Vec<f32> = (0..103).map(|i| (i / 10) as f32).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn zero_and_single_job_calls_are_fine() {
        let pool = ComputePool::new(3);
        pool.run(0, |_| panic!("no jobs must run"));
        let hit = AtomicU32::new(0);
        pool.run(1, |j| {
            assert_eq!(j, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        pool.run_chunks(&mut [], 4, |_, _| panic!("empty buffer has no chunks"));
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(ComputePool::new(0).threads(), 1);
        assert_eq!(ComputePool::new(MAX_THREADS + 40).threads(), MAX_THREADS);
    }

    #[test]
    fn publish_metrics_sets_pool_gauges() {
        let pool = ComputePool::new(1);
        pool.run(3, |_| {});
        let mut tele = Telemetry::summary();
        pool.publish_metrics(&mut tele);
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("tensor.pool.threads"), Some(1.0));
        assert_eq!(snap.gauge("tensor.pool.jobs"), Some(3.0));
    }
}
