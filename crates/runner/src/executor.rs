//! Persistent work-stealing executor for sharded campaigns.
//!
//! Every sharded campaign in the workspace runs on one process-lifetime
//! pool of workers ([`Executor::global`]), so the thousands of small
//! campaigns a `pacmand` daemon serves pay no per-campaign thread
//! spawns:
//!
//! - **Whole shards are the steal units; trials are scheduling
//!   points.** Each worker owns a deque of pending shard tasks; an idle
//!   worker first drains its own deque, then refills a chunk from the
//!   shared campaign injector, then steals half of a sibling's deque.
//!   A running shard also calls [`yield_now`] once per trial, where the
//!   worker first hands its CPU to any thread waiting for one, then the
//!   same fair-share pick may run one smaller shard of a starved
//!   campaign to completion on this worker before the trial goes on
//!   (one level deep). Scheduling only decides *where* and *when* a shard runs —
//!   the shard plan and its [`mix64`](crate::mix64) seeds are fixed at
//!   submission, so jobs=1 and jobs=N stay bit-identical by
//!   construction.
//! - **Batched submission.** [`Executor::submit`] enqueues a campaign
//!   and returns a [`CampaignHandle`] immediately; many campaigns can
//!   be in flight at once. The injector hands each free worker a chunk
//!   of the campaign with the fewest shards in flight, round-robin among
//!   ties (fair share: a small campaign that arrives behind a long one
//!   gets the next free worker, or the next trial boundary of a busy
//!   one, rather than waiting out the long one's shards), and each
//!   campaign's in-flight shard count is capped by its `jobs` argument.
//!   Submission never blocks: each driver waits out its campaign
//!   before submitting the next, so the injector holds at most one
//!   campaign per submitting thread — for `pacmand`, one per running
//!   job, with at most one job per executor worker — and the daemon's
//!   per-session queue is the only admission bound.
//! - **Streaming results.** Every finished shard is sent to the
//!   handle's channel the moment it completes.
//!   [`CampaignHandle::ordered`] reassembles shard order incrementally
//!   so consumers can merge results while later shards still run;
//!   [`CampaignHandle::wait`] collects that stream into the end-of-run
//!   [`ShardedOutcome`].
//! - **Fault tolerance.** Shard attempts run under `catch_unwind` with
//!   a bounded [`RetryPolicy`] and emit trace spans. On a permanent
//!   failure the campaign's cancel flag is raised *before* the failure
//!   event is sent, so once a consumer observes the failure no
//!   later-starting task of that campaign runs workload code — it
//!   reports itself cancelled. A panic in a worker's own scheduling
//!   code aborts the process with a message naming the worker, rather
//!   than leave the campaigns waiting on that worker hanging.
//!
//! Wakeup correctness: every event that makes work runnable (a
//! submission, tasks pushed into a deque, a completed task freeing
//! campaign capacity) bumps the scheduler epoch *after* the work is
//! visible and then notifies. Workers sample the epoch before scanning
//! and only sleep if it is unchanged, so a wakeup between scan and
//! sleep is never lost.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use pacman_telemetry::json::Value;
use pacman_telemetry::trace;

use crate::{
    default_jobs, lock, run_attempts, RetryPolicy, RunnerError, Shard, ShardError, ShardedOutcome,
};

/// A queued shard execution: called with the executing worker's id.
type Task = Box<dyn FnOnce(u64) + Send>;

/// The process-wide pool behind [`Executor::global`].
static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// One campaign's undispatched tail in the injector.
struct CampaignQueue {
    tasks: VecDeque<Task>,
    /// Per-campaign in-flight cap (the campaign's `jobs` argument).
    limit: usize,
    /// Shards currently dispatched to workers but not yet finished.
    in_flight: Arc<AtomicUsize>,
    /// Work items of the campaign's largest shard: what one of its
    /// shards nested by [`yield_now`] may hold up the running shard.
    shard_len: usize,
}

/// Injector state: campaigns with undispatched shards, round-robin
/// order, plus the wakeup epoch.
struct Sched {
    queue: VecDeque<CampaignQueue>,
    /// Bumped (after the work is visible) by every runnable-work event.
    epoch: u64,
}

struct Shared {
    sched: Mutex<Sched>,
    /// The smallest `shard_len` in `sched.queue` (`usize::MAX` when it
    /// is empty), republished under the lock wherever the queue gains or
    /// loses a campaign, so [`yield_now`] can see without the lock that
    /// [`pick`] would find no shard smaller than the running one.
    smallest_queued: AtomicUsize,
    work_ready: Condvar,
    /// Per-worker task deques: owners pop the front, thieves take the
    /// back half.
    deques: Vec<Mutex<VecDeque<Task>>>,
    shutdown: AtomicBool,
    /// Test-only fault hook: [`take`] panics while it is raised.
    #[cfg(test)]
    panic_in_take: AtomicBool,
}

/// Per-campaign coordination shared by all its tasks.
struct CampaignCore {
    /// Raised before the permanent-failure event is sent; tasks that
    /// start afterwards skip the workload and report cancelled.
    cancelled: AtomicBool,
    /// Attempts beyond the first, shared with the handle for live
    /// reads.
    retries: Arc<AtomicU64>,
    in_flight: Arc<AtomicUsize>,
    /// Tasks that have not finished yet; the one that drops this to
    /// zero emits the campaign's `shards.run` span.
    remaining: AtomicUsize,
    submitted_us: u64,
    total: usize,
    limit: usize,
    max_attempts: u32,
}

/// One shard's terminal result, streamed to the consumer the moment
/// the shard finishes.
struct ShardEvent<T> {
    /// The shard's index in the plan.
    shard: usize,
    /// The shard's result (cancellations included).
    result: Result<T, ShardError>,
}

/// A submitted campaign: a streaming receiver plus live retry counter.
///
/// Dropping the handle detaches the campaign — its shards still run
/// (and are sent into a closed channel), they are just unobserved.
pub struct CampaignHandle<T> {
    rx: Receiver<ShardEvent<T>>,
    retries: Arc<AtomicU64>,
    total: usize,
}

impl<T> CampaignHandle<T> {
    /// Number of shards in the campaign.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Attempts beyond the first so far (monotonic while running;
    /// final once every shard has reported).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Blocks for the next completion event, in completion order.
    /// `None` once every shard has reported.
    fn next_event(&self) -> Option<ShardEvent<T>> {
        self.rx.recv().ok()
    }

    /// Streams results reassembled into **shard order**: each item is
    /// `(shard_index, result)` and consumers can merge incrementally
    /// while later shards still run.
    #[must_use]
    pub fn ordered(self) -> OrderedEvents<T> {
        OrderedEvents { handle: self, buffer: BTreeMap::new(), next: 0 }
    }

    /// Blocks until every shard reports and returns the end-of-run
    /// shape: the [`CampaignHandle::ordered`] stream collected, plus
    /// the retry total.
    ///
    /// # Errors
    ///
    /// [`RunnerError::MissingResult`] if a shard never reported (a
    /// scheduling bug or an executor shut down mid-campaign).
    pub fn wait(self) -> Result<ShardedOutcome<T>, RunnerError> {
        let mut stream = self.ordered();
        let results = stream.by_ref().map(|(_, r)| r).collect();
        if let Some(shard) = stream.missing() {
            return Err(RunnerError::MissingResult { shard });
        }
        // The channel closed, so every task finished: the counter is
        // final.
        Ok(ShardedOutcome { results, retries: stream.retries() })
    }
}

/// Iterator over a campaign's results in shard order (see
/// [`CampaignHandle::ordered`]). Out-of-order completions are buffered
/// until the next in-order shard arrives.
pub struct OrderedEvents<T> {
    handle: CampaignHandle<T>,
    buffer: BTreeMap<usize, Result<T, ShardError>>,
    next: usize,
}

impl<T> OrderedEvents<T> {
    /// Attempts beyond the first so far (final once the stream ends).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.handle.retries()
    }

    /// After the stream ends: the first shard index that never
    /// reported, if any. A complete campaign returns `None`.
    #[must_use]
    pub fn missing(&self) -> Option<usize> {
        (self.next < self.handle.total).then_some(self.next)
    }
}

impl<T> Iterator for OrderedEvents<T> {
    type Item = (usize, Result<T, ShardError>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = self.buffer.remove(&self.next) {
                self.next += 1;
                return Some((self.next - 1, r));
            }
            let ev = self.handle.next_event()?;
            self.buffer.insert(ev.shard, ev.result);
        }
    }
}

/// A process-lifetime pool of work-stealing workers executing sharded
/// campaigns (see the module docs for the scheduling model).
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `workers` threads (clamped to >= 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched { queue: VecDeque::new(), epoch: 0 }),
            smallest_queued: AtomicUsize::new(usize::MAX),
            work_ready: Condvar::new(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            panic_in_take: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pacman-exec-{me}"))
                    .spawn(move || {
                        WORKER.with(|w| w.borrow_mut().worker = Some((Arc::clone(&shared), me)));
                        let _abort = AbortOnPanic(me);
                        worker_loop(&shared, me);
                    })
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The process-wide executor, created on first use with
    /// [`default_jobs`] workers unless [`Executor::init_global`] sized
    /// it first. Campaign parallelism is governed by each submission's
    /// `jobs` cap, not the pool size, so a shared pool never changes
    /// results.
    pub fn global() -> &'static Executor {
        GLOBAL.get_or_init(|| Executor::new(default_jobs()))
    }

    /// Creates the process-wide executor with `workers` threads
    /// (clamped to >= 1), or returns it if it already has that many.
    ///
    /// # Errors
    ///
    /// The pool already exists at another size: it lives for the
    /// process and is never resized.
    pub fn init_global(workers: usize) -> Result<&'static Executor, String> {
        let workers = workers.max(1);
        let exec = GLOBAL.get_or_init(|| Executor::new(workers));
        if exec.workers() == workers {
            Ok(exec)
        } else {
            Err(format!(
                "the shared executor already runs {} workers; cannot resize it to {workers}",
                exec.workers()
            ))
        }
    }

    /// Worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Enqueues a campaign and returns its streaming handle
    /// immediately. `jobs` caps the campaign's concurrently running
    /// shards (`<= 1` serialises it — the executor's jobs=1 mode);
    /// `policy` is the per-shard retry budget. Never blocks.
    pub fn submit<T, E, F>(
        &self,
        shards: Vec<Shard>,
        jobs: usize,
        policy: RetryPolicy,
        work: F,
    ) -> CampaignHandle<T>
    where
        T: Send + 'static,
        E: fmt::Display,
        F: Fn(&Shard, u32) -> Result<T, E> + Send + Sync + 'static,
    {
        let total = shards.len();
        let (tx, rx) = channel();
        let retries = Arc::new(AtomicU64::new(0));
        let rec = trace::recorder();
        let submitted_us = rec.now_us();
        let limit = jobs.max(1).min(total.max(1));
        if total == 0 {
            // Nothing to schedule; still emit the campaign span.
            rec.complete(
                "shards.run",
                "runner",
                0,
                None,
                submitted_us,
                vec![
                    ("shards".into(), Value::UInt(0)),
                    ("jobs".into(), Value::UInt(limit as u64)),
                    ("retries".into(), Value::UInt(0)),
                ],
            );
            drop(tx);
            return CampaignHandle { rx, retries, total };
        }
        let in_flight = Arc::new(AtomicUsize::new(0));
        let shard_len = shards.iter().map(|s| s.len).max().unwrap_or(0);
        let core = Arc::new(CampaignCore {
            cancelled: AtomicBool::new(false),
            retries: Arc::clone(&retries),
            in_flight: Arc::clone(&in_flight),
            remaining: AtomicUsize::new(total),
            submitted_us,
            total,
            limit,
            max_attempts: policy.max_attempts.max(1),
        });
        let work = Arc::new(work);
        let mut tasks: VecDeque<Task> = VecDeque::with_capacity(total);
        for shard in shards {
            let core = Arc::clone(&core);
            let work = Arc::clone(&work);
            let tx = tx.clone();
            tasks.push_back(Box::new(move |tid| {
                run_campaign_task(&core, shard, tid, &tx, work.as_ref());
            }));
        }
        drop(tx);
        {
            let mut g = lock(&self.shared.sched);
            g.queue.push_back(CampaignQueue { tasks, limit, in_flight, shard_len });
            self.shared.smallest_queued.store(smallest_shard(&g), Ordering::Relaxed);
            g.epoch += 1;
        }
        self.shared.work_ready.notify_all();
        CampaignHandle { rx, retries, total }
    }

    /// Campaigns currently queued in the injector with undispatched
    /// shards (the daemon reports it in status records).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.sched).queue.len()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        lock(&self.shared.sched).epoch += 1;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One shard task: cancellation check, queue-wait span, the shared
/// retry loop, streaming send, and campaign bookkeeping.
fn run_campaign_task<T, E, F>(
    core: &CampaignCore,
    shard: Shard,
    tid: u64,
    tx: &Sender<ShardEvent<T>>,
    work: &F,
) where
    E: fmt::Display,
    F: Fn(&Shard, u32) -> Result<T, E>,
{
    let _running = enter(|w| {
        w.running = Some(Running { in_flight: Arc::clone(&core.in_flight), len: shard.len });
    });
    let rec = trace::recorder();
    let result = if core.cancelled.load(Ordering::Acquire) {
        rec.instant("shard.cancelled", "runner", tid, Some(shard.index as u64), Vec::new());
        Err(ShardError::cancelled(shard.index))
    } else {
        rec.complete(
            "shard.queue_wait",
            "runner",
            tid,
            Some(shard.index as u64),
            core.submitted_us,
            Vec::new(),
        );
        let r = run_attempts(&shard, tid, core.max_attempts, &core.retries, work);
        if r.is_err() {
            // Raise the flag BEFORE sending the failure event: a
            // consumer that has observed the permanent failure knows no
            // later-starting task runs workload code.
            core.cancelled.store(true, Ordering::Release);
        }
        r
    };
    let _ = tx.send(ShardEvent { shard: shard.index, result });
    if core.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        rec.complete(
            "shards.run",
            "runner",
            tid,
            None,
            core.submitted_us,
            vec![
                ("shards".into(), Value::UInt(core.total as u64)),
                ("jobs".into(), Value::UInt(core.limit as u64)),
                ("retries".into(), Value::UInt(core.retries.load(Ordering::Relaxed))),
            ],
        );
    }
    core.in_flight.fetch_sub(1, Ordering::AcqRel);
}

/// Executes one task with a last-line-of-defense panic bracket (task
/// bodies contain their own `catch_unwind`; this keeps a defect in the
/// wrapper itself from killing the worker), then signals the capacity
/// freed by its completion.
fn run_task(shared: &Shared, task: Task, me: usize) {
    let _ = catch_unwind(AssertUnwindSafe(|| task(me as u64)));
    lock(&shared.sched).epoch += 1;
    shared.work_ready.notify_all();
}

/// Aborts the process when dropped by a panic in a worker's own
/// scheduling code (`refill`, `steal`, `take`, the pick and hand-off in
/// [`yield_now`]), which no shard's `catch_unwind` may absorb. A worker
/// that unwound there would die with tasks counted in flight or lost,
/// and every campaign waiting on them would hang instead of failing.
struct AbortOnPanic(usize);

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "executor worker pacman-exec-{} panicked outside a shard; aborting, since the \
                 campaigns waiting on its tasks could never finish",
                self.0
            );
            std::process::abort();
        }
    }
}

/// What [`yield_now`] knows about the calling thread. Only executor
/// workers ever set it.
#[derive(Default)]
struct WorkerCtx {
    /// The executor's shared state and this worker's index, set when
    /// the worker starts.
    worker: Option<(Arc<Shared>, usize)>,
    /// The shard that runs here now.
    running: Option<Running>,
    /// Inside a shard that [`yield_now`] started.
    nested: bool,
}

/// A shard running on a worker, as [`pick`] weighs it.
#[derive(Clone)]
struct Running {
    /// In-flight counter of the shard's campaign.
    in_flight: Arc<AtomicUsize>,
    /// The shard's work items.
    len: usize,
}

thread_local! {
    static WORKER: RefCell<WorkerCtx> = RefCell::new(WorkerCtx::default());
}

/// Puts back the running-shard context [`enter`] replaced, on every
/// exit path of the shard.
struct Restore {
    running: Option<Running>,
    nested: bool,
}

impl Drop for Restore {
    fn drop(&mut self) {
        WORKER.with(|w| {
            let mut w = w.borrow_mut();
            w.running = self.running.take();
            w.nested = self.nested;
        });
    }
}

/// Edits this thread's running-shard context until the guard drops.
fn enter(edit: impl FnOnce(&mut WorkerCtx)) -> Restore {
    WORKER.with(|w| {
        let mut w = w.borrow_mut();
        let saved = Restore { running: w.running.clone(), nested: w.nested };
        edit(&mut w);
        saved
    })
}

/// A scheduling point inside a running shard. On an executor worker it
/// first hands the CPU to the OS ([`std::thread::yield_now`]), so a
/// thread waiting for a CPU, such as a daemon thread about to submit a
/// job's campaign, runs now instead of after a scheduler time slice; it
/// goes before the pick, so a campaign submitted meanwhile can be picked
/// by this very call. It costs one `sched_yield` per trial and touches
/// no simulated state.
///
/// Then the fair-share pick runs here, not only when a whole shard
/// ends. If a campaign other than the running shard's has strictly
/// fewer shards in flight, headroom under its `jobs` cap and smaller
/// shards (fewer work items) than the running one, this worker takes
/// one of its shards, runs it to completion on this thread, and
/// returns.
///
/// Campaign drivers call it once per trial, so a small campaign that
/// arrives behind long bulk shards starts within a trial instead of
/// waiting for a worker to free up. The nested shard holds up the one
/// it cuts into until it ends, so only a smaller shard may cut in: a
/// bulk campaign that arrives while a small job runs waits for a free
/// worker instead of stalling the job for a whole bulk shard. Results
/// cannot change: a shard's output depends only on its plan, never on
/// where or when it runs. Nesting is one level deep (a nested shard's
/// call only hands off), and the call does nothing off an executor
/// worker.
pub fn yield_now() {
    let Some((shared, me, running)) = WORKER.with(|w| {
        let w = w.borrow();
        let (shared, me) = w.worker.as_ref()?;
        hand_off();
        let running = w.running.as_ref().filter(|_| !w.nested)?;
        // No queued shard is smaller than this one, so `pick` would take
        // none: an empty injector, or only this shard's own campaign (the
        // usual case on a lone campaign), answered without the lock. A
        // campaign queued just after this read waits one more trial.
        if shared.smallest_queued.load(Ordering::Relaxed) >= running.len {
            return None;
        }
        Some((Arc::clone(shared), *me, running.clone()))
    }) else {
        return;
    };
    let _abort = AbortOnPanic(me);
    let task = {
        let mut g = lock(&shared.sched);
        debug_assert_eq!(shared.smallest_queued.load(Ordering::Relaxed), smallest_shard(&g));
        let Some((i, _)) = pick(&g, Some(&running)) else { return };
        take(&shared, &mut g, i, 1).pop_front().expect("a queued campaign holds a task")
    };
    let _nested = enter(|w| w.nested = true);
    run_task(&shared, task, me);
}

/// Offers the calling worker's CPU to the OS scheduler.
fn hand_off() {
    std::thread::yield_now();
    #[cfg(test)]
    tests::HANDOFFS.with(|n| n.set(n.get() + 1));
}

/// The fair-share pick: of the queued campaigns with headroom under
/// their `jobs` cap, the one with the fewest shards in flight, the
/// first in round-robin order on a tie. Given a `running` shard, it
/// picks only a campaign with strictly fewer in flight and shards
/// smaller than it. No shard is smaller than its campaign's largest,
/// so that also rules out the running shard's own campaign. Returns
/// its queue index and in-flight count.
fn pick(sched: &Sched, running: Option<&Running>) -> Option<(usize, usize)> {
    let (below, len) =
        running.map_or((usize::MAX, usize::MAX), |r| (r.in_flight.load(Ordering::Acquire), r.len));
    sched
        .queue
        .iter()
        .enumerate()
        .filter(|(_, c)| c.shard_len < len)
        .map(|(i, c)| (i, c.in_flight.load(Ordering::Acquire), c.limit))
        .filter(|&(_, n, limit)| n < limit && n < below)
        .min_by_key(|&(_, n, _)| n)
        .map(|(i, n, _)| (i, n))
}

/// Dispatches the first `chunk` tasks of queued campaign `i`, counting
/// them in flight, and moves the campaign to the back of the
/// round-robin order (a fully dispatched campaign retires from the
/// injector).
fn take(shared: &Shared, sched: &mut Sched, i: usize, chunk: usize) -> VecDeque<Task> {
    #[cfg(test)]
    assert!(!shared.panic_in_take.load(Ordering::Relaxed), "injected scheduler panic");
    let mut c = sched.queue.remove(i).expect("index from the pick");
    c.in_flight.fetch_add(chunk, Ordering::AcqRel);
    let taken = c.tasks.drain(..chunk).collect();
    if c.tasks.is_empty() {
        shared.smallest_queued.store(smallest_shard(sched), Ordering::Relaxed);
    } else {
        sched.queue.push_back(c);
    }
    taken
}

/// The smallest `shard_len` of the queued campaigns, `usize::MAX` if
/// none is queued: the value [`Shared::smallest_queued`] publishes.
fn smallest_shard(sched: &Sched) -> usize {
    sched.queue.iter().map(|c| c.shard_len).min().unwrap_or(usize::MAX)
}

/// Pulls a chunk from the injector: the [`pick`]ed campaign donates
/// `min(ceil(remaining / workers), headroom)` tasks. The first runs
/// immediately, the rest land in our deque for siblings to steal.
fn refill(shared: &Shared, me: usize) -> bool {
    let mut taken = {
        let mut g = lock(&shared.sched);
        debug_assert_eq!(shared.smallest_queued.load(Ordering::Relaxed), smallest_shard(&g));
        let Some((i, running)) = pick(&g, None) else { return false };
        let c = &g.queue[i];
        let remaining = c.tasks.len();
        let chunk =
            remaining.div_ceil(shared.deques.len()).clamp(1, (c.limit - running).min(remaining));
        take(shared, &mut g, i, chunk)
    };
    let Some(first) = taken.pop_front() else { return false };
    if !taken.is_empty() {
        lock(&shared.deques[me]).append(&mut taken);
        // Stealable work became visible: bump-then-notify.
        lock(&shared.sched).epoch += 1;
        shared.work_ready.notify_all();
    }
    run_task(shared, first, me);
    true
}

/// Steals the back half of the first non-empty sibling deque,
/// preserving the stolen segment's relative order.
fn steal(shared: &Shared, me: usize) -> bool {
    let n = shared.deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        let mut stolen: VecDeque<Task> = VecDeque::new();
        {
            let mut dq = lock(&shared.deques[victim]);
            for _ in 0..dq.len().div_ceil(2) {
                if let Some(task) = dq.pop_back() {
                    stolen.push_front(task);
                }
            }
        }
        let Some(first) = stolen.pop_front() else { continue };
        if !stolen.is_empty() {
            lock(&shared.deques[me]).append(&mut stolen);
            lock(&shared.sched).epoch += 1;
            shared.work_ready.notify_all();
        }
        run_task(shared, first, me);
        return true;
    }
    false
}

/// Worker main loop: local deque, then injector refill, then stealing,
/// then an epoch-guarded sleep.
fn worker_loop(shared: &Shared, me: usize) {
    loop {
        let epoch = lock(&shared.sched).epoch;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let local = lock(&shared.deques[me]).pop_front();
        if let Some(task) = local {
            run_task(shared, task, me);
            continue;
        }
        if refill(shared, me) || steal(shared, me) {
            continue;
        }
        let g = lock(&shared.sched);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if g.epoch == epoch {
            // No runnable-work event since the scan started; any such
            // event bumps the epoch after making work visible and then
            // notifies, so this wait cannot miss one.
            drop(shared.work_ready.wait(g).unwrap_or_else(PoisonError::into_inner));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shard_plan, DEFAULT_SHARDS};
    use std::cell::Cell;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_one_and_jobs_n_are_bit_identical() {
        let exec = Executor::new(4);
        let plan = shard_plan(333, DEFAULT_SHARDS, 7);
        let work = |s: &Shard, _: u32| -> Result<u64, std::convert::Infallible> {
            Ok(s.seed ^ s.start as u64)
        };
        let one =
            exec.submit(plan.clone(), 1, RetryPolicy::default(), work).wait().expect("jobs=1");
        let many = exec.submit(plan, 4, RetryPolicy::default(), work).wait().expect("jobs=4");
        assert_eq!(one.results, many.results);
    }

    #[test]
    fn the_jobs_cap_limits_in_flight_shards() {
        let exec = Executor::new(4);
        let plan = shard_plan(16, 16, 3);
        let running = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let out = {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            exec.submit::<u64, std::convert::Infallible, _>(
                plan,
                1,
                RetryPolicy::default(),
                move |s, _| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    running.fetch_sub(1, Ordering::SeqCst);
                    Ok(s.seed)
                },
            )
            .wait()
            .expect("executor ok")
        };
        assert_eq!(out.completed(), 16);
        assert_eq!(peak.load(Ordering::SeqCst), 1, "jobs=1 must serialise the campaign");
    }

    #[test]
    fn retries_recover_transient_panics() {
        let exec = Executor::new(2);
        let plan = shard_plan(8, 8, 11);
        let out = exec
            .submit::<u64, std::convert::Infallible, _>(
                plan.clone(),
                2,
                RetryPolicy::default(),
                |s, attempt| {
                    if (s.index == 2 || s.index == 5) && attempt < 2 {
                        panic!("injected transient failure");
                    }
                    Ok(s.seed)
                },
            )
            .wait()
            .expect("executor ok");
        assert_eq!(out.retries, 4, "two shards x two failed attempts");
        assert_eq!(out.completed(), 8);
        for (s, r) in plan.iter().zip(&out.results) {
            assert_eq!(*r.as_ref().expect("recovered"), s.seed);
        }
    }

    #[test]
    fn cancellation_after_an_observed_failure_is_deterministic() {
        // jobs=2 on 8 shards: only shards 0 and 1 can be dispatched
        // before shard 0's permanent failure. The cancel flag is raised
        // BEFORE the failure event is sent, and the gate below releases
        // shard 1 only after the consumer has received that event — so
        // shards 2..7 are always cancelled without running workload
        // code, and the work closure runs at most twice.
        let exec = Executor::new(2);
        let plan = shard_plan(8, 8, 9);
        let work_runs = Arc::new(AtomicU32::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let (work_runs, gate) = (Arc::clone(&work_runs), Arc::clone(&gate));
            exec.submit::<u64, _, _>(plan, 2, RetryPolicy::no_retries(), move |s, _| {
                work_runs.fetch_add(1, Ordering::SeqCst);
                if s.index == 0 {
                    return Err("permanent failure on shard 0");
                }
                let (open, cv) = &*gate;
                let mut g = lock(open);
                while !*g {
                    g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                Ok(s.seed)
            })
        };
        let mut results: BTreeMap<usize, Result<u64, ShardError>> = BTreeMap::new();
        while let Some(ev) = handle.next_event() {
            let failed_zero = ev.shard == 0;
            results.insert(ev.shard, ev.result);
            if failed_zero {
                // The shard-0 failure has been observed: release the
                // gate (shard 1 may be blocked on it, or may already
                // have been cancelled — both are fine).
                let (open, cv) = &*gate;
                *lock(open) = true;
                cv.notify_all();
            }
        }
        assert_eq!(results.len(), 8, "every shard reports");
        let zero = results[&0].as_ref().expect_err("shard 0 fails");
        assert!(!zero.cancelled);
        assert_eq!(zero.attempts, 1);
        for i in 2..8 {
            let e = results[&i].as_ref().expect_err("post-failure shards cancel");
            assert!(e.cancelled, "shard {i} must be cancelled, got {e}");
        }
        match &results[&1] {
            Ok(v) => assert_eq!(*v, crate::mix64(9, 1), "shard 1 ran to completion"),
            Err(e) => assert!(e.cancelled, "shard 1 may only fail by cancellation"),
        }
        let runs = work_runs.load(Ordering::SeqCst);
        assert!((1..=2).contains(&runs), "at most shards 0 and 1 run workload code: {runs}");
    }

    #[test]
    fn concurrent_campaigns_from_many_threads_stay_isolated() {
        let exec = Arc::new(Executor::new(3));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    let plan = shard_plan(100, DEFAULT_SHARDS, t);
                    let out = exec
                        .submit::<u64, std::convert::Infallible, _>(
                            plan,
                            2,
                            RetryPolicy::default(),
                            |s, _| Ok(s.seed.wrapping_mul(3)),
                        )
                        .wait()
                        .expect("executor ok");
                    (t, out)
                })
            })
            .collect();
        for h in handles {
            let (t, out) = h.join().expect("campaign thread");
            assert_eq!(out.completed(), DEFAULT_SHARDS);
            for (s, r) in shard_plan(100, DEFAULT_SHARDS, t).iter().zip(&out.results) {
                assert_eq!(*r.as_ref().expect("ok"), s.seed.wrapping_mul(3));
            }
        }
    }

    #[test]
    fn many_outstanding_campaigns_on_one_worker_all_complete() {
        let exec = Executor::new(1);
        let plans: Vec<_> = (0..6u64).map(|i| shard_plan(16, 8, i)).collect();
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                // Every submit returns at once; the single worker
                // drains all six campaigns behind it.
                exec.submit::<u64, std::convert::Infallible, _>(
                    plan.clone(),
                    2,
                    RetryPolicy::default(),
                    |s, _| Ok(s.seed),
                )
            })
            .collect();
        for (plan, handle) in plans.iter().zip(handles) {
            let out = handle.wait().expect("campaign completes");
            assert_eq!(out.completed(), plan.len());
        }
    }

    #[test]
    fn a_free_worker_serves_the_campaign_with_the_fewest_shards_in_flight() {
        // Both workers hold a shard of a long campaign (its jobs cap),
        // and a one-shard campaign arrives behind it in round-robin
        // order. When one long shard finishes, the freed worker must
        // start the newcomer (nothing in flight) before the long
        // campaign's next shard (one still in flight).
        let exec = Executor::new(2);
        let open = Arc::new((Mutex::new([false; 2]), Condvar::new()));
        let started = Arc::new(Mutex::new(Vec::new()));
        let release = |i: usize| {
            let (flags, cv) = &*open;
            lock(flags)[i] = true;
            cv.notify_all();
        };
        let long = {
            let (open, started) = (Arc::clone(&open), Arc::clone(&started));
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(4, 4, 0),
                2,
                RetryPolicy::no_retries(),
                move |s, _| {
                    lock(&started).push(format!("long{}", s.index));
                    if s.index < 2 {
                        let (flags, cv) = &*open;
                        let mut g = lock(flags);
                        while !g[s.index] {
                            g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    Ok(s.seed)
                },
            )
        };
        while lock(&started).len() < 2 {
            std::thread::yield_now();
        }
        let short = {
            let started = Arc::clone(&started);
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(1, 1, 1),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    lock(&started).push("short".to_string());
                    Ok(s.seed)
                },
            )
        };
        release(0);
        short.wait().expect("short campaign completes");
        release(1);
        long.wait().expect("long campaign completes");
        let order = lock(&started).clone();
        assert_eq!(order.len(), 5);
        assert_eq!(order[2], "short", "start order {order:?}");
    }

    /// Appends `event` to a shared start/finish log.
    fn log(events: &Mutex<Vec<String>>, event: impl Into<String>) {
        lock(events).push(event.into());
    }

    /// Spins until `events` holds `event`.
    fn await_event(events: &Mutex<Vec<String>>, event: &str) {
        while !lock(events).iter().any(|e| e == event) {
            std::thread::yield_now();
        }
    }

    /// A one-shard campaign of `trials` items that loops its trials,
    /// each a short sleep and a [`yield_now`], logging `long.i` before
    /// trial `i`. Its first trial awaits event `first` before yielding.
    fn long_campaign(
        exec: &Executor,
        trials: usize,
        first: &'static str,
        events: &Arc<Mutex<Vec<String>>>,
    ) -> CampaignHandle<u64> {
        let events = Arc::clone(events);
        exec.submit::<u64, std::convert::Infallible, _>(
            shard_plan(trials, 1, 0),
            1,
            RetryPolicy::no_retries(),
            move |s, _| {
                for i in 0..trials {
                    log(&events, format!("long.{i}"));
                    if i == 0 {
                        await_event(&events, first);
                    }
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    yield_now();
                }
                Ok(s.seed)
            },
        )
    }

    /// A campaign of one one-item shard that logs `name` when it runs.
    fn logging_campaign(
        exec: &Executor,
        name: &'static str,
        events: &Arc<Mutex<Vec<String>>>,
    ) -> CampaignHandle<u64> {
        let events = Arc::clone(events);
        exec.submit::<u64, std::convert::Infallible, _>(
            shard_plan(1, 1, 1),
            1,
            RetryPolicy::no_retries(),
            move |s, _| {
                log(&events, name);
                Ok(s.seed)
            },
        )
    }

    #[test]
    fn a_short_campaign_runs_at_the_next_trial_of_a_busy_worker() {
        // The only worker is inside a long one-shard campaign. A campaign
        // submitted after it started has nothing in flight, so the long
        // shard's next trial boundary runs it, long before its last trial.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let long = long_campaign(&exec, 50, "short.submitted", &events);
        await_event(&events, "long.0");
        let short = logging_campaign(&exec, "short", &events);
        log(&events, "short.submitted");
        short.wait().expect("short campaign");
        long.wait().expect("long campaign");
        let order = lock(&events).clone();
        let pos = |e: &str| order.iter().position(|x| x == e).expect("logged");
        assert!(pos("short") < pos("long.1"), "the short campaign waited: {order:?}");
    }

    #[test]
    fn campaigns_with_equal_in_flight_counts_never_nest() {
        // Campaign A runs one 20-trial shard on one worker; campaign B
        // (jobs 2, one-item shards) runs shard 0 on the other and has
        // shard 1 queued. Both have one shard in flight, so A's trials
        // must not take B's shard 1: it starts only once a worker frees
        // up.
        let exec = Executor::new(2);
        let events = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let a = {
            let (events, gate) = (Arc::clone(&events), Arc::clone(&gate));
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(20, 1, 0),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, "a.start");
                    await_event(&events, "b.0");
                    for _ in 0..20 {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                        yield_now();
                    }
                    log(&events, "a.done");
                    let (open, cv) = &*gate;
                    *lock(open) = true;
                    cv.notify_all();
                    Ok(s.seed)
                },
            )
        };
        await_event(&events, "a.start");
        let b = {
            let (events, gate) = (Arc::clone(&events), Arc::clone(&gate));
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(2, 2, 1),
                2,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, format!("b.{}", s.index));
                    if s.index == 0 {
                        let (open, cv) = &*gate;
                        let mut g = lock(open);
                        while !*g {
                            g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    Ok(s.seed)
                },
            )
        };
        a.wait().expect("campaign A");
        b.wait().expect("campaign B");
        let order = lock(&events).clone();
        let pos = |e: &str| order.iter().position(|x| x == e).expect("logged");
        assert!(pos("a.done") < pos("b.1"), "A's trials ran B's queued shard: {order:?}");
    }

    #[test]
    fn a_nested_shard_yields_nothing() {
        // One worker inside a long shard runs campaign B at a trial
        // boundary. B's own yield must not start campaign C, although C
        // has nothing in flight and smaller shards: C runs after B, at a
        // later boundary.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let long = long_campaign(&exec, 50, "b.submitted", &events);
        await_event(&events, "long.0");
        let b = {
            let events = Arc::clone(&events);
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(2, 1, 2),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, "b.start");
                    await_event(&events, "c.submitted");
                    yield_now();
                    log(&events, "b.end");
                    Ok(s.seed)
                },
            )
        };
        log(&events, "b.submitted");
        await_event(&events, "b.start");
        let c = logging_campaign(&exec, "c", &events);
        log(&events, "c.submitted");
        b.wait().expect("campaign B");
        c.wait().expect("campaign C");
        long.wait().expect("long campaign");
        let order = lock(&events).clone();
        let pos = |e: &str| order.iter().position(|x| x == e).expect("logged");
        assert!(pos("b.end") < pos("c"), "a nested shard ran another: {order:?}");
        assert!(pos("c") < pos("long.2"), "C waited out the long shard: {order:?}");
    }

    #[test]
    fn a_campaign_with_larger_shards_never_cuts_into_a_smaller_shard() {
        // The only worker runs a one-item shard that loops trials. A
        // campaign of two-item shards submitted meanwhile has nothing in
        // flight, but nesting it would stall the small shard for a whole
        // larger one: it waits for the small shard to end.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let small = {
            let events = Arc::clone(&events);
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(1, 1, 0),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, "small.start");
                    await_event(&events, "big.submitted");
                    for _ in 0..20 {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                        yield_now();
                    }
                    log(&events, "small.done");
                    Ok(s.seed)
                },
            )
        };
        await_event(&events, "small.start");
        let big = {
            let events = Arc::clone(&events);
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(2, 1, 1),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, "big");
                    Ok(s.seed)
                },
            )
        };
        log(&events, "big.submitted");
        small.wait().expect("small campaign");
        big.wait().expect("big campaign");
        let order = lock(&events).clone();
        let pos = |e: &str| order.iter().position(|x| x == e).expect("logged");
        assert!(pos("small.done") < pos("big"), "a larger shard cut in: {order:?}");
    }

    #[test]
    fn yield_now_off_a_worker_runs_nothing() {
        // The only worker is blocked inside a shard with campaign B
        // queued behind it: the test thread's yield must not run B.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let a = {
            let (events, gate) = (Arc::clone(&events), Arc::clone(&gate));
            exec.submit::<u64, std::convert::Infallible, _>(
                shard_plan(1, 1, 0),
                1,
                RetryPolicy::no_retries(),
                move |s, _| {
                    log(&events, "a.start");
                    let (open, cv) = &*gate;
                    let mut g = lock(open);
                    while !*g {
                        g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                    }
                    Ok(s.seed)
                },
            )
        };
        await_event(&events, "a.start");
        let b = logging_campaign(&exec, "b", &events);
        yield_now();
        assert_eq!(*lock(&events), ["a.start"], "an off-worker yield ran a shard");
        let (open, cv) = &*gate;
        *lock(open) = true;
        cv.notify_all();
        a.wait().expect("campaign A");
        b.wait().expect("campaign B");
    }

    thread_local! {
        /// Hand-offs [`hand_off`] made on this thread.
        pub(super) static HANDOFFS: Cell<u64> = const { Cell::new(0) };
    }

    fn handoffs() -> u64 {
        HANDOFFS.with(Cell::get)
    }

    #[test]
    fn every_yield_on_a_worker_hands_off_exactly_once() {
        // The only worker runs A's ten-item shard. With nothing queued,
        // each of A's yields returns before the pick, yet hands off. Then
        // B (a one-item shard) is queued: A's next yield hands off and
        // nests B, whose two yields hand off once each although a nested
        // shard picks nothing. The test thread, off a worker, never does.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let a = {
            let events = Arc::clone(&events);
            exec.submit::<(u64, u64), std::convert::Infallible, _>(
                shard_plan(10, 1, 0),
                1,
                RetryPolicy::no_retries(),
                move |_, _| {
                    let start = handoffs();
                    for _ in 0..3 {
                        yield_now();
                    }
                    let idle = handoffs() - start;
                    log(&events, "a.idle");
                    await_event(&events, "b.submitted");
                    let start = handoffs();
                    yield_now();
                    Ok((idle, handoffs() - start))
                },
            )
        };
        await_event(&events, "a.idle");
        let b = exec.submit::<u64, std::convert::Infallible, _>(
            shard_plan(1, 1, 1),
            1,
            RetryPolicy::no_retries(),
            |_, _| {
                let start = handoffs();
                yield_now();
                yield_now();
                Ok(handoffs() - start)
            },
        );
        log(&events, "b.submitted");
        let off = handoffs();
        yield_now();
        assert_eq!(handoffs(), off, "an off-worker yield handed off");
        let b = b.wait().expect("campaign B").results.remove(0).expect("B ran");
        let a = a.wait().expect("campaign A").results.remove(0).expect("A ran");
        assert_eq!(b, 2, "each nested yield hands off once");
        assert_eq!(a, (3, 3), "each top-level yield hands off once, plus B's two nested ones");
    }

    /// Runs the ignored test `name` of this binary alone in a child
    /// process and returns its exit status and stderr; fails if the child
    /// is still running after a minute.
    fn run_child(name: &str) -> (std::process::ExitStatus, String) {
        use std::io::Read;
        use std::process::{Command, Stdio};
        use std::time::{Duration, Instant};
        let mut child = Command::new(std::env::current_exe().expect("the test binary"))
            .args(["--exact", name, "--ignored", "--nocapture", "--test-threads", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the child test");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = child.try_wait().expect("child status") {
                let mut stderr = String::new();
                child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("stderr");
                return (status, stderr);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{name} still runs after a minute: its campaigns hang");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn a_worker_panic_outside_a_shard_aborts_instead_of_hanging() {
        for name in [
            "executor::tests::a_panic_in_refill_child",
            "executor::tests::a_panic_in_the_nested_pick_child",
        ] {
            let (status, stderr) = run_child(name);
            assert!(!status.success(), "{name} exited cleanly: {stderr}");
            // Once: the first scheduler panic aborts, and no shard's
            // `catch_unwind` gets to absorb it.
            assert_eq!(stderr.matches("injected scheduler panic").count(), 1, "{name}: {stderr}");
            assert!(
                stderr.contains("executor worker pacman-exec-0 panicked outside a shard"),
                "{name}: {stderr}"
            );
        }
    }

    #[test]
    #[ignore = "aborts its process; a_worker_panic_outside_a_shard_aborts_instead_of_hanging runs it"]
    fn a_panic_in_refill_child() {
        // The idle worker's refill panics before it takes the task.
        let exec = Executor::new(1);
        exec.shared.panic_in_take.store(true, Ordering::Relaxed);
        let plan = shard_plan(1, 1, 0);
        let handle = exec.submit::<u64, std::convert::Infallible, _>(
            plan,
            1,
            RetryPolicy::no_retries(),
            |s, _| Ok(s.seed),
        );
        let _ = handle.wait();
    }

    #[test]
    #[ignore = "aborts its process; a_worker_panic_outside_a_shard_aborts_instead_of_hanging runs it"]
    fn a_panic_in_the_nested_pick_child() {
        // The only worker is inside a long shard: the panic strikes in
        // its yield, under the shard's own `catch_unwind`.
        let exec = Executor::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        let long = long_campaign(&exec, 50, "armed", &events);
        await_event(&events, "long.0");
        exec.shared.panic_in_take.store(true, Ordering::Relaxed);
        let short = logging_campaign(&exec, "short", &events);
        log(&events, "armed");
        let _ = short.wait();
        let _ = long.wait();
    }

    #[test]
    fn ordered_streaming_reassembles_shard_order() {
        let exec = Executor::new(4);
        let plan = shard_plan(64, DEFAULT_SHARDS, 5);
        let handle = exec.submit::<u64, std::convert::Infallible, _>(
            plan,
            4,
            RetryPolicy::default(),
            |s, _| Ok(s.seed),
        );
        let mut stream = handle.ordered();
        let mut seen = Vec::new();
        for (i, r) in stream.by_ref() {
            seen.push((i, r.expect("ok")));
        }
        assert_eq!(stream.missing(), None);
        assert_eq!(seen.len(), DEFAULT_SHARDS);
        for (pos, (i, seed)) in seen.iter().enumerate() {
            assert_eq!(*i, pos, "stream must be in shard order");
            assert_eq!(*seed, crate::mix64(5, pos as u64));
        }
    }

    #[test]
    fn empty_plans_complete_immediately() {
        let exec = Executor::new(2);
        let out = exec
            .submit::<u64, std::convert::Infallible, _>(
                Vec::new(),
                4,
                RetryPolicy::default(),
                |s, _| Ok(s.seed),
            )
            .wait()
            .expect("empty campaign");
        assert!(out.results.is_empty());
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn init_global_never_resizes_the_shared_pool() {
        let n = Executor::global().workers();
        assert_eq!(Executor::init_global(n).expect("same size").workers(), n);
        assert!(Executor::init_global(n + 1).is_err(), "a second size must be refused");
    }

    #[test]
    fn dropping_the_executor_joins_its_workers() {
        let exec = Executor::new(3);
        let plan = shard_plan(24, 8, 1);
        let out = exec
            .submit::<u64, std::convert::Infallible, _>(plan, 4, RetryPolicy::default(), |s, _| {
                Ok(s.seed)
            })
            .wait()
            .expect("campaign");
        assert_eq!(out.completed(), 8);
        drop(exec); // must not hang
    }
}
