//! One process-wide work-stealing executor under every parallel layer.
//!
//! Every parallel layer of the toolkit — the `Batch` design-space runner,
//! phase 3's two crossbar directions and the heuristic's annealing-repair
//! restarts — submits to this one executor instead of spinning up a
//! scoped pool of its own. Stacked pools waste cores: a batch with fewer
//! design points than cores would pin its parallelism to the batch width
//! while the leftover cores idled. The executor the whole process shares
//! has:
//!
//! * **per-worker deques + a global injector** — tasks submitted from a
//!   worker thread land on that worker's own deque (popped LIFO, so
//!   nested work stays cache-warm); tasks submitted from outside land in
//!   the injector; idle workers steal FIFO from the injector and from
//!   each other. Built on `std` only — the workspace builds offline;
//! * **nested, order-preserving task scopes** — a task running on a
//!   worker can open its own [`scope`] and submit subtasks that feed the
//!   *same* worker set instead of a second stacked pool. A thread that
//!   waits on a scope result **helps**: it runs queued tasks (its own
//!   scope's or anyone else's) instead of blocking, which is what makes
//!   arbitrarily nested scopes deadlock-free even when every worker is
//!   occupied;
//! * **cooperative cancellation** — every submitted task receives a
//!   [`CancelToken`] child of its scope; cancelling a task (or the whole
//!   scope) flips a flag the task polls at its own checkpoints;
//! * **result streaming** — [`map_streaming`] delivers results to a sink
//!   in input order as they complete, with a bounded look-ahead window,
//!   so batch runners and gateway sweeps emit early rows while later
//!   design points still compute.
//!
//! # Determinism contract
//!
//! Results land **by submission order**, never by completion order:
//! [`map`] writes each result into the slot of its input index, and
//! [`TaskScope::take`] addresses tasks by the index [`TaskScope::submit`]
//! returned. Which thread runs a task, and in which order tasks are
//! stolen, can therefore never change a caller's answer — provided each
//! task is a pure function of its inputs, a property every caller in
//! this workspace maintains and its equivalence suites prove
//! (`pipeline_equivalence`, `pruned_solver_equivalence` and
//! `incremental_equivalence` pass bit-identically at every worker
//! count). A width of 1 short-circuits to a plain sequential loop on the
//! calling thread: no tasks, no threads, bit-identical by construction.
//!
//! # Cancellation contract
//!
//! [`CancelToken`]s form a tree: [`CancelToken::child`] makes a token
//! that reports cancelled when it *or any ancestor* is cancelled, so
//! cancelling a scope's root reaches every task token derived from it.
//! Cancellation is **cooperative and advisory**: a task observes it only
//! at its own polls, a cancelled task still runs to the point where it
//! notices (and still fills its result slot — slots are never lost or
//! duplicated, cancelled or not), and a result a caller actually
//! consumes must come from a task it never cancelled. The solver layers
//! uphold the stronger caller-side rule: only answers that can no longer
//! be consumed are ever cancelled, so cancellation is invisible in
//! outputs and only saves wall-clock.
//!
//! # Sizing
//!
//! The executor spawns [`parallelism`] workers on first use:
//! [`std::thread::available_parallelism`], overridable with the
//! `STBUS_EXEC_WORKERS` environment variable (CI uses this to force a
//! 2-worker run so contention paths execute on every host) and growable
//! at runtime with [`ensure_workers`] (the CLI's `--jobs` does that).
//! Workers are daemon threads; they live for the process.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

// --------------------------------------------------------------------------
// Cancellation
// --------------------------------------------------------------------------

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    parent: Option<Arc<CancelInner>>,
    /// Second ancestry edge for [`CancelToken::child_linked`] tokens:
    /// cancellation flows down from *either* parent.
    linked: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(parent) = &self.parent {
            if parent.is_cancelled() {
                return true;
            }
        }
        if let Some(linked) = &self.linked {
            if linked.is_cancelled() {
                return true;
            }
        }
        false
    }
}

/// Hierarchical cooperative-cancellation handle.
///
/// A token is a cheap clonable flag; [`CancelToken::child`] derives a
/// token that is cancelled whenever it *or any ancestor* is. The chain
/// is short (scope root → task → nested scope root → …), so
/// [`CancelToken::is_cancelled`] is a handful of atomic loads — cheap
/// enough to poll every few thousand solver nodes or annealing steps.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled root token.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                parent: None,
                linked: None,
            }),
        }
    }

    /// Derives a child token: cancelled when it or any ancestor is.
    #[must_use]
    pub fn child(&self) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                parent: Some(Arc::clone(&self.inner)),
                linked: None,
            }),
        }
    }

    /// Derives a child token with **two** parents: cancelled when it,
    /// `self`, `other`, or any of their ancestors is. This is how a task
    /// inside a [`scope`] also observes an authority *outside* the scope
    /// tree — e.g. a per-request token of a long-running service, so a
    /// dropped request aborts its solver work mid-solve even
    /// though the tasks were spawned under the scope's own root.
    #[must_use]
    pub fn child_linked(&self, other: &CancelToken) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                parent: Some(Arc::clone(&self.inner)),
                linked: Some(Arc::clone(&other.inner)),
            }),
        }
    }

    /// Raises the flag on this token (and therefore on every descendant).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether this token or any of its ancestors has been cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

// --------------------------------------------------------------------------
// Registry: the process-wide worker set
// --------------------------------------------------------------------------

/// A unit of work after lifetime erasure (see [`erase_task`]).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One worker's own deque. Local pushes/pops are LIFO (nested work runs
/// depth-first and cache-warm); thieves take from the FIFO end.
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<Task>>,
}

struct Registry {
    /// Tasks submitted from non-worker threads, drained FIFO.
    injector: Mutex<VecDeque<Task>>,
    /// Grow-only list of worker deques (stealing scans a snapshot).
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Parking lot for idle workers. Every inject notifies under this
    /// mutex, and workers re-scan the queues under it before waiting, so
    /// wakeups cannot be lost.
    park: Mutex<()>,
    wake: Condvar,
    /// Target worker count ([`ensure_workers`] grows it).
    target: AtomicUsize,
    spawned: Mutex<usize>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

thread_local! {
    /// The shard of the current thread, when it is an executor worker.
    static WORKER_SHARD: RefCell<Option<Arc<Shard>>> = const { RefCell::new(None) };
}

/// Ignores mutex poisoning: tasks run under `catch_unwind`, so a
/// poisoned executor lock can only come from a panic in this module's
/// own (lock-scoped, panic-free) bookkeeping; recovering the guard is
/// always sound here and avoids aborts from double panics during unwind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scope wait's blocking step: sleeps on `cv` until a task of the group
/// completes. The timeout is belt and braces only, like the workers'
/// park.
fn wait<'m, T>(guard: MutexGuard<'m, T>, cv: &Condvar) -> MutexGuard<'m, T> {
    cv.wait_timeout(guard, Duration::from_millis(50))
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// The worker count the executor targets: `STBUS_EXEC_WORKERS` when set
/// to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (with a fallback of 1). Does not spawn anything.
#[must_use]
pub fn parallelism() -> usize {
    match REGISTRY.get() {
        Some(registry) => registry.target.load(Ordering::Relaxed),
        None => configured_width(),
    }
}

fn configured_width() -> usize {
    std::env::var("STBUS_EXEC_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Grows the executor to at least `workers` worker threads (never
/// shrinks). The threads live for the process, so only an operator's
/// setting (the CLI's `--jobs`) should call this, never a request.
pub fn ensure_workers(workers: usize) {
    let registry = registry();
    registry.target.fetch_max(workers, Ordering::Relaxed);
    registry.spawn_to_target();
}

/// The number of worker threads currently spawned.
#[must_use]
pub fn workers() -> usize {
    *lock(&registry().spawned)
}

fn registry() -> &'static Registry {
    let registry = REGISTRY.get_or_init(|| Registry {
        injector: Mutex::new(VecDeque::new()),
        shards: Mutex::new(Vec::new()),
        park: Mutex::new(()),
        wake: Condvar::new(),
        target: AtomicUsize::new(configured_width()),
        spawned: Mutex::new(0),
    });
    registry.spawn_to_target();
    registry
}

impl Registry {
    fn spawn_to_target(&'static self) {
        let mut spawned = lock(&self.spawned);
        let target = self.target.load(Ordering::Relaxed);
        while *spawned < target {
            let shard = Arc::new(Shard::default());
            lock(&self.shards).push(Arc::clone(&shard));
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("stbus-exec-{index}"))
                .spawn(move || self.worker_loop(shard))
                .expect("spawn executor worker");
            *spawned += 1;
        }
    }

    fn worker_loop(&self, shard: Arc<Shard>) {
        WORKER_SHARD.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&shard)));
        loop {
            match self.find_task() {
                Some(task) => task(),
                None => {
                    // Re-scan under the park mutex: every inject notifies
                    // under it, so a task queued between the failed find
                    // and this lock is seen here and the wakeup cannot be
                    // lost. The timeout is belt and braces only.
                    let guard = lock(&self.park);
                    if !self.any_queued() {
                        let _ = self
                            .wake
                            .wait_timeout(guard, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }

    /// Pops one runnable task: own deque LIFO, then the injector FIFO,
    /// then steal FIFO from any other worker's deque.
    fn find_task(&self) -> Option<Task> {
        let own = WORKER_SHARD.with(|slot| slot.borrow().clone());
        if let Some(shard) = &own {
            if let Some(task) = lock(&shard.queue).pop_back() {
                return Some(task);
            }
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            return Some(task);
        }
        let shards: Vec<Arc<Shard>> = lock(&self.shards).clone();
        for shard in shards {
            if let Some(mine) = &own {
                if Arc::ptr_eq(&shard, mine) {
                    continue;
                }
            }
            if let Some(task) = lock(&shard.queue).pop_front() {
                return Some(task);
            }
        }
        None
    }

    fn any_queued(&self) -> bool {
        if !lock(&self.injector).is_empty() {
            return true;
        }
        let shards: Vec<Arc<Shard>> = lock(&self.shards).clone();
        shards.iter().any(|shard| !lock(&shard.queue).is_empty())
    }

    /// Queues a task: onto the current worker's own deque when called
    /// from a worker, into the global injector otherwise.
    fn inject(&self, task: Task) {
        let own = WORKER_SHARD.with(|slot| slot.borrow().clone());
        match own {
            Some(shard) => lock(&shard.queue).push_back(task),
            None => lock(&self.injector).push_back(task),
        }
        // Notify under the park mutex so a worker between "scan found
        // nothing" and "wait" cannot miss this task.
        let _guard = lock(&self.park);
        self.wake.notify_all();
    }

    /// Runs one queued task if any exists; the helping half of every
    /// scope wait.
    fn help_one(&self) -> bool {
        match self.find_task() {
            Some(task) => {
                task();
                true
            }
            None => false,
        }
    }
}

// --------------------------------------------------------------------------
// Lifetime erasure
// --------------------------------------------------------------------------

/// Erases a task's borrow lifetime so it can sit in the process-wide
/// queues.
///
/// This is the single `unsafe` expression of the executor; everything
/// else is safe Rust over `Mutex`/`Condvar`/`Arc`.
#[allow(unsafe_code)]
fn erase_task<'env>(task: Box<dyn FnOnce() + Send + 'env>) -> Task {
    // SAFETY: the only producer of `'env` tasks is `TaskScope::submit`
    // (which `map` builds on), and it erases two kinds of closure:
    //
    // * **Bodies** — the user closures, which may borrow `'env` data.
    //   `scope` installs a drop guard that blocks — on both the normal
    //   and the unwinding path — until every body has run to completion
    //   (`drain` helps until the group's `unfinished` count reaches
    //   zero, and the count is decremented only after a body returned).
    //   Bodies live in the group's task table, every one is claimed
    //   exactly once (by a queue ticket or by the consumer), so no body
    //   is executed, dropped, or otherwise touched after `'env` ends.
    // * **Tickets** — claim stubs capturing only an `Arc` of the group.
    //   A ticket may legitimately be popped from a queue *after* its
    //   scope returned, but by then the guard has purged the group: all
    //   bodies ran (table entries are `None`) and every leftover result
    //   value was dropped inside `'env`, so the stale ticket only reads
    //   empty vectors and releases its `Arc` — no `'env` data is
    //   reachable through it.
    //
    // Both fat-pointer types have identical layout; only the lifetime
    // bound differs.
    unsafe { mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) }
}

// --------------------------------------------------------------------------
// Scopes
// --------------------------------------------------------------------------

enum Slot<R> {
    Pending,
    Done(R),
    Panicked(Box<dyn std::any::Any + Send>),
    Taken,
}

struct GroupState<R> {
    slots: Vec<Slot<R>>,
    /// Unstarted task bodies, indexed like `slots`. The queues hold only
    /// claim *tickets*; whoever claims a body first — a worker popping
    /// the ticket, or the consumer in [`TaskScope::take`] — runs it, so
    /// a consumer never burns time executing other queued work while the
    /// task it actually waits for sits unstarted.
    bodies: Vec<Option<Task>>,
    unfinished: usize,
    /// Panic payloads of never-consumed tasks, parked here by the scope
    /// guard (payloads are `'static`, unlike results) and re-raised on
    /// the normal exit path.
    orphan_panics: Vec<Box<dyn std::any::Any + Send>>,
}

struct Group<R> {
    state: Mutex<GroupState<R>>,
    /// Notified whenever a task of this group completes.
    progress: Condvar,
}

impl<R> Group<R> {
    fn new() -> Self {
        Self {
            state: Mutex::new(GroupState {
                slots: Vec::new(),
                bodies: Vec::new(),
                unfinished: 0,
                orphan_panics: Vec::new(),
            }),
            progress: Condvar::new(),
        }
    }

    /// Claims the body of task `index` if it has not started yet.
    ///
    /// Must be **panic-free even for a purged group**: stale tickets of
    /// an already-exited scope still run this, and a panic here would
    /// escape through another scope's drain — possibly inside a `Drop`
    /// during unwind, aborting the process and (worse) leaving that
    /// scope's bodies undrained.
    fn claim(&self, index: usize) -> Option<Task> {
        lock(&self.state)
            .bodies
            .get_mut(index)
            .and_then(Option::take)
    }

    /// Helps until every submitted task of this group has completed.
    fn drain(&self, registry: &Registry) {
        loop {
            if lock(&self.state).unfinished == 0 {
                return;
            }
            if !registry.help_one() {
                let state = lock(&self.state);
                if state.unfinished > 0 {
                    let _state = wait(state, &self.progress);
                }
            }
        }
    }
}

/// An ordered group of tasks submitted to the process-wide executor.
///
/// Created by [`scope`]; lives on the opening thread's stack and is not
/// shareable across threads (submission and consumption are the opening
/// thread's job — worker threads only *execute*). Tasks are addressed by
/// the index [`TaskScope::submit`] returns, and every slot resolves
/// exactly once: to the task's return value, or to its panic (re-raised
/// at [`TaskScope::take`] or scope exit). Waiting on a slot *helps* —
/// the waiting thread runs queued tasks instead of blocking — which is
/// what makes nested scopes deadlock-free under oversubscription.
pub struct TaskScope<'scope, 'env: 'scope, R: Send> {
    group: Arc<Group<R>>,
    root: CancelToken,
    tokens: RefCell<Vec<CancelToken>>,
    /// Invariance markers, exactly as in [`std::thread::Scope`]: `'scope`
    /// begins before the user closure runs, so submitted tasks can borrow
    /// `'env` data from outside the scope but never the closure's own
    /// locals.
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env, R: Send + 'env> TaskScope<'scope, 'env, R> {
    /// Submits a task and returns its slot index. The task receives a
    /// [`CancelToken`] that is a child of the scope's root (cancelled by
    /// [`TaskScope::cancel`] on this index or [`TaskScope::cancel_all`]).
    pub fn submit<F>(&'scope self, f: F) -> usize
    where
        F: FnOnce(&CancelToken) -> R + Send + 'env,
    {
        let index = {
            let mut state = lock(&self.group.state);
            state.slots.push(Slot::Pending);
            state.bodies.push(None);
            state.unfinished += 1;
            state.slots.len() - 1
        };
        let token = self.root.child();
        self.tokens.borrow_mut().push(token.clone());
        let group = Arc::clone(&self.group);
        let body: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| f(&token)));
            let mut state = lock(&group.state);
            state.slots[index] = match result {
                Ok(value) => Slot::Done(value),
                Err(payload) => Slot::Panicked(payload),
            };
            state.unfinished -= 1;
            drop(state);
            group.progress.notify_all();
        });
        lock(&self.group.state).bodies[index] = Some(erase_task(body));
        // What travels through the queues is a claim ticket, not the
        // body: a ticket for a body the consumer already ran inline is a
        // cheap no-op, so tasks can never run twice or be lost.
        let group = Arc::clone(&self.group);
        let ticket: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Some(body) = group.claim(index) {
                body();
            }
        });
        registry().inject(erase_task(ticket));
        index
    }

    /// Cancels the task at `index` (cooperative: the task notices at its
    /// next poll; its slot still resolves).
    ///
    /// # Panics
    ///
    /// Panics if `index` was not returned by this scope's `submit`.
    pub fn cancel(&self, index: usize) {
        self.tokens.borrow()[index].cancel();
    }

    /// Cancels every task of this scope, present and future.
    pub fn cancel_all(&self) {
        self.root.cancel();
    }

    /// Waits for the task at `index` (helping while it waits) and moves
    /// its result out. If the task panicked, the panic is re-raised
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already taken, or re-raises the task's own
    /// panic.
    pub fn take(&self, index: usize) -> R {
        let registry = registry();
        loop {
            {
                let mut state = lock(&self.group.state);
                match &state.slots[index] {
                    Slot::Done(_) => {
                        let Slot::Done(value) = mem::replace(&mut state.slots[index], Slot::Taken)
                        else {
                            unreachable!("matched Done above")
                        };
                        return value;
                    }
                    Slot::Panicked(_) => {
                        let Slot::Panicked(payload) =
                            mem::replace(&mut state.slots[index], Slot::Taken)
                        else {
                            unreachable!("matched Panicked above")
                        };
                        drop(state);
                        resume_unwind(payload);
                    }
                    Slot::Taken => panic!("scope task {index} already taken"),
                    Slot::Pending => {}
                }
            }
            // Consumer priority: if the task we wait for has not started
            // anywhere, claim its body and run it inline — never spend
            // the wait executing other queued work instead of the one
            // answer the caller needs next.
            if let Some(body) = self.group.claim(index) {
                body();
                continue;
            }
            if !registry.help_one() {
                let state = lock(&self.group.state);
                if matches!(state.slots[index], Slot::Pending) {
                    let _state = wait(state, &self.group.progress);
                }
            }
        }
    }

    /// Number of tasks submitted so far.
    #[must_use]
    pub fn submitted(&self) -> usize {
        lock(&self.group.state).slots.len()
    }
}

/// Opens a task scope on the process-wide executor.
///
/// The closure submits tasks through the provided [`TaskScope`] and may
/// consume results in any order with [`TaskScope::take`]. When the
/// closure returns (or unwinds), the scope cancels whatever was not
/// consumed and **blocks until every submitted task has completed** —
/// the guarantee that makes it sound for tasks to borrow from the
/// enclosing environment. Panics of tasks that were never consumed are
/// re-raised after the drain, mirroring [`std::thread::scope`].
pub fn scope<'env, R, T, F>(f: F) -> T
where
    R: Send + 'env,
    F: for<'scope> FnOnce(&'scope TaskScope<'scope, 'env, R>) -> T,
{
    let task_scope: TaskScope<'_, 'env, R> = TaskScope {
        group: Arc::new(Group::new()),
        root: CancelToken::new(),
        tokens: RefCell::new(Vec::new()),
        scope_marker: PhantomData,
        env_marker: PhantomData,
    };

    struct DrainGuard<'g, R: Send> {
        group: &'g Arc<Group<R>>,
        root: &'g CancelToken,
    }
    impl<R: Send> Drop for DrainGuard<'_, R> {
        fn drop(&mut self) {
            // Unconsumed tasks are cancelled at scope exit; the
            // drain below upholds the lifetime-erasure invariant on both
            // the normal and the unwinding path. The leftover result
            // values are dropped *here*, still inside `'env`, so stale
            // claim tickets surviving in the queues only ever see an
            // emptied group (their `Arc` keeps the allocation itself
            // alive for as long as needed).
            self.root.cancel();
            self.group.drain(registry());
            let mut state = lock(&self.group.state);
            let slots = mem::take(&mut state.slots);
            // `bodies` is deliberately NOT shrunk: every entry is `None`
            // after the drain, and stale tickets still index into it —
            // `claim` must stay in-bounds and panic-free forever.
            for slot in slots {
                if let Slot::Panicked(payload) = slot {
                    // Payloads are `'static`; park them for the normal
                    // exit path below (on the unwind path they are
                    // swallowed — one panic is already in flight).
                    state.orphan_panics.push(payload);
                }
            }
        }
    }

    let out = {
        let _guard = DrainGuard {
            group: &task_scope.group,
            root: &task_scope.root,
        };
        f(&task_scope)
    };

    // Normal exit: surface panics of tasks the closure never consumed,
    // mirroring `std::thread::scope`.
    let orphan = lock(&task_scope.group.state).orphan_panics.pop();
    if let Some(payload) = orphan {
        resume_unwind(payload);
    }
    out
}

// --------------------------------------------------------------------------
// Order-preserving parallel map
// --------------------------------------------------------------------------

/// Order-preserving parallel map on the process-wide executor.
///
/// Runs `f` over every item and returns the results in input order,
/// bit-identical to a sequential map for pure `f` no matter how many
/// workers exist. `width` caps how many items are in flight at once
/// (the old scoped-pool "worker count" knob): `width <= 1` degenerates
/// to a plain sequential loop on the calling thread with no tasks
/// submitted. The calling thread helps run tasks while it waits, so
/// nested maps compose without spawning stacked pools.
pub fn map<T, R, F>(items: &[T], width: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if width <= 1 || n == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let agents = width.min(n);
    scope(|s: &TaskScope<'_, '_, ()>| {
        // Agents drain a shared index counter, exactly like the retired
        // `core::pool` workers — same skew-free distribution, same
        // panic semantics (a panicking agent stops draining, the others
        // finish, the panic re-raises after the scope drains) — but as
        // executor tasks, so nested scopes inside `f` feed the same
        // worker set.
        for _ in 0..agents {
            s.submit(|_token| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&items[i]);
                *lock(&slots[i]) = Some(result);
            });
        }
        for agent in 0..agents {
            s.take(agent);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("executor agents filled every slot")
        })
        .collect()
}

/// Streaming order-preserving parallel map: like [`map`], but results
/// are handed to `sink` **in input order as they become ready**, instead
/// of materialising the whole output vector first.
///
/// At most `width` items run ahead of the consumption point, so memory
/// stays bounded and early results reach the caller while later items
/// are still computing — a batch runner can print/serialise design point
/// `i` while `i+1..i+width` evaluate, and a gateway sweep can stream
/// per-candidate rows into its response as they land. The consuming
/// thread helps run queued tasks while it waits, and the next result it
/// needs is claimed inline if unstarted ([`TaskScope::take`]'s consumer
/// priority), so streaming never idles behind its own look-ahead.
///
/// Determinism: `sink` observes exactly the pairs `(i, f(&items[i]))` in
/// increasing `i` — bit-identical to a sequential loop for pure `f` at
/// every worker count. `width <= 1` *is* that sequential loop: no tasks
/// are submitted.
pub fn map_streaming<T, R, F, S>(items: &[T], width: usize, f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    let n = items.len();
    if n == 0 {
        return;
    }
    if width <= 1 || n == 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, f(item));
        }
        return;
    }
    let f = &f;
    scope(|s: &TaskScope<'_, '_, R>| {
        let mut submitted = 0usize;
        for emit in 0..n {
            // Keep the in-flight window topped up: items
            // `emit..emit+width` are submitted, everything later waits.
            while submitted < n && submitted < emit + width {
                let i = submitted;
                s.submit(move |_token| f(&items[i]));
                submitted += 1;
            }
            sink(emit, s.take(emit));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for width in [1, 2, 7, 64] {
            let out = map(&items, width, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty_and_singleton() {
        let none: Vec<u32> = Vec::new();
        assert!(map(&none, 8, |&x| x).is_empty());
        assert_eq!(map(&[41], 8, |&x| x + 1), vec![42]);
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn nested_maps_share_the_worker_set() {
        let outer: Vec<usize> = (0..8).collect();
        let result = map(&outer, 8, |&i| {
            let inner: Vec<usize> = (0..8).collect();
            map(&inner, 8, |&j| i * 10 + j).iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn scope_takes_out_of_order() {
        let values = scope(|s: &TaskScope<'_, '_, usize>| {
            let a = s.submit(|_| 1);
            let b = s.submit(|_| 2);
            let c = s.submit(|_| 3);
            (s.take(c), s.take(a), s.take(b))
        });
        assert_eq!(values, (3, 1, 2));
    }

    #[test]
    fn scope_tasks_borrow_environment() {
        let data = [10u64, 20, 30];
        let total = scope(|s: &TaskScope<'_, '_, u64>| {
            let tasks: Vec<usize> = data.iter().map(|v| s.submit(move |_| *v + 1)).collect();
            tasks.into_iter().map(|t| s.take(t)).sum::<u64>()
        });
        assert_eq!(total, 63);
    }

    #[test]
    fn cancellation_reaches_children() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(!grandchild.is_cancelled());
        root.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        // Siblings are independent.
        let a = CancelToken::new();
        let b = a.child();
        b.cancel();
        assert!(!a.is_cancelled());
        assert!(b.is_cancelled());
    }

    #[test]
    fn linked_children_observe_both_parents() {
        let scope_root = CancelToken::new();
        let request = CancelToken::new();
        let task = scope_root.child_linked(&request);
        assert!(!task.is_cancelled());
        // Cancellation flows down from the linked parent…
        request.cancel();
        assert!(task.is_cancelled());
        // …and from the primary parent alike.
        let request2 = CancelToken::new();
        let task2 = scope_root.child_linked(&request2);
        scope_root.cancel();
        assert!(task2.is_cancelled());
        assert!(!request2.is_cancelled());
        // A linked child's own flag never propagates upward.
        let a = CancelToken::new();
        let b = CancelToken::new();
        let c = a.child_linked(&b);
        c.cancel();
        assert!(!a.is_cancelled() && !b.is_cancelled());
    }

    #[test]
    fn cancelled_tasks_still_fill_their_slot() {
        let observed = scope(|s: &TaskScope<'_, '_, bool>| {
            let idx = s.submit(|token| {
                // Spin until cancellation is visible (bounded by the
                // scope's guaranteed cancel-at-exit, so never infinite).
                let mut spins = 0u64;
                while !token.is_cancelled() && spins < u64::MAX {
                    spins += 1;
                    if spins.is_multiple_of(1024) {
                        std::thread::yield_now();
                    }
                }
                token.is_cancelled()
            });
            s.cancel(idx);
            s.take(idx)
        });
        assert!(observed);
    }

    #[test]
    fn stale_tickets_of_exited_scopes_are_harmless() {
        // A consumer that takes every result claims the bodies inline,
        // so the scope can exit while its claim tickets still sit in the
        // queues. Popping those stale tickets later (against the purged
        // group) must be a silent no-op — an out-of-bounds panic here
        // once escaped through another scope's drop-guard drain and
        // aborted the whole process.
        for round in 0..50u32 {
            let total = scope(|s: &TaskScope<'_, '_, u32>| {
                let ids: Vec<usize> = (0..8).map(|i| s.submit(move |_| round * 100 + i)).collect();
                ids.into_iter().map(|id| s.take(id)).sum::<u32>()
            });
            assert_eq!(total, round * 800 + 28);
        }
        // Flush whatever stale tickets remain with fresh work.
        let items: Vec<u32> = (0..64).collect();
        let out = map(&items, 8, |&x| x + 1);
        assert_eq!(out.last(), Some(&64));
    }

    #[test]
    fn map_panic_propagates_after_drain() {
        let items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&items, 4, |&x| {
                assert!(x != 17, "boom at {x}");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn map_streaming_is_in_order_and_complete() {
        let items: Vec<usize> = (0..40).collect();
        for width in [1, 2, 3, 8, 64] {
            let mut seen: Vec<(usize, usize)> = Vec::new();
            map_streaming(&items, width, |&x| x * x, |i, r| seen.push((i, r)));
            let expected: Vec<(usize, usize)> = (0..40).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expected, "width {width}");
        }
    }

    #[test]
    fn map_streaming_empty_input() {
        let none: Vec<u32> = Vec::new();
        map_streaming(&none, 4, |&x| x, |_, _| panic!("no items, no calls"));
    }

    #[test]
    fn width_one_runs_inline() {
        // No tasks are submitted at width 1, so results are trivially
        // bit-identical to a sequential loop.
        let items: Vec<u32> = (0..10).collect();
        let seq: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        assert_eq!(map(&items, 1, |&x| u64::from(x) * 3), seq);
    }
}
