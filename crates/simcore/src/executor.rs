//! The deterministic single-threaded async executor over virtual time.
//!
//! [`Sim`] owns a hierarchical timer wheel (see [`crate::wheel`]) and a
//! FIFO ready queue. Execution order is a pure function of the program and
//! the seed: ties between timers firing at the same virtual instant are
//! broken by a monotonically increasing sequence number, and woken tasks
//! run in wake order.
//!
//! Tasks are ordinary `Future`s (not `Send`; the executor is deliberately
//! single-threaded). Services built on the simulator hand out futures that
//! suspend on timers ([`Sim::sleep`]), channels, semaphores, or bandwidth
//! links, and the run loop advances the virtual clock only when no task is
//! runnable.
//!
//! # One heap block per task
//!
//! A spawned future lives in a single allocation, `Task<F>`: a
//! [`Header`] — reference count, [`TaskState`], [`TaskId`], a handle to
//! the ready queue, and a per-future-type table of `poll` / `drop_future`
//! / `dealloc` functions — followed by the future itself. Everything that
//! refers to a task is a counted pointer to that block ([`TaskRef`]):
//!
//! - the **registry** (`Inner::tasks`, 16 bytes per task) holds one
//!   reference from spawn until the task finishes; it exists so
//!   [`Sim::shutdown`] can find every parked task and so a [`TaskId`] names
//!   something;
//! - every **ready-queue entry** holds one: a wake appends an entry, the
//!   run loop pops it and polls through it;
//! - every **`Waker`** holds one: its data pointer *is* the block, so a
//!   wake reaches the task's state and the queue in one cache line, with
//!   no table lookup and no generation check. `wake` by value moves the
//!   waker's reference into the queue and a poll borrows the popped
//!   entry's reference for its `Context`, so neither touches the count.
//!
//! Every wake is one queue entry, and every popped entry is one poll
//! unless the task has finished or is being polled right now (a nested
//! `run` from inside its own poll): two wakes before a poll are two polls.
//!
//! The **future is dropped** as soon as the task finishes — its poll
//! returns `Ready` or panics — or [`Sim::shutdown`] reaps it, and the
//! state becomes `Done`; the registry lets go at the same moment. The
//! **block is freed** when the last reference goes, which is later if a
//! waker outlives the task (parked in a channel, say): such a waker pins
//! the block's bytes, never the future's resources, and waking it does
//! nothing.
//!
//! # Timers do not keep tasks alive
//!
//! Because a waker pins its task's block, a waker left in a canceled
//! timer would pin the memory of a finished task until the timer's
//! deadline — and a replay cancels one 120 s timeout per invocation. So
//! the wheel holds only `(at, seq, token)`; what fires lives in the timer
//! slab ([`TimerSlot`]). [`Sim::cancel_wake`] drops the waker, frees the
//! slot and unlinks the wheel entry on the spot, so a replay's pending
//! timers are its live ones. Only an entry the wheel has already moved
//! into its sorted front buffer or parked in its far-future overflow heap
//! stays behind, as a token whose generation its slot no longer carries.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::link::LinkTimer;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Slotted, TimerWheel};

/// Identifier of a spawned task: a registry index in the low 32 bits and
/// the entry's generation in the high 32, so ids are not reused when
/// registry entries are.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

impl TaskId {
    fn pack(index: u32, gen: u32) -> TaskId {
        TaskId((u64::from(gen) << 32) | u64::from(index))
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }
}

/// Queue of tasks that have been woken and await polling.
struct ReadyQueue {
    queue: RefCell<VecDeque<TaskRef>>,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TaskState {
    /// The future is in place and nobody is polling it.
    Parked,
    /// The future is being polled right now.
    Polling,
    /// The future has been dropped; the block lives on for its wakers.
    Done,
}

/// The fixed-layout front of every task block (see the module docs).
struct Header {
    refs: Cell<u32>,
    state: Cell<TaskState>,
    id: TaskId,
    ready: Rc<ReadyQueue>,
    vtable: &'static TaskVTable,
}

/// The operations that need to know the future's type, recorded once per
/// type so the rest of the executor can work on `NonNull<Header>`.
struct TaskVTable {
    poll: unsafe fn(NonNull<Header>, &mut Context<'_>) -> Poll<()>,
    drop_future: unsafe fn(NonNull<Header>),
    dealloc: unsafe fn(NonNull<Header>),
}

/// One task's heap block. `repr(C)` puts the header at offset 0, so a
/// pointer to the block is a pointer to its header.
#[repr(C)]
struct Task<F> {
    header: Header,
    future: ManuallyDrop<F>,
}

impl<F: Future<Output = ()>> Task<F> {
    const VTABLE: TaskVTable = TaskVTable {
        poll: Self::poll,
        drop_future: Self::drop_future,
        dealloc: Self::dealloc,
    };

    /// # Safety
    /// `task` heads a live `Task<F>` whose future has not been dropped,
    /// and nothing else accesses that future during the call.
    unsafe fn poll(task: NonNull<Header>, cx: &mut Context<'_>) -> Poll<()> {
        let task = task.cast::<Task<F>>().as_ptr();
        // SAFETY: the caller vouches for the block and for exclusive access
        // to the future; the reference covers the `future` field only, so
        // it does not alias the `&Header`s in use meanwhile. The future is
        // pinned: the block never moves and the future is dropped in place.
        let future = unsafe { Pin::new_unchecked(&mut *(*task).future) };
        future.poll(cx)
    }

    /// # Safety
    /// As for [`Task::poll`]; the future is never accessed again.
    unsafe fn drop_future(task: NonNull<Header>) {
        let task = task.cast::<Task<F>>().as_ptr();
        // SAFETY: the caller vouches that the future is live, unaliased and
        // dropped exactly once.
        unsafe { ManuallyDrop::drop(&mut (*task).future) };
    }

    /// # Safety
    /// `task` heads a `Task<F>` made by [`TaskRef::new`] to which no
    /// reference remains.
    unsafe fn dealloc(task: NonNull<Header>) {
        // SAFETY: the block came from `Box::<Task<F>>::leak` and the caller
        // holds the last pointer to it. Dropping the box drops the header;
        // the future is `ManuallyDrop` and was dropped when the task
        // finished.
        drop(unsafe { Box::from_raw(task.cast::<Task<F>>().as_ptr()) });
    }
}

/// One counted reference to a task block. The registry, the ready queue
/// and every `Waker` hold these; the block is freed with the last one.
struct TaskRef(NonNull<Header>);

impl TaskRef {
    /// Allocate the block for `future`: the task's one allocation.
    fn new<F>(id: TaskId, ready: Rc<ReadyQueue>, future: F) -> TaskRef
    where
        F: Future<Output = ()> + 'static,
    {
        let task = Box::new(Task {
            header: Header {
                refs: Cell::new(1),
                state: Cell::new(TaskState::Parked),
                id,
                ready,
                vtable: &Task::<F>::VTABLE,
            },
            future: ManuallyDrop::new(future),
        });
        TaskRef(NonNull::from(Box::leak(task)).cast())
    }

    fn header(&self) -> &Header {
        // SAFETY: this reference keeps the block, and so its header, alive;
        // everything mutable in a header is a `Cell`.
        unsafe { self.0.as_ref() }
    }

    /// Hand this reference to a `RawWaker` (or back, with `from_raw`).
    fn into_raw(self) -> *const () {
        ManuallyDrop::new(self).0.as_ptr() as *const ()
    }

    /// # Safety
    /// `data` came from [`TaskRef::into_raw`] and the reference it carried
    /// has not been reclaimed yet.
    unsafe fn from_raw(data: *const ()) -> TaskRef {
        // SAFETY: `into_raw` only hands out non-null block pointers.
        TaskRef(unsafe { NonNull::new_unchecked(data as *mut Header) })
    }

    /// Append the task to the ready queue, giving the entry this
    /// reference. Waking a finished task is a no-op.
    fn schedule(self) {
        let header = self.header();
        if header.state.get() != TaskState::Done {
            let ready = header.ready.clone();
            ready.queue.borrow_mut().push_back(self);
        }
    }

    /// Drop the task's future in place.
    ///
    /// # Safety
    /// The caller is the one who moved the task's state to `Done`, from
    /// `Polling` (its poll is over) or `Parked`, and calls this once.
    unsafe fn drop_future(&self) {
        let header = self.header();
        debug_assert_eq!(header.state.get(), TaskState::Done);
        // SAFETY: the future was live until the caller set `Done`, nobody
        // was inside it then, and `Done` keeps every other party out.
        unsafe { (header.vtable.drop_future)(self.0) };
    }
}

impl Clone for TaskRef {
    fn clone(&self) -> TaskRef {
        let refs = &self.header().refs;
        // Checked: a wrapped count would free a block still in use.
        refs.set(refs.get().checked_add(1).expect("task reference count overflow"));
        TaskRef(self.0)
    }
}

impl Drop for TaskRef {
    fn drop(&mut self) {
        let header = self.header();
        let refs = header.refs.get() - 1;
        header.refs.set(refs);
        if refs == 0 {
            debug_assert_eq!(header.state.get(), TaskState::Done);
            // SAFETY: that was the last reference, and the vtable was
            // recorded for the block's own future type.
            unsafe { (header.vtable.dealloc)(self.0) };
        }
    }
}

// The executor is single-threaded and every future it runs is `!Send` by
// construction ([`Sim::spawn`] has no `Send` bound), so its wakers never
// leave the thread: they live only in the timer slab, the sync primitives'
// wait queues, and `JoinState` — all owned by this `Sim`. That makes the
// atomic refcount and the ready-queue mutex that `Waker::from(Arc<_>)`
// forces pure overhead, paid on every sleep registration and every wake —
// millions of times per replay. This vtable does the same bookkeeping on
// the block's plain `Cell` count.
//
// Contract of all four fns: `data` is a `TaskRef::into_raw` pointer whose
// reference the waker owns (`waker_clone` makes the owning ones; the one
// `poll_task` makes borrows its caller's and is never dropped), and it
// never crosses threads (above).
unsafe fn waker_clone(data: *const ()) -> RawWaker {
    // SAFETY: the contract above; `ManuallyDrop` because the waker being
    // cloned keeps its reference.
    let task = ManuallyDrop::new(unsafe { TaskRef::from_raw(data) });
    RawWaker::new(TaskRef::clone(&task).into_raw(), &WAKER_VTABLE)
}

unsafe fn waker_wake(data: *const ()) {
    // SAFETY: the contract above; waking by value consumes the waker, so
    // its reference is ours to hand to the ready queue.
    unsafe { TaskRef::from_raw(data) }.schedule();
}

unsafe fn waker_wake_by_ref(data: *const ()) {
    // SAFETY: the contract above; `ManuallyDrop` because the waker lives on.
    let task = ManuallyDrop::new(unsafe { TaskRef::from_raw(data) });
    TaskRef::clone(&task).schedule();
}

unsafe fn waker_drop(data: *const ()) {
    // SAFETY: the contract above; the waker is gone, and its reference with it.
    drop(unsafe { TaskRef::from_raw(data) });
}

static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

/// One registry entry: the task currently registered under this index, if
/// any, and the generation its [`TaskId`] carries.
struct Registered {
    task: Option<TaskRef>,
    gen: u32,
}

/// Handle to a pending timer's slot in the timer slab. The slot's
/// generation moves on when the timer fires or is canceled, so a wheel
/// entry whose token no longer matches it is a canceled timer's tombstone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct TimerToken {
    index: u32,
    gen: u32,
}

impl Slotted for TimerToken {
    fn slot(self) -> usize {
        self.index as usize
    }
}

/// What a pending timer does when it fires.
enum TimerAction {
    Wake(Waker),
    Call(Box<dyn FnOnce()>),
    /// A fair-share link's completion; fired with its entry's `(at, seq)`.
    Link(LinkTimer),
}

/// One timer-slab slot. `action` is `None` while the slot is free.
struct TimerSlot {
    gen: u32,
    action: Option<TimerAction>,
}

struct Inner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<TimerWheel<TimerToken>>,
    timer_slots: RefCell<Vec<TimerSlot>>,
    timer_free: RefCell<Vec<u32>>,
    ready: Rc<ReadyQueue>,
    tasks: RefCell<Vec<Registered>>,
    task_free: RefCell<Vec<u32>>,
    tasks_alive: Cell<usize>,
    seed: u64,
    events_processed: Cell<u64>,
    tasks_spawned: Cell<u64>,
    // Recorder-free profiling counters (see `SimProfile`).
    task_polls: Cell<u64>,
    peak_tasks_alive: Cell<usize>,
    timer_pushes: Cell<u64>,
    timer_fires: Cell<u64>,
    timer_cancels: Cell<u64>,
    /// Scratch buffer for `fire_next_timers`; kept here so its
    /// allocation is reused across every firing instant.
    fire_batch: RefCell<Vec<Waker>>,
}

impl Inner {
    /// Put `action` in a slab slot and the slot's token in the wheel.
    fn push_timer(&self, at: SimTime, seq: u64, action: TimerAction) -> TimerToken {
        let token = {
            let mut slots = self.timer_slots.borrow_mut();
            let index = match self.timer_free.borrow_mut().pop() {
                Some(index) => index,
                None => {
                    slots.push(TimerSlot { gen: 0, action: None });
                    (slots.len() - 1) as u32
                }
            };
            let slot = &mut slots[index as usize];
            slot.action = Some(action);
            TimerToken { index, gen: slot.gen }
        };
        self.timer_pushes.set(self.timer_pushes.get() + 1);
        self.timers.borrow_mut().push(at.as_nanos(), seq, token);
        token
    }

    /// Recycle the slot of a timer that left the wheel, making its token
    /// stale. Returns what the timer was to do, `None` if it had been
    /// canceled (its slot was recycled then).
    #[inline]
    fn release_timer(&self, token: TimerToken) -> Option<TimerAction> {
        let action = {
            let mut slots = self.timer_slots.borrow_mut();
            let slot = &mut slots[token.index as usize];
            if slot.gen != token.gen {
                return None;
            }
            slot.gen = slot.gen.wrapping_add(1);
            slot.action.take()
        };
        self.timer_free.borrow_mut().push(token.index);
        action
    }

    /// See [`Sim::shutdown`]; also what dropping the last `Sim` does, since
    /// ready-queue entries and task blocks refer to each other.
    fn shutdown(&self) {
        loop {
            let mut parked = Vec::new();
            {
                let mut tasks = self.tasks.borrow_mut();
                let mut free = self.task_free.borrow_mut();
                for (index, entry) in tasks.iter_mut().enumerate() {
                    let Some(task) = &entry.task else { continue };
                    let state = &task.header().state;
                    if state.get() == TaskState::Parked {
                        // Retire it like a finished task, so a wake-up
                        // from a drop handler below cannot get it polled.
                        state.set(TaskState::Done);
                        parked.extend(entry.task.take());
                        entry.gen = entry.gen.wrapping_add(1);
                        free.push(index as u32);
                    }
                }
            }
            self.tasks_alive.set(self.tasks_alive.get() - parked.len());
            let timers = self.timers.borrow_mut().take_all();
            let actions: Vec<_> = timers.iter().map(|&t| self.release_timer(t)).collect();
            self.ready.queue.borrow_mut().clear();
            if parked.is_empty() && timers.is_empty() {
                return;
            }
            // Outside every borrow: these drops may re-enter the sim.
            drop(actions);
            for task in parked {
                // SAFETY: parked until this pass set it `Done`, just above.
                unsafe { task.drop_future() };
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handle to the simulation. Cheap to clone; all clones share one virtual
/// clock and scheduler.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("seed", &self.inner.seed)
            .field("events_processed", &self.inner.events_processed.get())
            .finish()
    }
}

/// Counters describing how much work the simulator has done, for
/// micro-benchmarking the kernel itself.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SimStats {
    /// Task polls plus timer firings.
    pub events_processed: u64,
    /// Total tasks ever spawned.
    pub tasks_spawned: u64,
    /// Tasks currently alive.
    pub tasks_alive: usize,
}

/// Recorder-free engine profile: where the kernel's time went, so perf
/// work can attribute wins instead of guessing. Every counter is a plain
/// `Cell` increment on the hot path and deterministic for a given
/// program + seed. Snapshot with [`Sim::profile`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Task polls (a strict subset of `events_processed`).
    pub task_polls: u64,
    /// Total tasks ever spawned.
    pub tasks_spawned: u64,
    /// Peak simultaneously-live tasks.
    pub peak_live_tasks: usize,
    /// Timers registered (sleeps + scheduled callbacks).
    pub timer_pushes: u64,
    /// Timers that actually fired (canceled entries excluded).
    pub timer_fires: u64,
    /// Wake-timers canceled before firing (e.g. dropped `Sleep`s).
    pub timer_cancels: u64,
    /// Entries re-bucketed by wheel cascades and overflow migrations —
    /// the wheel's "depth" cost (0 means every timer was bucketed once).
    pub timer_cascades: u64,
    /// Timers routed to the far-future overflow heap.
    pub timer_overflow: u64,
    /// Peak simultaneously-pending timers.
    pub peak_pending_timers: usize,
}

impl fmt::Display for SimProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "polls {} · spawns {} (peak {} live) · timers {} pushed / {} fired / {} canceled · wheel {} cascaded / {} overflow / peak {} pending",
            self.task_polls,
            self.tasks_spawned,
            self.peak_live_tasks,
            self.timer_pushes,
            self.timer_fires,
            self.timer_cancels,
            self.timer_cascades,
            self.timer_overflow,
            self.peak_pending_timers,
        )
    }
}

impl Sim {
    /// Create a fresh simulation whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Sim {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                timer_slots: RefCell::new(Vec::new()),
                timer_free: RefCell::new(Vec::new()),
                ready: Rc::new(ReadyQueue {
                    queue: RefCell::new(VecDeque::new()),
                }),
                tasks: RefCell::new(Vec::new()),
                task_free: RefCell::new(Vec::new()),
                tasks_alive: Cell::new(0),
                seed,
                events_processed: Cell::new(0),
                tasks_spawned: Cell::new(0),
                task_polls: Cell::new(0),
                peak_tasks_alive: Cell::new(0),
                timer_pushes: Cell::new(0),
                timer_fires: Cell::new(0),
                timer_cancels: Cell::new(0),
                fire_batch: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Derive a named random stream. The same `(seed, label)` pair always
    /// yields the same stream, independent of call order — give each
    /// component its own label.
    pub fn rng(&self, label: &str) -> SimRng {
        SimRng::stream(self.inner.seed, label)
    }

    /// Kernel statistics.
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_processed: self.inner.events_processed.get(),
            tasks_spawned: self.inner.tasks_spawned.get(),
            tasks_alive: self.inner.tasks_alive.get(),
        }
    }

    /// Snapshot of the engine profiling counters (see [`SimProfile`]).
    pub fn profile(&self) -> SimProfile {
        let timers = self.inner.timers.borrow();
        SimProfile {
            task_polls: self.inner.task_polls.get(),
            tasks_spawned: self.inner.tasks_spawned.get(),
            peak_live_tasks: self.inner.peak_tasks_alive.get(),
            timer_pushes: self.inner.timer_pushes.get(),
            timer_fires: self.inner.timer_fires.get(),
            timer_cancels: self.inner.timer_cancels.get(),
            timer_cascades: timers.cascades(),
            timer_overflow: timers.overflow_pushes(),
            peak_pending_timers: timers.peak_len(),
        }
    }

    /// Draw the next timer sequence number: the tie-break among timers at
    /// one instant, in registration order.
    pub(crate) fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    /// Spawn a task. The returned [`JoinHandle`] can be awaited for the
    /// task's output or dropped to let the task run detached.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state: Rc<RefCell<JoinState<T>>> = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let st = state.clone();
        let id = self.spawn_task(async move {
            let out = fut.await;
            let waker = {
                let mut s = st.borrow_mut();
                s.result = Some(out);
                s.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        });
        JoinHandle { state, id }
    }

    /// Spawn a task whose output nobody will join on. Skips the
    /// `JoinHandle` completion-state allocation that [`Sim::spawn`] pays,
    /// which matters on fan-out hot paths spawning one task per request:
    /// the task's block is the only allocation.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_task(fut);
    }

    /// Allocate the task's block, register it and enqueue its first poll.
    fn spawn_task<F>(&self, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let inner = &*self.inner;
        inner.tasks_spawned.set(inner.tasks_spawned.get() + 1);
        let alive = inner.tasks_alive.get() + 1;
        inner.tasks_alive.set(alive);
        if alive > inner.peak_tasks_alive.get() {
            inner.peak_tasks_alive.set(alive);
        }
        let (id, task) = {
            let mut tasks = inner.tasks.borrow_mut();
            let index = match inner.task_free.borrow_mut().pop() {
                Some(index) => index,
                None => {
                    tasks.push(Registered { task: None, gen: 0 });
                    (tasks.len() - 1) as u32
                }
            };
            let entry = &mut tasks[index as usize];
            let id = TaskId::pack(index, entry.gen);
            let task = TaskRef::new(id, inner.ready.clone(), future);
            entry.task = Some(task.clone());
            (id, task)
        };
        inner.ready.queue.borrow_mut().push_back(task);
        id
    }

    /// Register a waker to fire at virtual instant `at` (clamped to now).
    /// [`Sim::cancel_wake`] with the returned token cancels the wakeup
    /// without advancing the clock to it.
    pub(crate) fn register_wake_at(&self, at: SimTime, waker: Waker) -> TimerToken {
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.inner.push_timer(at, seq, TimerAction::Wake(waker))
    }

    /// Cancel a pending wake-timer: its slot is recycled and its wheel
    /// entry unlinked at once. A stale token (the timer already fired or
    /// was canceled) is a no-op.
    pub(crate) fn cancel_wake(&self, token: TimerToken) {
        let inner = &*self.inner;
        let waker = {
            let mut slots = inner.timer_slots.borrow_mut();
            let slot = &mut slots[token.index as usize];
            if slot.gen != token.gen {
                return;
            }
            slot.gen = slot.gen.wrapping_add(1);
            slot.action.take()
        };
        inner.timer_free.borrow_mut().push(token.index);
        inner.timers.borrow_mut().remove(token);
        inner.timer_cancels.set(inner.timer_cancels.get() + 1);
        // The waker pins its task's block (see the module docs).
        drop(waker);
    }

    /// Run `f` at virtual instant `at` (clamped to now). Callbacks fire in
    /// (time, registration order). They run outside any task context and are
    /// the escape hatch used by resources such as bandwidth links.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.inner.push_timer(at, seq, TimerAction::Call(Box::new(f)));
    }

    /// Fire a link's `timer` at a position in the event order reserved
    /// earlier: `seq` was drawn from [`Sim::next_seq`] and `(at, seq)` has
    /// not been reached yet.
    pub(crate) fn push_link_timer(&self, (at, seq): (SimTime, u64), timer: LinkTimer) {
        debug_assert!(at >= self.now() && seq < self.inner.seq.get());
        self.inner.push_timer(at, seq, TimerAction::Link(timer));
    }

    /// Run `f` after a delay.
    pub fn call_after(&self, d: SimDuration, f: impl FnOnce() + 'static) {
        self.call_at(self.now().saturating_add(d), f);
    }

    /// A future that completes `d` later in virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now().saturating_add(d))
    }

    /// A future that completes at virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            cancel: None,
            fired: false,
        }
    }

    /// A future that yields once, letting every other runnable task proceed
    /// before resuming at the same virtual instant.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Await `fut` with a virtual-time deadline. Returns `None` on timeout.
    pub async fn timeout<T>(
        &self,
        limit: SimDuration,
        fut: impl Future<Output = T>,
    ) -> Option<T> {
        let sleep = self.sleep(limit);
        let mut fut = std::pin::pin!(fut);
        let mut sleep = std::pin::pin!(sleep);
        std::future::poll_fn(move |cx| {
            if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                return Poll::Ready(Some(v));
            }
            if sleep.as_mut().poll(cx).is_ready() {
                return Poll::Ready(None);
            }
            Poll::Pending
        })
        .await
    }

    /// Poll the task a popped ready-queue entry refers to.
    fn poll_task(&self, task: TaskRef) {
        /// Retires the task when its poll returns `Ready` — or unwinds, so
        /// a panicking future is dropped like a finished one.
        struct FinishOnDrop<'a>(&'a Sim, &'a TaskRef);
        impl Drop for FinishOnDrop<'_> {
            fn drop(&mut self) {
                self.0.finish(self.1);
            }
        }

        let header = task.header();
        if header.state.get() != TaskState::Parked {
            // Already finished, or a wake of the task polling us (nested
            // `run` inside its own poll): nothing to do.
            return;
        }
        header.state.set(TaskState::Polling);
        self.inner
            .events_processed
            .set(self.inner.events_processed.get() + 1);
        self.inner.task_polls.set(self.inner.task_polls.get() + 1);
        // SAFETY: the vtable contract holds for `task`'s pointer, and the
        // waker borrows `task`'s reference instead of owning one: it is
        // never dropped and `task` outlives it.
        let waker = ManuallyDrop::new(unsafe {
            Waker::from_raw(RawWaker::new(task.0.as_ptr() as *const (), &WAKER_VTABLE))
        });
        let finish = FinishOnDrop(self, &task);
        // SAFETY: `Parked` meant the future is live and nobody was inside
        // it; `Polling` keeps re-entrant polls and `shutdown` out.
        let poll = unsafe { (header.vtable.poll)(task.0, &mut Context::from_waker(&waker)) };
        if poll.is_pending() {
            header.state.set(TaskState::Parked);
            std::mem::forget(finish);
        }
    }

    /// Retire a task whose poll is over for good: unregister it, then drop
    /// its future (whose drop handlers may re-enter the sim).
    fn finish(&self, task: &TaskRef) {
        let header = task.header();
        header.state.set(TaskState::Done);
        let index = header.id.index();
        let registered = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let entry = &mut tasks[index];
            entry.gen = entry.gen.wrapping_add(1);
            entry.task.take()
        };
        debug_assert!(registered.is_some(), "a task being polled is registered");
        self.inner.task_free.borrow_mut().push(index as u32);
        self.inner.tasks_alive.set(self.inner.tasks_alive.get() - 1);
        // SAFETY: the state was `Polling` until this call set `Done`, and
        // the poll has returned.
        unsafe { task.drop_future() };
    }

    fn drain_ready(&self) {
        loop {
            let task = self.inner.ready.queue.borrow_mut().pop_front();
            match task {
                Some(task) => self.poll_task(task),
                None => break,
            }
        }
    }

    /// Fire every timer scheduled for the earliest pending instant,
    /// advancing the clock to it. Returns false when no timers remain.
    ///
    /// Pops are batched under one wheel borrow and the wakes run after —
    /// legal because a wake only appends to the ready queue and so can
    /// never reorder the pop sequence. A `Call` or `Link` action ends its
    /// batch: callbacks may push new timers at the firing instant, which must
    /// join this very batch, so the queue is re-examined after each one.
    fn fire_next_timers(&self, horizon: SimTime) -> bool {
        let inner = &*self.inner;
        // Whether an entry is a canceled timer's tombstone (see
        // `TimerWheel::peek_min_gc`): its slot has moved on.
        let mut reap =
            |token: &TimerToken| inner.timer_slots.borrow()[token.index as usize].gen != token.gen;
        // Find the earliest live instant, discarding canceled heads so
        // they cannot drag the clock forward.
        let at = {
            let mut timers = inner.timers.borrow_mut();
            loop {
                let Some(e) = timers.peek_min_gc(&mut reap) else {
                    return false;
                };
                let (at, dead) = (e.at, reap(&e.item));
                if !dead {
                    break at;
                }
                timers.pop_min();
            }
        };
        let at = SimTime::from_nanos(at);
        if at > horizon {
            return false;
        }
        debug_assert!(at >= self.now(), "timer scheduled in the past");
        inner.now.set(at);
        let at = at.as_nanos();
        let mut wakers: Vec<Waker> = std::mem::take(&mut inner.fire_batch.borrow_mut());
        debug_assert!(wakers.is_empty());
        loop {
            let mut call = None;
            {
                let mut timers = inner.timers.borrow_mut();
                loop {
                    match timers.peek_min_gc(&mut reap) {
                        Some(e) if e.at == at => {}
                        _ => break,
                    }
                    let entry = timers.pop_min().expect("peeked");
                    inner
                        .events_processed
                        .set(inner.events_processed.get() + 1);
                    match inner.release_timer(entry.item) {
                        Some(TimerAction::Wake(w)) => wakers.push(w),
                        Some(action) => {
                            call = Some((action, entry.seq));
                            break;
                        }
                        None => {} // canceled
                    }
                }
            }
            let fired = wakers.len() as u64 + u64::from(call.is_some());
            inner.timer_fires.set(inner.timer_fires.get() + fired);
            for w in wakers.drain(..) {
                w.wake();
            }
            match call {
                Some((TimerAction::Call(f), _)) => f(),
                Some((TimerAction::Link(timer), seq)) => {
                    timer.fire(self, (SimTime::from_nanos(at), seq));
                }
                Some((TimerAction::Wake(_), _)) => unreachable!("wakes are batched"),
                None => break,
            }
        }
        *inner.fire_batch.borrow_mut() = wakers;
        true
    }

    /// Run until no task is runnable and no timer is pending (quiescence).
    pub fn run(&self) {
        self.run_horizon(SimTime::MAX);
    }

    /// Run until quiescence or until virtual time would pass `deadline`;
    /// the clock ends at `deadline` if the horizon was hit while events
    /// remained, otherwise at the last event.
    pub fn run_until(&self, deadline: SimTime) {
        self.run_horizon(deadline);
        if self.now() < deadline && !self.inner.timers.borrow().is_empty() {
            self.inner.now.set(deadline);
        }
    }

    /// Run for `d` of virtual time (see [`Sim::run_until`]).
    pub fn run_for(&self, d: SimDuration) {
        self.run_until(self.now().saturating_add(d));
    }

    fn run_horizon(&self, horizon: SimTime) {
        loop {
            self.drain_ready();
            if !self.fire_next_timers(horizon) {
                break;
            }
        }
    }

    /// Tear the simulation down: drop every parked task, pending timer
    /// and queued wake-up.
    ///
    /// Parked tasks and timer callbacks hold `Sim` clones (and, through
    /// them, whatever services were built on the sim), so a `Sim` that
    /// still has any is an `Rc` cycle nothing ever frees. Everything is
    /// moved out of the executor's cells before it is dropped, so drop
    /// handlers may re-enter the sim — cancel a timer, release a permit,
    /// reschedule a link, spawn — and whatever they register is torn down
    /// in turn. A task that is being polled right now (shutdown called
    /// from inside it) is left alone. Idempotent; the clock and every
    /// counter stay readable, and the sim stays usable.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Drive `fut` to completion, running the whole simulation as needed.
    ///
    /// # Panics
    /// Panics if the simulation quiesces before `fut` completes — i.e. the
    /// future is deadlocked on an event that can never happen.
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let mut handle = self.spawn(fut);
        self.run();
        handle
            .try_take()
            .expect("simulation quiesced before block_on future completed (deadlock?)")
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Awaitable handle to a spawned task's output.
///
/// Dropping the handle detaches the task; it keeps running.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The task's id, mostly for diagnostics.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Take the output if the task has finished.
    pub fn try_take(&mut self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// Dropping an unfired `Sleep` cancels its timer, so abandoned sleeps
/// (e.g. the losing arm of a [`crate::select2`]) never advance the clock.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    cancel: Option<TimerToken>,
    fired: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.sim.now() >= this.deadline {
            this.fired = true;
            return Poll::Ready(());
        }
        if this.cancel.is_none() {
            this.cancel = Some(
                this.sim
                    .register_wake_at(this.deadline, cx.waker().clone()),
            );
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if !self.fired {
            if let Some(token) = self.cancel {
                self.sim.cancel_wake(token);
            }
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.get_mut().yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(SimDuration::from_millis(250)).await;
            s.now()
        });
        assert_eq!(t, SimTime::from_nanos(250_000_000));
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..10 {
                s.sleep(SimDuration::from_secs(1)).await;
            }
        });
        assert_eq!(sim.now(), SimTime::from_nanos(10_000_000_000));
    }

    #[test]
    fn concurrent_sleeps_overlap() {
        let sim = Sim::new(1);
        for _ in 0..100 {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_secs(5)).await;
            });
        }
        sim.run();
        // 100 concurrent 5s sleeps take 5s of virtual time, not 500s.
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    fn same_instant_timers_fire_in_registration_order() {
        let sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let at = SimTime::from_nanos(1_000);
        for i in 0..20 {
            let order = order.clone();
            sim.call_at(at, move || order.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..20).collect::<Vec<_>>());
        assert_eq!(sim.now(), at);
    }

    #[test]
    fn interleaving_is_deterministic() {
        fn trace(seed: u64) -> Vec<(u64, usize)> {
            let sim = Sim::new(seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            for task in 0..8 {
                let s = sim.clone();
                let log = log.clone();
                sim.spawn(async move {
                    let mut rng = s.rng(&format!("task{task}"));
                    for _ in 0..50 {
                        let d = SimDuration::from_nanos(rng.range_u64(1..1000));
                        s.sleep(d).await;
                        log.borrow_mut().push((s.now().as_nanos(), task));
                    }
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            7u32
        });
        let s2 = sim.clone();
        let got = sim.block_on(async move {
            let v = h.await;
            // Joining must have waited for the sleeping task.
            assert_eq!(s2.now(), SimTime::from_nanos(1_000_000_000));
            v
        });
        assert_eq!(got, 7);
    }

    #[test]
    fn spawn_inside_task_works() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let total = sim.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                let s2 = s.clone();
                handles.push(s.spawn(async move {
                    s2.sleep(SimDuration::from_millis(i)).await;
                    i
                }));
            }
            let mut total = 0;
            for h in handles {
                total += h.await;
            }
            total
        });
        assert_eq!(total, 45);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(10)).await;
            f.set(true);
        });
        sim.run_until(SimTime::from_nanos(3_000_000_000));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_nanos(3_000_000_000));
        sim.run();
        assert!(fired.get());
        assert_eq!(sim.now(), SimTime::from_nanos(10_000_000_000));
    }

    #[test]
    fn yield_now_interleaves_at_same_instant() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..2 {
            let s = sim.clone();
            let log = log.clone();
            sim.spawn(async move {
                for step in 0..3 {
                    log.borrow_mut().push((id, step));
                    s.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn timeout_returns_none_on_expiry() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let out: Option<u32> = sim.block_on(async move {
            let never = std::future::pending::<u32>();
            s.timeout(SimDuration::from_secs(1), never).await
        });
        assert_eq!(out, None);
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn timeout_returns_value_when_in_time() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let out = sim.block_on(async move {
            let s2 = s.clone();
            let fut = async move {
                s2.sleep(SimDuration::from_millis(10)).await;
                5u32
            };
            s.timeout(SimDuration::from_secs(1), fut).await
        });
        assert_eq!(out, Some(5));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_detects_deadlock() {
        let sim = Sim::new(1);
        let _: () = sim.block_on(std::future::pending());
    }

    #[test]
    fn call_after_runs_callbacks() {
        let sim = Sim::new(1);
        let hit = Rc::new(Cell::new(0u32));
        let h = hit.clone();
        sim.call_after(SimDuration::from_secs(2), move || h.set(h.get() + 1));
        let h2 = hit.clone();
        sim.call_after(SimDuration::from_secs(1), move || h2.set(h2.get() + 10));
        sim.run();
        assert_eq!(hit.get(), 11);
        assert_eq!(sim.now(), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn stats_count_work() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_secs(1)).await });
        let st = sim.stats();
        assert!(st.events_processed > 0);
        assert_eq!(st.tasks_spawned, 1);
        assert_eq!(st.tasks_alive, 0);
    }

    #[test]
    fn past_deadline_sleep_completes_immediately() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            // Deadline in the past: must not hang or move time backwards.
            s.sleep_until(SimTime::ZERO).await;
            assert_eq!(s.now(), SimTime::from_nanos(1_000_000_000));
        });
    }

    /// A parked `loop { recv }` server, a parked sleeper and a pending
    /// callback each pin an `Rc`; shutdown must free all three.
    #[test]
    fn shutdown_frees_parked_tasks_and_pending_callbacks() {
        let sim = Sim::new(1);
        let pinned = Rc::new(());
        let weak = Rc::downgrade(&pinned);

        let (tx, mut rx) = crate::channel::<u32>();
        let (s, p) = (sim.clone(), pinned.clone());
        sim.spawn(async move {
            let _keep = (s, p);
            while rx.recv().await.is_some() {}
        });
        let (s, p) = (sim.clone(), pinned.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(3_600)).await;
            drop(p);
        });
        let (s, p) = (sim.clone(), pinned);
        sim.call_after(SimDuration::from_secs(7_200), move || drop((s, p)));
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.stats().tasks_alive, 2);
        assert_eq!(weak.strong_count(), 3);

        sim.shutdown();
        assert_eq!(sim.stats().tasks_alive, 0);
        assert!(weak.upgrade().is_none(), "a parked task or callback survived");
        // The far-future timers are gone: nothing drags the clock forward.
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
        drop(tx);

        // Idempotent, and the sim is still a working sim.
        sim.shutdown();
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            s.now()
        });
        assert_eq!(t, SimTime::from_nanos(1_000_001_000));
        assert_eq!(sim.stats().tasks_alive, 0);
    }

    /// Drop handlers that call back into the sim while it is being torn
    /// down: a `Sleep` cancels its timer, a `Transfer` returns its share
    /// and reschedules the link, a `SemPermit` wakes the queued waiter, an
    /// `Acquire` leaves the wait queue, and a guard registers a fresh
    /// callback and task. None may panic on a held borrow, and what they
    /// register must be torn down in turn.
    #[test]
    fn shutdown_tolerates_drop_handlers_that_reenter_the_sim() {
        struct Respawn {
            sim: Sim,
            pinned: Rc<()>,
        }
        impl Drop for Respawn {
            fn drop(&mut self) {
                let (s, p) = (self.sim.clone(), self.pinned.clone());
                self.sim.call_after(SimDuration::from_secs(1), move || drop((s, p)));
                let (s, p) = (self.sim.clone(), self.pinned.clone());
                self.sim.spawn_detached(async move {
                    s.sleep(SimDuration::from_secs(1)).await;
                    drop(p);
                });
            }
        }

        let sim = Sim::new(2);
        let pinned = Rc::new(());
        let weak = Rc::downgrade(&pinned);
        let link = crate::FairShareLink::new(&sim, crate::mbps(1.0));
        let sem = crate::Semaphore::new(1);

        // Holds the only permit across a transfer far too big to finish.
        let (l, m, p) = (link.clone(), sem.clone(), pinned.clone());
        sim.spawn(async move {
            let _permit = m.acquire(1).await;
            let _keep = p;
            l.transfer(1 << 40, None).await;
        });
        // Queued behind it.
        let (m, p) = (sem.clone(), pinned.clone());
        sim.spawn(async move {
            let _keep = p;
            let _permit = m.acquire(1).await;
        });
        // A second flow, so the canceled one has a share to hand back.
        let l = link.clone();
        sim.spawn(async move { l.transfer(1 << 40, Some(crate::mbps(0.1))).await });
        // Parked on a sleep inside a timeout, owning the re-registering guard.
        let (s, guard) = (sim.clone(), Respawn { sim: sim.clone(), pinned });
        sim.spawn(async move {
            let _guard = guard;
            s.timeout(SimDuration::from_secs(900), std::future::pending::<()>()).await;
        });
        sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(sim.stats().tasks_alive, 4);
        assert_eq!(link.active_flows(), 2);

        let cancels_before = sim.profile().timer_cancels;
        sim.shutdown();
        assert_eq!(sim.stats().tasks_alive, 0);
        assert_eq!(link.active_flows(), 0);
        assert_eq!(sem.available(), 1);
        assert!(weak.upgrade().is_none(), "something registered mid-shutdown survived");
        // Timers shutdown took out of the wheel are released, not
        // canceled: their tokens are stale by the time the sleeps drop.
        assert_eq!(sim.profile().timer_cancels, cancels_before);
        sim.shutdown();
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
    }

    /// Shutdown from inside a task tears down everything but that task.
    #[test]
    fn shutdown_from_inside_a_task_spares_the_caller() {
        let sim = Sim::new(3);
        let s = sim.clone();
        sim.spawn(async move { s.sleep(SimDuration::from_secs(60)).await });
        let s = sim.clone();
        let alive_after = sim.block_on(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            s.shutdown();
            let alive = s.stats().tasks_alive;
            s.sleep(SimDuration::from_secs(1)).await;
            alive
        });
        assert_eq!(alive_after, 1);
        assert_eq!(sim.stats().tasks_alive, 0);
        assert_eq!(sim.now(), SimTime::from_nanos(2_000_000_000));
    }

    use std::cell::Cell;
}
