//! Coordination primitives that suspend tasks in virtual time.
//!
//! These mirror the shapes of `tokio::sync` but are single-threaded,
//! allocation-light, and deterministic: waiters are always served in FIFO
//! order.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// mpsc channel (unbounded, single consumer)
// ---------------------------------------------------------------------------

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of an unbounded channel. Clonable.
pub struct Sender<T> {
    chan: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    chan: Rc<RefCell<ChanState<T>>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Create an unbounded mpsc channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender { chan: chan.clone() },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Enqueue a value, waking the receiver. Fails if the receiver dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let waker = {
            let mut st = self.chan.borrow_mut();
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            st.recv_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.chan.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.borrow_mut().senders += 1;
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.chan.borrow_mut();
            st.senders -= 1;
            if st.senders == 0 {
                st.recv_waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Await the next message; `None` once all senders dropped and the
    /// queue drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        self.chan.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.chan.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.borrow_mut().receiver_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.rx.chan.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    st: Rc<RefCell<OneshotState<T>>>,
    sent: bool,
}

/// Receiving half of a oneshot channel. Awaiting it yields
/// `Ok(value)` or `Err(Canceled)` if the sender dropped without sending.
pub struct OneshotReceiver<T> {
    st: Rc<RefCell<OneshotState<T>>>,
}

/// The oneshot sender was dropped without sending.
#[derive(Debug, PartialEq, Eq)]
pub struct Canceled;

/// Create a oneshot channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let st = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        sender_alive: true,
    }));
    (
        OneshotSender {
            st: st.clone(),
            sent: false,
        },
        OneshotReceiver { st },
    )
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(mut self, value: T) {
        self.sent = true;
        let waker = {
            let mut st = self.st.borrow_mut();
            st.value = Some(value);
            st.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.st.borrow_mut();
            st.sender_alive = false;
            if self.sent {
                None
            } else {
                st.waker.take()
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, Canceled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.st.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !st.sender_alive {
            return Poll::Ready(Err(Canceled));
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct Waiter {
    id: u64,
    need: usize,
    waker: Option<Waker>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Waiter>,
    next_id: u64,
}

impl SemState {
    /// Wake the longest-waiting waiter if it can now be satisfied.
    /// (FIFO: a large request at the head blocks smaller ones behind it,
    /// which prevents starvation.)
    fn wake_front_if_ready(&mut self) -> Option<Waker> {
        if let Some(front) = self.waiters.front_mut() {
            if front.need <= self.permits {
                return front.waker.take();
            }
        }
        None
    }
}

/// A counting semaphore with FIFO fairness.
#[derive(Clone)]
pub struct Semaphore {
    st: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            st: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                next_id: 0,
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.st.borrow().permits
    }

    /// Acquire `n` permits; the returned guard releases them on drop.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            need: n,
            queued_as: None,
        }
    }

    /// Try to acquire without waiting.
    pub fn try_acquire(&self, n: usize) -> Option<SemPermit> {
        let mut st = self.st.borrow_mut();
        if st.waiters.is_empty() && st.permits >= n {
            st.permits -= n;
            Some(SemPermit {
                sem: self.clone(),
                n,
            })
        } else {
            None
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    need: usize,
    queued_as: Option<u64>,
}

impl Future for Acquire {
    type Output = SemPermit;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemPermit> {
        let this = self.get_mut();
        let mut st = this.sem.st.borrow_mut();
        match this.queued_as {
            None => {
                if st.waiters.is_empty() && st.permits >= this.need {
                    st.permits -= this.need;
                    return Poll::Ready(SemPermit {
                        sem: this.sem.clone(),
                        n: this.need,
                    });
                }
                let id = st.next_id;
                st.next_id += 1;
                st.waiters.push_back(Waiter {
                    id,
                    need: this.need,
                    waker: Some(cx.waker().clone()),
                });
                this.queued_as = Some(id);
                Poll::Pending
            }
            Some(id) => {
                // Only the head of the queue may claim permits.
                let at_head = st.waiters.front().map(|w| w.id) == Some(id);
                if at_head && st.permits >= this.need {
                    st.permits -= this.need;
                    st.waiters.pop_front();
                    this.queued_as = None;
                    // The next waiter might also be satisfiable now.
                    let next = st.wake_front_if_ready();
                    drop(st);
                    if let Some(w) = next {
                        w.wake();
                    }
                    return Poll::Ready(SemPermit {
                        sem: this.sem.clone(),
                        n: this.need,
                    });
                }
                // Refresh our stored waker.
                if let Some(w) = st.waiters.iter_mut().find(|w| w.id == id) {
                    w.waker = Some(cx.waker().clone());
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(id) = self.queued_as {
            let waker = {
                let mut st = self.sem.st.borrow_mut();
                if let Some(pos) = st.waiters.iter().position(|w| w.id == id) {
                    st.waiters.remove(pos);
                }
                // Canceling the head may unblock the next waiter.
                st.wake_front_if_ready()
            };
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

/// Permits held from a [`Semaphore`]; released on drop.
pub struct SemPermit {
    sem: Semaphore,
    n: usize,
}

impl SemPermit {
    /// How many permits this guard holds.
    pub fn count(&self) -> usize {
        self.n
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.sem.st.borrow_mut();
            st.permits += self.n;
            st.wake_front_if_ready()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// Notify (edge-triggered wakeup set)
// ---------------------------------------------------------------------------

struct NotifyState {
    waiters: VecDeque<(u64, Waker)>,
    /// Wakeups delivered to waiter ids (consumed on poll).
    signaled: Vec<u64>,
    next_id: u64,
}

/// Wake one or all waiting tasks. Unlike a channel there is no payload and
/// no buffering: a `notify_one` with no waiter is lost.
#[derive(Clone)]
pub struct Notify {
    st: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Notify::new()
    }
}

impl Notify {
    /// Create a notifier with no waiters.
    pub fn new() -> Notify {
        Notify {
            st: Rc::new(RefCell::new(NotifyState {
                waiters: VecDeque::new(),
                signaled: Vec::new(),
                next_id: 0,
            })),
        }
    }

    /// A future that completes at the next notification after it first polls.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            id: None,
        }
    }

    /// Mark the longest-waiting task signaled and hand back its waker.
    fn signal_front(&self) -> Option<Waker> {
        let mut st = self.st.borrow_mut();
        let (id, waker) = st.waiters.pop_front()?;
        st.signaled.push(id);
        Some(waker)
    }

    /// Wake the longest-waiting task, if any.
    pub fn notify_one(&self) {
        if let Some(waker) = self.signal_front() {
            waker.wake();
        }
    }

    /// Wake every waiting task, longest-waiting first.
    pub fn notify_all(&self) {
        // One at a time, the state released around each wake: a waker
        // is foreign code, and one that drops a `Notified` on this
        // notifier re-enters the state.
        while let Some(waker) = self.signal_front() {
            waker.wake();
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    id: Option<u64>,
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.notify.st.borrow_mut();
        match this.id {
            None => {
                let id = st.next_id;
                st.next_id += 1;
                st.waiters.push_back((id, cx.waker().clone()));
                this.id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                if let Some(pos) = st.signaled.iter().position(|&s| s == id) {
                    st.signaled.swap_remove(pos);
                    this.id = None;
                    return Poll::Ready(());
                }
                // Re-polled without a signal (a sibling branch of a
                // `select2` woke the task): the stored waker already
                // wakes this task unless the future moved to another.
                if let Some((_, w)) = st.waiters.iter_mut().find(|(wid, _)| *wid == id) {
                    if !w.will_wake(cx.waker()) {
                        *w = cx.waker().clone();
                    }
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut st = self.notify.st.borrow_mut();
            if let Some(pos) = st.waiters.iter().position(|(wid, _)| *wid == id) {
                st.waiters.remove(pos);
            }
            if let Some(pos) = st.signaled.iter().position(|&s| s == id) {
                st.signaled.swap_remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn channel_delivers_in_order() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                s.sleep(SimDuration::from_millis(10)).await;
                tx.send(i).unwrap();
            }
        });
        let got = sim.block_on(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_recv_none_after_senders_drop() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        let out = sim.block_on(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(out, (Some(9), None));
    }

    #[test]
    fn channel_send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn channel_try_recv() {
        let (tx, mut rx) = channel::<u32>();
        assert_eq!(rx.try_recv(), None);
        tx.send(5).unwrap();
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.try_recv(), Some(5));
        assert!(rx.is_empty());
    }

    #[test]
    fn cloned_senders_count() {
        let sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(3).unwrap();
        drop(tx2);
        let out = sim.block_on(async move {
            let mut v = Vec::new();
            while let Some(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn oneshot_roundtrip() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<&'static str>();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            tx.send("done");
        });
        assert_eq!(sim.block_on(rx), Ok("done"));
    }

    #[test]
    fn oneshot_cancel() {
        let sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(sim.block_on(rx), Err(Canceled));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let peak = Rc::new(Cell::new(0usize));
        let cur = Rc::new(Cell::new(0usize));
        for _ in 0..10 {
            let s = sim.clone();
            let sem = sem.clone();
            let peak = peak.clone();
            let cur = cur.clone();
            sim.spawn(async move {
                let _permit = sem.acquire(1).await;
                cur.set(cur.get() + 1);
                peak.set(peak.get().max(cur.get()));
                s.sleep(SimDuration::from_millis(10)).await;
                cur.set(cur.get() - 1);
            });
        }
        sim.run();
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.available(), 2);
        // 10 tasks, 2 at a time, 10ms each => 50ms.
        assert_eq!(sim.now().as_nanos(), 50_000_000);
    }

    #[test]
    fn semaphore_fifo_no_starvation() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let order = Rc::new(RefCell::new(Vec::new()));
        // Task 0 grabs both permits, then a big request (2) queues ahead of
        // a small one (1); the small one must NOT jump the queue.
        let s0 = sim.clone();
        let sem0 = sem.clone();
        let ord0 = order.clone();
        sim.spawn(async move {
            let p = sem0.acquire(2).await;
            s0.sleep(SimDuration::from_millis(10)).await;
            ord0.borrow_mut().push("first");
            drop(p);
        });
        let s1 = sim.clone();
        let sem1 = sem.clone();
        let ord1 = order.clone();
        sim.spawn(async move {
            s1.sleep(SimDuration::from_millis(1)).await;
            let _p = sem1.acquire(2).await;
            ord1.borrow_mut().push("big");
        });
        let s2 = sim.clone();
        let sem2 = sem.clone();
        let ord2 = order.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(2)).await;
            let _p = sem2.acquire(1).await;
            ord2.borrow_mut().push("small");
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "big", "small"]);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let p = sem.try_acquire(1).unwrap();
        assert!(sem.try_acquire(1).is_none());
        let sem2 = sem.clone();
        sim.spawn(async move {
            let _p = sem2.acquire(1).await;
        });
        // Give the spawned task a chance to queue.
        sim.run_until(crate::time::SimTime::ZERO);
        drop(p);
        sim.run();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn canceling_queued_acquire_unblocks_next() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let held = sem.try_acquire(1).unwrap();
        let s = sim.clone();
        let sem_a = sem.clone();
        // Waiter A times out while queued; waiter B must still get through.
        let sa = sim.clone();
        sim.spawn(async move {
            let got = sa
                .timeout(SimDuration::from_millis(5), sem_a.acquire(1))
                .await;
            assert!(got.is_none());
        });
        let sem_b = sem.clone();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            let _p = sem_b.acquire(1).await;
            d.set(true);
        });
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(10)).await;
            drop(held);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn notify_one_wakes_single_waiter() {
        let sim = Sim::new(1);
        let n = Notify::new();
        let woke = Rc::new(Cell::new(0));
        for _ in 0..3 {
            let n = n.clone();
            let woke = woke.clone();
            sim.spawn(async move {
                n.notified().await;
                woke.set(woke.get() + 1);
            });
        }
        let n2 = n.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            n2.notify_one();
            s.sleep(SimDuration::from_millis(1)).await;
            n2.notify_all();
        });
        sim.run();
        assert_eq!(woke.get(), 3);
    }

    #[test]
    fn notify_without_waiters_is_lost() {
        let sim = Sim::new(1);
        let n = Notify::new();
        n.notify_one();
        let s = sim.clone();
        let n2 = n.clone();
        let got = sim.block_on(async move {
            s.timeout(SimDuration::from_millis(5), n2.notified()).await
        });
        assert!(got.is_none());
    }

    /// A waker that counts its clones and wakes, to watch what a pending
    /// [`Notified`] stores.
    struct CountingWaker {
        clones: Cell<u32>,
        wakes: Cell<u32>,
    }

    impl CountingWaker {
        fn new() -> Rc<CountingWaker> {
            Rc::new(CountingWaker {
                clones: Cell::new(0),
                wakes: Cell::new(0),
            })
        }

        fn waker(self: &Rc<Self>) -> Waker {
            // One vtable at one address, so `will_wake` can tell that two
            // wakers of one `CountingWaker` wake the same thing.
            static VTABLE: RawWakerVTable = RawWakerVTable::new(
                clone,
                |p| wake_by_ref(p, true),
                |p| wake_by_ref(p, false),
                drop_raw,
            );
            fn clone(p: *const ()) -> RawWaker {
                // SAFETY: `p` came from `Rc::into_raw` and the waker being
                // cloned owns one count, so the pointee is live.
                let this = unsafe {
                    Rc::increment_strong_count(p as *const CountingWaker);
                    &*(p as *const CountingWaker)
                };
                this.clones.set(this.clones.get() + 1);
                RawWaker::new(p, &VTABLE)
            }
            fn wake_by_ref(p: *const (), consume: bool) {
                // SAFETY: as in `clone`.
                let this = unsafe { &*(p as *const CountingWaker) };
                this.wakes.set(this.wakes.get() + 1);
                if consume {
                    drop_raw(p);
                }
            }
            fn drop_raw(p: *const ()) {
                // SAFETY: gives back the one count this waker owns.
                unsafe { drop(Rc::from_raw(p as *const CountingWaker)) }
            }
            let raw = RawWaker::new(Rc::into_raw(self.clone()) as *const (), &VTABLE);
            // SAFETY: the vtable keeps one `Rc` count per waker, and the
            // test never sends a waker to another thread.
            unsafe { Waker::from_raw(raw) }
        }
    }

    #[test]
    fn a_pending_notified_stores_a_waker_once_per_task() {
        let n = Notify::new();
        let mut fut = std::pin::pin!(n.notified());
        let first = CountingWaker::new();
        let waker = first.waker();
        for _ in 0..3 {
            assert!(fut
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
        }
        assert_eq!(
            first.clones.get(),
            1,
            "re-polls by the same task store nothing"
        );

        // The future moves to another task: its waker replaces the first.
        let second = CountingWaker::new();
        let waker2 = second.waker();
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker2))
            .is_pending());
        assert_eq!(second.clones.get(), 1);
        n.notify_all();
        assert_eq!((first.wakes.get(), second.wakes.get()), (0, 1));
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker2))
            .is_ready());
    }

    use std::rc::Rc;
    use std::task::{RawWaker, RawWakerVTable};
}
