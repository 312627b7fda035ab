//! Bounded admission queue with reject-on-full backpressure.
//!
//! The front door of the service. Unlike an unbounded channel, admission is
//! capped: when the queue is at capacity [`BoundedQueue::push`] fails
//! *immediately* instead of blocking the submitter — the service sheds load
//! at the edge rather than letting latency grow without bound (the same
//! policy as any production inference server's admission controller).
//!
//! The consumer side supports deadline-bounded popping
//! ([`BoundedQueue::pop_until`]) so the batcher can sleep exactly until its
//! earliest linger deadline, whichever of "new request" or "time to flush"
//! comes first.
//!
//! [`BoundedQueue::push_many`] admits a whole run of items under one lock
//! — as many as fit — so a multi-RHS call pays one queue operation, not
//! one per right-hand side. It never blocks either. The one caller that
//! does block is a multi-RHS call larger than the free capacity, with the
//! service's client retry on: it parks in [`BoundedQueue::wait_for_room`]
//! between its pieces, and each pop wakes it to refill the freed slot, so
//! under overload it takes slots that one-shot submitters would otherwise
//! have found free.
//!
//! A push always notifies the consumer: in tribench's service workloads
//! the batcher is parked at 91–98% of pushes, so a parked-only rule would
//! skip almost none. A pop notifies only when a producer is parked in
//! `wait_for_room`, counted under the queue's mutex, so the batcher's
//! pops make no wake-up call when nobody waits for room.

use gpu_sim::{Clock, Tick};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Outcome of a push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; nothing was enqueued.
    Full,
    /// The queue has been closed; nothing was enqueued.
    Closed,
}

/// Outcome of a deadline-bounded pop.
#[derive(Debug)]
pub enum Pop<R> {
    /// An item was dequeued.
    Item(R),
    /// The deadline passed with the queue still empty.
    TimedOut,
    /// The queue is closed *and* fully drained — the consumer is done.
    Drained,
}

struct State<R> {
    items: VecDeque<R>,
    closed: bool,
    /// Producers parked on `room`.
    producers_parked: usize,
}

/// A multi-producer single-consumer bounded queue (`Mutex` + `Condvar`).
pub struct BoundedQueue<R> {
    state: Mutex<State<R>>,
    nonempty: Condvar,
    room: Condvar,
    capacity: usize,
}

impl<R> BoundedQueue<R> {
    /// Creates a queue admitting at most `capacity` pending items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        Self {
            state: Mutex::new(State { items: VecDeque::new(), closed: false, producers_parked: 0 }),
            nonempty: Condvar::new(),
            room: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (approximate the instant the lock is released).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue; never blocks.
    pub fn push(&self, item: R) -> Result<(), PushError> {
        self.push_many(std::iter::once(item)).map(drop)
    }

    /// Takes items from the front of `items` into the queue, in order,
    /// until the queue is full; never blocks. Returns how many moved (all
    /// of them when they fit). The iterator is advanced only past what
    /// moved, so a caller that passes `by_ref()` keeps what did not fit.
    ///
    /// # Errors
    /// [`PushError::Closed`] after [`close`](Self::close);
    /// [`PushError::Full`] when `items` is non-empty and not one fits.
    pub fn push_many(&self, items: impl ExactSizeIterator<Item = R>) -> Result<usize, PushError> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed);
        }
        let offered = items.len();
        let moved = offered.min(self.capacity.saturating_sub(s.items.len()));
        if moved == 0 && offered > 0 {
            return Err(PushError::Full);
        }
        s.items.extend(items.take(moved));
        drop(s);
        if moved > 0 {
            self.nonempty.notify_one();
        }
        Ok(moved)
    }

    /// Blocks until the queue has a free slot or is closed: how a caller
    /// whose [`push_many`](Self::push_many) did not fit waits for the
    /// consumer to drain its earlier piece.
    pub fn wait_for_room(&self) {
        let mut s = self.lock();
        while s.items.len() >= self.capacity && !s.closed {
            s.producers_parked += 1;
            s = self.room.wait(s).unwrap_or_else(|p| p.into_inner());
            s.producers_parked -= 1;
        }
    }

    /// Dequeues one item, waiting until `deadline` on `clock` (forever
    /// when `None`).
    ///
    /// Once closed, remaining items are still handed out in order;
    /// [`Pop::Drained`] is only returned when closed *and* empty, so no
    /// admitted request is ever dropped by shutdown.
    ///
    /// Under a simulated clock the wait parks in short real quanta and
    /// re-checks virtual time (see [`Clock::park_budget`]) so a deadline
    /// advanced by another thread is observed promptly; a deadline that
    /// has already virtually passed returns [`Pop::TimedOut`] without
    /// parking at all.
    pub fn pop_until(&self, deadline: Option<Tick>, clock: &Clock) -> Pop<R> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                let wake = s.producers_parked > 0;
                drop(s);
                if wake {
                    self.room.notify_all();
                }
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Drained;
            }
            match deadline {
                None => {
                    s = self.nonempty.wait(s).unwrap_or_else(|p| p.into_inner());
                }
                Some(d) => match clock.park_budget(d) {
                    None => return Pop::TimedOut,
                    Some(budget) => {
                        let (guard, _timeout) = self
                            .nonempty
                            .wait_timeout(s, budget)
                            .unwrap_or_else(|p| p.into_inner());
                        s = guard;
                        // A sim clock that cannot move on its own would
                        // spin here forever: the batcher is the only
                        // thread advancing it, so push it to the deadline
                        // once the real quantum elapsed fruitlessly.
                        if clock.is_sim() && s.items.is_empty() && !s.closed {
                            clock.advance_to(d);
                        }
                    }
                },
            }
        }
    }

    /// Closes the queue: future pushes fail, the consumer drains what is
    /// left and then observes [`Pop::Drained`].
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.nonempty.notify_all();
        self.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// How long a woken thread may take to report back before the test
    /// calls its wake-up lost.
    const WAKE_TIMEOUT: Duration = Duration::from_secs(10);

    /// Spins until `parked` holds for the queue's state.
    fn until<R>(q: &BoundedQueue<R>, parked: impl Fn(&State<R>) -> bool) {
        while !parked(&q.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_consumer_parked_before_the_push_is_woken() {
        for deadline in [None, Some(Clock::real().tick_after(Duration::from_secs(60)))] {
            let q = Arc::new(BoundedQueue::new(4));
            let (tx, rx) = mpsc::channel();
            let consumer = {
                let q = q.clone();
                std::thread::spawn(move || {
                    let _ = tx.send(q.pop_until(deadline, &Clock::real()));
                })
            };
            // Nothing marks the consumer as parked; give it time to get
            // there (if it has not, it takes the item without parking).
            std::thread::sleep(Duration::from_millis(20));
            q.push(7u32).unwrap();
            let popped = rx.recv_timeout(WAKE_TIMEOUT).expect("the push must wake the consumer");
            assert!(matches!(popped, Pop::Item(7)), "{deadline:?}");
            consumer.join().unwrap();
        }
    }

    #[test]
    fn a_consumer_arriving_after_the_push_takes_the_item_without_parking() {
        let q = BoundedQueue::new(4);
        q.push(1u32).unwrap();
        q.push_many([2, 3].into_iter()).unwrap();
        let clock = Clock::real();
        for want in 1..=3 {
            assert!(matches!(q.pop_until(None, &clock), Pop::Item(v) if v == want));
        }
    }

    #[test]
    fn push_many_moves_what_fits_in_order() {
        let q = BoundedQueue::new(3);
        q.push(0u32).unwrap();
        let mut items = vec![1, 2, 3, 4].into_iter();
        assert_eq!(q.push_many(items.by_ref()), Ok(2));
        assert_eq!(items.as_slice(), [3, 4], "the rest stays with the caller");
        assert_eq!(q.push_many(items.by_ref()), Err(PushError::Full));
        assert_eq!(items.len(), 2, "a full queue takes nothing");
        assert_eq!(q.push_many(std::iter::empty()), Ok(0));
        let clock = Clock::real();
        for want in 0..3 {
            assert!(matches!(q.pop_until(None, &clock), Pop::Item(v) if v == want));
        }
        q.close();
        assert_eq!(q.push_many(items.by_ref()), Err(PushError::Closed));
    }

    #[test]
    fn a_producer_parked_for_room_is_woken_by_a_pop_or_close() {
        for close in [false, true] {
            let q = Arc::new(BoundedQueue::new(1));
            q.push(1u32).unwrap();
            let (tx, rx) = mpsc::channel();
            let producer = {
                let q = q.clone();
                std::thread::spawn(move || {
                    q.wait_for_room();
                    let _ = tx.send(q.push(2));
                })
            };
            until(&q, |s| s.producers_parked == 1);
            if close {
                q.close();
            } else {
                assert!(matches!(q.pop_until(None, &Clock::real()), Pop::Item(1)));
            }
            let pushed = rx.recv_timeout(WAKE_TIMEOUT).expect("the producer must be woken");
            let want = if close { Err(PushError::Closed) } else { Ok(()) };
            assert_eq!(pushed, want);
            producer.join().unwrap();
            assert_eq!(q.lock().producers_parked, 0);
        }
    }

    #[test]
    fn wait_for_room_returns_at_once_when_there_is_room() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.wait_for_room();
        assert_eq!(q.lock().producers_parked, 0, "never parked");
    }

    #[test]
    fn push_rejects_instead_of_blocking_when_full() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let start = Instant::now();
        assert_eq!(q.push(3), Err(PushError::Full));
        // Rejection is immediate — the hallmark of backpressure-by-shedding.
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_honours_the_deadline_on_a_real_clock() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::real();
        let deadline = clock.tick_after(Duration::from_millis(10));
        assert!(matches!(q.pop_until(Some(deadline), &clock), Pop::TimedOut));
        assert!(clock.now() >= deadline);
    }

    #[test]
    fn pop_on_a_sim_clock_times_out_in_virtual_time() {
        // An hour-long virtual deadline: a real-clock wait would hang the
        // test; the sim clock advances through it in one polling quantum.
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::sim();
        let deadline = clock.tick_after(Duration::from_secs(3600));
        let wall = Instant::now();
        assert!(matches!(q.pop_until(Some(deadline), &clock), Pop::TimedOut));
        assert!(clock.now() >= deadline, "virtual time reached the deadline");
        assert!(wall.elapsed() < Duration::from_secs(5), "no real hour elapsed");
    }

    #[test]
    fn sim_deadline_already_passed_times_out_without_parking() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::sim();
        clock.advance(Duration::from_millis(5));
        let wall = Instant::now();
        assert!(matches!(q.pop_until(Some(1_000), &clock), Pop::TimedOut));
        assert!(wall.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn close_drains_remaining_items_before_reporting_drained() {
        let q = BoundedQueue::new(4);
        let clock = Clock::real();
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
        assert!(matches!(q.pop_until(None, &clock), Pop::Item(1)));
        assert!(matches!(q.pop_until(None, &clock), Pop::Item(2)));
        assert!(matches!(q.pop_until(None, &clock), Pop::Drained));
    }

    #[test]
    fn producer_consumer_hand_off_across_threads() {
        let q = std::sync::Arc::new(BoundedQueue::new(8));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100u32 {
                loop {
                    match q2.push(i) {
                        Ok(()) => break,
                        Err(PushError::Full) => std::thread::yield_now(),
                        Err(PushError::Closed) => panic!("closed early"),
                    }
                }
            }
            q2.close();
        });
        let clock = Clock::real();
        let mut got = Vec::new();
        loop {
            match q.pop_until(None, &clock) {
                Pop::Item(i) => got.push(i),
                Pop::Drained => break,
                Pop::TimedOut => unreachable!("no deadline given"),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
