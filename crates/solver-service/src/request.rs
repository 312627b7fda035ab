//! Request/response types and the one-shot completion ticket.
//!
//! A [`SolveRequest`] is one tridiagonal system plus the bookkeeping the
//! service needs to route the answer back: a monotonically increasing id
//! and a [`Ticket`] the submitter holds. The system is split in two: the
//! coefficient [`Matrix`] sits behind an `Arc`, and the request owns only
//! its right-hand side `d`. Every request of one
//! [`solve_many_rhs`](crate::SolverService::solve_many_rhs) call shares one
//! copy of the matrix; a request built from a [`TridiagonalSystem`] moves
//! that system's vectors into its own `Arc` without copying them. Readers
//! see the whole system through [`SolveRequest::system`].
//!
//! Every buffer a client hands in comes back to it. Once acceptance has
//! read `d`, the worker overwrites it with the accepted answer and returns
//! it as [`SolveResponse::x`], and the request's `Arc<Matrix>` rides back
//! as [`SolveResponse::matrix`]. So the serving worker allocates no answer
//! and frees none of the client's memory: the last reference to the
//! coefficients drops wherever the client drops its response. The one
//! exception is a ticket dropped before its answer arrives: the worker then
//! holds the slot's last reference and frees the response itself.
//!
//! The worker puts the [`SolveResponse`] into the request's one-shot slot;
//! the submitter blocks on [`Ticket::wait`] (or polls [`Ticket::try_take`])
//! without any shared channel — each request carries its own slot, so
//! responses can never be cross-delivered or duplicated. The slot wakes its
//! reader only when the reader is parked in [`Ticket::wait`]: a flag under
//! the slot's mutex records that, so a put to a ticket nobody waits on
//! (yet) makes no wake-up call.

use gpu_sim::Tick;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tridiag_core::{Matrix, MatrixKey, Real, SystemRef, TridiagonalSystem};

/// A single queued solve: one system plus completion plumbing.
///
/// Timestamps are [`Tick`]s on the owning service's clock (see
/// [`gpu_sim::Clock`]): portable integers rather than process-local
/// `Instant`s, so they can ride in decision traces and replay exactly.
#[derive(Debug)]
pub struct SolveRequest<T: Real> {
    /// Service-assigned id, unique for the lifetime of the service.
    pub id: u64,
    /// The coefficient matrix, shared with every other request that
    /// solves against it in the same multi-RHS call.
    pub matrix: Arc<Matrix<T>>,
    /// This request's right-hand side, `matrix.n()` long.
    pub d: Vec<T>,
    /// When the request was admitted (start of the latency clock).
    pub submitted_at: Tick,
    /// Absolute completion deadline on the service clock, if the caller
    /// set one. The batcher flushes a bucket early rather than linger past
    /// a member's deadline; a missed deadline is *reported* (metrics +
    /// response flag), never dropped — the answer is still delivered.
    pub deadline: Option<Tick>,
    /// Identity of the request's coefficient matrix, when the factor
    /// cache is enabled. Requests sharing a key batch together and, once
    /// the matrix is factored, skip elimination entirely; `None` requests
    /// ride the classic per-size buckets untouched.
    pub matrix_key: Option<MatrixKey>,
    pub(crate) slot: Arc<OneShot<SolveResponse<T>>>,
}

impl<T: Real> SolveRequest<T> {
    /// The system to solve, borrowed.
    #[inline]
    pub fn system(&self) -> SystemRef<'_, T> {
        self.matrix.with_rhs(&self.d)
    }

    /// Number of unknowns.
    #[inline]
    pub fn n(&self) -> usize {
        self.matrix.n()
    }

    /// A copy of this request for one more attempt at serving it: the same
    /// id, submit tick, deadline, key and matrix `Arc`, a copy of `d`, and
    /// a fresh ticket. A caller that may serve a request more than once (a
    /// cluster retrying an RPC whose response was lost) serves copies, and
    /// hands the answer it keeps to the original with [`Self::answer`].
    pub fn attempt(&self) -> (SolveRequest<T>, Ticket<T>) {
        request_for(
            self.id,
            Arc::clone(&self.matrix),
            self.d.clone(),
            self.submitted_at,
            self.deadline,
            self.matrix_key,
        )
    }

    /// Puts `response` in this request's ticket.
    pub fn answer(self, response: SolveResponse<T>) {
        self.slot.put(response);
    }
}

/// The answer to one [`SolveRequest`].
#[derive(Debug, Clone)]
pub struct SolveResponse<T: Real> {
    /// Echo of the request id.
    pub id: u64,
    /// The solution vector, length `n`: the request's own right-hand-side
    /// buffer, overwritten with the accepted answer.
    pub x: Vec<T>,
    /// The coefficient matrix the answer solves, the same `Arc` the request
    /// carried. Holding the response keeps the matrix alive; resubmitting
    /// it (see [`SolveRequest::matrix`]) costs no copy.
    pub matrix: Arc<Matrix<T>>,
    /// Achieved `||Ax − d||₂` residual of the returned solution.
    pub residual: f64,
    /// Canonical spelling of the engine that produced the final answer
    /// (e.g. `cr+pcr@256`, `cpu-thomas`), shared by every response of one
    /// flush.
    pub engine: Arc<str>,
    /// Whether the GEP safety net had to re-solve this system after the
    /// primary engine's answer failed verification.
    pub repaired: bool,
    /// How many systems shared the batch this request was served in.
    pub batch_occupancy: usize,
    /// Queue + batch + solve latency, admission to completion.
    pub latency: Duration,
    /// `true` when the request carried a deadline and the response was
    /// delivered after it (the answer is still correct and verified —
    /// deadline misses degrade latency, never correctness).
    pub deadline_missed: bool,
}

/// Submitter-side handle for one in-flight request.
///
/// Dropping the ticket abandons the response (the solve still happens and
/// is still counted in the metrics).
#[derive(Debug)]
pub struct Ticket<T: Real> {
    pub(crate) id: u64,
    pub(crate) slot: Arc<OneShot<SolveResponse<T>>>,
}

impl<T: Real> Ticket<T> {
    /// The id of the request this ticket tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives and takes it.
    pub fn wait(self) -> SolveResponse<T> {
        self.slot.take_blocking()
    }

    /// Takes the response if it has already arrived.
    pub fn try_take(&self) -> Option<SolveResponse<T>> {
        self.slot.try_take()
    }
}

/// A minimal one-shot rendezvous: one writer, one reader, built on
/// `Mutex` + `Condvar` (the build is offline; no external oneshot crate).
#[derive(Debug)]
pub(crate) struct OneShot<V> {
    slot: Mutex<Slot<V>>,
    ready: Condvar,
}

#[derive(Debug)]
struct Slot<V> {
    value: Option<V>,
    /// The reader is parked on `ready`. Written and read only under the
    /// mutex, so a put either sees it set and wakes the reader, or the
    /// reader sees the value before it parks: no wake-up is lost.
    parked: bool,
}

impl<V> OneShot<V> {
    pub(crate) fn new() -> Self {
        Self { slot: Mutex::new(Slot { value: None, parked: false }), ready: Condvar::new() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot<V>> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Stores the value and wakes the reader if it is parked. Second puts
    /// are a logic error upstream and are rejected loudly in debug builds.
    pub(crate) fn put(&self, v: V) {
        let mut slot = self.lock();
        debug_assert!(slot.value.is_none(), "one-shot fulfilled twice");
        slot.value = Some(v);
        let parked = slot.parked;
        drop(slot);
        if parked {
            self.ready.notify_one();
        }
    }

    pub(crate) fn try_take(&self) -> Option<V> {
        self.lock().value.take()
    }

    pub(crate) fn take_blocking(&self) -> V {
        let mut slot = self.lock();
        loop {
            if let Some(v) = slot.value.take() {
                slot.parked = false;
                return v;
            }
            slot.parked = true;
            slot = self.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Builds a paired request + ticket for `system`, submitted at tick 0
/// with no deadline.
///
/// Normally the service does this inside `submit`; it is public so
/// embedders (and tests) can drive [`serve_flush`](crate::serve_flush)
/// directly with hand-assembled flushes.
pub fn make_request<T: Real>(
    id: u64,
    system: TridiagonalSystem<T>,
) -> (SolveRequest<T>, Ticket<T>) {
    make_request_keyed(id, system, 0, None, None)
}

/// [`make_request`] with an explicit submission tick, an optional
/// completion deadline (on the service clock; advisory: the batcher
/// flushes early to try to meet it, and the response reports whether it
/// was met) and an optional matrix identity, which every request of a
/// multi-RHS submission carries, computed once for the shared matrix.
pub fn make_request_keyed<T: Real>(
    id: u64,
    system: TridiagonalSystem<T>,
    submitted_at: Tick,
    deadline: Option<Tick>,
    matrix_key: Option<MatrixKey>,
) -> (SolveRequest<T>, Ticket<T>) {
    let (matrix, d) = system.into_parts();
    request_for(id, Arc::new(matrix), d, submitted_at, deadline, matrix_key)
}

/// A paired request + ticket solving `matrix` against `d`: the one
/// constructor behind every `make_request*` and the service's admission.
pub(crate) fn request_for<T: Real>(
    id: u64,
    matrix: Arc<Matrix<T>>,
    d: Vec<T>,
    submitted_at: Tick,
    deadline: Option<Tick>,
    matrix_key: Option<MatrixKey>,
) -> (SolveRequest<T>, Ticket<T>) {
    let slot = Arc::new(OneShot::new());
    let request =
        SolveRequest { id, matrix, d, submitted_at, deadline, matrix_key, slot: slot.clone() };
    (request, Ticket { id, slot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::TridiagonalSystem;

    fn sys() -> TridiagonalSystem<f32> {
        TridiagonalSystem::toeplitz(4, -1.0, 4.0, -1.0, 1.0).unwrap()
    }

    fn response(id: u64) -> SolveResponse<f32> {
        SolveResponse {
            id,
            x: vec![0.0; 4],
            matrix: Arc::new(sys().into_parts().0),
            residual: 0.0,
            engine: "cpu-thomas".into(),
            repaired: false,
            batch_occupancy: 1,
            latency: Duration::from_micros(10),
            deadline_missed: false,
        }
    }

    #[test]
    fn ticket_receives_the_fulfilled_response() {
        let (req, ticket) = make_request(7, sys());
        assert_eq!(ticket.id(), 7);
        assert!(ticket.try_take().is_none());
        req.slot.put(response(7));
        assert_eq!(ticket.wait().id, 7);
    }

    #[test]
    fn deadline_rides_the_request() {
        let (req, _ticket) = make_request(0, sys());
        assert!(req.deadline.is_none(), "plain requests carry no deadline");
        let (req, _ticket) = make_request_keyed(2, sys(), 1_000, Some(5_000), None);
        assert_eq!(req.submitted_at, 1_000);
        assert_eq!(req.deadline, Some(5_000));
    }

    /// How long a woken reader may take to report back before the test
    /// calls its wake-up lost.
    const WAKE_TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn a_reader_parked_before_the_put_is_woken() {
        let (req, ticket) = make_request(3, sys());
        let slot = ticket.slot.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let _ = tx.send(ticket.wait().id);
        });
        while !slot.lock().parked {
            std::thread::yield_now();
        }
        req.slot.put(response(3));
        assert_eq!(rx.recv_timeout(WAKE_TIMEOUT).expect("the put must wake the reader"), 3);
        reader.join().unwrap();
        assert!(!slot.lock().parked, "a woken reader clears its flag");
    }

    #[test]
    fn a_reader_arriving_after_the_put_takes_without_parking() {
        let (req, ticket) = make_request(4, sys());
        req.slot.put(response(4));
        assert!(!ticket.slot.lock().parked, "nobody parked, so nobody was woken");
        assert_eq!(ticket.wait().id, 4);
    }

    #[test]
    fn polling_then_waiting_sees_the_one_answer() {
        let (req, ticket) = make_request(5, sys());
        assert!(ticket.try_take().is_none(), "nothing to take yet");
        let worker = std::thread::spawn(move || req.slot.put(response(5)));
        assert_eq!(ticket.wait().id, 5);
        worker.join().unwrap();
    }

    #[test]
    fn requests_share_the_matrix_and_own_their_rhs() {
        let system = sys();
        let (req, _ticket) = make_request(6, system.clone());
        assert_eq!(req.n(), 4);
        let view = req.system();
        assert_eq!(
            (view.a, view.b, view.c, view.d),
            (&system.a[..], &system.b[..], &system.c[..], &system.d[..])
        );
        let (other, _t) = request_for(7, req.matrix.clone(), vec![2.0; 4], 0, None, req.matrix_key);
        assert!(Arc::ptr_eq(&req.matrix, &other.matrix), "one copy of the matrix");
        assert_eq!(other.system().d, &[2.0; 4]);
    }

    #[test]
    fn wait_blocks_until_a_worker_fulfils() {
        let (req, ticket) = make_request(1, sys());
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            req.slot.put(response(1));
        });
        assert_eq!(ticket.wait().id, 1);
        worker.join().unwrap();
    }
}
