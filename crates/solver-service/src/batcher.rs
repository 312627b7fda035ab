//! Micro-batcher: groups admitted requests into size-class batches.
//!
//! The paper's solvers get their throughput from *batching* — one kernel
//! launch solving hundreds of systems at once, a thread block per system.
//! Individual callers submit one system at a time, so the service
//! accumulates requests into per-`n` buckets (systems of different sizes
//! can never share a launch: the kernels are compiled per size class and
//! the batched layout is `n`-contiguous) and flushes a bucket when either
//!
//! * it reaches the **target batch size** (enough occupancy to saturate
//!   the simulated SMs), or
//! * the oldest request in it has waited **max linger** (bounding the
//!   latency a lone request can be held hostage for), or
//! * a member's **deadline** would not survive the remaining linger
//!   window — the bucket flushes early (minus a configurable slack that
//!   leaves time for the solve itself), trading occupancy for the
//!   deadline, or
//! * the service is shutting down (everything admitted gets served).
//!
//! The pure, thread-free [`BucketTable`] is also the admission point:
//! [`BucketTable::admit`] is the one step both serving loops call for
//! every request — the sim-clock driver and the threaded service's
//! submitting threads. It rejects once `capacity` requests wait in
//! buckets, traces `Reject` or `Admit`, inserts, and hands back a bucket
//! the request filled. Expiry stays with each loop (the driver's rule 1,
//! the service's timer thread), which reads [`BucketTable::next_deadline`]
//! and calls [`BucketTable::flush_expired`].

use crate::request::SolveRequest;
use crate::trace::{RejectReason, TraceEvent, TraceHandle};
use gpu_sim::Tick;
use std::collections::BTreeMap;
use std::time::Duration;
use tridiag_core::Real;

/// Why a batch was flushed — carried through to the metrics so operators
/// can see whether the service is running full (throughput mode) or
/// lingering (latency mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bucket reached the target batch size.
    Full,
    /// The oldest request hit the linger deadline.
    Linger,
    /// A member request's completion deadline forced an early flush
    /// (deadline − slack arrived before the linger window closed).
    Deadline,
    /// Service shutdown drained the bucket.
    Shutdown,
}

impl FlushReason {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Linger => "linger",
            FlushReason::Deadline => "deadline",
            FlushReason::Shutdown => "shutdown",
        }
    }
}

/// A group of same-size requests ready for dispatch.
#[derive(Debug)]
pub struct FlushedBatch<T: Real> {
    /// System size shared by every request in the batch.
    pub n: usize,
    /// The member requests (at least one).
    pub requests: Vec<SolveRequest<T>>,
    /// What triggered the flush.
    pub reason: FlushReason,
}

/// What [`BucketTable::admit`] did with an admitted request.
#[derive(Debug)]
pub enum Admitted<T: Real> {
    /// The request waits in a bucket due to flush at this tick (its
    /// linger or deadline flush point) unless it fills first.
    Waiting(Tick),
    /// The request filled its bucket: the batch to serve now.
    Full(FlushedBatch<T>),
}

struct Bucket<T: Real> {
    requests: Vec<SolveRequest<T>>,
    /// Admission tick of the *oldest* member — linger is measured from the
    /// first request so the bound holds even under a trickle of arrivals.
    oldest: Tick,
    /// Earliest completion deadline among members carrying one.
    earliest_deadline: Option<Tick>,
}

impl<T: Real> Bucket<T> {
    /// When this bucket must flush: the linger deadline, pulled earlier by
    /// the most urgent member deadline (minus `slack` to leave time for
    /// the solve itself).
    fn flush_at(&self, max_linger: Tick, slack: Tick) -> Tick {
        let linger_at = self.oldest.saturating_add(max_linger);
        match self.earliest_deadline {
            Some(d) => {
                let deadline_at = d.saturating_sub(slack).max(self.oldest);
                linger_at.min(deadline_at)
            }
            None => linger_at,
        }
    }

    /// Attributes a flush at `now`: `Linger` when the linger window is
    /// closed anyway, `Deadline` when a member deadline forced it early.
    fn flush_reason(&self, now: Tick, max_linger: Tick) -> FlushReason {
        if now >= self.oldest.saturating_add(max_linger) {
            FlushReason::Linger
        } else {
            FlushReason::Deadline
        }
    }
}

/// Pure batching state machine: per-size buckets with target/linger flush,
/// deadline-aware early flushing, and the admission bound.
///
/// Buckets are keyed `(n, group)` where `group` is the request's
/// matrix-key fingerprint (0 for unkeyed requests): requests sharing a
/// factored matrix coalesce into one flush the warm tier can serve with a
/// single cached factorization, while unkeyed traffic — everything, when
/// the factor cache is off — lands in `group` 0 and batches exactly as
/// before.
///
/// All time is in [`Tick`]s from the service clock, and the buckets live
/// in a `BTreeMap`: when several buckets expire on the same tick they
/// flush in ascending `(size, group)` order, every run — a `HashMap` here
/// would make the flush order (and therefore a captured decision trace)
/// depend on the process's hash seed.
pub struct BucketTable<T: Real> {
    buckets: BTreeMap<(usize, u64), Bucket<T>>,
    /// Requests waiting in `buckets`.
    pending: usize,
    capacity: usize,
    target_batch: usize,
    max_linger: Tick,
    deadline_slack: Tick,
}

impl<T: Real> BucketTable<T> {
    /// Creates an empty, unbounded table flushing at `target_batch`
    /// requests or after `max_linger` of the oldest member's wait,
    /// whichever comes first. Deadline slack defaults to 500 µs; see
    /// [`BucketTable::with_deadline_slack`] and
    /// [`BucketTable::with_capacity`].
    pub fn new(target_batch: usize, max_linger: Duration) -> Self {
        assert!(target_batch >= 1, "target batch size must be >= 1");
        Self {
            buckets: BTreeMap::new(),
            pending: 0,
            capacity: usize::MAX,
            target_batch,
            max_linger: max_linger.as_nanos().min(u64::MAX as u128) as u64,
            deadline_slack: 500_000,
        }
    }

    /// Sets how much earlier than a member's deadline its bucket flushes
    /// (headroom for the dispatch + solve itself).
    pub fn with_deadline_slack(mut self, slack: Duration) -> Self {
        self.deadline_slack = slack.as_nanos().min(u64::MAX as u128) as u64;
        self
    }

    /// Bounds admission: [`admit`](Self::admit) rejects while `capacity`
    /// requests wait in buckets.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "admission capacity must be >= 1");
        self.capacity = capacity;
        self
    }

    /// The admission bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of requests currently waiting in buckets.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether [`admit`](Self::admit) would reject now.
    pub(crate) fn is_full(&self) -> bool {
        self.pending >= self.capacity
    }

    /// The admission step: at `now`, rejects `request` when the table is
    /// full (tracing `Reject` and handing the request back), or stamps
    /// `now` as its admission tick, traces `Admit` and adds it to its
    /// `(size, matrix-group)` bucket — returning the batch when that
    /// bucket reaches the target size.
    pub fn admit(
        &mut self,
        mut request: SolveRequest<T>,
        now: Tick,
        trace: &TraceHandle,
    ) -> Result<Admitted<T>, SolveRequest<T>> {
        let n = request.n();
        if self.is_full() {
            trace.emit(|| TraceEvent::Reject {
                at: now,
                n: n as u64,
                reason: RejectReason::QueueFull,
            });
            return Err(request);
        }
        trace.emit(|| TraceEvent::Admit { at: now, id: request.id, n: n as u64 });
        request.submitted_at = now;
        let key = (n, request.matrix_key.map_or(0, |k| k.fingerprint()));
        let bucket = self.buckets.entry(key).or_insert_with(|| Bucket {
            requests: Vec::new(),
            oldest: now,
            earliest_deadline: None,
        });
        if let Some(d) = request.deadline {
            bucket.earliest_deadline =
                Some(bucket.earliest_deadline.map_or(d, |existing| existing.min(d)));
        }
        bucket.requests.push(request);
        if bucket.requests.len() < self.target_batch {
            self.pending += 1;
            return Ok(Admitted::Waiting(bucket.flush_at(self.max_linger, self.deadline_slack)));
        }
        let bucket = self.buckets.remove(&key).expect("bucket just touched");
        self.pending -= bucket.requests.len() - 1;
        Ok(Admitted::Full(FlushedBatch { n, requests: bucket.requests, reason: FlushReason::Full }))
    }

    /// The earliest flush point across all buckets (linger deadline pulled
    /// earlier by member deadlines), or `None` when every bucket is empty.
    pub fn next_deadline(&self) -> Option<Tick> {
        self.buckets.values().map(|b| b.flush_at(self.max_linger, self.deadline_slack)).min()
    }

    /// Flushes every bucket whose flush point has arrived — because its
    /// oldest member has waited `max_linger`, or because a member deadline
    /// (minus slack) would not survive more lingering.
    pub fn flush_expired(&mut self, now: Tick) -> Vec<FlushedBatch<T>> {
        let expired: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .filter(|(_, b)| now >= b.flush_at(self.max_linger, self.deadline_slack))
            .map(|(&key, _)| key)
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        for key in expired {
            let bucket = self.buckets.remove(&key).expect("listed above");
            let reason = bucket.flush_reason(now, self.max_linger);
            self.pending -= bucket.requests.len();
            out.push(FlushedBatch { n: key.0, requests: bucket.requests, reason });
        }
        out
    }

    /// Flushes everything, regardless of size or age — shutdown drain.
    pub fn flush_all(&mut self) -> Vec<FlushedBatch<T>> {
        self.pending = 0;
        std::mem::take(&mut self.buckets) // ascending (size, group): a fixed drain order
            .into_iter()
            .map(|((n, _), bucket)| FlushedBatch {
                n,
                requests: bucket.requests,
                reason: FlushReason::Shutdown,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::make_request;
    use tridiag_core::TridiagonalSystem;

    fn req(id: u64, n: usize) -> SolveRequest<f32> {
        let system = TridiagonalSystem::toeplitz(n, -1.0, 4.0, -1.0, 1.0).unwrap();
        make_request(id, system).0
    }

    /// Milliseconds → ticks; the tests run on a purely virtual timeline
    /// starting at tick 0, no wall clock involved.
    fn ms(v: u64) -> Tick {
        v * 1_000_000
    }

    /// Admits `request` at `now`, untraced, returning the batch it filled.
    fn insert(
        table: &mut BucketTable<f32>,
        request: SolveRequest<f32>,
        now: Tick,
    ) -> Option<FlushedBatch<f32>> {
        match table.admit(request, now, &TraceHandle::disabled()) {
            Ok(Admitted::Waiting(_)) => None,
            Ok(Admitted::Full(flush)) => Some(flush),
            Err(_) => panic!("the table rejected a request"),
        }
    }

    struct Collect(std::sync::Mutex<Vec<TraceEvent>>);

    impl crate::trace::TraceSink for Collect {
        fn record(&self, event: TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn admission_rejects_at_capacity_traces_each_decision_and_counts_exactly() {
        let sink = std::sync::Arc::new(Collect(std::sync::Mutex::new(Vec::new())));
        let trace = TraceHandle::to(sink.clone());
        let mut table = BucketTable::new(2, Duration::from_millis(10)).with_capacity(2);
        assert_eq!((table.capacity(), table.pending(), table.is_full()), (2, 0, false));
        // Two size classes, one request each: the table is full.
        assert!(
            matches!(table.admit(req(0, 32), ms(1), &trace), Ok(Admitted::Waiting(t)) if t == ms(11))
        );
        assert!(
            matches!(table.admit(req(1, 64), ms(2), &trace), Ok(Admitted::Waiting(t)) if t == ms(12))
        );
        assert_eq!((table.pending(), table.is_full()), (2, true));
        // A third request is handed back untouched: the bound is checked
        // before the insert, even for a request that would fill its bucket.
        let back = table.admit(req(2, 32), ms(3), &trace).expect_err("the table is full");
        assert_eq!((back.id, back.submitted_at, table.pending()), (2, 0, 2));
        // Expiry makes room. A request that fills its bucket comes back in
        // the batch, and the bucket's members leave the count.
        assert_eq!(table.flush_expired(ms(11)).len(), 1, "the 32 bucket lingers out");
        assert_eq!(table.pending(), 1);
        let Ok(Admitted::Full(flush)) = table.admit(req(3, 64), ms(11), &trace) else {
            panic!("the second 64 fills its bucket");
        };
        assert_eq!(flush.reason, FlushReason::Full);
        let members: Vec<(u64, Tick)> =
            flush.requests.iter().map(|r| (r.id, r.submitted_at)).collect();
        assert_eq!(members, [(1, ms(2)), (3, ms(11))], "each stamped with its admission tick");
        assert_eq!((table.pending(), table.is_full()), (0, false));
        // The handed-back request opens a fresh 32 bucket.
        assert!(
            matches!(table.admit(back, ms(12), &trace), Ok(Admitted::Waiting(t)) if t == ms(22))
        );
        assert_eq!(table.pending(), 1);
        let events = sink.0.lock().unwrap();
        assert_eq!(
            *events,
            [
                TraceEvent::Admit { at: ms(1), id: 0, n: 32 },
                TraceEvent::Admit { at: ms(2), id: 1, n: 64 },
                TraceEvent::Reject { at: ms(3), n: 32, reason: RejectReason::QueueFull },
                TraceEvent::Admit { at: ms(11), id: 3, n: 64 },
                TraceEvent::Admit { at: ms(12), id: 2, n: 32 },
            ]
        );
    }

    #[test]
    fn pending_counts_every_way_out_of_the_table() {
        let mut table = BucketTable::new(3, Duration::from_millis(10));
        for (id, (n, at)) in
            [(32, 0), (32, 0), (64, ms(5)), (128, ms(6)), (128, ms(6))].into_iter().enumerate()
        {
            assert!(insert(&mut table, req(id as u64, n), at).is_none());
            assert_eq!(table.pending(), id + 1);
        }
        assert_eq!(table.flush_expired(ms(10)).len(), 1, "the 32 bucket lingers out");
        assert_eq!(table.pending(), 3);
        assert!(insert(&mut table, req(5, 128), ms(10)).is_some(), "the 128 bucket fills");
        assert_eq!(table.pending(), 1);
        assert_eq!(table.flush_all().len(), 1);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn bucket_flushes_exactly_at_target() {
        let mut table = BucketTable::new(3, Duration::from_millis(100));
        assert!(insert(&mut table, req(0, 64), 0).is_none());
        assert!(insert(&mut table, req(1, 64), 0).is_none());
        let flush = insert(&mut table, req(2, 64), 0).expect("third request fills the bucket");
        assert_eq!(flush.n, 64);
        assert_eq!(flush.reason, FlushReason::Full);
        assert_eq!(flush.requests.len(), 3);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn mixed_size_classes_are_never_co_batched() {
        let mut table = BucketTable::new(2, Duration::from_millis(100));
        assert!(insert(&mut table, req(0, 64), 0).is_none());
        assert!(insert(&mut table, req(1, 128), 0).is_none());
        // Each size class fills independently.
        let f64_class = insert(&mut table, req(2, 64), 0).unwrap();
        assert_eq!(f64_class.n, 64);
        assert!(f64_class.requests.iter().all(|r| r.n() == 64));
        let f128 = insert(&mut table, req(3, 128), 0).unwrap();
        assert_eq!(f128.n, 128);
        assert!(f128.requests.iter().all(|r| r.n() == 128));
    }

    #[test]
    fn lone_request_flushes_on_linger_deadline() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        assert!(insert(&mut table, req(0, 32), 0).is_none());
        // Before the deadline: nothing.
        assert!(table.flush_expired(ms(5)).is_empty());
        // At the deadline: the lone request is flushed rather than starved.
        let flushed = table.flush_expired(ms(10));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].reason, FlushReason::Linger);
        assert_eq!(flushed[0].requests.len(), 1);
    }

    #[test]
    fn linger_clock_starts_at_the_oldest_member() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        insert(&mut table, req(0, 32), 0);
        // A later arrival must NOT reset the deadline.
        insert(&mut table, req(1, 32), ms(8));
        assert_eq!(table.next_deadline(), Some(ms(10)));
        let flushed = table.flush_expired(ms(10));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].requests.len(), 2);
    }

    #[test]
    fn deadline_is_the_minimum_across_buckets() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        insert(&mut table, req(0, 32), ms(3));
        insert(&mut table, req(1, 64), 0);
        assert_eq!(table.next_deadline(), Some(ms(10)));
    }

    #[test]
    fn flush_all_drains_every_bucket_deterministically() {
        let mut table = BucketTable::new(64, Duration::from_millis(100));
        insert(&mut table, req(0, 128), 0);
        insert(&mut table, req(1, 32), 0);
        insert(&mut table, req(2, 32), 0);
        let drained = table.flush_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].n, 32); // sorted by size
        assert_eq!(drained[0].requests.len(), 2);
        assert_eq!(drained[1].n, 128);
        assert!(drained.iter().all(|f| f.reason == FlushReason::Shutdown));
        assert_eq!(table.pending(), 0);
        assert_eq!(table.next_deadline(), None);
    }

    #[test]
    fn empty_bucket_reuse_resets_the_linger_clock() {
        let mut table = BucketTable::new(2, Duration::from_millis(10));
        insert(&mut table, req(0, 32), 0);
        insert(&mut table, req(1, 32), 0); // flushes (target 2)
                                           // New request in the same size class starts a fresh clock.
        insert(&mut table, req(2, 32), ms(50));
        assert_eq!(table.next_deadline(), Some(ms(60)));
    }

    #[test]
    fn member_deadline_pulls_the_flush_forward_and_labels_it() {
        let mut table =
            BucketTable::new(64, Duration::from_millis(10)).with_deadline_slack(Duration::ZERO);
        let (req_d, _ticket) = crate::request::make_request_keyed(
            0,
            TridiagonalSystem::toeplitz(32, -1.0, 4.0, -1.0, 1.0).unwrap(),
            0,
            Some(ms(4)),
            None,
        );
        insert(&mut table, req_d, 0);
        assert_eq!(table.next_deadline(), Some(ms(4)), "deadline beats the 10 ms linger");
        let flushed = table.flush_expired(ms(4));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].reason, FlushReason::Deadline);
    }

    #[test]
    fn keyed_requests_bucket_by_matrix_not_just_size() {
        use tridiag_core::MatrixKey;
        let mut table = BucketTable::new(2, Duration::from_millis(100));
        let sys_a = TridiagonalSystem::<f32>::toeplitz(64, -1.0, 4.0, -1.0, 1.0).unwrap();
        let sys_b = TridiagonalSystem::<f32>::toeplitz(64, -1.0, 5.0, -1.0, 1.0).unwrap();
        let key_a = MatrixKey::of::<f32>(&sys_a.a, &sys_a.b, &sys_a.c);
        let key_b = MatrixKey::of::<f32>(&sys_b.a, &sys_b.b, &sys_b.c);
        assert_ne!(key_a.fingerprint(), key_b.fingerprint());
        let keyed = |id, sys: &TridiagonalSystem<f32>, key| {
            crate::request::make_request_keyed(id, sys.clone(), 0, None, Some(key)).0
        };
        // Same size class, different matrices: never co-batched.
        assert!(insert(&mut table, keyed(0, &sys_a, key_a), 0).is_none());
        assert!(insert(&mut table, keyed(1, &sys_b, key_b), 0).is_none());
        let flush = insert(&mut table, keyed(2, &sys_a, key_a), 0).expect("matrix-A bucket fills");
        assert_eq!(flush.requests.len(), 2);
        assert!(flush.requests.iter().all(|r| r.matrix_key == Some(key_a)));
        // The matrix-B request still waits, and an unkeyed request lands in
        // its own group-0 bucket rather than joining either matrix.
        assert_eq!(table.pending(), 1);
        assert!(insert(&mut table, req(3, 64), 0).is_none());
        assert_eq!(table.pending(), 2);
    }

    #[test]
    fn same_tick_expiry_flushes_in_ascending_size_order() {
        // The determinism hook: three buckets expiring together must come
        // out in one fixed order (BTreeMap), not hash order.
        let mut table = BucketTable::new(64, Duration::from_millis(1));
        insert(&mut table, req(0, 128), 0);
        insert(&mut table, req(1, 32), 0);
        insert(&mut table, req(2, 512), 0);
        let flushed = table.flush_expired(ms(1));
        let sizes: Vec<usize> = flushed.iter().map(|f| f.n).collect();
        assert_eq!(sizes, vec![32, 128, 512]);
    }
}
