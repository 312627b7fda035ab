//! The service itself: admission into the bucket table → sharded worker
//! pool, with a timer thread for linger and deadline flushes.
//!
//! Thread topology (all plain `std::thread`, no external runtime):
//!
//! ```text
//!  submitters ──► BucketTable ──(full bucket)──► StealQueues ──► worker/device 0..D
//!     (many)      (admit under         ▲         (routing +       (serve_flush on
//!                  its lock)           │          work stealing)    its own device)
//!                 batcher ─────────────┘
//!                 (1 thread: linger, deadline and shutdown flushes)
//! ```
//!
//! * **Admission** validates the system, assigns an id, and admits it
//!   into the [`BucketTable`] under the table's lock, through the same
//!   [`BucketTable::admit`] step the sim-clock driver calls — failing
//!   fast with [`ServiceError::QueueFull`] while
//!   [`ServiceConfig::queue_capacity`] requests wait in buckets. One
//!   function admits every request: `submit` hands it a batch of one, and
//!   [`SolverService::solve_many_rhs`] a batch of one request per
//!   right-hand side, all sharing one copy of the matrix and admitted
//!   under one lock. A request that fills its bucket flushes it, and the
//!   submitting thread routes that batch to a device queue itself via the
//!   pool's [`RoutingPolicy`](device_pool::RoutingPolicy). A batch larger
//!   than the free capacity goes in pieces when
//!   [`ServiceConfig::client_retry`] is on: after a piece fits, the
//!   caller parks until a flush makes room. A piece that fits nothing is
//!   a rejection, with a single bounded retry. With the retry off, what
//!   does not fit is rejected.
//! * **The batcher** is a timer: it sleeps until the table's earliest
//!   linger or deadline flush point, flushes what is due and routes it.
//!   An admission wakes it only when the batcher sleeps on an empty table
//!   or the admitted request pulls that point earlier; no request passes
//!   through it.
//! * **Wake-ups**: a ticket wakes its waiter only when a flag under its
//!   mutex says the waiter is parked (see [`crate::request`]).
//! * **Workers** are pinned one-per-device (or share device 0 when the
//!   service runs single-device). An idle worker steals batches from the
//!   longest other queue; a worker whose device is lost re-routes its
//!   backlog to survivors and falls back to the CPU safety net only when
//!   no healthy device remains.
//!
//! Shutdown is a drain, not an abort: it consumes the service, so no
//! submission can race it. The batcher flushes all partial buckets with
//! [`FlushReason::Shutdown`], and the workers finish every routed batch
//! before joining. Every admitted request is always answered.

use crate::batcher::{Admitted, BucketTable, FlushedBatch};
use crate::breaker::{BreakerConfig, CircuitBreakers};
use crate::dispatch::{serve_flush, DeviceCtx, DispatchConfig};
use crate::error::ServiceError;
use crate::metrics::{DeviceSnapshot, MetricsSnapshot, ServiceMetrics};
use crate::planner::PlanCache;
use crate::request::{request_for, SolveRequest, SolveResponse, Ticket};
use crate::trace::{RejectReason, TraceEvent, TraceHandle};
use device_pool::{DevicePool, PoolConfig, Pop as DevicePop, StealQueues};
use factor_cache::SharedFactorCache;
use gpu_sim::{tick_duration, Clock, Launcher, Tick};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use tridiag_core::{Matrix, MatrixKey, Real, TridiagError, TridiagonalSystem};

#[cfg(doc)]
use crate::batcher::FlushReason;

/// Tunables for a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound: a submission is rejected while this many admitted
    /// requests wait in buckets (requests in flushed batches do not count).
    pub queue_capacity: usize,
    /// Flush a size-class bucket when it holds this many requests.
    pub target_batch: usize,
    /// Flush a bucket when its oldest request has waited this long.
    pub max_linger: Duration,
    /// Worker threads executing flushed batches.
    pub workers: usize,
    /// Flushes smaller than this run on the CPU regardless of plan.
    pub min_gpu_batch: usize,
    /// Residual acceptance scale for verify-and-repair (see
    /// `gpu_solvers::VerifyPolicy::threshold_scale`).
    pub threshold_scale: f64,
    /// Probe batch size for autotune tournaments.
    pub probe_count: usize,
    /// When set, every batch runs on this engine — planner and small-flush
    /// CPU override bypassed (A-B testing / benchmarking knob).
    pub pin_engine: Option<crate::planner::Engine>,
    /// Run the first GPU flush of each plan-cache size class with the
    /// kernel sanitizer recording; findings land in the metrics and an
    /// error-severity finding demotes that flush to the CPU safety net.
    pub sanitize_first_flush: bool,
    /// Static proof catalog for first-flush admission: a size class whose
    /// planned kernel the catalog proves safe skips the sanitized launch
    /// (counted in `MetricsSnapshot::proof_skipped_sanitizes`). `None`
    /// (the default) sanitizes every first flush dynamically. Share one
    /// `Arc` across services to amortize proofs between them.
    pub verified: Option<Arc<kernel_verify::VerifiedCatalog>>,
    /// Factorization cache for the warm serving tier. When set, every
    /// admitted system is identity-hashed (structure tag + content hash),
    /// requests sharing a matrix batch together, and a flush whose matrix
    /// is already factored skips elimination — back-substitution only.
    /// `None` (the default) leaves every request unkeyed and the service's
    /// behaviour byte-identical to the cold-only service. Share one `Arc`
    /// across services to share factorizations between them.
    pub factor_cache: Option<Arc<SharedFactorCache>>,
    /// Certified catalog for verify-skipping dispatch. When set, every
    /// admitted system is identity-hashed (like
    /// [`factor_cache`](Self::factor_cache)) and each matrix key is
    /// statically analyzed exactly once, on its second flush; keys earning a
    /// [`numeric_verify::NumericCertificate`] downgrade the per-answer
    /// residual verify to deterministic 1-in-K sampling (the NaN/Inf
    /// guard always runs), and a corruption caught on a sampled flush
    /// revokes the certificate permanently. `None` (the default) keeps
    /// full verification on every answer. Share one `Arc` across
    /// services to share analysis verdicts between them.
    pub certified: Option<Arc<numeric_verify::CertifiedCatalog>>,
    /// How much earlier than a member's completion deadline its bucket
    /// flushes (headroom for dispatch + solve).
    pub deadline_slack: Duration,
    /// Per-engine circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Attempts per engine before the retry ladder excludes it.
    pub max_attempts_per_engine: usize,
    /// Total engine attempts per flush before CPU GEP demotion.
    pub max_total_attempts: usize,
    /// First retry backoff (doubles per attempt, deterministic jitter).
    pub backoff_base: Duration,
    /// Retry backoff ceiling.
    pub backoff_max: Duration,
    /// When `true`, [`SolverService::submit_wait`] and
    /// [`SolverService::solve_many_rhs`] honor a `QueueFull::retry_after`
    /// hint with one bounded client-side retry before surfacing the
    /// rejection, and a `solve_many_rhs` call larger than the free room
    /// waits for a flush to make room between its pieces. When `false`,
    /// neither retries nor waits.
    pub client_retry: bool,
    /// The simulated device the GPU engines run on when no
    /// [`pool`](Self::pool) is configured.
    pub launcher: Launcher,
    /// Multi-device pool configuration. `None` (the default) wraps
    /// [`launcher`](Self::launcher) — fault plan and all — as a
    /// single-device pool, preserving single-GPU behaviour. `Some` builds
    /// an N-device pool with per-device seed-derived fault plans and
    /// shards flushed batches across its healthy devices.
    pub pool: Option<PoolConfig>,
    /// The clock every time-dependent decision reads: linger deadlines,
    /// retry backoff, breaker cooldowns, latency measurement. The default
    /// real clock preserves production behaviour; a [`Clock::sim`] makes
    /// time virtual — sleeps advance the clock instead of parking — which
    /// de-flakes timing-sensitive tests and (driven single-threaded, see
    /// trace-lab) makes the whole service deterministic.
    pub clock: Clock,
    /// Decision trace sink. Disabled by default; attach a sink (see
    /// [`crate::trace`]) to record every admission, flush, plan, retry,
    /// breaker transition, steal, fault, and served batch.
    pub trace: TraceHandle,
    /// When set, a lone batch stuck on one device's queue for longer than
    /// this (on the service clock) may be stolen by an idle worker even
    /// though lone jobs are normally owner-only — backup detection for a
    /// stalled or overloaded device. `None` (the default) keeps the
    /// conservative lone-job courtesy.
    pub steal_backup_age: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            target_batch: 64,
            max_linger: Duration::from_millis(2),
            workers: 4,
            min_gpu_batch: 4,
            threshold_scale: 100.0,
            probe_count: 16,
            pin_engine: None,
            sanitize_first_flush: true,
            verified: None,
            factor_cache: None,
            certified: None,
            deadline_slack: Duration::from_micros(500),
            breaker: BreakerConfig::default(),
            max_attempts_per_engine: 2,
            max_total_attempts: 4,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(2),
            client_retry: true,
            launcher: Launcher::gtx280(),
            pool: None,
            clock: Clock::real(),
            trace: TraceHandle::disabled(),
            steal_backup_age: None,
        }
    }
}

/// What the submitting threads and the batcher share under one lock.
struct Buckets<T: Real> {
    table: BucketTable<T>,
    /// The tick the batcher is parked until: `Tick::MAX` while it waits on
    /// an empty table, 0 while it is awake (it reads the table again
    /// before it parks).
    timer_at: Tick,
    /// Callers parked on `Shared::room`.
    waiting_for_room: usize,
    /// Set by shutdown: the batcher drains the table and exits.
    closed: bool,
}

struct Shared<T: Real> {
    buckets: Mutex<Buckets<T>>,
    /// The batcher parks here.
    timer: Condvar,
    /// A caller whose piece filled the table parks here until a flush.
    room: Condvar,
    metrics: ServiceMetrics,
    plans: PlanCache,
    breakers: CircuitBreakers,
    pool: DevicePool,
    queues: StealQueues<FlushedBatch<T>>,
    dispatch_cfg: DispatchConfig,
    clock: Clock,
    trace: TraceHandle,
    started_at: Tick,
}

impl<T: Real> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Buckets<T>> {
        self.buckets.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Routes one flushed batch onto a healthy device's queue. With no
    /// healthy device left the batch still lands on queue 0: its worker
    /// serves it through the dead-device context, which the dispatch
    /// ladder demotes to the CPU safety net.
    fn route_flush(&self, flush: FlushedBatch<T>) {
        self.trace.emit(|| TraceEvent::Flush {
            at: self.clock.now(),
            n: flush.n as u64,
            occupancy: flush.requests.len() as u64,
            reason: flush.reason,
        });
        let dev = self.pool.route(flush.n).unwrap_or(0);
        self.pool.note_enqueued(dev);
        self.queues.push(dev, flush);
    }

    /// Serves one batch on `device_id`'s launcher, with the pool wired in
    /// so device loss and busy-time land in the pool's books.
    fn serve_on(&self, device_id: usize, flush: FlushedBatch<T>) {
        let ctx = DeviceCtx {
            launcher: &self.pool.device(device_id).launcher,
            device_id,
            pool: Some(&self.pool),
        };
        serve_flush(ctx, &self.plans, &self.breakers, &self.metrics, &self.dispatch_cfg, flush);
    }
}

/// A running dynamic-batching solve service. Create with
/// [`SolverService::start`], submit with [`SolverService::submit`], stop
/// with [`SolverService::shutdown`] (or drop — the drain still happens).
pub struct SolverService<T: Real> {
    shared: Arc<Shared<T>>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    client_retry: bool,
}

impl<T: Real> SolverService<T> {
    /// Spawns the batcher and worker threads and opens admission.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let pool = match config.pool {
            Some(pool_cfg) => DevicePool::new(pool_cfg),
            None => DevicePool::single(config.launcher.clone()),
        };
        let clock = config.clock.clone();
        let trace = config.trace.clone();
        let queues = {
            let queues = StealQueues::with_clock(pool.len(), clock.clone());
            match config.steal_backup_age {
                Some(age) => queues.with_backup_age(age),
                None => queues,
            }
        };
        let table = BucketTable::new(config.target_batch, config.max_linger)
            .with_deadline_slack(config.deadline_slack)
            .with_capacity(config.queue_capacity);
        let shared = Arc::new(Shared {
            buckets: Mutex::new(Buckets { table, timer_at: 0, waiting_for_room: 0, closed: false }),
            timer: Condvar::new(),
            room: Condvar::new(),
            metrics: ServiceMetrics::new(),
            plans: PlanCache::new(),
            breakers: CircuitBreakers::with_clock(config.breaker, clock.clone())
                .with_trace(trace.clone()),
            pool,
            queues,
            dispatch_cfg: DispatchConfig {
                min_gpu_batch: config.min_gpu_batch,
                threshold_scale: config.threshold_scale,
                probe_count: config.probe_count,
                pin_engine: config.pin_engine,
                sanitize_first_flush: config.sanitize_first_flush,
                verified: config.verified,
                factor_cache: config.factor_cache,
                certified: config.certified,
                max_attempts_per_engine: config.max_attempts_per_engine,
                max_total_attempts: config.max_total_attempts,
                backoff_base: config.backoff_base,
                backoff_max: config.backoff_max,
                clock: clock.clone(),
                trace: trace.clone(),
            },
            started_at: clock.now(),
            clock,
            trace,
        });

        let batcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("solver-service-batcher".into())
                .spawn(move || batcher_loop(shared))
                .expect("spawn batcher")
        };

        // Single-device pools keep the configured worker count (all pinned
        // to device 0, contending on its queue); multi-device pools pin one
        // worker per device so every device drains independently.
        let worker_devices: Vec<usize> = if shared.pool.len() == 1 {
            vec![0; config.workers]
        } else {
            (0..shared.pool.len()).collect()
        };
        let workers = worker_devices
            .into_iter()
            .enumerate()
            .map(|(i, device_id)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("solver-service-worker-{i}-dev{device_id}"))
                    .spawn(move || worker_loop(shared, device_id))
                    .expect("spawn worker")
            })
            .collect();

        Self {
            shared,
            batcher: Some(batcher),
            workers,
            next_id: AtomicU64::new(0),
            client_retry: config.client_retry,
        }
    }

    /// The clock this service runs on — callers use it to build absolute
    /// [`Tick`] deadlines for [`SolverService::submit_with_deadline`].
    pub fn clock(&self) -> &Clock {
        &self.shared.clock
    }

    /// Suggested back-off before retrying a rejected submission, derived
    /// from the observed drain rate (completions per unit uptime). `None`
    /// until the first completion — there is no rate to derive from.
    fn retry_after_hint(&self) -> Option<Duration> {
        let completed = self.shared.metrics.completed_total();
        if completed == 0 {
            return None;
        }
        let uptime = tick_duration(self.shared.started_at, self.shared.clock.now());
        let per_request = uptime.div_f64(completed as f64);
        // Room for one request frees after ~one request drains; clamp to sane
        // bounds so a cold service cannot suggest minutes.
        Some(per_request.clamp(Duration::from_micros(20), Duration::from_millis(50)))
    }

    /// Submits one system; returns a [`Ticket`] to wait on, or a typed
    /// rejection ([`ServiceError::QueueFull`] under backpressure).
    pub fn submit(&self, system: TridiagonalSystem<T>) -> Result<Ticket<T>, ServiceError> {
        self.submit_with_deadline(system, None)
    }

    /// [`SolverService::submit`] with an absolute completion deadline —
    /// a [`Tick`] on the service clock (see [`SolverService::clock`] and
    /// [`Clock::tick_after`]).
    ///
    /// A deadline already in the past (or sub-slack close) is rejected at
    /// admission with [`ServiceError::DeadlineExceeded`] — retrying the
    /// same deadline cannot help. An admitted deadline is *advisory*: the
    /// batcher flushes the request's bucket early to try to meet it, and
    /// [`SolveResponse::deadline_missed`] reports the verdict. Admitted
    /// requests are never dropped.
    pub fn submit_with_deadline(
        &self,
        system: TridiagonalSystem<T>,
        deadline: Option<Tick>,
    ) -> Result<Ticket<T>, ServiceError> {
        self.submit_one(system, deadline, false)
    }

    /// Admits one system as a batch of one; `retry` grants the single
    /// bounded retry on a full table. The system's vectors move into the
    /// request without copying.
    fn submit_one(
        &self,
        system: TridiagonalSystem<T>,
        deadline: Option<Tick>,
        retry: bool,
    ) -> Result<Ticket<T>, ServiceError> {
        let matrix_key = self.keyed().then(|| MatrixKey::of_system(&system));
        let (matrix, d) = system.into_parts();
        let One(ticket) =
            self.admit::<One<_>, One<_>>(Arc::new(matrix), [d], deadline, matrix_key, retry)?;
        Ok(ticket.expect("one right-hand side, one ticket"))
    }

    /// Whether admitted systems are identity-hashed: with the factor cache
    /// or the certified catalog on, equal matrices batch together and hit
    /// the warm tier / share one analysis verdict.
    fn keyed(&self) -> bool {
        let cfg = &self.shared.dispatch_cfg;
        cfg.factor_cache.is_some() || cfg.certified.is_some()
    }

    /// The one admission path: one request per right-hand side in `rhs`,
    /// all sharing `matrix`, its key and `deadline`, admitted in order (see
    /// [`Self::enqueue`]). Every right-hand side is checked against the
    /// matrix before any request is built. The requests wait for admission
    /// in a `P` and the tickets return in `rhs` order in a `K`: `Vec`s for
    /// a multi-RHS call, and for `submit` a [`One`], so that a one-shot
    /// submission allocates only its matrix's `Arc` and its ticket's slot
    /// (plus its bucket's growth, see `tests/alloc_counts.rs`).
    fn admit<P, K>(
        &self,
        matrix: Arc<Matrix<T>>,
        rhs: impl AsRef<[Vec<T>]> + IntoIterator<Item = Vec<T>, IntoIter: ExactSizeIterator>,
        deadline: Option<Tick>,
        matrix_key: Option<MatrixKey>,
        retry: bool,
    ) -> Result<K, ServiceError>
    where
        P: Default + Extend<SolveRequest<T>> + IntoIterator<Item = SolveRequest<T>>,
        K: Default + Extend<Ticket<T>>,
    {
        let n = matrix.n();
        let now = self.shared.clock.now();
        if n < 2 {
            self.reject(now, n, RejectReason::Invalid);
            return Err(ServiceError::InvalidRequest(TridiagError::SizeTooSmall { n, min: 2 }));
        }
        if let Some(d) = deadline {
            if d <= now {
                self.reject(now, n, RejectReason::DeadlinePast);
                return Err(ServiceError::DeadlineExceeded { deadline: tick_duration(now, d) });
            }
        }
        if let Err(e) = rhs.as_ref().iter().try_for_each(|d| matrix.check_rhs(d)) {
            self.reject(now, n, RejectReason::Invalid);
            return Err(ServiceError::InvalidRequest(e));
        }
        let rhs = rhs.into_iter();
        let first_id = self.next_id.fetch_add(rhs.len() as u64, Ordering::Relaxed);
        let (pending, tickets): (P, K) = (first_id..)
            .zip(rhs)
            .map(|(id, d)| request_for(id, matrix.clone(), d, now, deadline, matrix_key))
            .unzip();
        self.enqueue(pending.into_iter(), retry)?;
        Ok(tickets)
    }

    /// Admits the requests in `pending` in order through the bucket
    /// table's admission step, under the table's lock, and routes each
    /// bucket they fill to a device queue. The requests of one piece share
    /// one admission tick. A request the table rejects ends the piece: with
    /// `retry` (and a `retry_after` hint) the caller backs off once for the
    /// hinted duration and tries again, and a second rejection in a row
    /// surfaces. When a piece has gone in and the table is full, with
    /// `retry` the caller waits for a flush to make room and goes on with
    /// the next piece; without it, the rest is rejected. Requests admitted
    /// when an error returns are still served.
    fn enqueue(
        &self,
        mut pending: impl Iterator<Item = SolveRequest<T>>,
        retry: bool,
    ) -> Result<(), ServiceError> {
        let shared = &self.shared;
        let (mut admitted, mut fitted, mut retried) = (0, false, false);
        let mut next = pending.next();
        let mut state = shared.lock();
        let mut at = shared.clock.now();
        while let Some(request) = next.take() {
            if fitted && retry && state.table.is_full() {
                state.waiting_for_room += 1;
                while state.table.is_full() {
                    state = shared.room.wait(state).unwrap_or_else(|p| p.into_inner());
                }
                state.waiting_for_room -= 1;
                at = shared.clock.now();
            }
            match state.table.admit(request, at, &shared.trace) {
                Ok(admission) => {
                    admitted += 1;
                    (fitted, retried) = (true, false);
                    match admission {
                        // Wake the batcher only when it would sleep past
                        // this request's flush point.
                        Admitted::Waiting(flush_at) if flush_at < state.timer_at => {
                            state.timer_at = 0;
                            shared.timer.notify_one();
                        }
                        Admitted::Waiting(_) => {}
                        Admitted::Full(flush) => {
                            if state.waiting_for_room > 0 {
                                shared.room.notify_all();
                            }
                            drop(state);
                            shared.metrics.on_submit(std::mem::take(&mut admitted));
                            shared.route_flush(flush);
                            state = shared.lock();
                        }
                    }
                    next = pending.next();
                }
                Err(request) => {
                    let capacity = state.table.capacity();
                    drop(state);
                    shared.metrics.on_submit(std::mem::take(&mut admitted));
                    shared.metrics.on_reject();
                    let retry_after = self.retry_after_hint();
                    match retry_after {
                        Some(hint) if retry && !retried => {
                            retried = true;
                            shared.clock.sleep(hint);
                            state = shared.lock();
                            at = shared.clock.now();
                            next = Some(request);
                        }
                        _ => return Err(ServiceError::QueueFull { capacity, retry_after }),
                    }
                }
            }
        }
        drop(state);
        shared.metrics.on_submit(admitted);
        Ok(())
    }

    /// Traces one rejected admission of an `n`-row system.
    fn reject(&self, at: Tick, n: usize, reason: RejectReason) {
        self.shared.trace.emit(|| TraceEvent::Reject { at, n: n as u64, reason });
    }

    /// Solves one matrix against many right-hand sides: the multi-RHS
    /// serving tier's front door.
    ///
    /// The matrix is validated, copied and identity-hashed **once** (not
    /// once per RHS); each request owns only its right-hand side and
    /// shares the matrix, and all of them are admitted together. Every
    /// request rides the same key, so the batcher coalesces them into
    /// shared flushes and — with [`ServiceConfig::factor_cache`] set —
    /// everything after the first flush is served from the cached
    /// factorization by back-substitution alone. Without a cache the
    /// requests still co-batch; they are just served cold.
    ///
    /// Admission honours backpressure the way [`submit_wait`] does: a
    /// piece that fits nothing gets one bounded client-side retry on a
    /// `retry_after` hint before the rejection surfaces. A call with more
    /// right-hand sides than the table has room for is admitted in
    /// pieces, parking between them until a flush makes room; with
    /// [`ServiceConfig::client_retry`] off it is rejected with
    /// [`ServiceError::QueueFull`] instead, once the first piece is in.
    /// Responses come back in `rhs_list` order; an empty list returns
    /// `Ok(vec![])`.
    ///
    /// # Errors
    /// [`ServiceError::InvalidRequest`] for mismatched array lengths or
    /// undersized systems, before any request is admitted; admission
    /// errors otherwise.
    ///
    /// [`submit_wait`]: SolverService::submit_wait
    pub fn solve_many_rhs(
        &self,
        a: &[T],
        b: &[T],
        c: &[T],
        rhs_list: &[Vec<T>],
    ) -> Result<Vec<SolveResponse<T>>, ServiceError> {
        if rhs_list.is_empty() {
            return Ok(Vec::new());
        }
        let matrix = Matrix::new(a.to_vec(), b.to_vec(), c.to_vec())
            .map_err(ServiceError::InvalidRequest)?;
        let matrix_key = self.keyed().then(|| MatrixKey::of::<T>(a, b, c));
        let tickets: Vec<_> = self.admit::<Vec<_>, _>(
            Arc::new(matrix),
            rhs_list.to_vec(),
            None,
            matrix_key,
            self.client_retry,
        )?;
        Ok(tickets.into_iter().map(Ticket::wait).collect())
    }

    /// Convenience: submit and block for the answer. When the table is
    /// full and the rejection carries a `retry_after` hint (and
    /// [`ServiceConfig::client_retry`] is on), backs off once for the
    /// hinted duration and retries before surfacing the rejection —
    /// exactly one bounded retry, never a loop.
    pub fn submit_wait(
        &self,
        system: TridiagonalSystem<T>,
    ) -> Result<SolveResponse<T>, ServiceError> {
        Ok(self.submit_one(system, None, self.client_retry)?.wait())
    }

    /// Current metrics snapshot (queue depth, plan-cache stats, and
    /// breaker states are read at call time).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot(
            self.shared.lock().table.pending(),
            self.shared.plans.tunes(),
            self.shared.plans.hits(),
        );
        snap.degradation.breaker_opened = self.shared.breakers.opened_total();
        snap.degradation.breaker_closed = self.shared.breakers.closed_total();
        snap.degradation.breaker_denials = self.shared.breakers.denials_total();
        snap.degradation.breaker_states = self.shared.breakers.states();
        let states = &snap.degradation.breaker_states;
        snap.devices = self
            .shared
            .pool
            .stats()
            .into_iter()
            .map(|d| DeviceSnapshot {
                id: d.id,
                dispatched: d.dispatched,
                device_ms: d.busy_ms,
                steals: d.steals,
                lost: d.lost,
                breaker: worst_breaker_state(states, d.id).to_string(),
            })
            .collect();
        snap
    }

    /// Drains and stops the service: serves everything already admitted,
    /// joins all threads, and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.lock().closed = true;
        self.shared.timer.notify_one();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T: Real> Drop for SolverService<T> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// At most one item: the container a one-shot `submit` admits into, so
/// its admission allocates none.
struct One<X>(Option<X>);

impl<X> Default for One<X> {
    fn default() -> Self {
        Self(None)
    }
}

impl<X> Extend<X> for One<X> {
    fn extend<I: IntoIterator<Item = X>>(&mut self, items: I) {
        for item in items {
            debug_assert!(self.0.is_none(), "a second item for One");
            self.0 = Some(item);
        }
    }
}

impl<X> IntoIterator for One<X> {
    type Item = X;
    type IntoIter = std::option::IntoIter<X>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Worst breaker state among `dev{id}:`-prefixed engines: any `open`
/// dominates, then `half-open`; untouched engines count as `closed`.
fn worst_breaker_state(states: &std::collections::BTreeMap<String, String>, id: usize) -> &str {
    let prefix = format!("dev{id}:");
    let mut worst = "closed";
    for (key, state) in states {
        if !key.starts_with(&prefix) {
            continue;
        }
        worst = match (worst, state.as_str()) {
            ("open", _) | (_, "open") => "open",
            ("half-open", _) | (_, "half-open") => "half-open",
            _ => "closed",
        };
    }
    worst
}

/// The batcher thread, a timer: flushes and routes every bucket whose
/// linger or deadline flush point has come, parks until the table's next
/// one in between, and at shutdown drains the table and closes the device
/// queues — workers exit once their backlog is served.
fn batcher_loop<T: Real>(shared: Arc<Shared<T>>) {
    let mut state = shared.lock();
    loop {
        state.timer_at = 0;
        let due = if state.closed {
            state.table.flush_all()
        } else {
            state.table.flush_expired(shared.clock.now())
        };
        if !due.is_empty() {
            if state.waiting_for_room > 0 {
                shared.room.notify_all();
            }
            drop(state);
            due.into_iter().for_each(|flush| shared.route_flush(flush));
            state = shared.lock();
            continue;
        }
        if state.closed {
            shared.queues.close();
            return;
        }
        let Some(at) = state.table.next_deadline() else {
            state.timer_at = Tick::MAX;
            state = shared.timer.wait(state).unwrap_or_else(|p| p.into_inner());
            continue;
        };
        let Some(budget) = shared.clock.park_budget(at) else { continue };
        state.timer_at = at;
        state = shared.timer.wait_timeout(state, budget).unwrap_or_else(|p| p.into_inner()).0;
        // A sim clock moves only when someone advances it: once a quantum
        // passes with no admission pulling the flush point earlier and no
        // shutdown, this thread advances it there.
        if shared.clock.is_sim() && state.timer_at == at && !state.closed {
            shared.clock.advance_to(at);
        }
    }
}

/// A worker thread pinned to one device: pop that device's queue (stealing
/// from the longest other queue when idle), serve the batch, and — if its
/// device was lost mid-batch — re-route the dead device's backlog onto
/// survivors. Exits when the queues close and its backlog drains.
fn worker_loop<T: Real>(shared: Arc<Shared<T>>, device_id: usize) {
    loop {
        // A lost device must not steal healthy devices' work — it would
        // serve every batch through the CPU safety net. It still drains
        // batches already routed to it (re-routing them below).
        let allow_steal = !shared.pool.is_lost(device_id);
        match shared.queues.pop(device_id, allow_steal) {
            DevicePop::Closed => break,
            DevicePop::Job { job, from } => {
                shared.pool.note_dequeued(from);
                if from != device_id {
                    shared.pool.device(device_id).note_steal();
                    shared.trace.emit(|| TraceEvent::Steal {
                        at: shared.clock.now(),
                        from: from as u64,
                        to: device_id as u64,
                    });
                }
                shared.serve_on(device_id, job);
                if shared.pool.is_lost(device_id) {
                    // The device died under this batch: drain its queue and
                    // re-route the stranded batches to healthy devices so
                    // they are not served through guaranteed-dead launches.
                    for stranded in shared.queues.drain(device_id) {
                        shared.pool.note_dequeued(device_id);
                        match shared.pool.route(stranded.n) {
                            Some(target) => {
                                shared.pool.note_enqueued(target);
                                shared.queues.push(target, stranded);
                            }
                            // No healthy device left: the dead context's
                            // ladder demotes straight to CPU GEP.
                            None => shared.serve_on(device_id, stranded),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, Workload};

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 64,
            target_batch: 8,
            max_linger: Duration::from_millis(1),
            workers: 2,
            min_gpu_batch: 4,
            probe_count: 4,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn round_trip_a_handful_of_requests() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(1);
        let tickets: Vec<_> = (0..16)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 64)).unwrap())
            .collect();
        for ticket in tickets {
            let resp = ticket.wait();
            assert_eq!(resp.x.len(), 64);
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert_eq!(snap.submitted, 16);
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.dispatched_total(), 16);
        assert_eq!(snap.occupancy_total(), 16);
    }

    #[test]
    fn lone_request_is_not_starved() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let system = Generator::new(2).system(Workload::Poisson, 32);
        let resp = service.submit_wait(system).unwrap();
        assert_eq!(resp.batch_occupancy, 1, "a lone request rides alone");
        assert!(resp.residual < 1e-3);
        let snap = service.shutdown();
        assert!(snap.flushes_linger + snap.flushes_shutdown >= 1);
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        // Long linger so the requests are still parked in buckets when
        // shutdown begins — the drain must still answer them all.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(3);
        let tickets: Vec<_> = (0..5)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 32)).unwrap())
            .collect();
        let snap = service.shutdown();
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.flushes_shutdown, 1);
        for ticket in tickets {
            assert!(ticket.try_take().is_some(), "shutdown must fulfil parked requests");
        }
    }

    #[test]
    fn undersized_systems_are_rejected_at_admission() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let one = TridiagonalSystem { a: vec![0.0], b: vec![2.0], c: vec![0.0], d: vec![1.0] };
        assert!(matches!(service.submit(one), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn queue_full_rejects_with_typed_error() {
        // One waiting request fills a table of capacity 1 until its
        // bucket flushes, and the 60 s linger keeps it waiting.
        let config = ServiceConfig {
            queue_capacity: 1,
            target_batch: 1000,
            max_linger: Duration::from_secs(60),
            workers: 1,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(5);
        let first = service.submit(generator.system(Workload::DiagonallyDominant, 32)).unwrap();
        match service.submit(generator.system(Workload::DiagonallyDominant, 64)) {
            Err(ServiceError::QueueFull { capacity: 1, retry_after: None }) => {}
            other => panic!("expected a full queue with no drain rate yet, got {other:?}"),
        }
        assert_eq!(service.metrics().queue_depth, 1);
        let snap = service.shutdown();
        assert_eq!((snap.submitted, snap.rejected, snap.completed), (1, 1, 1));
        assert_eq!(snap.flushes_shutdown, 1);
        assert!(first.try_take().is_some(), "the admitted request is answered");
    }

    #[test]
    fn past_deadlines_are_rejected_at_admission() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let system = Generator::new(6).system(Workload::DiagonallyDominant, 32);
        // Tick 0 is the service clock's epoch — long past by now.
        match service.submit_with_deadline(system, Some(0)) {
            Err(ServiceError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO, "past deadlines have zero budget left");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.submitted, 0, "rejected requests are never admitted");
    }

    #[test]
    fn deadline_forces_an_early_flush_long_before_linger() {
        // Linger is 60 s: without deadline-aware flushing this request
        // would be answered only at shutdown. Its 20 ms deadline must pull
        // the flush forward.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let system = Generator::new(7).system(Workload::DiagonallyDominant, 32);
        let deadline = service.clock().tick_after(Duration::from_millis(20));
        let started = std::time::Instant::now();
        let ticket = service.submit_with_deadline(system, Some(deadline)).unwrap();
        let resp = ticket.wait();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(10),
            "deadline must beat the 60 s linger, waited {waited:?}"
        );
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        let snap = service.shutdown();
        assert_eq!(snap.flushes_deadline, 1, "the deadline triggered the flush");
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn a_deadline_admitted_while_the_batcher_sleeps_toward_linger_wakes_it() {
        // A first request parks the batcher toward its 60 s linger; a
        // second size class's 20 ms deadline pulls the flush point earlier,
        // so its admission must wake the batcher.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(10);
        let lingering = service.submit(generator.system(Workload::DiagonallyDominant, 32)).unwrap();
        let started = std::time::Instant::now();
        loop {
            let timer_at = service.shared.lock().timer_at;
            if timer_at != 0 && timer_at != Tick::MAX {
                break; // parked toward the linger
            }
            assert!(started.elapsed() < Duration::from_secs(10), "the batcher never parked");
            std::thread::yield_now();
        }
        let system = generator.system(Workload::DiagonallyDominant, 64);
        let deadline = service.clock().tick_after(Duration::from_millis(20));
        let ticket = service.submit_with_deadline(system, Some(deadline)).unwrap();
        let resp = ticket.wait();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(10), "a lost wake-up: waited {waited:?}");
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        assert!(lingering.try_take().is_none(), "the 60 s linger has not passed");
        let snap = service.shutdown();
        assert_eq!((snap.flushes_deadline, snap.flushes_shutdown), (1, 1));
        assert_eq!(snap.completed, 2);
        assert!(lingering.try_take().is_some());
    }

    #[test]
    fn sim_clock_service_answers_without_real_lingering() {
        // A 60 s linger under the simulated clock: the batcher's wait
        // advances virtual time to the linger deadline instead of parking
        // for a real minute — the lone request is answered promptly.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            clock: Clock::sim(),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let wall = std::time::Instant::now();
        let system = Generator::new(9).system(Workload::DiagonallyDominant, 32);
        let resp = service.submit_wait(system).unwrap();
        assert!(resp.residual < 1e-3);
        assert!(wall.elapsed() < Duration::from_secs(10), "virtual linger must not cost real time");
        assert!(
            resp.latency >= Duration::from_secs(59),
            "the virtual linger is visible in the latency: {:?}",
            resp.latency
        );
        let snap = service.shutdown();
        assert_eq!(snap.completed, 1);
        assert!(snap.flushes_linger >= 1, "the linger deadline fired virtually");
    }

    #[test]
    fn pooled_service_shards_flushes_across_devices() {
        // Four devices, single-flush batches: the metrics devices block
        // must show all four devices and the dispatched work sharded
        // across more than one of them.
        let config = ServiceConfig {
            pool: Some(device_pool::PoolConfig::new(4)),
            target_batch: 4,
            min_gpu_batch: 1,
            pin_engine: Some(crate::planner::Engine::Gpu(gpu_solvers::GpuAlgorithm::CrPcr {
                m: 16,
            })),
            sanitize_first_flush: false,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(21);
        let tickets: Vec<_> = (0..64)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 64)).unwrap())
            .collect();
        for ticket in tickets {
            let resp = ticket.wait();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 64);
        assert_eq!(snap.devices.len(), 4, "one gauge block per pool device");
        for dev in &snap.devices {
            assert!(!dev.lost);
            assert_eq!(dev.breaker, "closed");
        }
        let active = snap.devices.iter().filter(|d| d.dispatched > 0).count();
        assert!(active >= 2, "work must shard across devices: {:?}", snap.devices);
        let total_ms: f64 = snap.devices.iter().map(|d| d.device_ms).sum();
        assert!(total_ms > 0.0, "GPU batches must accrue device time");
        assert!(snap.degradation.is_quiet(), "fault-free pool stays quiet");
    }

    #[test]
    fn single_device_pool_preserves_solo_behaviour() {
        // No pool configured: exactly one device gauge, pinned to the
        // configured launcher, and all work lands on it.
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(22);
        for _ in 0..8 {
            service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
        }
        let snap = service.shutdown();
        assert_eq!(snap.devices.len(), 1);
        assert_eq!(snap.devices[0].id, 0);
        assert!(!snap.devices[0].lost);
        assert_eq!(snap.devices[0].steals, 0, "one queue, nothing to steal");
    }

    #[test]
    fn proof_catalog_replaces_first_flush_sanitizes_end_to_end() {
        let config = ServiceConfig {
            pin_engine: Some(crate::planner::Engine::Gpu(gpu_solvers::GpuAlgorithm::CrPcr {
                m: 16,
            })),
            verified: Some(Arc::new(kernel_verify::VerifiedCatalog::new())),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(24);
        for _ in 0..8 {
            let resp =
                service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.sanitized_flushes, 0, "the proof replaced every first-flush sanitize");
        assert_eq!(snap.proof_skipped_sanitizes, 1, "one size class, one skip");
        assert!(snap.degradation.is_quiet(), "a proof skip is not degradation");
        let json = snap.to_json();
        assert!(json.contains("\"proof_skipped_sanitizes\":1"), "{json}");
    }

    #[test]
    fn healthy_service_reports_a_quiet_degradation_state() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(8);
        for _ in 0..8 {
            let resp =
                service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
            assert!(!resp.deadline_missed, "no deadline was set");
        }
        let snap = service.shutdown();
        assert!(
            snap.degradation.is_quiet(),
            "fault-free run must not degrade: {:?}",
            snap.degradation
        );
    }
}
