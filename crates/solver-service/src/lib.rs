//! # solver-service
//!
//! A dynamic-batching tridiagonal solve **service** on top of the repo's
//! solvers — the serving layer the paper's library would need in
//! production, structured like an inference server:
//!
//! 1. **Admission & backpressure** ([`batcher`]): the submitting thread
//!    admits each request straight into the bucket table, under its lock,
//!    with the same step the sim-clock [`driver`] calls. The table
//!    *rejects* once `queue_capacity` requests wait in buckets
//!    ([`ServiceError::QueueFull`]) instead of blocking submitters — load
//!    is shed at the edge. A request shares its coefficient matrix behind
//!    an `Arc` ([`request`]), so a multi-RHS call copies its matrix once
//!    and is admitted under one lock; a ticket wakes its waiter only when
//!    the waiter is parked. The response hands the client's buffers back:
//!    the answer in the request's own `d`, and the matrix `Arc` itself.
//! 2. **Micro-batching** ([`batcher`]): requests accumulate in per-size
//!    buckets (systems of different `n` never share a kernel launch) and
//!    flush at a target batch size (the admitting thread routes the
//!    batch) or a max-linger deadline (the batcher thread, a timer),
//!    whichever comes first.
//! 3. **Planning & dispatch** ([`planner`], [`dispatch`]): the first
//!    flush of each `(n, element width, device)` key runs an autotune
//!    tournament over [`gpu_solvers::GpuAlgorithm::paper_five`], the
//!    global-memory fallback, and the CPU baseline; the winner is cached
//!    in a [`PlanCache`] and reused in O(1). Every solution is verified
//!    against a residual bound and repaired with pivoted Gaussian
//!    elimination when needed — the service never returns an unverified
//!    answer.
//! 4. **Observability** ([`metrics`]): lock-cheap counters, a
//!    log-linear latency histogram (eight buckets per power of two) with
//!    p50/p95/p99, per-engine dispatch counts and a batch-occupancy
//!    histogram, snapshot-able as JSON.
//! 5. **Resilience** ([`breaker`], plus deadline/retry plumbing in
//!    [`batcher`] and [`dispatch`]): per-request completion deadlines pull
//!    bucket flushes forward; transient device faults retry with
//!    exponential backoff and walk the autotune ranking to the next-best
//!    engine; per-engine circuit breakers stop hammering a persistently
//!    faulting engine and demote its traffic to the pivoted CPU safety
//!    net until a half-open probe succeeds. Every answer is still
//!    verified; every degradation is visible in
//!    [`metrics::DegradationState`].
//! 6. **Warm serving tier** ([`dispatch`] + the `factor-cache` crate):
//!    with [`ServiceConfig::factor_cache`] set, admitted systems are
//!    identity-hashed, same-matrix requests coalesce into shared flushes,
//!    and a flush whose matrix is already factored skips elimination
//!    entirely — `O(5n)` back-substitution against the cached
//!    coefficients instead of the cold `O(8n)` solve, GPU-batched when
//!    the flush is large enough. [`SolverService::solve_many_rhs`] is the
//!    multi-RHS front door. Warm answers pass the same residual verify as
//!    cold ones; a failure repairs with GEP and invalidates the entry.
//!
//! ```
//! use solver_service::{ServiceConfig, SolverService};
//! use tridiag_core::{Generator, Workload};
//!
//! let service: SolverService<f32> = SolverService::start(ServiceConfig::default());
//! let system = Generator::new(7).system(Workload::DiagonallyDominant, 128);
//! let response = service.submit_wait(system).unwrap();
//! assert!(response.residual < 1e-2);
//! let report = service.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod breaker;
pub mod dispatch;
pub mod driver;
pub mod error;
pub mod metrics;
pub mod planner;
pub mod request;
pub mod service;
pub mod trace;

pub use batcher::{Admitted, BucketTable, FlushReason, FlushedBatch};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreakers};
pub use dispatch::{serve_flush, DeviceCtx, DispatchConfig};
pub use driver::{drive, Arrival, Sink, Tally};
pub use error::ServiceError;
pub use metrics::{DegradationState, DeviceSnapshot, MetricsSnapshot, ServiceMetrics};
pub use planner::{
    autotune, autotune_ranked, autotune_ranked_on, CpuEngine, Engine, Plan, PlanCache,
};
pub use request::{make_request, make_request_keyed, SolveRequest, SolveResponse, Ticket};
pub use service::{ServiceConfig, SolverService};
pub use trace::{RejectReason, TraceEvent, TraceHandle, TraceSink};
