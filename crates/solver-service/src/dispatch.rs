//! Dispatcher: runs a flushed batch on an engine, accepts or repairs every
//! answer, and fulfils tickets.
//!
//! [`serve_flush`] is four steps:
//!
//! 1. **Resolve** — the certificate catalog sets the flush's
//!    [`VerifyPolicy`], a keyed flush looks up the factor cache, and a
//!    cold flush gets its engine, fallback ladder and sanitize decision.
//! 2. **Run** — the engine alone, returning raw answers: the warm
//!    back-substitution, CPU Thomas/GEP, or the GPU retry ladder. CPU
//!    Thomas and the CPU warm sweep solve the flush eight systems at a
//!    time ([`cpu_solvers::lockstep`]), reading each system where its
//!    request holds it: full groups of eight take the lockstep sweep, the
//!    remainder the scalar solver, and every answer is bit-identical to
//!    solving the systems one at a time.
//! 3. **Accept or repair** — [`accept_or_repair`], the one acceptance
//!    rule, applied once to every answer.
//! 4. **Account** — warm-entry invalidation, certificate revocation,
//!    metrics, trace, and ticket fulfilment. Each answer is written into
//!    its request's own `d` buffer and returned with the request's matrix,
//!    so the worker allocates and frees nothing per request.
//!
//! Routing policy, in order:
//!
//! 1. **Small flushes go to the CPU.** A linger-flushed batch of one or
//!    two systems cannot amortize a kernel launch + PCIe round trip; below
//!    `min_gpu_batch` the dispatcher overrides the cached plan with CPU
//!    Thomas.
//! 2. **Otherwise the [`PlanCache`] decides** — autotuned once per size
//!    class, O(1) afterwards.
//! 3. **Every answer is accepted or repaired.** Whatever engine ran,
//!    [`accept_or_repair`] applies the NaN/Inf guard, the residual test
//!    `‖Ax − d‖₂ ≤ scale·‖d‖₂·ε·n` (unless a certificate licenses skipping
//!    it), and a per-system GEP re-solve of each failure. The service
//!    never returns an unverified solution — the paper's solvers are
//!    pivoting-free and may fail on general matrices, so verification is
//!    what makes this a *service* rather than a kernel. A system GEP
//!    cannot solve either is answered at residual `+∞`; its siblings keep
//!    their engine's answers.
//! 4. **The first GPU flush of each size class is sanitized.** With
//!    [`DispatchConfig::sanitize_first_flush`] set (the default), the
//!    first flush dispatched to a GPU engine for each plan-cache key runs
//!    with the kernel sanitizer recording: races, hazards, OOB, and
//!    uninitialized reads found on real serving traffic are counted into
//!    [`ServiceMetrics`], and a flush whose kernel trips an error-severity
//!    diagnostic is re-solved on the CPU GEP path rather than trusted.
//! 5. **Device faults are retried, then degraded — never surfaced.** A
//!    transient [`TridiagError::DeviceFault`] re-dispatches the same
//!    engine with exponential backoff (up to
//!    [`DispatchConfig::max_attempts_per_engine`]); an engine that keeps
//!    faulting is excluded and the next-best candidate from the autotune
//!    ranking takes over; [`TridiagError::DeviceLost`] or exhausting
//!    [`DispatchConfig::max_total_attempts`] demotes the flush to the CPU
//!    GEP safety net. An engine's per-engine **circuit breaker**
//!    (see [`CircuitBreakers`]) short-circuits this ladder while the
//!    engine is known-bad, re-probing it after a cooldown. A half-open
//!    probe always reports its outcome: a launch that returns answers
//!    closes the breaker whatever acceptance finds in them, and a
//!    launch-configuration error re-opens it. Every retry, fault, and
//!    degradation is counted into the metrics — degradation is
//!    observable, never silent.

use crate::batcher::FlushedBatch;
use crate::breaker::{Admission, CircuitBreakers};
use crate::metrics::ServiceMetrics;
use crate::planner::{CpuEngine, Engine, PlanCache};
use crate::request::{SolveRequest, SolveResponse};
use crate::trace::{TraceEvent, TraceHandle};
use cpu_solvers::{gep, lockstep};
use device_pool::DevicePool;
use factor_cache::{FactorCache, FactorEntry, SharedFactorCache};
use gpu_sim::{tick_duration, Clock, Launcher};
use gpu_solvers::{accept_or_repair, solve_batch, GpuAlgorithm, Producer, VerifyPolicy};
use kernel_verify::VerifiedCatalog;
use numeric_verify::{CertifiedCatalog, VerifyDecision};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tridiag_core::{MatrixKey, Real, SolutionBatch, SystemBatch, SystemRef, TridiagError};

/// Dispatch-time knobs (a copy of the relevant service config).
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Flushes smaller than this run on the CPU regardless of plan.
    pub min_gpu_batch: usize,
    /// Residual acceptance scale (see [`VerifyPolicy::threshold_scale`]).
    pub threshold_scale: f64,
    /// Probe batch size used when a plan-cache miss triggers autotune.
    pub probe_count: usize,
    /// When set, bypass the planner *and* the small-flush CPU override and
    /// run every batch on this engine (benchmarking / A-B testing knob).
    /// Verification and GEP repair still apply.
    pub pin_engine: Option<Engine>,
    /// Run the first GPU flush of each plan-cache size class with the
    /// kernel sanitizer recording (admission-time correctness check on
    /// real traffic; later flushes of the same class run unsanitized).
    pub sanitize_first_flush: bool,
    /// Static proof catalog consulted by the first-flush decision. A size
    /// class whose planned kernel the catalog proves race/OOB/barrier-safe
    /// for its whole family skips the sanitized launch (the skip is
    /// counted in `MetricsSnapshot::proof_skipped_sanitizes`); `Unproven`
    /// and `Violated` verdicts keep the dynamic sanitizer in charge.
    /// `None` (the default) sanitizes every first flush dynamically.
    pub verified: Option<Arc<VerifiedCatalog>>,
    /// Factorization cache for the warm serving tier. When set, a flush
    /// whose requests all carry the same matrix key is served from the
    /// cached elimination coefficients — back-substitution only, no
    /// elimination — with a miss factoring the matrix once and falling
    /// through to the cold path. `None` (the default) disables the warm
    /// tier entirely; every existing dispatch decision is unchanged.
    pub factor_cache: Option<Arc<SharedFactorCache>>,
    /// Numerical-safety certificate catalog. When set, a keyed matrix is
    /// statically analyzed once per identity, on its second flush (its
    /// first is fully verified); certified matrices
    /// downgrade the per-answer residual verify to deterministic 1-in-K
    /// *sampled* verification (skipped answers keep the NaN/Inf guard and
    /// report the certificate's a-priori forward-error bound), and a
    /// corruption caught on any verified flush revokes the certificate.
    /// `None` (the default) keeps full verification everywhere.
    pub certified: Option<Arc<CertifiedCatalog>>,
    /// How many times one engine is tried per flush before it is excluded
    /// (first attempt + retries). Transient device faults between attempts
    /// back off exponentially.
    pub max_attempts_per_engine: usize,
    /// Total engine dispatch attempts per flush across all candidates;
    /// exhausting this demotes the flush to the CPU GEP safety net.
    pub max_total_attempts: usize,
    /// First retry backoff; doubles per subsequent attempt (plus a small
    /// deterministic jitter so colliding workers de-synchronize).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// The clock retry backoffs sleep on and latencies are measured with.
    /// Under a simulated clock backoffs advance virtual time instead of
    /// parking, and CPU engine time comes from a deterministic cost model
    /// instead of the wall — the whole dispatch becomes replayable.
    pub clock: Clock,
    /// Decision trace sink (disabled by default).
    pub trace: TraceHandle,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            min_gpu_batch: 4,
            threshold_scale: 100.0,
            probe_count: 16,
            pin_engine: None,
            sanitize_first_flush: true,
            verified: None,
            factor_cache: None,
            certified: None,
            max_attempts_per_engine: 2,
            max_total_attempts: 4,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(2),
            clock: Clock::real(),
            trace: TraceHandle::disabled(),
        }
    }
}

/// The device a flush is served on: its launcher, its pool identity, and
/// (when the service runs on a multi-device pool) a handle back to the
/// pool so dispatch can mark the device lost and account its busy time.
///
/// Breaker keys are **per device**: engine `cr+pcr@32` on device 2 keys
/// breaker `dev2:cr+pcr@32`, so a sticky fault on one device opens only
/// that device's breakers — traffic re-routes instead of the whole
/// service demoting to the CPU.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCtx<'a> {
    /// The launcher executing this flush's kernels.
    pub launcher: &'a Launcher,
    /// Pool id of the device (0 for a solo launcher).
    pub device_id: usize,
    /// The pool the device belongs to, if any. `None` for direct callers
    /// (tests, benches) running a standalone launcher.
    pub pool: Option<&'a DevicePool>,
}

impl<'a> DeviceCtx<'a> {
    /// Wraps a standalone launcher as device 0 with no pool attached.
    pub fn solo(launcher: &'a Launcher) -> Self {
        Self { launcher, device_id: 0, pool: None }
    }

    /// The device `pool.route(n)` picks for a flush of size `n`, or device
    /// 0 once every device is lost (its launches then fail, and
    /// `serve_flush` degrades the flush to the CPU safety net).
    pub fn routed(pool: &'a DevicePool, n: usize) -> Self {
        let device_id = pool.route(n).unwrap_or(0);
        Self { launcher: &pool.device(device_id).launcher, device_id, pool: Some(pool) }
    }

    /// The per-device breaker key for `engine_label`.
    fn breaker_key(&self, engine_label: &str) -> String {
        format!("dev{}:{engine_label}", self.device_id)
    }

    /// Marks this device lost in its pool (no-op for solo devices).
    fn mark_lost(&self) {
        if let Some(pool) = self.pool {
            pool.mark_lost(self.device_id);
        }
    }

    /// Accounts one served flush's simulated busy time to this device.
    fn note_dispatched(&self, engine_ms: f64) {
        if let Some(pool) = self.pool {
            pool.device(self.device_id).note_dispatched(engine_ms);
        }
    }
}

/// Serves one flushed batch end to end: resolve → run → accept or repair
/// → account (see the module docs). Infallible by design: any engine
/// error degrades to the per-system GEP path rather than dropping
/// requests.
pub fn serve_flush<T: Real>(
    device: DeviceCtx<'_>,
    plans: &PlanCache,
    breakers: &CircuitBreakers,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
    flush: FlushedBatch<T>,
) {
    let FlushedBatch { n, requests, reason } = flush;
    let occupancy = requests.len();
    debug_assert!(occupancy > 0, "empty flush");
    // Every step reads the systems where the requests hold them.
    let systems: Vec<SystemRef<'_, T>> = requests.iter().map(SolveRequest::system).collect();

    // 1. Resolve. A keyed flush consults the certificate catalog, then the
    // factorization cache; a hit skips planning *and* elimination.
    let matrix_key = (cfg.factor_cache.is_some() || cfg.certified.is_some())
        .then(|| shared_matrix_key(&requests))
        .flatten();
    let policy = match (&cfg.certified, matrix_key) {
        (Some(catalog), Some(key)) => certified_policy(catalog, key, systems[0], cfg, metrics),
        _ => VerifyPolicy::full(cfg.threshold_scale),
    };
    let warm = match (&cfg.factor_cache, matrix_key) {
        (Some(shared), Some(key)) => warm_lookup(&shared.of::<T>(), key, systems[0], cfg, metrics),
        _ => None,
    };
    let route = match warm {
        Some(entry) => Route::Warm(entry),
        None => route_cold::<T>(device.launcher, plans, metrics, cfg, n, occupancy),
    };

    // 2. Run the engine: raw answers, nothing accepted yet.
    let mut run = match &route {
        Route::Warm(entry) => run_warm(&device, entry, &systems, cfg, policy),
        Route::Cpu(cpu) => run_cpu(&systems, *cpu, policy, &cfg.clock),
        Route::Gpu { first, fallbacks, sanitize } => {
            run_gpu(&device, *first, fallbacks, breakers, &systems, cfg, *sanitize, policy)
        }
    };

    // 3. Accept or repair, once.
    let acceptance =
        accept_or_repair(systems.iter().copied(), &mut run.solutions, run.producer, run.policy);
    let repairs = acceptance.repairs();

    // 4. Account. The warm tier counts every answer acceptance failed (a
    // flipped launch and a poisoned entry look alike) and condemns the
    // cached factors, so the next flush refactors from the pristine
    // matrix. The cold GPU path counts the launch's injected corruptions;
    // CPU engines have none.
    let corruptions = match &route {
        Route::Warm(_) => repairs as u64,
        _ => run.injected_corruptions,
    };
    if corruptions > 0 {
        if let (Route::Warm(entry), Some(shared)) = (&route, &cfg.factor_cache) {
            if shared.of::<T>().invalidate(&entry.key) {
                metrics.on_factor_evictions(1);
                cfg.trace.emit(|| TraceEvent::FactorEvict {
                    at: cfg.clock.now(),
                    key: entry.key.fingerprint(),
                });
            }
        }
        // A corruption caught while serving a certified key revokes its
        // certificate: the key returns to full per-answer verification
        // for the life of the process. On a key's first flush it makes
        // the catalog forget the sighting instead, so no skip window opens
        // right after a failed verify.
        if let (Some(catalog), Some(key)) = (&cfg.certified, matrix_key) {
            if catalog.revoke(&key) {
                metrics.on_cert_revoked();
                cfg.trace.emit(|| TraceEvent::CertRevoked {
                    at: cfg.clock.now(),
                    key: key.fingerprint(),
                });
            }
        }
    }

    // Per-device accounting: GPU-served flushes accrue simulated busy time
    // on the device that ran them (CPU-demoted flushes cost the device
    // nothing).
    if !run.engine_label.starts_with("cpu") {
        device.note_dispatched(run.engine_ms);
    }
    if let Some((errors, warnings)) = run.sanitizer_findings {
        metrics.on_flush_sanitized(errors, warnings);
    }
    metrics.on_batch_served(&run.engine_label, occupancy, reason, repairs, run.engine_ms);
    metrics.on_degradation(run.retries, run.device_faults, corruptions, run.degraded);

    // Charge the engine's time to the service clock: on the real clock
    // the wall already paid it (no-op); on a simulated clock this is what
    // turns modeled device/CPU milliseconds into observed latency.
    cfg.clock.work(Duration::from_secs_f64(run.engine_ms.max(0.0) / 1e3));
    let engine_ns = (run.engine_ms.max(0.0) * 1e6).round() as u64;
    cfg.trace.emit(|| TraceEvent::Served {
        at: cfg.clock.now(),
        n: n as u64,
        occupancy: occupancy as u64,
        engine: run.engine_label.to_string(),
        reason,
        engine_ns,
        repairs: repairs as u64,
        degraded: run.degraded,
    });

    // Hand every client buffer back: acceptance has read each `d`, so the
    // accepted answer overwrites it and returns as `x`, and the matrix
    // rides back on the response. The worker allocates no answer and frees
    // none of the client's memory.
    let now = cfg.clock.now();
    for (i, request) in requests.into_iter().enumerate() {
        let SolveRequest { id, matrix, d: mut x, submitted_at, deadline, slot, .. } = request;
        let latency = tick_duration(submitted_at, now);
        let deadline_missed = deadline.is_some_and(|d| now > d);
        if deadline_missed {
            metrics.on_deadline_miss();
        }
        x.copy_from_slice(run.solutions.system(i));
        slot.put(SolveResponse {
            id,
            x,
            matrix,
            residual: acceptance.residuals[i],
            engine: run.engine_label.clone(),
            repaired: acceptance.repaired[i],
            batch_occupancy: occupancy,
            latency,
            deadline_missed,
        });
        metrics.on_complete(latency);
    }
}

/// Resolves a keyed flush's verify policy from the certificate catalog.
/// The matrix is statically analyzed exactly once per key, on its second
/// flush (the first is fully verified anyway); thereafter the catalog's
/// deterministic 1-in-K schedule decides how much verification this
/// flush pays.
fn certified_policy<T: Real>(
    catalog: &CertifiedCatalog,
    key: MatrixKey,
    system: SystemRef<'_, T>,
    cfg: &DispatchConfig,
    metrics: &ServiceMetrics,
) -> VerifyPolicy {
    let obs = catalog.observe(key, system);
    if obs.newly_analyzed {
        metrics.on_condest_calls(obs.condest_calls);
        if obs.certificate.is_certified() {
            metrics.on_cert_issued();
        }
        cfg.trace.emit(|| TraceEvent::CertIssued {
            at: cfg.clock.now(),
            key: key.fingerprint(),
            cert: obs.certificate.name().to_string(),
        });
    }
    match obs.decision {
        VerifyDecision::Full => VerifyPolicy::full(cfg.threshold_scale),
        VerifyDecision::Sampled => {
            metrics.on_cert_sampled_verify();
            // Condition-informed acceptance (the condest wiring): a
            // certified-but-worse-conditioned matrix widens its sampled
            // threshold instead of tripping false corruption alarms.
            VerifyPolicy::condition_scaled(cfg.threshold_scale, obs.kappa1)
        }
        VerifyDecision::Skip => {
            metrics.on_cert_skipped_verify();
            cfg.trace.emit(|| TraceEvent::CertSkipVerify {
                at: cfg.clock.now(),
                key: key.fingerprint(),
                n: system.n() as u64,
            });
            VerifyPolicy {
                certificate_bound: Some(obs.forward_error_bound),
                ..VerifyPolicy::full(cfg.threshold_scale)
            }
        }
    }
}

/// The warm tier's lookup for a keyed flush. A hit returns the cached
/// factors; a miss factors the matrix for next time and returns `None`,
/// so the flush runs cold. Unfactorable matrices (zero pivot, non-finite)
/// are simply not cached; the cold path's acceptance rule owns them.
fn warm_lookup<T: Real>(
    cache: &FactorCache<T>,
    key: MatrixKey,
    system: SystemRef<'_, T>,
    cfg: &DispatchConfig,
    metrics: &ServiceMetrics,
) -> Option<FactorEntry<T>> {
    let n = system.n() as u64;
    if let Some(entry) = cache.lookup(&key) {
        cfg.trace.emit(|| TraceEvent::FactorHit { at: cfg.clock.now(), key: key.fingerprint(), n });
        metrics.on_factor_hit();
        metrics.on_warm_flush();
        return Some(entry);
    }
    cfg.trace.emit(|| TraceEvent::FactorMiss { at: cfg.clock.now(), key: key.fingerprint(), n });
    metrics.on_factor_miss();
    if let Ok((_, evicted)) = cache.factor_and_insert(key, system.a, system.b, system.c) {
        metrics.on_factor_evictions(evicted.len() as u64);
        for fp in evicted {
            cfg.trace.emit(|| TraceEvent::FactorEvict { at: cfg.clock.now(), key: fp });
        }
    }
    None
}

/// What the admission check does with one flush — the single point of
/// truth for the first-flush sanitize policy (previously duplicated
/// between the token claim and the launch-path condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SanitizeDecision {
    /// First GPU flush of its size class, no proof on file: run it under
    /// the dynamic kernel sanitizer.
    Dynamic,
    /// First GPU flush of its size class, but the proof catalog proves
    /// the planned kernel safe for the whole family: skip the sanitized
    /// launch. The one-time token is still consumed, so the skip is
    /// counted exactly once per size class.
    ProofSkipped,
    /// Not a first GPU flush (CPU engine, sanitizing disabled, or the
    /// size class was already checked).
    NotApplicable,
}

/// Decides the admission-time sanitize for one flush of size `n` planned
/// on `engine`. Claims the size class's one-time token for *both* the
/// dynamic and the proof-skipped outcome — a proof replaces the sanitize,
/// it does not defer it to the next flush.
fn sanitize_decision<T: Real>(
    cfg: &DispatchConfig,
    plans: &PlanCache,
    launcher: &Launcher,
    engine: Engine,
    n: usize,
) -> SanitizeDecision {
    let Engine::Gpu(alg) = engine else {
        return SanitizeDecision::NotApplicable;
    };
    if !cfg.sanitize_first_flush || !plans.begin_sanitize::<T>(launcher, n) {
        return SanitizeDecision::NotApplicable;
    }
    match &cfg.verified {
        Some(catalog) if catalog.is_proven::<T>(&launcher.device, alg, n) => {
            SanitizeDecision::ProofSkipped
        }
        _ => SanitizeDecision::Dynamic,
    }
}

/// One engine run's raw answers, before acceptance, and how they came to
/// be.
struct Run<T: Real> {
    solutions: SolutionBatch<T>,
    /// One label per flush, shared by all of its responses.
    engine_label: Arc<str>,
    /// Simulated device ms (GPU) or CPU engine ms (measured on a real
    /// clock, modeled on a simulated one).
    engine_ms: f64,
    /// Whether acceptance may re-solve a failed answer with GEP.
    producer: Producer,
    /// The verification these answers pay: the flush's policy, or full
    /// verification on a degraded path (a degraded flush has already shown
    /// evidence that static assumptions may not hold).
    policy: VerifyPolicy,
    /// Output corruptions the fault plan injected into the launch that
    /// produced the answers (cold GPU path; 0 elsewhere).
    injected_corruptions: u64,
    /// `(error_sites, warning_sites)` when the flush ran under the
    /// sanitizer; `None` for unsanitized flushes and CPU engines.
    sanitizer_findings: Option<(u64, u64)>,
    /// Engine dispatch attempts beyond the first (fault recoveries).
    retries: u64,
    /// Device faults observed while serving this flush.
    device_faults: u64,
    /// `true` when the answers came from an engine other than the planned
    /// one (breaker denial, retry exhaustion, or device loss).
    degraded: bool,
}

impl<T: Real> Run<T> {
    /// Answers fresh from a pivot-free engine with no fault history.
    fn new(
        solutions: SolutionBatch<T>,
        engine_label: impl Into<Arc<str>>,
        engine_ms: f64,
        policy: VerifyPolicy,
    ) -> Self {
        Self {
            solutions,
            engine_label: engine_label.into(),
            engine_ms,
            producer: Producer::PivotFree,
            policy,
            injected_corruptions: 0,
            sanitizer_findings: None,
            retries: 0,
            device_faults: 0,
            degraded: false,
        }
    }
}

/// Deterministic exponential backoff with a small jitter derived from the
/// attempt index (no RNG on the dispatch path): `base · 2^(attempt−1)`,
/// capped at `max`, plus up to a quarter-`base` of de-synchronization.
fn backoff_delay(cfg: &DispatchConfig, attempt: usize) -> Duration {
    let doubled = cfg
        .backoff_base
        .checked_mul(1u32 << (attempt.saturating_sub(1)).min(10) as u32)
        .unwrap_or(cfg.backoff_max);
    let jitter_us =
        (attempt as u64).wrapping_mul(7919) % (cfg.backoff_base.as_micros().max(4) as u64 / 4 + 1);
    doubled.min(cfg.backoff_max) + Duration::from_micros(jitter_us)
}

/// Where a flush runs, resolved before any engine does.
enum Route<T: Real> {
    /// Back-substitution against a cached factorization.
    Warm(FactorEntry<T>),
    /// A CPU engine.
    Cpu(CpuEngine),
    /// A GPU engine, the fallback ladder behind it, and whether its first
    /// attempt runs under the kernel sanitizer.
    Gpu { first: GpuAlgorithm, fallbacks: Vec<Engine>, sanitize: bool },
}

/// Resolves a cold flush's route: the engine (the pin, the small-flush
/// CPU override, or the plan cache), then for a GPU engine its fallback
/// ladder and first-flush sanitize decision.
fn route_cold<T: Real>(
    launcher: &Launcher,
    plans: &PlanCache,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
    n: usize,
    occupancy: usize,
) -> Route<T> {
    // Pinned engine wins outright; otherwise sub-critical flushes skip
    // planning entirely (they go to the CPU, and tuning a size class the
    // GPU may never see would waste the tournament).
    let engine = match cfg.pin_engine {
        Some(engine) => engine,
        None if occupancy < cfg.min_gpu_batch => Engine::Cpu(CpuEngine::Thomas),
        None => plans.plan_for_on::<T>(launcher, n, cfg.probe_count, &cfg.clock).engine,
    };
    cfg.trace.emit(|| TraceEvent::Plan {
        at: cfg.clock.now(),
        n: n as u64,
        occupancy: occupancy as u64,
        engine: engine.to_string(),
    });
    let first = match engine {
        Engine::Cpu(cpu) => return Route::Cpu(cpu),
        Engine::Gpu(alg) => alg,
    };

    // Retry ladder: when the planned engine keeps faulting, the dispatcher
    // walks the autotune ranking to the next-best GPU candidate. A pinned
    // engine has no ladder — the pin is an explicit override.
    let fallbacks = match cfg.pin_engine {
        None => plans.ranking_for_on::<T>(launcher, n, cfg.probe_count, &cfg.clock),
        Some(_) => Vec::new(),
    };
    // First GPU flush of this size class? One decision point: claim the
    // one-time token and either run the dynamic sanitizer or let a static
    // proof stand in for it.
    let sanitize = match sanitize_decision::<T>(cfg, plans, launcher, engine, n) {
        SanitizeDecision::Dynamic => true,
        SanitizeDecision::ProofSkipped => {
            metrics.on_sanitize_skipped_by_proof();
            false
        }
        SanitizeDecision::NotApplicable => false,
    };
    Route::Gpu { first, fallbacks, sanitize }
}

/// Runs `systems` on GPU engine `first` through the retry ladder and
/// returns the raw answers.
///
/// * With `sanitize` set, the first attempt runs with the kernel
///   sanitizer recording; error-severity findings demote the flush to the
///   CPU GEP safety net (an unsound kernel's answers are not trusted,
///   even if their residuals happen to pass).
/// * GPU engines sit behind their circuit breaker: a denied engine is
///   skipped, a cooled-down one gets a half-open probe whose outcome is
///   always reported back.
/// * Transient device faults retry the same engine with backoff, then
///   walk `fallbacks` (the autotune ranking) to the next-best GPU
///   candidate; device loss, a launch-configuration error or attempt
///   exhaustion lands on the CPU GEP safety net. The flush is **never**
///   dropped.
#[allow(clippy::too_many_arguments)] // internal dispatch plumbing; grouping would add a one-use struct
fn run_gpu<T: Real>(
    device: &DeviceCtx<'_>,
    first: GpuAlgorithm,
    fallbacks: &[Engine],
    breakers: &CircuitBreakers,
    systems: &[SystemRef<'_, T>],
    cfg: &DispatchConfig,
    sanitize: bool,
    policy: VerifyPolicy,
) -> Run<T> {
    let launcher = device.launcher;
    let batch =
        SystemBatch::gather(systems.iter().copied()).expect("flush holds >=1 same-size systems");
    let safety_net = |retries, device_faults, sanitizer_findings| Run {
        retries,
        device_faults,
        sanitizer_findings,
        degraded: true,
        ..run_cpu(systems, CpuEngine::Gep, VerifyPolicy::full(cfg.threshold_scale), &cfg.clock)
    };

    // The candidate ladder: planned engine first, then every lower-ranked
    // GPU candidate from the tournament (CPU entries are implicit — the
    // ladder always ends at the GEP safety net).
    let mut candidates: Vec<GpuAlgorithm> = vec![first];
    candidates.extend(fallbacks.iter().filter_map(|e| match e {
        Engine::Gpu(alg) if *alg != first => Some(*alg),
        _ => None,
    }));

    let mut retries = 0u64;
    let mut device_faults = 0u64;
    let mut total_attempts = 0usize;

    'ladder: for (rank, alg) in candidates.iter().enumerate() {
        let label = Engine::Gpu(*alg).to_string();
        let key = device.breaker_key(&label);
        let admission = breakers.admit(&key);
        if admission == Admission::Deny {
            continue 'ladder; // known-bad: next candidate
        }
        let mut engine_attempts = 0usize;
        while engine_attempts < cfg.max_attempts_per_engine
            && total_attempts < cfg.max_total_attempts
        {
            engine_attempts += 1;
            total_attempts += 1;
            if total_attempts > 1 {
                retries += 1;
                // Backoff on the service clock: parks for real, advances
                // virtual time under a simulated clock.
                cfg.clock.sleep(backoff_delay(cfg, total_attempts - 1));
                cfg.trace.emit(|| TraceEvent::Retry {
                    at: cfg.clock.now(),
                    attempt: total_attempts as u64,
                });
            }
            // Sanitize exactly one kernel run: the very first attempt.
            let sanitize_this = sanitize && total_attempts == 1;
            let sanitizing_launcher;
            let attempt_launcher = if sanitize_this {
                sanitizing_launcher =
                    launcher.clone().with_sanitize(gpu_sim::SanitizeOptions::record());
                &sanitizing_launcher
            } else {
                launcher
            };
            match solve_batch(attempt_launcher, *alg, &batch) {
                Ok(report) => {
                    // The launch answered: the engine is healthy, whatever
                    // acceptance later finds in the answers.
                    breakers.on_success(&key);
                    let findings = sanitize_this.then(|| {
                        (
                            report.sanitizer_error_count() as u64,
                            report.sanitizer_warning_count() as u64,
                        )
                    });
                    if findings.is_some_and(|(errors, _)| errors > 0) {
                        // The kernel is unsound on this traffic: fall back
                        // to the CPU rather than serve its output.
                        return safety_net(retries, device_faults, findings);
                    }
                    let ms = report.timing.total_ms();
                    return Run {
                        injected_corruptions: report.corruption_count() as u64,
                        sanitizer_findings: findings,
                        retries,
                        device_faults,
                        degraded: rank > 0,
                        ..Run::new(report.solutions, label, ms, policy)
                    };
                }
                Err(e) if e.is_device_fault() => {
                    device_faults += 1;
                    let lost = matches!(e, TridiagError::DeviceLost);
                    cfg.trace.emit(|| TraceEvent::Fault { at: cfg.clock.now(), lost });
                    if lost {
                        // The whole device is gone: no GPU candidate on
                        // *this* device can serve the flush. Trip the
                        // breaker straight open, mark the device lost in
                        // its pool (the worker drains and re-routes its
                        // queue), and take the CPU safety net for this
                        // flush.
                        breakers.trip(&key);
                        device.mark_lost();
                        break 'ladder;
                    }
                    breakers.on_fault(&key);
                    // Transient: loop retries this engine (with backoff)
                    // until its per-engine budget runs out, then the
                    // ladder moves to the next candidate.
                }
                // Launch-configuration failure (e.g. a device swap made the
                // cached plan illegal): retrying cannot help this engine.
                // A closed breaker ignores it, but a half-open probe must
                // report an outcome or its breaker denies every later
                // flush: count it as a fault, so the breaker re-opens and
                // probes again after the cooldown.
                Err(_) => {
                    if admission == Admission::Probe {
                        breakers.on_fault(&key);
                    }
                    break 'ladder;
                }
            }
        }
        if total_attempts >= cfg.max_total_attempts {
            break 'ladder;
        }
    }

    // Every GPU avenue is exhausted (or denied): the pivoted CPU safety
    // net serves the flush. This is the graceful-degradation terminal —
    // correct answers, observable cost.
    safety_net(retries, device_faults, None)
}

/// Deterministic CPU engine-time model for simulated clocks, in integer
/// nanoseconds: a fixed per-row cost per engine (GEP pays pivot-search
/// and row-swap overhead on top of the elimination sweep). The constants
/// are order-of-magnitude calibrations of the real solvers; what matters
/// for replay is that the value is a pure function of `(engine, n,
/// count)` — never of the wall.
pub(crate) fn sim_cpu_ns(cpu: CpuEngine, n: usize, count: usize) -> u64 {
    let per_row: u64 = match cpu {
        CpuEngine::Thomas => 25,
        CpuEngine::Gep => 70,
    };
    (n as u64).saturating_mul(count as u64).saturating_mul(per_row)
}

/// Simulated-clock share of the per-row engine cost that pays for the
/// per-answer residual verify (`||Ax − d||` read-back + reduction). A
/// certificate-backed `Skip` flush subtracts this discount from the
/// engine constants above, which are calibrated *with* verification
/// included — existing baselines are untouched, and the certified fast
/// path's measured win is exactly the verify it no longer performs.
pub(crate) const SIM_VERIFY_NS_PER_ROW: u64 = 7;

/// Simulated-clock cost of a warm CPU back-substitution, in integer
/// nanoseconds: 16 ns/row against Thomas's 25 — the `5n`-vs-`8n` flop
/// ratio of substitution-only against eliminate-and-substitute, on the
/// same calibration scale as [`sim_cpu_ns`].
pub(crate) fn sim_cpu_warm_ns(n: usize, count: usize) -> u64 {
    (n as u64).saturating_mul(count as u64).saturating_mul(16)
}

/// Engine time of a CPU run: the wall since `started` on a real clock
/// (the engine alone — acceptance runs after); on a simulated one the
/// modeled `sim_ns`, less the [`SIM_VERIFY_NS_PER_ROW`] discount when
/// `policy` skips the residual.
fn cpu_engine_ms(
    clock: &Clock,
    sim_ns: u64,
    n: usize,
    count: usize,
    policy: VerifyPolicy,
    started: Instant,
) -> f64 {
    if clock.is_sim() {
        let rows = (n as u64).saturating_mul(count as u64);
        let discount = if policy.skips() { rows.saturating_mul(SIM_VERIFY_NS_PER_ROW) } else { 0 };
        sim_ns.saturating_sub(discount) as f64 / 1e6
    } else {
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// The matrix key shared by *every* request in the flush, or `None` when
/// any member is unkeyed or keys disagree (the batcher groups by key
/// fingerprint, so disagreement means a fingerprint collision — rare, and
/// safely served cold).
fn shared_matrix_key<T: Real>(requests: &[SolveRequest<T>]) -> Option<MatrixKey> {
    let first = requests.first()?.matrix_key?;
    requests.iter().all(|r| r.matrix_key == Some(first)).then_some(first)
}

/// Runs one keyed flush from a cached factorization: the GPU warm kernel
/// when the batch clears `min_gpu_batch`, the CPU sweep otherwise or
/// after a device fault. Warm flushes never ride the retry ladder: there
/// is no elimination to re-run, and the substitution is cheap enough that
/// the CPU sweep is the faster recovery.
fn run_warm<T: Real>(
    device: &DeviceCtx<'_>,
    entry: &FactorEntry<T>,
    systems: &[SystemRef<'_, T>],
    cfg: &DispatchConfig,
    policy: VerifyPolicy,
) -> Run<T> {
    let (n, count) = (entry.thomas.n(), systems.len());
    let started = Instant::now();
    let mut device_faults = 0u64;
    let mut degraded = false;
    if count >= cfg.min_gpu_batch {
        let rhs: Vec<&[T]> = systems.iter().map(|s| s.d).collect();
        match gpu_solvers::solve_batch_warm(device.launcher, &entry.thomas, &rhs) {
            Ok(report) => {
                let ms = report.timing.total_ms();
                return Run::new(report.solutions, "warm-gpu", ms, policy);
            }
            Err(e) if e.is_device_fault() => {
                device_faults += 1;
                degraded = true;
                let lost = matches!(e, TridiagError::DeviceLost);
                cfg.trace.emit(|| TraceEvent::Fault { at: cfg.clock.now(), lost });
                if lost {
                    device.mark_lost();
                }
            }
            Err(_) => degraded = true,
        }
    }
    let mut solutions = SolutionBatch::from_flat(n, count, vec![T::ZERO; n * count])
        .expect("flush holds >=1 same-size systems");
    lockstep::solve_factored(&entry.thomas, &mut solutions, |k| systems[k].d);
    let ms = cpu_engine_ms(&cfg.clock, sim_cpu_warm_ns(n, count), n, count, policy, started);
    Run { device_faults, degraded, ..Run::new(solutions, "cpu-warm", ms, policy) }
}

/// Runs a CPU engine over every system: Thomas in lockstep groups (see
/// [`lockstep`]), GEP one system at a time. A system the engine cannot
/// solve (a Thomas zero pivot, an exactly singular matrix for GEP) is left
/// as NaN, so acceptance's guard catches it under every policy. GEP
/// answers are never re-solved.
fn run_cpu<T: Real>(
    systems: &[SystemRef<'_, T>],
    cpu: CpuEngine,
    policy: VerifyPolicy,
    clock: &Clock,
) -> Run<T> {
    let (n, count) = (systems[0].n(), systems.len());
    let mut solutions = SolutionBatch::from_flat(n, count, vec![T::ZERO; n * count])
        .expect("flush holds >=1 same-size systems");
    let started = Instant::now();
    match cpu {
        CpuEngine::Thomas => {
            lockstep::solve_thomas(&mut solutions, |k| {
                let sys = systems[k];
                (sys.a, sys.b, sys.c, sys.d)
            });
        }
        CpuEngine::Gep => {
            for (i, sys) in systems.iter().enumerate() {
                let x = solutions.system_mut(i);
                if gep::solve_into(sys.a, sys.b, sys.c, sys.d, x).is_err() {
                    x.fill(T::from_f64(f64::NAN));
                }
            }
        }
    }
    let ms = cpu_engine_ms(clock, sim_cpu_ns(cpu, n, count), n, count, policy, started);
    let producer = match cpu {
        CpuEngine::Thomas => Producer::PivotFree,
        CpuEngine::Gep => Producer::Gep,
    };
    Run { producer, ..Run::new(solutions, Engine::Cpu(cpu).to_string(), ms, policy) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::FlushReason;
    use crate::breaker::{BreakerConfig, BreakerState};
    use crate::request::make_request;
    use gpu_solvers::GpuAlgorithm;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    fn cfg() -> DispatchConfig {
        DispatchConfig {
            min_gpu_batch: 4,
            probe_count: 4,
            backoff_base: Duration::from_micros(10), // keep tests fast
            ..DispatchConfig::default()
        }
    }

    fn systems_of(n: usize, count: usize, seed: u64) -> Vec<TridiagonalSystem<f32>> {
        let mut generator = Generator::new(seed);
        (0..count).map(|_| generator.system(Workload::DiagonallyDominant, n)).collect()
    }

    /// A full flush of `systems` (all one size), request `i` carrying id `i`.
    fn flush_from(
        systems: Vec<TridiagonalSystem<f32>>,
    ) -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        let n = systems[0].n();
        let (requests, tickets) =
            systems.into_iter().enumerate().map(|(i, s)| make_request(i as u64, s)).unzip();
        (FlushedBatch { n, requests, reason: FlushReason::Full }, tickets)
    }

    fn flush_of(
        n: usize,
        count: usize,
        seed: u64,
    ) -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        flush_from(systems_of(n, count, seed))
    }

    #[test]
    fn served_flush_fulfils_every_ticket_accurately() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 8, 11);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.try_take().expect("synchronous serve fulfils immediately");
            assert_eq!(resp.id, i as u64);
            assert_eq!(resp.x.len(), 128);
            assert_eq!(resp.batch_occupancy, 8);
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.dispatched_total(), 8);
        assert_eq!(snap.occupancy_total(), 8);
    }

    #[test]
    fn small_flushes_are_routed_to_the_cpu() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 2, 12); // below min_gpu_batch = 4
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        for ticket in tickets {
            assert_eq!(&*ticket.try_take().unwrap().engine, "cpu-thomas");
        }
    }

    #[test]
    fn zero_pivot_systems_are_repaired_on_the_cpu_path() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let mut generator = Generator::new(13);
        let mut bad: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        bad.b[0] = 0.0; // Thomas dies, GEP interchanges rows
        let (req, ticket) = make_request(0, bad);
        let flush = FlushedBatch { n: 64, requests: vec![req], reason: FlushReason::Linger };
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        let resp = ticket.try_take().unwrap();
        assert!(resp.repaired, "zero pivot must trigger GEP repair");
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        assert_eq!(metrics.snapshot(0, 0, 0).repaired, 1);
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_thomas_singular_system_in_a_lockstep_group_is_repaired_alone() {
        // 16 systems: two full lockstep groups, lane 3 of the first singular
        // for Thomas (b[0] = 0) but not for GEP.
        let launcher = Launcher::gtx280();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig { pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)), ..cfg() };
        let mut systems = systems_of(64, 16, 15);
        systems[3].b[0] = 0.0;
        let (flush, tickets) = flush_from(systems.clone());
        serve_flush(
            DeviceCtx::solo(&launcher),
            &PlanCache::new(),
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "cpu-thomas", "system {i}");
            if i == 3 {
                assert!(resp.repaired, "GEP repairs the singular lane");
                assert!(resp.residual < 1e-2, "{}", resp.residual);
            } else {
                let scalar = cpu_solvers::thomas::solve(&systems[i]).unwrap();
                assert_eq!(bits(&resp.x), bits(&scalar), "system {i}");
                assert!(!resp.repaired, "system {i}");
            }
        }
        assert_eq!(metrics.snapshot(0, 0, 0).repaired, 1);
    }

    #[test]
    fn pinned_engine_overrides_planner_and_small_flush_rule() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 2, 14); // small flush...
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for ticket in tickets {
            // ...but the pin forces the GPU engine anyway.
            assert_eq!(&*ticket.try_take().unwrap().engine, "cr+pcr@32");
        }
        assert_eq!(plans.tunes(), 0, "pinning must not trigger autotune");
        let snap = metrics.snapshot(0, 0, 0);
        assert!(snap.engine_ms["cr+pcr@32"] > 0.0, "simulated device ms recorded");
    }

    #[test]
    fn gpu_answers_are_accepted_or_repaired() {
        // Plain RD overflows at n = 512 on dominant systems (Figure 18):
        // acceptance must hand back repaired, accurate answers.
        let launcher = Launcher::gtx280();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::Rd(gpu_solvers::RdMode::Plain))),
            ..cfg()
        };
        let (flush, tickets) = flush_of(512, 8, 2);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &PlanCache::new(),
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "rd");
            assert!(resp.residual.is_finite() && resp.residual < 1e-2, "{}", resp.residual);
        }
        assert!(metrics.snapshot(0, 0, 0).repaired > 0);
    }

    /// Eight dominant f32 systems of n = 64 with an all-zero matrix at
    /// index 5: pivot-free engines produce NaN there, and GEP cannot
    /// repair it.
    fn flush_with_a_singular_system() -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        let mut systems = systems_of(64, 8, 46);
        let zero = vec![0.0f32; 64];
        let d = systems[5].d.clone();
        systems[5] = TridiagonalSystem::new(zero.clone(), zero.clone(), zero, d)
            .expect("an all-zero matrix is a well-formed system");
        flush_from(systems)
    }

    #[test]
    fn one_singular_system_does_not_demote_its_flush() {
        let launcher = Launcher::gtx280();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_with_a_singular_system();
        serve_flush(
            DeviceCtx::solo(&launcher),
            &PlanCache::new(),
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "cr+pcr@32", "system {i}");
            if i == 5 {
                assert!(resp.repaired, "the singular system is repaired");
                assert_eq!(resp.residual, f64::INFINITY, "GEP cannot solve it either");
            } else {
                assert!(!resp.repaired, "system {i}");
                assert!(resp.residual < 1e-2, "system {i}: {}", resp.residual);
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.repaired, 1);
        assert_eq!(snap.degradation.degraded_flushes, 0, "one bad input is not degradation");
    }

    #[test]
    fn a_singular_system_on_a_probe_closes_the_breaker() {
        // The probe's launch answered; what acceptance finds in one
        // answer says nothing about the engine's health.
        let clock = Clock::sim();
        let launcher = Launcher::gtx280();
        let breakers = CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone());
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            clock: clock.clone(),
            ..cfg()
        };
        breakers.trip("dev0:cr+pcr@32");
        clock.advance(BreakerConfig::default().cooldown);
        let (flush, tickets) = flush_with_a_singular_system();
        serve_flush(
            DeviceCtx::solo(&launcher),
            &PlanCache::new(),
            &breakers,
            &metrics,
            &pinned,
            flush,
        );
        for ticket in tickets {
            assert_eq!(&*ticket.try_take().unwrap().engine, "cr+pcr@32", "the probe served");
        }
        assert_eq!(breakers.state("dev0:cr+pcr@32"), BreakerState::Closed);
        assert_eq!(metrics.snapshot(0, 0, 0).degradation.degraded_flushes, 0);
    }

    #[test]
    fn a_configuration_error_on_a_probe_reopens_the_breaker() {
        let clock = Clock::sim();
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone());
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::Cr)),
            clock: clock.clone(),
            ..cfg()
        };
        let serve = |n: usize, seed: u64| {
            let (flush, tickets) = flush_of(n, 8, seed);
            serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
            tickets.into_iter().map(|t| t.try_take().unwrap().engine).collect::<Vec<_>>()
        };
        // CR needs a power-of-two size. A closed breaker ignores the
        // configuration error: the engine is not at fault.
        assert!(serve(100, 47).iter().all(|e| &**e == "cpu-gep"));
        assert_eq!(breakers.state("dev0:cr"), BreakerState::Closed);

        // As a half-open probe the same error re-opens the breaker...
        breakers.trip("dev0:cr");
        clock.advance(BreakerConfig::default().cooldown);
        assert!(serve(100, 48).iter().all(|e| &**e == "cpu-gep"));
        assert_eq!(breakers.state("dev0:cr"), BreakerState::Open, "the probe reported");

        // ...so one cooldown later a healthy flush probes and wins it back.
        clock.advance(BreakerConfig::default().cooldown);
        assert!(serve(64, 49).iter().all(|e| &**e == "cr"), "the engine was never disabled");
        assert_eq!(breakers.state("dev0:cr"), BreakerState::Closed);
    }

    #[test]
    fn first_gpu_flush_of_each_size_class_is_sanitized_once() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        // Pin a GPU engine so the routing is deterministic.
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        // Three flushes: two of n = 64 (only the first is sanitized), one
        // of n = 128 (a new size class, sanitized again).
        for (n, seed) in [(64usize, 21u64), (64, 22), (128, 23)] {
            let (flush, tickets) = flush_of(n, 8, seed);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &pinned,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert!(resp.residual < 1e-2, "{}", resp.residual);
                // Production kernels are clean: the sanitized flush must
                // still have been served on the pinned GPU engine.
                assert_eq!(&*resp.engine, "cr+pcr@32");
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.sanitized_flushes, 2, "one per size class");
        assert_eq!(snap.sanitizer_errors, 0, "production kernels are clean");
        assert_eq!(snap.completed, 24);
    }

    #[test]
    fn sanitize_hook_is_off_when_disabled_and_for_cpu_flushes() {
        let launcher = Launcher::gtx280();
        let metrics = ServiceMetrics::new();
        // CPU-routed small flush: no kernel runs, nothing to sanitize.
        {
            let plans = PlanCache::new();
            let (flush, _tickets) = flush_of(64, 2, 31); // below min_gpu_batch
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cfg(),
                flush,
            );
        }
        // GPU-pinned flush with the hook disabled.
        {
            let plans = PlanCache::new();
            let disabled = DispatchConfig {
                pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
                sanitize_first_flush: false,
                ..cfg()
            };
            let (flush, _tickets) = flush_of(64, 8, 32);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &disabled,
                flush,
            );
        }
        assert_eq!(metrics.snapshot(0, 0, 0).sanitized_flushes, 0);
    }

    #[test]
    fn sanitizer_errors_demote_the_flush_to_the_cpu() {
        // Drive `run_gpu` directly with the deliberately hazardous
        // stride-one CR timing kernel's algorithm? That variant is not a
        // `GpuAlgorithm`, so instead prove the demotion contract at the
        // `Run` level: a clean production kernel keeps its GPU label
        // under sanitize, i.e. the demotion branch is not taken spuriously.
        let launcher = Launcher::gtx280();
        let systems: Vec<TridiagonalSystem<f32>> = {
            let mut generator = Generator::new(33);
            (0..8).map(|_| generator.system(Workload::DiagonallyDominant, 64)).collect()
        };
        let refs: Vec<SystemRef<'_, f32>> = systems.iter().map(SystemRef::from).collect();
        let run = run_gpu(
            &DeviceCtx::solo(&launcher),
            GpuAlgorithm::Cr,
            &[],
            &CircuitBreakers::default(),
            &refs,
            &cfg(),
            true,
            VerifyPolicy::full(100.0),
        );
        assert_eq!(&*run.engine_label, "cr");
        let (errors, _warnings) = run.sanitizer_findings.expect("sanitized flush reports findings");
        assert_eq!(errors, 0);
    }

    #[test]
    fn proven_size_classes_skip_the_first_flush_sanitize() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(VerifiedCatalog::new());
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            verified: Some(Arc::clone(&catalog)),
            ..cfg()
        };
        // Two flushes of n = 64: the first consumes the size class's
        // one-time token but the proof replaces the sanitized launch; the
        // second is no longer a first flush, so nothing is counted twice.
        for seed in [51u64, 52] {
            let (flush, tickets) = flush_of(64, 8, seed);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &pinned,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert_eq!(&*resp.engine, "cr+pcr@32", "proof skip must not reroute the flush");
                assert!(resp.residual < 1e-2, "{}", resp.residual);
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.proof_skipped_sanitizes, 1, "one skip per size class");
        assert_eq!(snap.sanitized_flushes, 0, "the proof replaced the dynamic sanitize");
        assert_eq!(snap.sanitizer_errors, 0);
        assert!(
            catalog.is_proven::<f32>(&launcher.device, GpuAlgorithm::CrPcr { m: 32 }, 64),
            "the skip must be backed by a memoized proof"
        );
    }

    #[test]
    fn unproven_engines_keep_the_dynamic_sanitize() {
        // The per-thread Thomas kernel is the catalog's documented
        // `Unproven` boundary: even with the catalog wired in, its first
        // flush runs under the dynamic sanitizer.
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::ThomasPerThread)),
            verified: Some(Arc::new(VerifiedCatalog::new())),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 53);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "thomas-per-thread");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.sanitized_flushes, 1, "no proof → the dynamic sanitizer stays");
        assert_eq!(snap.proof_skipped_sanitizes, 0);
    }

    #[test]
    fn sanitize_decision_is_the_single_policy_point() {
        let launcher = Launcher::gtx280();
        let catalog = Arc::new(VerifiedCatalog::new());
        let with_catalog = DispatchConfig { verified: Some(Arc::clone(&catalog)), ..cfg() };
        let cpu = Engine::Cpu(CpuEngine::Thomas);
        let gpu = Engine::Gpu(GpuAlgorithm::Cr);

        // CPU engines never sanitize, and never burn the token.
        let plans = PlanCache::new();
        assert_eq!(
            sanitize_decision::<f32>(&with_catalog, &plans, &launcher, cpu, 64),
            SanitizeDecision::NotApplicable
        );
        // First GPU flush with a proof on file: skipped...
        assert_eq!(
            sanitize_decision::<f32>(&with_catalog, &plans, &launcher, gpu, 64),
            SanitizeDecision::ProofSkipped
        );
        // ...and the token is spent: the second flush is not special.
        assert_eq!(
            sanitize_decision::<f32>(&with_catalog, &plans, &launcher, gpu, 64),
            SanitizeDecision::NotApplicable
        );

        // Without a catalog the same first flush sanitizes dynamically.
        let plans = PlanCache::new();
        assert_eq!(
            sanitize_decision::<f32>(&cfg(), &plans, &launcher, gpu, 64),
            SanitizeDecision::Dynamic
        );

        // Disabled sanitizing wins over everything and leaves the token.
        let plans = PlanCache::new();
        let off = DispatchConfig { sanitize_first_flush: false, ..cfg() };
        assert_eq!(
            sanitize_decision::<f32>(&off, &plans, &launcher, gpu, 64),
            SanitizeDecision::NotApplicable
        );
        assert!(plans.begin_sanitize::<f32>(&launcher, 64), "token untouched while disabled");
    }

    // ── warm tier: factor-cache hits, misses, invalidation ───────────

    /// A keyed flush of `count` RHS against one shared matrix.
    fn keyed_flush(
        system: &TridiagonalSystem<f32>,
        count: usize,
        seed: u64,
    ) -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        let key = tridiag_core::MatrixKey::of_system(system);
        let n = system.n();
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..count {
            let mut sys = system.clone();
            sys.d =
                (0..n).map(|j| ((j as u64 * 13 + i as u64 * 7 + seed) % 19) as f32 - 9.0).collect();
            let (req, ticket) =
                crate::request::make_request_keyed(i as u64, sys, 0, None, Some(key));
            requests.push(req);
            tickets.push(ticket);
        }
        (FlushedBatch { n, requests, reason: FlushReason::Full }, tickets)
    }

    #[test]
    fn warm_tier_misses_cold_then_hits_warm() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(8));
        let warm_cfg = DispatchConfig { factor_cache: Some(Arc::clone(&cache)), ..cfg() };
        let mut generator = Generator::new(61);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 128);

        // First flush: cache miss → factored → served cold.
        let (flush, tickets) = keyed_flush(&system, 8, 1);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
            assert!(!resp.engine.contains("warm"), "first flush is cold: {}", resp.engine);
        }

        // Second flush, same matrix: hit → GPU warm back-substitution
        // (8 ≥ min_gpu_batch), verified answers.
        let (flush, tickets) = keyed_flush(&system, 8, 2);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "warm-gpu");
            assert!(!resp.repaired, "a healthy warm flush needs no repair");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }

        // Third flush, two RHS: below min_gpu_batch, CPU warm sweep.
        let (flush, tickets) = keyed_flush(&system, 2, 3);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "cpu-warm");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }

        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_misses, 1);
        assert_eq!(snap.factor_hits, 2);
        assert_eq!(snap.warm_flushes, 2);
        assert_eq!(snap.factor_evictions, 0);
        assert!(snap.degradation.is_quiet(), "warm traffic is not degradation");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn cpu_warm_flush_of_67_rhs_matches_the_scalar_sweep() {
        // 67 right-hand sides: eight full lockstep groups and a remainder
        // of three, all on the CPU sweep.
        let launcher = Launcher::gtx280();
        let cache = Arc::new(SharedFactorCache::new(8));
        let warm_cfg = DispatchConfig {
            factor_cache: Some(Arc::clone(&cache)),
            min_gpu_batch: usize::MAX,
            ..cfg()
        };
        let system: TridiagonalSystem<f32> =
            Generator::new(67).system(Workload::DiagonallyDominant, 96);
        let factors = cpu_solvers::ThomasFactors::factor(&system.a, &system.b, &system.c).unwrap();
        for (seed, engine) in [(1, "cpu-thomas"), (2, "cpu-warm")] {
            let (flush, tickets) = keyed_flush(&system, 67, seed);
            let rhs: Vec<Vec<f32>> = flush.requests.iter().map(|r| r.d.clone()).collect();
            serve_flush(
                DeviceCtx::solo(&launcher),
                &PlanCache::new(),
                &CircuitBreakers::default(),
                &ServiceMetrics::new(),
                &warm_cfg,
                flush,
            );
            for (i, ticket) in tickets.into_iter().enumerate() {
                let resp = ticket.try_take().unwrap();
                assert_eq!(&*resp.engine, engine, "flush {seed}, rhs {i}");
                if engine == "cpu-warm" {
                    assert_eq!(bits(&resp.x), bits(&factors.solve(&rhs[i])), "rhs {i}");
                }
            }
        }
    }

    #[test]
    fn unkeyed_flushes_never_touch_the_cache() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(8));
        let warm_cfg = DispatchConfig { factor_cache: Some(Arc::clone(&cache)), ..cfg() };
        let (flush, tickets) = flush_of(64, 8, 62); // make_request: no key
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            assert!(ticket.try_take().unwrap().residual < 1e-2);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_hits + snap.factor_misses + snap.warm_flushes, 0);
        assert!(cache.stats().entries == 0);
    }

    // ── certification: sampled verification, skip, revocation ────────

    use numeric_verify::CertifiedCatalog;

    #[test]
    fn certified_key_downgrades_to_sampled_verification() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(4));
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        let mut generator = Generator::new(71);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 128);

        // Five flushes of the same matrix: verify pattern is Full (first
        // sight, the schedule's first sample; the certificate is issued on
        // the second flush), then Skip, Skip, Skip, Sampled.
        for round in 0..5 {
            let (flush, tickets) = keyed_flush(&system, 8, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert!(!resp.repaired, "certified dominant traffic needs no repair");
                assert!(
                    resp.residual.is_finite() && resp.residual < 1e-2,
                    "round {round}: {}",
                    resp.residual
                );
            }
        }

        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.condest_calls, 1, "analysis is once-per-key");
        assert_eq!(snap.certs_issued, 1);
        assert_eq!(snap.cert_sampled_verifies, 1);
        assert_eq!(snap.cert_skipped_verifies, 3);
        assert_eq!(snap.certs_revoked, 0);
        assert!(snap.degradation.is_quiet(), "certification is not degradation");
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified, stats.revoked), (1, 1, 0));
    }

    #[test]
    fn uncertified_key_keeps_full_verification() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::new());
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        // Not dominant (|a|+|c| > |b|), not SPD (an LDLᵀ pivot goes
        // negative), not an M-matrix (positive off-diagonals): no
        // certificate class fits.
        let n = 64;
        let mut a = vec![1.0f32; n];
        let mut c = vec![1.0f32; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let system = TridiagonalSystem::<f32>::new(a, vec![0.5; n], c, vec![1.0; n]).unwrap();
        for round in 0..4 {
            let (flush, tickets) = keyed_flush(&system, 8, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert!(resp.residual.is_finite() && resp.residual < 1e-2, "{}", resp.residual);
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        // The class scan rejects before the condition estimator runs, so
        // no condest call is spent on this key.
        assert_eq!(snap.condest_calls, 0);
        assert_eq!(snap.certs_issued, 0);
        assert_eq!(snap.cert_sampled_verifies + snap.cert_skipped_verifies, 0);
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified), (1, 0));
    }

    #[test]
    fn corruption_on_sampled_warm_flush_revokes_the_certificate() {
        // Every warm GPU launch flips bits; with K = 1 every certified
        // flush is sampled, so the very first warm corruption is caught,
        // repaired, and the certificate revoked.
        let (launcher, _plan) = faulty_launcher(FaultConfig {
            seed: 0xCE27,
            bit_flip_rate: 1.0,
            flips_per_event: 4,
            ..FaultConfig::default()
        });
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(4));
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(1));
        let cert_cfg = DispatchConfig {
            factor_cache: Some(Arc::clone(&cache)),
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        let mut generator = Generator::new(72);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        let key = tridiag_core::MatrixKey::of_system(&system);

        // Flush 1: factor miss, served cold on the (fault-immune) CPU.
        // First sight of the key: no analysis yet, so no certificate.
        let (flush, _t1) = keyed_flush(&system, 8, 1);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        assert!(catalog.certificate(&key).is_none(), "analysis waits for the second flush");

        // Flush 2: the key repeats, so it is analyzed and certified, and
        // with K = 1 every certified flush is sampled. It is served by the warm
        // GPU back-substitution, bit-flipped: the sampled verify catches
        // it, GEP repairs every answer, and the certificate dies with the
        // poisoned cache entry.
        let (flush, tickets) = keyed_flush(&system, 8, 2);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert!(resp.residual < 1e-2, "repaired answers stay right: {}", resp.residual);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.certs_issued, 1);
        assert_eq!(snap.certs_revoked, 1);
        assert!(snap.degradation.corruptions_caught > 0);
        assert_eq!(
            catalog.certificate(&key),
            Some(tridiag_core::NumericCertificate::Uncertified),
            "revoked keys read as uncertified"
        );

        // Flush 3: back to full verification — no further sampling
        // counters move for this key.
        let sampled_before = snap.cert_sampled_verifies;
        let (flush, _t3) = keyed_flush(&system, 8, 3);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.cert_sampled_verifies, sampled_before);
        assert_eq!(snap.cert_skipped_verifies, 0, "K = 1 never skips");
    }

    #[test]
    fn one_shot_keys_are_fully_verified_and_never_analyzed() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(4));
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            factor_cache: Some(Arc::new(SharedFactorCache::new(4))),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        let mut generator = Generator::new(73);
        for round in 0..12 {
            let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
            let (flush, tickets) = keyed_flush(&system, 4, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
            for ticket in tickets {
                assert!(ticket.try_take().unwrap().residual < 1e-2);
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.cert_sampled_verifies + snap.cert_skipped_verifies, 0, "never sampled");
        assert_eq!((snap.condest_calls, snap.certs_issued), (0, 0), "never analyzed");
        assert!(catalog.is_empty());
    }

    #[test]
    fn corruption_on_a_first_flush_is_repaired() {
        // Every GPU launch flips bits. A key's first flush carries no
        // certificate, so it is fully verified and every answer the flip
        // corrupted is caught and GEP-repaired.
        let (launcher, _plan) = faulty_launcher(FaultConfig {
            seed: 0xF125,
            bit_flip_rate: 1.0,
            flips_per_event: 4,
            ..FaultConfig::default()
        });
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(4));
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            sanitize_first_flush: false,
            ..cfg()
        };
        let system: TridiagonalSystem<f32> =
            Generator::new(74).system(Workload::DiagonallyDominant, 64);
        let (flush, tickets) = keyed_flush(&system, 8, 1);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert!(
                resp.residual < 1e-2,
                "corrupted first-flush answer escaped: {}",
                resp.residual
            );
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert!(snap.degradation.corruptions_caught > 0, "the flip was never caught");
        assert!(snap.repaired > 0, "caught corruption never repaired");
        assert_eq!(snap.cert_skipped_verifies + snap.cert_sampled_verifies, 0);
        assert!(catalog.certificate(&tridiag_core::MatrixKey::of_system(&system)).is_none());
        assert_eq!(catalog.stats().seen_once, 0, "a failed first flush forgets the sighting");
        assert_eq!(snap.certs_revoked, 0, "nothing was certified, so nothing is revoked");
    }

    #[test]
    fn no_skip_precedes_the_key_being_analyzed() {
        use crate::trace::{TraceHandle, TraceSink};
        use std::sync::Mutex;
        struct Collect(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Collect {
            fn record(&self, event: TraceEvent) {
                self.0.lock().unwrap().push(event);
            }
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::new(CertifiedCatalog::with_sample_period(2))),
            factor_cache: Some(Arc::new(SharedFactorCache::new(4))),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            trace: TraceHandle::to(sink.clone()),
            ..cfg()
        };
        // Three repeating matrices interleaved with one-shot ones, over
        // both the cold and the warm tier.
        let mut generator = Generator::new(75);
        let pool: Vec<TridiagonalSystem<f32>> =
            (0..3).map(|_| generator.system(Workload::DiagonallyDominant, 64)).collect();
        for round in 0..24u64 {
            let system = if round % 4 == 3 {
                generator.system(Workload::DiagonallyDominant, 64)
            } else {
                pool[round as usize % 3].clone()
            };
            let (flush, _tickets) = keyed_flush(&system, 4, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
        }
        let mut issued = std::collections::HashSet::new();
        let mut skips = 0;
        for event in sink.0.lock().unwrap().iter() {
            match event {
                TraceEvent::CertIssued { key, .. } => assert!(issued.insert(*key), "issued twice"),
                TraceEvent::CertSkipVerify { key, .. } => {
                    assert!(issued.contains(key), "a verify was skipped before analysis");
                    skips += 1;
                }
                _ => {}
            }
        }
        assert_eq!(issued.len(), 3, "exactly the repeating matrices are analyzed");
        assert!(skips > 0, "the stream never reached a skip");
    }

    // ── resilience: retries, breakers, graceful degradation ──────────

    use gpu_sim::{FaultConfig, FaultPlan};

    fn faulty_launcher(cfg: FaultConfig) -> (Launcher, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(cfg));
        (Launcher::gtx280().with_fault_plan(Arc::clone(&plan)), plan)
    }

    #[test]
    fn transient_fault_is_retried_on_the_same_engine() {
        // Launch 0 faults (burst of 1); the retry (launch 1) succeeds.
        let (launcher, plan) =
            faulty_launcher(FaultConfig { launch_fault_burst: 1, ..FaultConfig::quiet(7) });
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 41);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().expect("retry must still answer");
            assert_eq!(&*resp.engine, "cr+pcr@32", "retry stays on the planned engine");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.device_faults, 1);
        assert_eq!(d.retries, 1);
        assert_eq!(d.degraded_flushes, 0, "a successful retry is not degradation");
        assert_eq!(plan.stats().launch_failures, 1);
        assert_eq!(breakers.state("dev0:cr+pcr@32"), crate::breaker::BreakerState::Closed);
    }

    #[test]
    fn device_loss_degrades_to_the_cpu_safety_net() {
        let (launcher, _plan) = faulty_launcher(FaultConfig {
            device_lost_after: Some(0), // every launch: device lost
            ..FaultConfig::quiet(8)
        });
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 42);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().expect("degradation must still answer");
            assert_eq!(&*resp.engine, "cpu-gep", "device loss lands on the safety net");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.device_faults, 1, "device loss aborts the ladder immediately");
        assert_eq!(d.degraded_flushes, 1);
    }

    #[test]
    fn persistent_faults_walk_the_ranking_to_the_next_candidate() {
        // Every launch faults transiently: the planned engine exhausts its
        // per-engine budget, the ladder walks the fallback, and with
        // max_total_attempts = 4 everything runs out → CPU GEP.
        let (launcher, plan) =
            faulty_launcher(FaultConfig { launch_fault_burst: u64::MAX, ..FaultConfig::quiet(9) });
        let breakers = CircuitBreakers::default();
        let systems: Vec<TridiagonalSystem<f32>> = {
            let mut generator = Generator::new(43);
            (0..8).map(|_| generator.system(Workload::DiagonallyDominant, 64)).collect()
        };
        let refs: Vec<SystemRef<'_, f32>> = systems.iter().map(SystemRef::from).collect();
        let fallbacks =
            vec![Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 }), Engine::Gpu(GpuAlgorithm::Pcr)];
        let mut run = run_gpu(
            &DeviceCtx::solo(&launcher),
            GpuAlgorithm::CrPcr { m: 32 },
            &fallbacks,
            &breakers,
            &refs,
            &cfg(),
            false,
            VerifyPolicy::full(100.0),
        );
        assert_eq!(&*run.engine_label, "cpu-gep");
        assert!(run.degraded);
        assert_eq!(run.device_faults, 4, "max_total_attempts bounds the faults");
        assert_eq!(run.retries, 3);
        let acceptance = accept_or_repair(&systems, &mut run.solutions, run.producer, run.policy);
        assert!(acceptance.residuals.iter().all(|&r| r.is_finite() && r < 1e-2));
        // Two faults each on two engines (per-engine budget = 2).
        assert_eq!(plan.stats().launch_failures, 4);
    }

    #[test]
    fn open_breaker_demotes_the_flush_without_touching_the_engine() {
        let launcher = Launcher::gtx280(); // healthy device
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        // Trip the breaker for the pinned engine by hand.
        for _ in 0..3 {
            breakers.on_fault("dev0:cr+pcr@32");
        }
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 44);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(&*resp.engine, "cpu-gep", "open breaker demotes to the safety net");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        assert!(breakers.denials_total() >= 1);
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.degraded_flushes, 1);
        assert_eq!(d.device_faults, 0, "the engine was never launched");
    }

    #[test]
    fn deadline_misses_are_flagged_and_counted() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let mut generator = Generator::new(45);
        // A deadline of tick 1 on the config's clock is long past by the
        // time the flush is served: flagged as missed, still answered.
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        let (req, ticket) = crate::request::make_request_keyed(0, system, 0, Some(1), None);
        let flush = FlushedBatch { n: 64, requests: vec![req], reason: FlushReason::Deadline };
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &cfg(), flush);
        let resp = ticket.try_take().expect("missed deadlines still get answers");
        assert!(resp.deadline_missed);
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.degradation.deadline_misses, 1);
        assert_eq!(snap.flushes_deadline, 1);
    }
}
