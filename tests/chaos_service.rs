//! Chaos tests: the serving layer on a fault-injected device.
//!
//! The contract under test — the whole point of the resilience layer — is
//! that injected device misbehaviour (transient launch failures, memory
//! bit-flips) costs *latency and engine choice*, never *correctness or
//! completeness*:
//!
//! * a 1000-request open-loop stream at 5% launch faults + 1% bit flips
//!   loses no ticket and returns no wrong answer;
//! * a burst of launch faults trips the per-engine circuit breaker
//!   Closed→Open, and a clean half-open probe closes it again — the full
//!   round trip, observable in the metrics;
//! * injected bit-flips are *always* caught by residual verification and
//!   repaired by the GEP safety net (property-tested over random seeds);
//! * the fault schedule is a pure function of the seed: two identical runs
//!   produce identical answers, identical injected-fault statistics, and
//!   identical service counters;
//! * a quiet fault plan (all rates zero) is counter-neutral: byte-identical
//!   solutions and identical counters to running with no plan at all.

use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, FaultConfig, FaultPlan, Launcher};
use gpu_solvers::GpuAlgorithm;
use numeric_verify::CertifiedCatalog;
use proptest::prelude::*;
use solver_service::{
    make_request, make_request_keyed, serve_flush, CircuitBreakers, CpuEngine, DeviceCtx,
    DispatchConfig, Engine, FlushReason, FlushedBatch, MetricsSnapshot, PlanCache, ServiceConfig,
    ServiceError, ServiceMetrics, SolveResponse, SolverService, Ticket,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::residual::{l2_residual, Scorer, RESIDUAL_BOUND};
use tridiag_core::{Generator, MatrixKey, TridiagonalSystem, Workload};

fn faulty_launcher(cfg: FaultConfig) -> (Launcher, Arc<FaultPlan>) {
    let plan = Arc::new(FaultPlan::new(cfg));
    (Launcher::gtx280().with_fault_plan(Arc::clone(&plan)), plan)
}

/// Open-loop submit with backpressure retries honoring the drain hint.
///
/// The retry pause goes through the *service's* clock: on a sim clock the
/// hint advances virtual time (so linger deadlines the workers are parked
/// on expire immediately) and we only yield the real thread so those
/// workers get scheduled; on a real clock this is the old wall sleep.
fn submit_retrying<T: tridiag_core::Real>(
    service: &SolverService<T>,
    system: &TridiagonalSystem<T>,
) -> Ticket<T> {
    loop {
        match service.submit(system.clone()) {
            Ok(ticket) => return ticket,
            Err(ServiceError::QueueFull { retry_after: Some(hint), .. }) => {
                service.clock().sleep(hint);
                if service.clock().is_sim() {
                    std::thread::yield_now();
                }
            }
            Err(ServiceError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("service refused a valid request: {e}"),
        }
    }
}

/// Waits on a ticket while pumping the service's virtual clock.
///
/// Under a sim clock nobody advances time on its own, and submission is
/// asynchronous: a batcher insert can land *after* the submitter returns,
/// setting a linger deadline in the virtual future. Advancing once up
/// front would race that insert and deadlock the tail flush, so the waiter
/// funds time in small steps until its ticket resolves — each step expires
/// any deadline set so far, and the short real sleep lets the worker
/// threads actually run. On a real clock this is plain `Ticket::wait`.
fn wait_pumping<T: tridiag_core::Real>(
    service: &SolverService<T>,
    ticket: Ticket<T>,
) -> SolveResponse<T> {
    if !service.clock().is_sim() {
        return ticket.wait();
    }
    loop {
        if let Some(response) = ticket.try_take() {
            return response;
        }
        service.clock().advance(Duration::from_millis(1));
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The ISSUE's headline chaos scenario: 1000 mixed-size requests at 5%
/// transient launch faults + 1% bit flips. Zero lost tickets, zero wrong
/// answers, and every caught corruption accounted for in the metrics.
#[test]
fn chaos_stream_no_lost_tickets_no_wrong_answers() {
    const TOTAL: usize = 1000;
    const SIZES: [usize; 3] = [64, 128, 256];

    let (launcher, plan) = faulty_launcher(FaultConfig::chaos(0xCA05_2026, 0.05, 0.01));
    let config = ServiceConfig {
        // Small batches multiply kernel launches, and a pinned GPU engine
        // keeps every flush on the device — otherwise the autotuner routes
        // these small batches to the CPU and the 5%/1% rates have almost
        // no launches to bite (the planner is its own fault-avoidance
        // layer; here we want maximum fault exposure).
        target_batch: 8,
        min_gpu_batch: 1,
        max_linger: Duration::from_millis(1),
        launcher,
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
        // Sim clock: linger and backpressure pauses are virtual, so the
        // test's duration is solver work, not a thousand waits on wall
        // timers — the de-flaking half of the virtual-clock story.
        clock: Clock::sim(),
        ..ServiceConfig::default()
    };
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(0xCA05_2026);

    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(TOTAL);
    let mut systems: BTreeMap<u64, TridiagonalSystem<f32>> = BTreeMap::new();
    for i in 0..TOTAL {
        let n = SIZES[i % SIZES.len()];
        let system = generator.system(Workload::DiagonallyDominant, n);
        let ticket = submit_retrying(&service, &system);
        assert!(systems.insert(ticket.id(), system).is_none(), "duplicate ticket id");
        tickets.push(ticket);
    }

    // Every ticket resolves; every answer re-verifies independently.
    let mut seen = 0usize;
    for ticket in tickets {
        let id = ticket.id();
        let response = wait_pumping(&service, ticket);
        assert_eq!(response.id, id, "response delivered to the wrong ticket");
        let system = systems.remove(&id).expect("response for unknown id");
        let recomputed = l2_residual(&system, &response.x).expect("finite solution");
        assert!(
            recomputed < RESIDUAL_BOUND,
            "wrong answer escaped the service: id={id} n={} engine={} residual={recomputed}",
            system.n(),
            response.engine
        );
        seen += 1;
    }
    assert_eq!(seen, TOTAL, "lost tickets");
    assert!(systems.is_empty());

    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, TOTAL as u64);

    // The device really did misbehave, and the books say so: dispatch saw
    // at most the injected faults (autotune probes absorb the rest), and
    // every flip that landed on served output was caught and repaired.
    let stats = plan.stats();
    assert!(
        stats.launch_failures + stats.bit_flips > 0,
        "chaos rates injected nothing over {TOTAL} requests: {stats:?}"
    );
    let deg = &snapshot.degradation;
    assert!(
        deg.device_faults <= stats.launch_failures,
        "dispatch counted more faults ({}) than were injected ({})",
        deg.device_faults,
        stats.launch_failures
    );
    assert!(
        deg.corruptions_caught <= stats.bit_flips + stats.nan_poisons,
        "caught more corruptions ({}) than were injected",
        deg.corruptions_caught
    );
    assert!(snapshot.repaired >= deg.corruptions_caught.min(1), "corruption caught but no repair");
}

/// Burst faults trip the breaker Closed→Open; once the burst passes, a
/// half-open probe closes it again. The full round trip is visible in the
/// degradation gauges, and no answer is lost or wrong along the way.
#[test]
fn breaker_round_trips_open_and_closed_under_a_fault_burst() {
    // Find a seed whose very first fault event lands within the first few
    // launches — `FaultPlan::schedule` is the deterministic oracle, so the
    // test never depends on luck.
    let cfg_for = |seed: u64| FaultConfig {
        seed,
        launch_failure_rate: 0.02,
        launch_fault_burst: 6,
        ..FaultConfig::default()
    };
    let seed = (0..5000u64)
        .find(|&s| {
            let schedule = FaultPlan::schedule(&cfg_for(s), 40);
            // A burst starting in the first handful of launches, and a
            // clean tail long enough for the recovery probe.
            schedule[..4].iter().any(|d| d.fail.is_some())
                && schedule[12..].iter().all(|d| d.fail.is_none())
        })
        .expect("no seed with an early burst in 5000 tries");

    let (launcher, plan) = faulty_launcher(cfg_for(seed));
    let service: SolverService<f32> = SolverService::start(ServiceConfig {
        target_batch: 4,
        min_gpu_batch: 1,
        max_linger: Duration::from_micros(200),
        launcher,
        // Pin one engine so every fault lands on a single breaker, and
        // allow enough same-engine attempts that one burst can cross the
        // breaker's failure threshold quickly.
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
        max_attempts_per_engine: 4,
        max_total_attempts: 4,
        // Sim clock: the inter-wave pauses that fund breaker cooldown
        // become virtual advances instead of wall sleeps, so the breaker's
        // round trip no longer depends on host timer resolution.
        clock: Clock::sim(),
        ..ServiceConfig::default()
    });

    let mut generator = Generator::new(42);
    // Trickle requests so traffic spans several breaker cooldown windows:
    // the burst opens the breaker early, later flushes fund the half-open
    // probes that eventually succeed and close it.
    for wave in 0..12 {
        let tickets: Vec<Ticket<f32>> = (0..8)
            .map(|_| {
                let system = generator.system(Workload::DiagonallyDominant, 64);
                submit_retrying(&service, &system)
            })
            .collect();
        for ticket in tickets {
            let response = wait_pumping(&service, ticket);
            assert!(response.residual < RESIDUAL_BOUND, "wave {wave}: {}", response.residual);
        }
        service.clock().sleep(Duration::from_millis(4));
    }

    let snapshot = service.shutdown();
    let deg = &snapshot.degradation;
    assert!(plan.stats().launch_failures >= 3, "burst never fired: {:?}", plan.stats());
    assert!(deg.breaker_opened >= 1, "breaker never opened: {deg:?}");
    assert!(deg.breaker_closed >= 1, "breaker never recovered: {deg:?}");
    // (Open-breaker flush demotion is pinned deterministically by the
    // dispatch unit tests; here concurrent workers may absorb the whole
    // burst with same-engine retries, so we don't assert it.)
    assert_eq!(snapshot.completed, 96);
    // After recovery every breaker rests closed.
    assert!(deg.breaker_states.values().all(|s| s == "closed"), "{:?}", deg.breaker_states);
}

/// Serves one batch of `count` systems of size `n` through the synchronous
/// pipeline and returns (solutions, snapshot) — deterministic by design.
fn serve_once(
    launcher: &Launcher,
    seed: u64,
    n: usize,
    count: usize,
) -> (Vec<Vec<f32>>, MetricsSnapshot) {
    let plans = PlanCache::new();
    let metrics = ServiceMetrics::new();
    let breakers = CircuitBreakers::default();
    let cfg = DispatchConfig {
        min_gpu_batch: 1,
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 16 })),
        sanitize_first_flush: false,
        ..DispatchConfig::default()
    };
    let mut generator = Generator::new(seed);
    let mut requests = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..count {
        let (req, ticket) =
            make_request(i as u64, generator.system(Workload::DiagonallyDominant, n));
        requests.push(req);
        tickets.push(ticket);
    }
    serve_flush(
        DeviceCtx::solo(launcher),
        &plans,
        &breakers,
        &metrics,
        &cfg,
        FlushedBatch { n, requests, reason: FlushReason::Full },
    );
    let solutions = tickets
        .into_iter()
        .map(|t| {
            let response = t.try_take().expect("synchronous serve");
            assert!(response.residual < RESIDUAL_BOUND, "residual {}", response.residual);
            response.x
        })
        .collect();
    (solutions, metrics.snapshot(0, plans.tunes(), plans.hits()))
}

/// Same fault seed ⇒ identical schedule, identical answers, identical
/// counters. The whole fault layer is replayable.
#[test]
fn same_fault_seed_replays_identically() {
    let cfg = FaultConfig::chaos(77, 0.3, 0.3);
    assert_eq!(FaultPlan::schedule(&cfg, 64), FaultPlan::schedule(&cfg, 64));

    let run = || {
        let (launcher, plan) = faulty_launcher(cfg);
        let (solutions, snapshot) = serve_once(&launcher, 9, 64, 6);
        (solutions, snapshot, plan.stats())
    };
    let (x1, snap1, stats1) = run();
    let (x2, snap2, stats2) = run();

    assert_eq!(stats1, stats2, "injected-fault statistics diverged");
    assert!(stats1.launch_failures + stats1.bit_flips > 0, "nothing injected: {stats1:?}");
    assert_eq!(x1, x2, "answers diverged across identical runs");
    let d1 = &snap1.degradation;
    let d2 = &snap2.degradation;
    assert_eq!(
        (d1.retries, d1.device_faults, d1.corruptions_caught, d1.degraded_flushes),
        (d2.retries, d2.device_faults, d2.corruptions_caught, d2.degraded_flushes),
        "degradation counters diverged"
    );
    assert_eq!(snap1.repaired, snap2.repaired);
    assert_eq!(snap1.dispatch_systems, snap2.dispatch_systems);
}

/// A quiet plan (every rate zero) must be indistinguishable from no plan:
/// byte-identical solutions, identical counters, quiet degradation state.
#[test]
fn quiet_fault_plan_is_counter_neutral() {
    let bare = Launcher::gtx280();
    let (quiet, plan) = faulty_launcher(FaultConfig::quiet(123));

    let (x_bare, snap_bare) = serve_once(&bare, 5, 128, 5);
    let (x_quiet, snap_quiet) = serve_once(&quiet, 5, 128, 5);

    assert_eq!(x_bare, x_quiet, "a quiet plan changed the answers");
    let stats = plan.stats();
    assert_eq!(stats.launch_failures + stats.bit_flips + stats.nan_poisons + stats.stalls, 0);
    assert!(snap_bare.degradation.is_quiet() && snap_quiet.degradation.is_quiet());
    assert_eq!(snap_bare.repaired, snap_quiet.repaired);
    assert_eq!(snap_bare.dispatch_systems, snap_quiet.dispatch_systems);
    assert_eq!(snap_bare.engine_ms, snap_quiet.engine_ms, "simulated device time diverged");
}

/// The multi-device failover scenario: a 4-device pool where one device
/// dies sticky (`DeviceLost`) a few launches into the stream. The pool
/// must absorb the loss — the dead device drains and its queue re-routes
/// to survivors — with zero lost tickets, zero wrong answers, only the
/// dead device's breaker open, and the three survivors still dispatching.
#[test]
fn pool_survives_one_device_dying_mid_stream() {
    const TOTAL: usize = 300;
    const SIZES: [usize; 3] = [64, 128, 256];
    const DEAD: usize = 2;

    let mut pool_cfg = device_pool::PoolConfig::new(4);
    // Device 2 is lost for good on its 4th launch; everyone else is quiet.
    pool_cfg.fault_overrides =
        vec![(DEAD, FaultConfig { device_lost_after: Some(3), ..FaultConfig::quiet(0) })];
    let config = ServiceConfig {
        target_batch: 8,
        min_gpu_batch: 1,
        max_linger: Duration::from_millis(1),
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
        pool: Some(pool_cfg),
        // Sim clock: the pacing loop below still condition-polls ("has
        // device 2 tripped yet?") with short *real* sleeps so worker
        // threads get scheduler time, but every linger deadline and
        // backpressure hint is funded by virtual advances — the test's
        // duration is solver work, not wall timers, and the flush
        // schedule replays identically across hosts.
        clock: Clock::sim(),
        ..ServiceConfig::default()
    };
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(0x0DEA_D0DE);

    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(TOTAL);
    let mut systems: BTreeMap<u64, TridiagonalSystem<f32>> = BTreeMap::new();
    let mut submit_one =
        |i: usize,
         tickets: &mut Vec<Ticket<f32>>,
         systems: &mut BTreeMap<u64, TridiagonalSystem<f32>>| {
            let n = SIZES[i % SIZES.len()];
            let system = generator.system(Workload::DiagonallyDominant, n);
            let ticket = submit_retrying(&service, &system);
            assert!(systems.insert(ticket.id(), system).is_none(), "duplicate ticket id");
            tickets.push(ticket);
        };
    // Pace the stream in small waves until device 2 has actually tripped,
    // so survivors can't steal every flush routed to it before its worker
    // launches a kernel; then pour in the remainder in one burst.
    let mut submitted = 0usize;
    while submitted < TOTAL {
        for _ in 0..8.min(TOTAL - submitted) {
            submit_one(submitted, &mut tickets, &mut systems);
            submitted += 1;
        }
        if service.metrics().devices.iter().any(|d| d.id == DEAD && d.lost) {
            break;
        }
        // Fund any pending linger deadline virtually, then yield real
        // scheduler time so the parked workers actually serve the flush.
        service.clock().advance(Duration::from_millis(1));
        std::thread::sleep(Duration::from_micros(200));
    }
    for i in submitted..TOTAL {
        submit_one(i, &mut tickets, &mut systems);
    }

    // Zero lost tickets, zero wrong answers — the loss is invisible to
    // callers except as latency.
    for ticket in tickets {
        let id = ticket.id();
        let response = wait_pumping(&service, ticket);
        let system = systems.remove(&id).expect("response for unknown id");
        let recomputed = l2_residual(&system, &response.x).expect("finite solution");
        assert!(
            recomputed < RESIDUAL_BOUND,
            "wrong answer after device loss: id={id} engine={} residual={recomputed}",
            response.engine
        );
    }
    assert!(systems.is_empty(), "lost tickets");

    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, TOTAL as u64);
    assert_eq!(snapshot.devices.len(), 4);

    // Only the dead device is lost, and only its breaker is open.
    for dev in &snapshot.devices {
        if dev.id == DEAD {
            assert!(dev.lost, "device {DEAD} must be marked lost: {dev:?}");
            assert_eq!(dev.breaker, "open", "dead device's breaker must be open: {dev:?}");
        } else {
            assert!(!dev.lost, "survivor {} wrongly marked lost", dev.id);
            assert_eq!(dev.breaker, "closed", "survivor {} breaker: {dev:?}", dev.id);
        }
    }
    // The survivors carried the stream.
    let survivor_work: u64 =
        snapshot.devices.iter().filter(|d| d.id != DEAD).map(|d| d.dispatched).sum();
    assert!(survivor_work > 0, "survivors dispatched nothing: {:?}", snapshot.devices);
    // The loss is on the books: the lost launch surfaced as a device fault
    // and the breaker tripped open exactly once for the dead device.
    let deg = &snapshot.degradation;
    assert!(deg.breaker_opened >= 1, "loss never tripped a breaker: {deg:?}");
    assert!(
        deg.breaker_states.iter().all(|(k, s)| k.starts_with("dev2:") || s == "closed"),
        "a survivor's breaker left closed state: {:?}",
        deg.breaker_states
    );
}

/// The warm-tier chaos cell: a certain bit flip lands on the warm GPU
/// back-substitution flush. The residual verify must catch it, the GEP
/// safety net must repair it, and the poisoned cache entry must be
/// invalidated (visible as a factor eviction) — then the next flush of
/// the same matrix refactors from scratch. Zero wrong answers throughout.
#[test]
fn poisoned_warm_flush_is_repaired_and_the_entry_invalidated() {
    let (launcher, plan) = faulty_launcher(FaultConfig {
        seed: 0xFAC7,
        bit_flip_rate: 1.0,
        flips_per_event: 4,
        ..FaultConfig::default()
    });
    let plans = PlanCache::new();
    let metrics = ServiceMetrics::new();
    let breakers = CircuitBreakers::default();
    let cache = Arc::new(SharedFactorCache::new(4));
    let cfg = DispatchConfig {
        min_gpu_batch: 1,
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 16 })),
        sanitize_first_flush: false,
        factor_cache: Some(Arc::clone(&cache)),
        ..DispatchConfig::default()
    };
    let mut generator = Generator::new(0xFAC7);
    let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
    let key = MatrixKey::of_system(&system);

    let serve = |seed: u64| -> Vec<String> {
        let mut requests = Vec::new();
        let mut sent = Vec::new();
        for i in 0..4u64 {
            let mut sys = system.clone();
            for (j, v) in sys.d.iter_mut().enumerate() {
                *v = ((j as u64 * 31 + i * 7 + seed) % 17) as f32 - 8.0;
            }
            let (req, ticket) = make_request_keyed(i, sys.clone(), 0, None, Some(key));
            requests.push(req);
            sent.push((sys, ticket));
        }
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &breakers,
            &metrics,
            &cfg,
            FlushedBatch { n: 64, requests, reason: FlushReason::Full },
        );
        // Scored against the systems sent, not the residual reported.
        let mut scorer = Scorer::default();
        let engines: Vec<String> = sent
            .into_iter()
            .map(|(sys, t)| {
                let r = t.try_take().expect("synchronous serve");
                scorer.score(&sys, &r.x);
                r.engine.to_string()
            })
            .collect();
        assert_eq!(scorer.wrong, 0, "wrong answer escaped ({scorer:?}) on {engines:?}");
        engines
    };

    // Flush 1: miss → factored → served cold (the flip on the cold launch
    // is the cold robust path's business).
    let engines = serve(1);
    assert!(engines.iter().all(|e| !e.contains("warm")), "first flush must be cold: {engines:?}");
    assert_eq!(cache.stats().entries, 1);

    // Flush 2: hit → warm GPU back-substitution, output poisoned by the
    // certain flip. Verify catches it, GEP repairs, the entry dies.
    let engines = serve(2);
    assert!(engines.iter().all(|e| e == "warm-gpu"), "second flush must be warm: {engines:?}");
    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    assert_eq!(snap.factor_hits, 1);
    assert_eq!(snap.factor_misses, 1);
    assert_eq!(snap.warm_flushes, 1);
    assert!(plan.stats().bit_flips >= 2, "flip rate 1.0 injected nothing: {:?}", plan.stats());
    assert!(
        snap.degradation.corruptions_caught >= 1,
        "poisoned warm output never caught: {:?}",
        snap.degradation
    );
    assert!(snap.repaired >= 1, "corruption caught but nothing repaired");
    assert!(snap.factor_evictions >= 1, "poisoned entry never invalidated");
    assert_eq!(cache.stats().entries, 0, "poisoned entry still resident");

    // Flush 3: the entry is gone, so the same matrix misses and refactors
    // from scratch — the invalidation round-trips.
    let engines = serve(3);
    assert!(engines.iter().all(|e| !e.contains("warm")), "post-eviction flush must refactor");
    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    assert_eq!(snap.factor_misses, 2);
    assert_eq!(cache.stats().entries, 1, "refactorization must repopulate the cache");
}

/// The certified-tier chaos cell: a certified matrix rides the sampled
/// verification fast path (1-in-K residual checks) while a certain bit
/// flip poisons every warm GPU flush. The contract: the corruption is
/// caught — by a sampled verify or the always-on NaN guard — within K
/// flushes of the first skip, the certificate is revoked, and from then
/// on that key pays full verification forever (no re-certification, no
/// further skips). Every answer is scored against the system sent: a
/// skipped flush inside the window may serve a corrupted answer (that is
/// the exposure `Skip` trades for its saving), no verified flush may.
#[test]
fn certified_bit_flip_is_caught_within_the_sampling_window_and_revokes() {
    const K: usize = 4;
    let (launcher, plan) = faulty_launcher(FaultConfig {
        seed: 0xCE27,
        bit_flip_rate: 1.0,
        flips_per_event: 4,
        ..FaultConfig::default()
    });
    let plans = PlanCache::new();
    let metrics = ServiceMetrics::new();
    let breakers = CircuitBreakers::default();
    let cache = Arc::new(SharedFactorCache::new(4));
    let catalog = Arc::new(CertifiedCatalog::with_sample_period(K));
    // Cold flushes are pinned to the (fault-immune) CPU so the only
    // poisoned path is the warm GPU back-substitution the certificate is
    // gating; min_gpu_batch: 1 keeps warm flushes on the device.
    let cfg = DispatchConfig {
        min_gpu_batch: 1,
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        sanitize_first_flush: false,
        factor_cache: Some(Arc::clone(&cache)),
        certified: Some(Arc::clone(&catalog)),
        ..DispatchConfig::default()
    };
    let mut generator = Generator::new(0xCE27);
    let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
    let key = MatrixKey::of_system(&system);

    // Serves one flush of 4 and returns how many of its answers are
    // wrong, and whether the flush skipped its verify.
    let serve = |seed: u64| -> (u64, bool) {
        let skipped_before = metrics.snapshot(0, plans.tunes(), plans.hits()).cert_skipped_verifies;
        let mut requests = Vec::new();
        let mut sent = Vec::new();
        for i in 0..4u64 {
            let mut sys = system.clone();
            for (j, v) in sys.d.iter_mut().enumerate() {
                *v = ((j as u64 * 31 + i * 7 + seed) % 17) as f32 - 8.0;
            }
            let (req, ticket) = make_request_keyed(i, sys.clone(), 0, None, Some(key));
            requests.push(req);
            sent.push((sys, ticket));
        }
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &breakers,
            &metrics,
            &cfg,
            FlushedBatch { n: 64, requests, reason: FlushReason::Full },
        );
        // Under a certificate skip the reported residual is the a-priori
        // bound, so every answer is scored against the system sent.
        let mut scorer = Scorer::default();
        for (sys, t) in sent {
            let r = t.try_take().expect("synchronous serve");
            scorer.score(&sys, &r.x);
        }
        let skipped = metrics.snapshot(0, plans.tunes(), plans.hits()).cert_skipped_verifies;
        let skipped = skipped > skipped_before;
        assert!(skipped || scorer.wrong == 0, "a verified flush served wrong answers: {scorer:?}");
        (scorer.wrong, skipped)
    };

    // Flush 1: cold miss and the key's first sight — fully verified, not
    // yet analyzed (a certificate only pays off once the key repeats). It
    // is the first sample of the key's 1-in-K schedule.
    assert_eq!(serve(1), (0, false));
    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    assert_eq!(snap.certs_issued, 0, "analysis waits for the key's second flush: {snap:?}");
    assert_eq!(snap.cert_sampled_verifies + snap.cert_skipped_verifies, 0, "first flush is Full");
    assert_eq!(snap.certs_revoked, 0, "fault-free cold flush must not revoke");
    assert_eq!(cache.stats().entries, 1);

    // Warm flushes now ride the skip window with every GPU launch
    // poisoned: the first of them (the key's second flush) certifies the
    // dominant matrix and already skips. Count how many it takes until the
    // corruption is caught and the certificate revoked — the contract
    // caps that at K.
    let mut warm_flushes = 0usize;
    let mut escaped = 0u64;
    while metrics.snapshot(0, plans.tunes(), plans.hits()).certs_revoked == 0 {
        warm_flushes += 1;
        assert!(
            warm_flushes <= K,
            "bit flip survived the whole sampling window (K = {K}) without revocation"
        );
        escaped += serve(1 + warm_flushes as u64).0;
    }
    // What the window let through: only answers of skipped flushes, at
    // most the K flushes before revocation.
    assert!(escaped <= 4 * K as u64, "{escaped} wrong answers escaped the window");
    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    assert!(plan.stats().bit_flips >= 1, "flip rate 1.0 injected nothing: {:?}", plan.stats());
    assert_eq!(snap.certs_issued, 1, "dominant matrix must certify: {snap:?}");
    assert!(snap.cert_skipped_verifies >= 1, "the poisoned flushes never rode a skip: {snap:?}");
    assert_eq!(snap.certs_revoked, 1, "exactly one revocation for the poisoned key");
    assert!(
        snap.degradation.corruptions_caught >= 1,
        "revoked without a caught corruption: {:?}",
        snap.degradation
    );
    assert!(snap.repaired >= 1, "corruption caught but the answers never repaired");
    let skips_at_revocation = snap.cert_skipped_verifies;
    let sampled_at_revocation = snap.cert_sampled_verifies;

    // Post-revocation the key pays full verification forever: another
    // 2K flushes move neither the skip nor the sample counter, no second
    // certificate is ever issued, revocation stays idempotent — and every
    // answer keeps clearing the residual bound under the same fault rate.
    for round in 0..(2 * K as u64) {
        assert_eq!(serve(100 + round), (0, false), "round {round} after revocation");
    }
    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    assert_eq!(snap.cert_skipped_verifies, skips_at_revocation, "a revoked key skipped a verify");
    assert_eq!(
        snap.cert_sampled_verifies, sampled_at_revocation,
        "a revoked key was sampled instead of fully verified"
    );
    assert_eq!(snap.certs_issued, 1, "a revoked key was re-certified");
    assert_eq!(snap.certs_revoked, 1, "revocation must be idempotent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Injected bit-flips are *always* caught by residual verification and
    /// repaired — whatever the seed, size, or batch shape. (`serve_once`
    /// asserts every response's residual internally.)
    #[test]
    fn bit_flips_are_always_caught_and_repaired(
        seed in 0u64..1_000_000,
        n in prop::sample::select(vec![32usize, 64, 128]),
        count in 2usize..8,
    ) {
        let (launcher, plan) = faulty_launcher(FaultConfig {
            seed,
            bit_flip_rate: 1.0,
            flips_per_event: 1,
            ..FaultConfig::default()
        });
        let (solutions, snapshot) = serve_once(&launcher, seed ^ 1, n, count);
        prop_assert_eq!(solutions.len(), count);
        let stats = plan.stats();
        prop_assert!(stats.bit_flips >= 1, "rate 1.0 but no flip injected");
        let deg = &snapshot.degradation;
        prop_assert!(
            deg.corruptions_caught >= 1,
            "flip injected but never caught: {:?}",
            stats
        );
        prop_assert!(
            snapshot.repaired >= 1,
            "corruption caught but nothing repaired"
        );
    }
}
