//! Property tests for the planner and the serving pipeline.
//!
//! Invariants under random workloads:
//! * whatever engine the [`PlanCache`] picks, serving a flush through it
//!   produces the same answers as the sequential Thomas reference (the
//!   verify-and-repair layer makes the engine choice *semantically*
//!   invisible — plans only change performance);
//! * a cache key is tuned exactly once; every later flush of the same
//!   size class is a hit;
//! * the batcher's bucket table conserves requests: everything inserted
//!   comes back out in exactly one flush, always size-homogeneous.

use gpu_sim::Launcher;
use proptest::prelude::*;
use solver_service::{
    serve_flush, Admitted, BucketTable, CircuitBreakers, DeviceCtx, DispatchConfig, FlushReason,
    FlushedBatch, PlanCache, ServiceMetrics, TraceHandle,
};
use std::time::Duration;
use tridiag_core::residual::max_abs_diff;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// Strategy: a random strictly diagonally dominant f32 system of size `n`.
fn dominant_system(n: usize) -> impl Strategy<Value = TridiagonalSystem<f32>> {
    let off = prop::collection::vec(-1.0f32..1.0, n);
    let margins = prop::collection::vec(0.5f32..2.0, n);
    let rhs = prop::collection::vec(-10.0f32..10.0, n);
    (off.clone(), off, margins, rhs).prop_map(move |(mut a, mut c, m, d)| {
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let b: Vec<f32> = (0..n).map(|i| a[i].abs() + c[i].abs() + m[i]).collect();
        TridiagonalSystem { a, b, c, d }
    })
}

/// Strategy: a batch of 1..=12 same-size systems, n ∈ {32, 64, 128}.
fn dominant_flush() -> impl Strategy<Value = Vec<TridiagonalSystem<f32>>> {
    prop::sample::select(vec![32usize, 64, 128])
        .prop_flat_map(|n| prop::collection::vec(dominant_system(n), 1..=12))
}

fn dispatch_cfg() -> DispatchConfig {
    DispatchConfig { min_gpu_batch: 4, probe_count: 4, ..DispatchConfig::default() }
}

/// Serves `systems` through the full plan→dispatch→verify pipeline and
/// returns the responses in submission order.
fn serve(
    plans: &PlanCache,
    systems: &[TridiagonalSystem<f32>],
) -> Vec<solver_service::SolveResponse<f32>> {
    let launcher = Launcher::gtx280();
    let metrics = ServiceMetrics::new();
    let mut requests = Vec::new();
    let mut tickets = Vec::new();
    for (i, sys) in systems.iter().enumerate() {
        let (req, ticket) = solver_service::make_request(i as u64, sys.clone());
        requests.push(req);
        tickets.push(ticket);
    }
    let flush = FlushedBatch { n: systems[0].n(), requests, reason: FlushReason::Full };
    serve_flush(
        DeviceCtx::solo(&launcher),
        plans,
        &CircuitBreakers::default(),
        &metrics,
        &dispatch_cfg(),
        flush,
    );
    tickets.into_iter().map(|t| t.try_take().expect("synchronous serve")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn planned_engine_agrees_with_thomas_reference(systems in dominant_flush()) {
        let plans = PlanCache::new();
        let responses = serve(&plans, &systems);
        for (sys, resp) in systems.iter().zip(&responses) {
            let reference = cpu_solvers::thomas::solve(sys).unwrap();
            let diff = max_abs_diff(&resp.x, &reference);
            prop_assert!(
                diff < 1e-3,
                "engine {} disagrees with Thomas by {diff} at n={}",
                resp.engine,
                sys.n()
            );
            prop_assert!(resp.residual < 1e-2, "residual {}", resp.residual);
        }
    }

    #[test]
    fn cache_hits_skip_retuning(systems in dominant_flush(), repeats in 2usize..5) {
        let plans = PlanCache::new();
        let mut engines = Vec::new();
        for _ in 0..repeats {
            let responses = serve(&plans, &systems);
            engines.push(responses[0].engine.clone());
        }
        // Small flushes bypass planning entirely; large ones tune exactly once.
        let expected_tunes = u64::from(systems.len() >= 4);
        prop_assert!(
            plans.tunes() == expected_tunes,
            "tunes={} expected={expected_tunes} repeats={repeats}",
            plans.tunes()
        );
        if expected_tunes == 1 {
            prop_assert_eq!(plans.hits(), repeats as u64 - 1);
        }
        // Whatever was planned, it is sticky across flushes.
        prop_assert!(engines.windows(2).all(|w| w[0] == w[1]), "{:?}", engines);
    }

    #[test]
    fn bucket_table_conserves_requests(
        sizes in prop::collection::vec(prop::sample::select(vec![16usize, 32, 64]), 1..40),
        target in 1usize..8,
    ) {
        let mut table: BucketTable<f32> = BucketTable::new(target, Duration::from_secs(3600));
        let mut generator = Generator::new(99);
        let now = 0; // tick 0 on a virtual timeline — inserts never expire here
        let mut flushed_ids: Vec<u64> = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let (req, _ticket) = solver_service::make_request(
                i as u64,
                generator.system(Workload::DiagonallyDominant, n),
            );
            let admitted = table.admit(req, now, &TraceHandle::disabled());
            if let Ok(Admitted::Full(flush)) = admitted {
                prop_assert_eq!(flush.requests.len(), target);
                prop_assert!(flush.requests.iter().all(|r| r.n() == flush.n));
                flushed_ids.extend(flush.requests.iter().map(|r| r.id));
            }
        }
        prop_assert_eq!(table.pending(), sizes.len() - flushed_ids.len());
        for flush in table.flush_all() {
            prop_assert!(flush.requests.iter().all(|r| r.n() == flush.n));
            flushed_ids.extend(flush.requests.iter().map(|r| r.id));
        }
        // Conservation: every inserted request appears in exactly one flush.
        flushed_ids.sort_unstable();
        let expected: Vec<u64> = (0..sizes.len() as u64).collect();
        prop_assert_eq!(flushed_ids, expected);
    }
}
