//! Layer replays: a deterministic sample of the workload's own systems
//! run through each layer's public functions, timed on the wall clock.
//! The `gpu-sim` figures are the simulator's modeled GTX 280 time for
//! the plan the cost model would pick; its interpreter's host time is
//! reported beside them.

use crate::report::{median, Report};
use cpu_solvers::{condition_estimate, solve_batch_soa, thomas, ThomasFactors};
use factor_cache::FactorCache;
use gpu_sim::{Clock, Launcher};
use gpu_solvers::solve_batch;
use numeric_verify::CertifiedCatalog;
use solver_service::{Engine, PlanCache};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tridiag_core::residual::l2_residual;
use tridiag_core::{MatrixKey, NumericCertificate, SystemBatch, TridiagonalSystem};

/// Median nanoseconds per `unit` over repeated passes of `pass` (after one
/// warm pass), each pass preceded by an untimed `prepare`; at least five
/// passes and about 50 ms.
fn per_unit<S>(
    units: usize,
    mut prepare: impl FnMut() -> S,
    mut pass: impl FnMut(S),
) -> (f64, u64) {
    pass(prepare());
    let mut samples = Vec::new();
    let began = Instant::now();
    while samples.len() < 5
        || (began.elapsed() < Duration::from_millis(50) && samples.len() < 10_000)
    {
        let state = prepare();
        let t = Instant::now();
        pass(state);
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    (median(&samples), samples.len() as u64)
}

/// Replays `sample` through every layer and records the per-layer replay
/// metrics. `clock` is the clock the workload's planner runs on.
pub fn replay(sample: &[TridiagonalSystem<f32>], clock: &Clock, report: &mut Report) {
    let total_rows: usize = sample.iter().map(TridiagonalSystem::n).sum();
    let keys: Vec<MatrixKey> = sample.iter().map(MatrixKey::of_system).collect();
    let solutions: Vec<Vec<f32>> =
        sample.iter().map(|s| thomas::solve(s).expect("sample systems are dominant")).collect();

    let (v, n) = per_unit(
        total_rows,
        || (),
        |()| {
            for s in sample {
                black_box(MatrixKey::of::<f32>(black_box(&s.a), &s.b, &s.c));
            }
        },
    );
    report.set("tridiag-core.matrix_key_ns_per_row", v, n);

    let (v, n) = per_unit(
        total_rows,
        || (),
        |()| {
            for (s, x) in sample.iter().zip(&solutions) {
                black_box(l2_residual(black_box(s), x).ok());
            }
        },
    );
    report.set("tridiag-core.residual_ns_per_row", v, n);

    let mut x = vec![0.0f32; sample.iter().map(TridiagonalSystem::n).max().unwrap_or(0)];
    let (v, n) = per_unit(
        total_rows,
        || (),
        |()| {
            for s in sample {
                let _ = thomas::solve_into(&s.a, &s.b, &s.c, black_box(&s.d), &mut x[..s.n()]);
            }
            black_box(&x);
        },
    );
    report.set("cpu-solvers.thomas_ns_per_row", v, n);

    // The flush batches: the sample grouped by size, at most 64 a batch.
    let mut by_size: BTreeMap<usize, Vec<TridiagonalSystem<f32>>> = BTreeMap::new();
    for s in sample {
        let group = by_size.entry(s.n()).or_default();
        if group.len() < 64 {
            group.push(s.clone());
        }
    }
    let batches: Vec<SystemBatch<f32>> = by_size
        .values()
        .map(|g| SystemBatch::from_systems(g).expect("same-size systems batch"))
        .collect();
    let batch_rows: usize = batches.iter().map(|b| b.n() * b.count()).sum();
    let (v, n) = per_unit(
        batch_rows,
        || (),
        |()| {
            for b in &batches {
                black_box(solve_batch_soa(black_box(b)).ok());
            }
        },
    );
    report.set("cpu-solvers.batch_soa_ns_per_row", v, n);

    let factors: Vec<ThomasFactors<f32>> = sample
        .iter()
        .map(|s| ThomasFactors::factor(&s.a, &s.b, &s.c).expect("sample systems factor"))
        .collect();
    let (v, n) = per_unit(
        total_rows,
        || (),
        |()| {
            for (f, s) in factors.iter().zip(sample) {
                f.solve_into(black_box(&s.d), &mut x[..s.n()]);
            }
            black_box(&x);
        },
    );
    report.set("cpu-solvers.warm_solve_ns_per_row", v, n);

    let (v, n) = per_unit(
        sample.len(),
        || (),
        |()| {
            for s in sample {
                black_box(condition_estimate(black_box(s)).ok());
            }
        },
    );
    report.set("cpu-solvers.condest_us_per_key", v / 1e3, n);

    let (v, n) = per_unit(sample.len(), CertifiedCatalog::new, |catalog| {
        for (s, k) in sample.iter().zip(&keys) {
            black_box(catalog.observe(*k, s));
        }
    });
    report.set("numeric-verify.analyze_us_per_key", v / 1e3, n);

    let catalog = CertifiedCatalog::new();
    for (s, k) in sample.iter().zip(&keys) {
        catalog.observe(*k, s);
    }
    let (v, n) = per_unit(
        sample.len(),
        || (),
        |()| {
            for (s, k) in sample.iter().zip(&keys) {
                black_box(catalog.observe(*k, s));
            }
        },
    );
    report.set("numeric-verify.observe_ns", v, n);

    // The services run a 64-entry cache; inserting the whole sample into
    // a fresh one evicts once it is full, as churn does.
    let insert = |cache: FactorCache<f32>| {
        for (s, k) in sample.iter().zip(&keys) {
            black_box(
                cache
                    .factor_and_insert_with_certificate(
                        *k,
                        &s.a,
                        &s.b,
                        &s.c,
                        NumericCertificate::Uncertified,
                    )
                    .ok(),
            );
        }
        cache
    };
    let (v, n) = per_unit(total_rows, || FactorCache::new(64), |cache| drop(insert(cache)));
    report.set("factor-cache.factor_insert_ns_per_row", v, n);

    let cache = insert(FactorCache::new(64));
    let (v, n) = per_unit(
        sample.len(),
        || (),
        |()| {
            for k in &keys {
                black_box(cache.lookup(black_box(k)));
            }
        },
    );
    report.set("factor-cache.lookup_ns", v, n);

    gpu(&by_size, &batches, clock, report);
}

/// The planner's tournament on a fresh plan cache for the sample's sizes,
/// then the modeled kernel of the best GPU candidate per size.
fn gpu(
    by_size: &BTreeMap<usize, Vec<TridiagonalSystem<f32>>>,
    batches: &[SystemBatch<f32>],
    clock: &Clock,
    report: &mut Report,
) {
    let launcher = Launcher::gtx280();
    let mut tournaments = Vec::new();
    let mut plans = PlanCache::new();
    for _ in 0..3 {
        plans = PlanCache::new();
        let t = Instant::now();
        for &n in by_size.keys() {
            black_box(plans.plan_for_on::<f32>(&launcher, n, 16, clock));
        }
        tournaments.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set(
        "solver-service.planner.tournament_ms",
        median(&tournaments),
        tournaments.len() as u64,
    );

    let (mut kernel, mut transfer, mut shared, mut global, mut compute) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut systems, mut batch_rows) = (0usize, 0usize);
    let mut runs = Vec::new();
    for batch in batches {
        let n = batch.n();
        let ranking = plans.ranking_for_on::<f32>(&launcher, n, 16, clock);
        let Some(alg) = ranking.iter().find_map(|e| match e {
            Engine::Gpu(alg) => Some(*alg),
            Engine::Cpu(_) => None,
        }) else {
            continue;
        };
        let Ok(r) = solve_batch(&launcher, alg, batch) else { continue };
        kernel += r.timing.kernel_ms;
        transfer += r.timing.transfer_ms;
        shared += r.timing.shared_ms;
        global += r.timing.global_ms;
        compute += r.timing.compute_ms;
        systems += batch.count();
        batch_rows += n * batch.count();
        runs.push((alg, batch));
    }
    let per_system = |ms: f64| ms * 1e3 / systems.max(1) as f64;
    report.set("gpu-sim.modeled_kernel_us_per_system", per_system(kernel), systems as u64);
    report.set("gpu-sim.modeled_transfer_us_per_system", per_system(transfer), systems as u64);
    let split = (shared + global + compute).max(f64::MIN_POSITIVE);
    report.set("gpu-sim.modeled_shared_share", shared / split, systems as u64);
    report.set("gpu-sim.modeled_global_share", global / split, systems as u64);
    report.set("gpu-sim.modeled_compute_share", compute / split, systems as u64);

    let mut walls = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for (alg, batch) in &runs {
            black_box(solve_batch(&launcher, *alg, batch).ok());
        }
        walls.push(t.elapsed().as_nanos() as f64 / batch_rows.max(1) as f64);
    }
    report.set("gpu-sim.interp_ns_per_row", median(&walls), walls.len() as u64);
}
