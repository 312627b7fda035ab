//! The `factor` subcommand: cold-vs-warm sweep over the factorization
//! cache and reports speedup, hit rate, and correctness.
//!
//! ```text
//! cargo run --release -p bench -- factor            # full sweep (1200 req)
//! cargo run --release -p bench -- factor --quick    # CI gate subset
//! ```
//!
//! Two identical open-loop streams of same-matrix RHS flushes run through
//! [`serve_flush`] on the simulated clock: the **cold** mode serves every
//! flush with full elimination (factor cache off), the **warm** mode
//! enables the cache so repeat-matrix flushes take the back-substitution
//! fast path. Both modes pin the CPU cost model, so the device-µs ratio
//! is the flop-count ratio itself — `O(8n)` elimination vs `O(5n)`
//! substitution — and the gate is deterministic. The gate fails (exit 1)
//! iff the warm speedup drops below the checked-in floor, the hit rate
//! collapses, or any answer in either mode escapes the verify bound.

use crate::gate::Gate;
use crate::report::Table;
use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, Launcher};
use solver_service::{
    make_request_keyed, serve_flush, CircuitBreakers, CpuEngine, DeviceCtx, DispatchConfig, Engine,
    FlushReason, FlushedBatch, MetricsSnapshot, PlanCache, ServiceMetrics, Ticket,
};
use std::sync::Arc;
use tridiag_core::residual::{Scorer, RESIDUAL_BOUND};
use tridiag_core::{Generator, MatrixKey, TridiagonalSystem, Workload};

/// System sizes the stream mixes — one pooled matrix per size.
pub(crate) const SIZES: [usize; 3] = [64, 128, 256];

/// RHS per flush (every flush is one matrix × `BATCH` right-hand sides).
pub(crate) const BATCH: usize = 8;

/// What one pooled-matrix run served.
pub(crate) struct PooledRun {
    pub wrong: u64,
    pub max_residual: f64,
    /// Modeled device time per served system, microseconds.
    pub device_us_per_system: f64,
    pub snap: MetricsSnapshot,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sim-clock pooled-matrix driver the `factor` and `certify` gates
/// share: `total` requests in `BATCH`-sized same-matrix flushes cycling
/// over `templates`, each request a fresh right-hand side drawn from
/// `rhs_seed`. `extra` carries what the caller's mode switches on (the
/// factor cache or the certified catalog). Every flush is pinned to the
/// CPU Thomas cost model and kept off the GPU, so device-µs ratios
/// between modes are the deterministic per-row cost ratios of the sim
/// model, independent of flush composition.
pub(crate) fn serve_pooled(
    extra: DispatchConfig,
    templates: &[(TridiagonalSystem<f32>, MatrixKey)],
    total: usize,
    rhs_seed: u64,
) -> PooledRun {
    let launcher = Launcher::gtx280();
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::default();
    let metrics = ServiceMetrics::new();
    let cfg = DispatchConfig {
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        min_gpu_batch: usize::MAX,
        sanitize_first_flush: false,
        clock: Clock::sim(),
        ..extra
    };

    let flushes = (total / BATCH).max(1);
    let mut sent: Vec<(TridiagonalSystem<f32>, Ticket<f32>)> = Vec::with_capacity(flushes * BATCH);
    let mut rhs_rng = rhs_seed;
    let mut id = 0u64;
    for f in 0..flushes {
        let (template, key) = &templates[f % templates.len()];
        let n = template.n();
        let mut requests = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut system = template.clone();
            for v in system.d.iter_mut() {
                *v = (splitmix64(&mut rhs_rng) % 19) as f32 - 9.0;
            }
            let (req, ticket) = make_request_keyed(id, system.clone(), 0, None, Some(*key));
            id += 1;
            requests.push(req);
            sent.push((system, ticket));
        }
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &breakers,
            &metrics,
            &cfg,
            FlushedBatch { n, requests, reason: FlushReason::Full },
        );
    }

    let mut scorer = Scorer::default();
    for (system, ticket) in sent {
        scorer
            .score(&system, &ticket.try_take().expect("synchronous serve fulfils every ticket").x);
    }

    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    let total_engine_ms: f64 = snap.engine_ms.values().sum();
    PooledRun {
        wrong: scorer.wrong,
        max_residual: scorer.max_residual,
        device_us_per_system: total_engine_ms * 1e3 / snap.completed.max(1) as f64,
        snap,
    }
}

fn hit_rate(run: &PooledRun) -> f64 {
    let lookups = run.snap.factor_hits + run.snap.factor_misses;
    if lookups == 0 {
        0.0
    } else {
        run.snap.factor_hits as f64 / lookups as f64
    }
}

/// Drives one mode over one pooled matrix per size, with the factor
/// cache on (`warm`) or off.
fn drive(seed: u64, total: usize, warm: bool) -> PooledRun {
    let mut generator = Generator::new(seed);
    let templates: Vec<(TridiagonalSystem<f32>, MatrixKey)> = SIZES
        .iter()
        .map(|&n| {
            let system = generator.system(Workload::DiagonallyDominant, n);
            let key = MatrixKey::of_system(&system);
            (system, key)
        })
        .collect();
    let factor_cache = warm.then(|| Arc::new(SharedFactorCache::new(16)));
    serve_pooled(
        DispatchConfig { factor_cache, ..DispatchConfig::default() },
        &templates,
        total,
        seed ^ 0xFAC7_0001,
    )
}

fn json_row(mode: &str, out: &PooledRun) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"factor\",\"mode\":\"{}\",",
            "\"completed\":{},\"wrong\":{},\"max_residual\":{:.3e},",
            "\"device_us_per_system\":{:.4},",
            "\"factor_hits\":{},\"factor_misses\":{},\"factor_evictions\":{},",
            "\"warm_flushes\":{},\"hit_rate\":{:.4}}}"
        ),
        mode,
        out.snap.completed,
        out.wrong,
        out.max_residual,
        out.device_us_per_system,
        out.snap.factor_hits,
        out.snap.factor_misses,
        out.snap.factor_evictions,
        out.snap.warm_flushes,
        hit_rate(out),
    )
}

/// Runs the cold-vs-warm factor sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("factor", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let total = if gate.args.quick { 240 } else { 1200 };
    let seed = 20100109;

    eprintln!("[factor] cold sweep ({total} requests, cache off) ...");
    let cold = drive(seed, total, false);
    eprintln!("[factor] warm sweep ({total} requests, cache on) ...");
    let warm = drive(seed, total, true);

    let speedup = cold.device_us_per_system / warm.device_us_per_system.max(1e-12);
    let wrong = cold.wrong + warm.wrong;

    let mut table = Table::new(
        format!(
            "Factor cache: {total} same-matrix-pool requests/mode (n ∈ {SIZES:?}, \
             {BATCH} RHS/flush), cold elimination vs warm back-substitution"
        ),
        &[
            "mode",
            "served",
            "wrong",
            "max residual",
            "device µs/sys",
            "hits",
            "misses",
            "evict",
            "warm flushes",
        ],
    );
    for (mode, out) in [("cold", &cold), ("warm", &warm)] {
        table.row(vec![
            mode.to_string(),
            out.snap.completed.to_string(),
            out.wrong.to_string(),
            format!("{:.2e}", out.max_residual),
            format!("{:.3}", out.device_us_per_system),
            out.snap.factor_hits.to_string(),
            out.snap.factor_misses.to_string(),
            out.snap.factor_evictions.to_string(),
            out.snap.warm_flushes.to_string(),
        ]);
        gate.row(json_row(mode, out));
    }
    table.note(format!(
        "warm speedup {speedup:.3}x device-µs/system, hit rate {:.1}%",
        hit_rate(&warm) * 100.0
    ));
    table.note(format!(
        "gate: speedup/hit-rate floors from baselines/factor.json, wrong answers = 0 \
         (residual bound {RESIDUAL_BOUND:.0e})"
    ));
    println!("{table}");
    gate.summary("speedup", format!("{speedup:.4}"));

    // Structural sanity independent of the baseline floors: the cold mode
    // must never consult the cache, the warm mode must miss exactly once
    // per pooled matrix, and warm traffic must not register as
    // degradation.
    gate.check(
        cold.snap.factor_hits + cold.snap.factor_misses + cold.snap.warm_flushes == 0,
        "cold mode touched the factor cache",
    );
    gate.check(
        warm.snap.factor_misses == SIZES.len() as u64,
        format!(
            "warm mode missed {} times for {} pooled matrices",
            warm.snap.factor_misses,
            SIZES.len()
        ),
    );
    gate.check(
        warm.snap.degradation.is_quiet() && cold.snap.degradation.is_quiet(),
        "a fault-free sweep left degradation counters non-quiet",
    );
    gate.floors(
        "factor-sweep",
        &[("speedup", speedup), ("hit_rate", hit_rate(&warm)), ("wrong", wrong as f64)],
    );
    gate.finish(format!(
        "warm speedup {speedup:.3}x, hit rate {:.1}%, every answer verified",
        hit_rate(&warm) * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_mode_never_touches_the_cache_and_verifies_everything() {
        let out = drive(7, 48, false);
        assert_eq!(out.snap.completed, 48);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.snap.factor_hits + out.snap.factor_misses + out.snap.warm_flushes, 0);
        assert!(out.snap.degradation.is_quiet());
    }

    #[test]
    fn warm_mode_misses_once_per_matrix_then_hits() {
        let out = drive(7, 96, true);
        assert_eq!(out.snap.completed, 96);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.snap.factor_misses, SIZES.len() as u64);
        assert!(out.snap.factor_hits > out.snap.factor_misses);
        assert_eq!(out.snap.factor_evictions, 0);
        assert!(out.snap.degradation.is_quiet(), "warm traffic is not degradation");
    }

    #[test]
    fn warm_beats_cold_by_the_flop_ratio() {
        let cold = drive(7, 240, false);
        let warm = drive(7, 240, true);
        let speedup = cold.device_us_per_system / warm.device_us_per_system;
        // 25 ns/row elimination vs 16 ns/row substitution, diluted by one
        // cold miss-flush per pooled matrix.
        assert!(speedup >= 1.3, "speedup {speedup}");
        assert!(speedup <= 25.0 / 16.0 + 1e-9, "speedup {speedup} above the flop ratio");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
