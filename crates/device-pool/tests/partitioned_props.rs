//! Property tests for the cross-device partitioned solver: for random
//! diagonally-dominant systems, the pool solve must match the CPU GEP
//! reference within a residual-style tolerance — across 1/2/4/8 devices,
//! awkward (non-power-of-two) sizes, uneven chunk splits, and sizes far
//! beyond one block's shared memory (n up to 2^16).

use device_pool::{PoolConfig, RoutingPolicy};
use gpu_solvers::partitioned::solve_partitioned;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// Element-wise agreement with GEP, scaled by the solution magnitude.
fn assert_matches_gep(sys: &TridiagonalSystem<f64>, x: &[f64], tag: &str) {
    let x_ref = cpu_solvers::gep::solve(sys).unwrap();
    let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for i in 0..sys.n() {
        let err = (x[i] - x_ref[i]).abs() / scale;
        assert!(err < 1e-10, "{tag}: i={i} rel err {err:.3e} ({} vs {})", x[i], x_ref[i]);
    }
}

#[test]
fn partitioned_matches_gep_across_pool_sizes() {
    let mut rng = 0x1234_5678_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for devices in [1usize, 2, 4, 8] {
        for _ in 0..3 {
            let seed = next();
            // Awkward sizes: random in [64, 4096], frequently non-pow2.
            let n = 64 + (seed % 4033) as usize;
            let chunks_per_device = 1 + (seed >> 32) as usize % 8;
            let sys: TridiagonalSystem<f64> =
                Generator::new(seed).system(Workload::DiagonallyDominant, n);
            let pool = PoolConfig::new(devices).build();
            let report = solve_partitioned(&pool, &sys, chunks_per_device).unwrap();
            assert_matches_gep(
                &sys,
                &report.x,
                &format!("devices={devices} n={n} cpd={chunks_per_device} seed={seed}"),
            );
            assert_eq!(report.spans.last().unwrap().end, n, "spans must cover the system");
            assert_eq!(report.interface_rows, 2 * report.chunks);
        }
    }
}

#[test]
fn uneven_spans_from_non_divisible_sizes_stay_accurate() {
    // n = 1021 (prime) over 4 devices → spans 256/255/255/255, and short
    // chunks inside each span. 8 devices → even more ragged.
    for devices in [2usize, 4, 8] {
        let n = 1021;
        let sys: TridiagonalSystem<f64> =
            Generator::new(97).system(Workload::DiagonallyDominant, n);
        let pool =
            PoolConfig { routing: RoutingPolicy::LeastLoaded, ..PoolConfig::new(devices) }.build();
        let report = solve_partitioned(&pool, &sys, 5).unwrap();
        let lens: Vec<usize> = report.spans.iter().map(|s| s.end - s.start).collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "spans should be uneven: {lens:?}");
        assert_matches_gep(&sys, &report.x, &format!("uneven devices={devices}"));
    }
}

#[test]
fn large_n_beyond_shared_memory_verifies_on_all_pool_sizes() {
    // The acceptance bar: n = 2^16 — far past any one block's shared
    // memory — must verify against GEP on every pool size.
    let n = 1 << 16;
    let sys: TridiagonalSystem<f64> = Generator::new(42).system(Workload::DiagonallyDominant, n);
    let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
    let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for devices in [1usize, 2, 4, 8] {
        let pool = PoolConfig::new(devices).build();
        let report = solve_partitioned(&pool, &sys, 16).unwrap();
        for i in 0..n {
            let err = (report.x[i] - x_ref[i]).abs() / scale;
            assert!(err < 1e-9, "devices={devices} i={i} rel err {err:.3e}");
        }
        let r = l2_residual(&sys, &report.x).unwrap();
        assert!(r < 1e-6, "devices={devices} residual {r}");
        assert!(report.timing.total_ms() > 0.0);
        // More devices must not *increase* the parallel-phase cost.
        if devices > 1 {
            let solo = solve_partitioned(&PoolConfig::new(1).build(), &sys, 16).unwrap();
            assert!(
                report.timing.local_ms <= solo.timing.local_ms + 1e-9,
                "devices={devices}: local phase should not regress vs one device"
            );
        }
    }
}
