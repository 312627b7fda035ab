//! Property-based tests for the factorization cache (PR 9): a cached
//! warm solve must agree with a fresh cold solve to residual tolerance
//! for every warm engine and both element widths; LRU eviction must
//! round-trip through refactorization; and matrix identity must never
//! unify two different matrices, however a structured one is perturbed.

use cpu_solvers::ThomasFactors;
use factor_cache::FactorCache;
use gpu_sim::Launcher;
use proptest::prelude::*;
use tridiag_core::residual::l2_residual;
use tridiag_core::{MatrixKey, Real, TridiagonalSystem};

/// Strategy: a strictly diagonally dominant system of size `n` (f64;
/// tests downcast to f32 where needed).
fn dominant_system(n: usize) -> impl Strategy<Value = TridiagonalSystem<f64>> {
    let off = prop::collection::vec(-1.0f64..1.0, n);
    let margins = prop::collection::vec(0.2f64..2.0, n);
    let rhs = prop::collection::vec(-10.0f64..10.0, n);
    (off.clone(), off, margins, rhs).prop_map(move |(mut a, mut c, m, d)| {
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let b: Vec<f64> = (0..n).map(|i| (a[i].abs() + c[i].abs() + m[i]).copysign(1.0)).collect();
        TridiagonalSystem { a, b, c, d }
    })
}

/// The warm ≡ fresh equivalence must hold across n ∈ {8 .. 4096}
/// (powers of two, the sizes the GPU warm kernel serves).
fn issue_size() -> impl Strategy<Value = usize> {
    (3u32..=12).prop_map(|e| 1usize << e)
}

fn narrow(sys: &TridiagonalSystem<f64>) -> TridiagonalSystem<f32> {
    TridiagonalSystem {
        a: sys.a.iter().map(|&v| v as f32).collect(),
        b: sys.b.iter().map(|&v| v as f32).collect(),
        c: sys.c.iter().map(|&v| v as f32).collect(),
        d: sys.d.iter().map(|&v| v as f32).collect(),
    }
}

/// Residual bound for a warm solve of size `n`: generous multiples of
/// the width's epsilon (the warm path multiplies by reciprocals where
/// the fresh path divides, so answers agree to rounding, not bitwise).
fn warm_bound<T: Real>(n: usize) -> f64 {
    1e3 * T::EPSILON.to_f64() * n as f64
}

fn assert_warm_engines_match_fresh<T: Real>(sys: &TridiagonalSystem<T>) -> Result<(), String> {
    let n = sys.n();
    let bound = warm_bound::<T>(n);

    // Engine 1: cached Thomas back-substitution.
    let factors = ThomasFactors::factor(&sys.a, &sys.b, &sys.c).map_err(|e| e.to_string())?;
    let x_warm = factors.solve(&sys.d);
    let r = l2_residual(sys, &x_warm).map_err(|e| e.to_string())?;
    if r >= bound {
        return Err(format!("thomas-warm residual {r} >= {bound} at n={n}"));
    }

    // Engine 2: the GPU warm back-substitution kernel, multi-RHS.
    let launcher = Launcher::gtx280();
    let rhs: Vec<&[T]> = vec![&sys.d, &sys.d];
    let report =
        gpu_solvers::solve_batch_warm(&launcher, &factors, &rhs).map_err(|e| e.to_string())?;
    for i in 0..rhs.len() {
        let r = l2_residual(sys, report.solutions.system(i)).map_err(|e| e.to_string())?;
        if r >= bound {
            return Err(format!("warm-gpu residual {r} >= {bound} at n={n} rhs {i}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_solve_matches_fresh_for_every_engine_f64(
        sys in issue_size().prop_flat_map(dominant_system),
    ) {
        // Fresh reference: the cold Thomas solve must itself be good...
        let x_fresh = cpu_solvers::thomas::solve(&sys).unwrap();
        let r = l2_residual(&sys, &x_fresh).unwrap();
        prop_assert!(r < warm_bound::<f64>(sys.n()), "fresh residual {r}");
        // ...and every warm engine must match it to tolerance.
        if let Err(msg) = assert_warm_engines_match_fresh(&sys) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn warm_solve_matches_fresh_for_every_engine_f32(
        sys in issue_size().prop_flat_map(dominant_system),
    ) {
        let sys = narrow(&sys);
        if let Err(msg) = assert_warm_engines_match_fresh(&sys) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn lru_eviction_round_trips_through_refactorization(
        systems in prop::collection::vec(dominant_system(32), 5),
        capacity in 1usize..4,
    ) {
        let cache: FactorCache<f64> = FactorCache::new(capacity);
        let keys: Vec<MatrixKey> =
            systems.iter().map(MatrixKey::of_system).collect();
        let mut first_answers = Vec::new();
        for (sys, key) in systems.iter().zip(&keys) {
            let (entry, _) = cache.factor_and_insert(*key, &sys.a, &sys.b, &sys.c).unwrap();
            first_answers.push(entry.thomas.solve(&sys.d));
        }
        // The cache never exceeds its bound, and insertions beyond it
        // evicted something.
        prop_assert!(cache.len() <= capacity);
        prop_assert!(cache.stats().evictions >= (systems.len() - capacity) as u64);
        // Every matrix — evicted or resident — refactors to the same
        // answer it gave the first time (eviction loses time, never
        // correctness).
        for ((sys, key), first) in systems.iter().zip(&keys).zip(&first_answers) {
            let entry = match cache.lookup(key) {
                Some(entry) => entry,
                None => cache.factor_and_insert(*key, &sys.a, &sys.b, &sys.c).unwrap().0,
            };
            let again = entry.thomas.solve(&sys.d);
            prop_assert_eq!(first, &again);
        }
    }

    #[test]
    fn perturbing_any_matrix_element_changes_the_key(
        n in 8usize..128,
        seed in any::<u64>(),
        which in 0usize..3,
        at in any::<usize>(),
        toeplitz in any::<bool>(),
    ) {
        // Start from either a structured (Toeplitz) or a random general
        // matrix — the structured tags take hash shortcuts, and no
        // shortcut may unify two matrices that differ in any element the
        // operator reads.
        let mut gen = tridiag_core::Generator::new(seed);
        let sys: TridiagonalSystem<f64> = if toeplitz {
            TridiagonalSystem::toeplitz(n, -1.0, 4.0, -2.0, 1.0).unwrap()
        } else {
            gen.system(tridiag_core::Workload::DiagonallyDominant, n)
        };
        let before = MatrixKey::of_system(&sys);
        let mut perturbed = sys.clone();
        // Pick an element the operator actually reads: a[1..], b[..],
        // or c[..n-1] (the a[0]/c[n-1] corners are padding for
        // non-periodic systems).
        let (diag, idx) = match which {
            0 => (&mut perturbed.a, 1 + at % (n - 1)),
            1 => (&mut perturbed.b, at % n),
            _ => (&mut perturbed.c, at % (n - 1)),
        };
        diag[idx] += 0.5;
        let after = MatrixKey::of_system(&perturbed);
        prop_assert!(
            before.fingerprint() != after.fingerprint(),
            "perturbed {}[{}] of a {:?}-tagged matrix kept the same key",
            ["a", "b", "c"][which],
            idx,
            before.tag
        );
    }
}
