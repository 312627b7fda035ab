//! Condition-number estimation for tridiagonal matrices — Hager's 1-norm
//! estimator (the algorithm behind LAPACK's `xLACON`), in the shape of
//! LAPACK `xGTCON`: `A` and `Aᵀ` are each factored once with the pivoted
//! elimination ([`GepFactors`]), and every `A^{-1}` / `A^{-T}` application
//! replays the stored factors. O(n) per iteration, at most a handful of
//! iterations.
//!
//! A cheap condition estimate tells a user *why* a pivoting-free GPU solve
//! went bad (paper §5.4's accuracy discussion) and lets the acceptance rule
//! (`gpu_solvers::VerifyPolicy::condition_scaled`) scale its thresholds.

use crate::gep::GepFactors;
use tridiag_core::{Real, Result, SystemRef};

/// Exact 1-norm of `A` (max absolute column sum).
pub fn norm1<'a, T: Real>(sys: impl Into<SystemRef<'a, T>>) -> f64 {
    let sys = sys.into();
    let n = sys.n();
    (0..n)
        .map(|j| {
            let mut s = sys.b[j].abs().to_f64();
            if j > 0 {
                s += sys.c[j - 1].abs().to_f64(); // row j-1, column j
            }
            if j + 1 < n {
                s += sys.a[j + 1].abs().to_f64(); // row j+1, column j
            }
            s
        })
        .fold(0.0, f64::max)
}

/// Estimates `||A^{-1}||_1` with Hager's power iteration (<= 5 iterations,
/// each one `A^{-1}` and one `A^{-T}` application).
///
/// # Errors
/// The zero pivot [`crate::gep::solve_into`] reports for `A` or, failing
/// that, for `Aᵀ`.
pub fn inverse_norm1_estimate<'a, T: Real>(sys: impl Into<SystemRef<'a, T>>) -> Result<f64> {
    let sys = sys.into();
    let n = sys.n();
    let lu = GepFactors::factor(sys.a, sys.b, sys.c)?;
    let lu_t = GepFactors::factor_transpose(sys.a, sys.b, sys.c)?;
    let inv_n = T::from_f64(1.0 / n as f64);
    let mut x = vec![inv_n; n];
    let mut y = vec![T::ZERO; n];
    let mut z = vec![T::ZERO; n];
    let mut est = 0.0f64;
    for _iter in 0..5 {
        // y = A^{-1} x
        y.copy_from_slice(&x);
        lu.solve_in_place(&mut y);
        let new_est: f64 = y.iter().map(|v| v.abs().to_f64()).sum();
        // z = A^{-T} sign(y)
        for (zi, &yi) in z.iter_mut().zip(&y) {
            *zi = if yi < T::ZERO { -T::ONE } else { T::ONE };
        }
        lu_t.solve_in_place(&mut z);
        let (j, z_inf) = z
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.abs().to_f64()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty");
        let ztx: f64 = z.iter().zip(&x).map(|(&p, &q)| p.to_f64() * q.to_f64()).sum();
        if new_est <= est || z_inf <= ztx.abs() {
            est = est.max(new_est);
            break;
        }
        est = new_est;
        x.fill(T::ZERO);
        x[j] = T::ONE;
    }
    Ok(est)
}

/// Estimated 1-norm condition number `kappa_1(A) ~= ||A||_1 ||A^{-1}||_1`.
pub fn condition_estimate<'a, T: Real>(sys: impl Into<SystemRef<'a, T>>) -> Result<f64> {
    let sys = sys.into();
    Ok(norm1(sys) * inverse_norm1_estimate(sys)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    /// Dense reference: exact ||A^{-1}||_1 by solving for every column of
    /// the identity (small n only).
    fn exact_inverse_norm1(sys: &TridiagonalSystem<f64>) -> f64 {
        let n = sys.n();
        let mut best = 0.0f64;
        for j in 0..n {
            let mut probe = sys.clone();
            probe.d = vec![0.0; n];
            probe.d[j] = 1.0;
            let col = crate::gep::solve(&probe).unwrap();
            best = best.max(col.iter().map(|v| v.abs()).sum());
        }
        best
    }

    /// The estimator as first written — a fresh `gep::solve` of a cloned
    /// (or explicitly transposed) system per application — kept as the
    /// oracle for the factor-once version.
    fn reference_inverse_norm1_estimate<T: Real>(sys: &TridiagonalSystem<T>) -> Result<f64> {
        let n = sys.n();
        let transpose = |d: Vec<T>| {
            let mut t =
                TridiagonalSystem { a: vec![T::ZERO; n], b: sys.b.clone(), c: vec![T::ZERO; n], d };
            t.a[1..n].copy_from_slice(&sys.c[..n - 1]);
            t.c[..n - 1].copy_from_slice(&sys.a[1..n]);
            t
        };
        let mut x = vec![T::from_f64(1.0 / n as f64); n];
        let mut est = 0.0f64;
        for _iter in 0..5 {
            let mut probe = sys.clone();
            probe.d = x.clone();
            let y = crate::gep::solve(&probe)?;
            let new_est: f64 = y.iter().map(|v| v.abs().to_f64()).sum();
            let xi: Vec<T> =
                y.iter().map(|&v| if v < T::ZERO { -T::ONE } else { T::ONE }).collect();
            let z = crate::gep::solve(&transpose(xi))?;
            let (j, z_inf) = z
                .iter()
                .enumerate()
                .map(|(i, v)| (i, v.abs().to_f64()))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("nonempty");
            let ztx: f64 = z.iter().zip(&x).map(|(&p, &q)| p.to_f64() * q.to_f64()).sum();
            if new_est <= est || z_inf <= ztx.abs() {
                est = est.max(new_est);
                break;
            }
            est = new_est;
            x = vec![T::ZERO; n];
            x[j] = T::ONE;
        }
        Ok(est)
    }

    fn assert_matches_reference<T: Real>(sys: &TridiagonalSystem<T>, label: &str) {
        match (inverse_norm1_estimate(sys), reference_inverse_norm1_estimate(sys)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.to_bits(), old.to_bits(), "{label}: {new} vs {old}")
            }
            (new, old) => assert_eq!(new, old, "{label}"),
        }
    }

    #[test]
    fn factor_once_estimator_is_bitwise_the_per_solve_estimator() {
        let mut g = Generator::new(0xC0DE);
        for family in Workload::ALL {
            for n in [1usize, 2, 3, 8, 33, 256, 1000] {
                for draw in 0..3 {
                    let s32: TridiagonalSystem<f32> = g.system(family, n);
                    assert_matches_reference(&s32, &format!("f32 {family:?} n={n} #{draw}"));
                    let s64: TridiagonalSystem<f64> = g.system(family, n);
                    assert_matches_reference(&s64, &format!("f64 {family:?} n={n} #{draw}"));
                }
            }
        }
        // Exactly singular: both versions report the same zero pivot.
        let singular = TridiagonalSystem::<f64>::new(
            vec![0.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        assert!(inverse_norm1_estimate(&singular).is_err());
        assert_matches_reference(&singular, "singular");
    }

    #[test]
    fn norm1_matches_dense_definition() {
        let sys = TridiagonalSystem::<f64>::new(
            vec![0.0, -2.0, 3.0],
            vec![5.0, -1.0, 4.0],
            vec![1.5, -0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        // Column sums: |5|+|−2| = 7; |1.5|+|−1|+|3| = 5.5; |−0.5|+|4| = 4.5.
        assert!((norm1(&sys) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_is_a_lower_bound_and_usually_tight() {
        let mut g = Generator::new(31);
        let mut tight = 0usize;
        const TRIALS: usize = 20;
        for _ in 0..TRIALS {
            let sys: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 24);
            let est = inverse_norm1_estimate(&sys).unwrap();
            let exact = exact_inverse_norm1(&sys);
            assert!(est <= exact * (1.0 + 1e-10), "estimator must not exceed the norm");
            assert!(est >= exact / 10.0, "estimator too loose: {est} vs {exact}");
            if est >= exact * 0.999 {
                tight += 1;
            }
        }
        // Hager's estimator is exact for most well-behaved matrices.
        assert!(tight >= TRIALS / 2, "only {tight}/{TRIALS} tight");
    }

    #[test]
    fn well_conditioned_vs_nearly_singular() {
        // Identity-like: kappa ~ 1.
        let nice = TridiagonalSystem::<f64>::toeplitz(64, 0.0, 1.0, 0.0, 1.0).unwrap();
        let k_nice = condition_estimate(&nice).unwrap();
        assert!(k_nice < 2.0, "{k_nice}");
        // Nearly singular: shrink the dominance margin to epsilon.
        let eps = 1e-8;
        let bad = TridiagonalSystem::<f64>::toeplitz(64, -1.0, 2.0 + eps, -1.0, 1.0).unwrap();
        let k_bad = condition_estimate(&bad).unwrap();
        assert!(k_bad > 1e2, "{k_bad}");
        assert!(k_bad > 100.0 * k_nice);
    }

    #[test]
    fn poisson_condition_grows_quadratically() {
        // kappa([-1,2,-1]_n) ~ (2(n+1)/pi)^2.
        for n in [16usize, 32, 64] {
            let sys = tridiag_core::workload::poisson_system::<f64>(n);
            let k = condition_estimate(&sys).unwrap();
            let theory = (2.0 * (n as f64 + 1.0) / std::f64::consts::PI).powi(2);
            let ratio = k / theory;
            assert!((0.5..2.0).contains(&ratio), "n={n}: {k} vs theory {theory}");
        }
    }
}
