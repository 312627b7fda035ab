//! Gaussian elimination with partial pivoting on the tridiagonal band —
//! the algorithm behind LAPACK's `sgtsv`, i.e. the paper's "GEP" baseline
//! ("The GEP solver is from LAPACK"). Row interchanges introduce fill-in on
//! a second super-diagonal, which is carried explicitly.

use tridiag_core::{Real, Result, TridiagError};

/// Solves one system with partial pivoting, writing the solution to `x`.
///
/// Inputs follow the [`tridiag_core::TridiagonalSystem`] convention
/// (`a[0] == 0`, `c[n-1] == 0`).
///
/// # Errors
/// [`TridiagError::ZeroPivot`] only when the matrix is exactly singular
/// (both candidate pivots zero).
pub fn solve_into<T: Real>(a: &[T], b: &[T], c: &[T], d: &[T], x: &mut [T]) -> Result<()> {
    solve_into_counting(a, b, c, d, x).map(|_| ())
}

/// [`solve_into`] that additionally reports how many row interchanges
/// partial pivoting performed.
///
/// A return of `Ok(0)` means the elimination was pivot-free — exactly the
/// ground truth the `numeric-verify` certificates claim, which is why the
/// adversarial certification proptest keys off this count.
///
/// # Errors
/// Same as [`solve_into`].
pub fn solve_into_counting<T: Real>(
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
    x: &mut [T],
) -> Result<usize> {
    let n = b.len();
    debug_assert!(a.len() == n && c.len() == n && d.len() == n && x.len() == n);
    if n == 0 {
        return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
    }

    // Working copies (LAPACK overwrites its inputs; we keep the caller's).
    // dl[i] = sub-diagonal entry of row i+1, i in 0..n-1.
    let mut dl: Vec<T> = a[1..].to_vec();
    let mut dg: Vec<T> = b.to_vec();
    let mut du: Vec<T> = c[..n.saturating_sub(1)].to_vec();
    let mut du2: Vec<T> = vec![T::ZERO; n.saturating_sub(2)];
    x.copy_from_slice(d);

    let mut interchanges = 0usize;
    for i in 0..n.saturating_sub(1) {
        if dg[i].abs() >= dl[i].abs() {
            // No interchange.
            if dg[i] == T::ZERO {
                return Err(TridiagError::ZeroPivot { row: i });
            }
            let fact = dl[i] / dg[i];
            dg[i + 1] -= fact * du[i];
            x[i + 1] -= fact * x[i];
            dl[i] = T::ZERO; // eliminated
            if i + 2 < n {
                du2[i] = T::ZERO;
            }
        } else {
            // Interchange rows i and i+1. dl[i] != 0 here.
            interchanges += 1;
            let fact = dg[i] / dl[i];
            dg[i] = dl[i];
            let temp = dg[i + 1];
            dg[i + 1] = du[i] - fact * temp;
            du[i] = temp;
            if i + 2 < n {
                du2[i] = du[i + 1];
                du[i + 1] = -fact * du2[i];
            }
            let temp = x[i];
            x[i] = x[i + 1];
            x[i + 1] = temp - fact * x[i + 1];
            dl[i] = T::ZERO;
        }
    }

    if dg[n - 1] == T::ZERO {
        return Err(TridiagError::ZeroPivot { row: n - 1 });
    }

    // Back substitution against the U factor (diag + du + du2).
    x[n - 1] /= dg[n - 1];
    if n > 1 {
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / dg[n - 2];
    }
    for i in (0..n.saturating_sub(2)).rev() {
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / dg[i];
    }
    Ok(interchanges)
}

/// Convenience wrapper returning a fresh solution vector.
pub fn solve<T: Real>(system: &tridiag_core::TridiagonalSystem<T>) -> Result<Vec<T>> {
    let mut x = vec![T::ZERO; system.n()];
    solve_into(&system.a, &system.b, &system.c, &system.d, &mut x)?;
    Ok(x)
}

/// The stored outcome of [`solve_into`]'s elimination sweep for one matrix
/// (the shape of LAPACK `xGTTRF`): per-step multipliers and interchange
/// flags, plus the `U` bands. [`GepFactors::solve_in_place`] replays the
/// sweep on a right-hand side with exactly the operations `solve_into`
/// performs, so its answers are bitwise identical to a fresh solve while
/// skipping the O(n) band copies and pivot decisions.
#[derive(Debug, Clone)]
pub struct GepFactors<T: Real> {
    /// Step `i`'s elimination multiplier.
    fact: Vec<T>,
    /// Whether step `i` interchanged rows `i` and `i+1`.
    swapped: Vec<bool>,
    /// `U` diagonal.
    dg: Vec<T>,
    /// `U` first super-diagonal.
    du: Vec<T>,
    /// `U` second super-diagonal (interchange fill-in).
    du2: Vec<T>,
}

impl<T: Real> GepFactors<T> {
    /// Factors `A` (the [`tridiag_core::TridiagonalSystem`] band
    /// convention).
    ///
    /// # Errors
    /// The [`TridiagError::ZeroPivot`] (or empty-size error) that
    /// [`solve_into`] reports for the same matrix.
    pub fn factor(a: &[T], b: &[T], c: &[T]) -> Result<Self> {
        let n = b.len();
        Self::factor_bands(a.get(1..).unwrap_or_default(), b, &c[..n.saturating_sub(1)])
    }

    /// Factors `Aᵀ`: the same bands with sub- and super-diagonal
    /// exchanged, without materialising the transpose.
    ///
    /// # Errors
    /// As [`GepFactors::factor`], for the transposed matrix.
    pub fn factor_transpose(a: &[T], b: &[T], c: &[T]) -> Result<Self> {
        let n = b.len();
        Self::factor_bands(&c[..n.saturating_sub(1)], b, a.get(1..).unwrap_or_default())
    }

    /// [`solve_into`]'s elimination with the right-hand side left out;
    /// `dl[i]` is row `i+1`'s sub-diagonal entry, `du[i]` row `i`'s
    /// super-diagonal entry.
    fn factor_bands(dl: &[T], dg: &[T], du: &[T]) -> Result<Self> {
        let n = dg.len();
        if n == 0 {
            return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
        }
        let mut fact = dl.to_vec();
        let mut dg = dg.to_vec();
        let mut du = du.to_vec();
        let mut du2 = vec![T::ZERO; n.saturating_sub(2)];
        let mut swapped = vec![false; n - 1];
        for i in 0..n - 1 {
            let sub = fact[i];
            if dg[i].abs() >= sub.abs() {
                if dg[i] == T::ZERO {
                    return Err(TridiagError::ZeroPivot { row: i });
                }
                fact[i] = sub / dg[i];
                dg[i + 1] -= fact[i] * du[i];
            } else {
                swapped[i] = true;
                fact[i] = dg[i] / sub;
                dg[i] = sub;
                let temp = dg[i + 1];
                dg[i + 1] = du[i] - fact[i] * temp;
                du[i] = temp;
                if i + 2 < n {
                    du2[i] = du[i + 1];
                    du[i + 1] = -fact[i] * du2[i];
                }
            }
        }
        if dg[n - 1] == T::ZERO {
            return Err(TridiagError::ZeroPivot { row: n - 1 });
        }
        Ok(GepFactors { fact, swapped, dg, du, du2 })
    }

    /// Overwrites `x` (the right-hand side on entry) with the solution.
    ///
    /// # Panics
    /// When `x.len()` differs from the factored size.
    pub fn solve_in_place(&self, x: &mut [T]) {
        let n = self.dg.len();
        assert_eq!(x.len(), n, "right-hand side length must match the factored size");
        for i in 0..n - 1 {
            let fact = self.fact[i];
            if self.swapped[i] {
                let temp = x[i];
                x[i] = x[i + 1];
                x[i + 1] = temp - fact * x[i + 1];
            } else {
                x[i + 1] -= fact * x[i];
            }
        }
        let (dg, du, du2) = (&self.dg, &self.du, &self.du2);
        x[n - 1] /= dg[n - 1];
        if n > 1 {
            x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / dg[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / dg[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thomas;
    use tridiag_core::residual::l2_residual;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    #[test]
    fn matches_thomas_on_dominant_systems() {
        let mut g = Generator::new(21);
        for _ in 0..20 {
            let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 64);
            let x_gep = solve(&s).unwrap();
            let x_th = thomas::solve(&s).unwrap();
            for i in 0..64 {
                assert!((x_gep[i] - x_th[i]).abs() < 1e-9, "i={i}");
            }
        }
    }

    #[test]
    fn survives_zero_diagonal_needing_pivot() {
        // b[0] = 0 kills Thomas; pivoting handles it.
        let s = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 3.0],
        )
        .unwrap();
        assert!(thomas::solve(&s).is_err());
        let x = solve(&s).unwrap();
        // System: x2 = 2; x1 + x2 = 3 -> x = (1, 2).
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn handles_interior_zero_pivot() {
        // Elimination creates a zero pivot mid-way for this matrix without
        // pivoting: rows chosen so b[1] - c'[0]*a[1] == 0.
        let s = TridiagonalSystem::new(
            vec![0.0f64, 2.0, 1.0],
            vec![1.0, 2.0, 3.0],
            vec![1.0, 1.0, 0.0],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        assert!(thomas::solve(&s).is_err());
        let x = solve(&s).unwrap();
        assert!(l2_residual(&s, &x).unwrap() < 1e-12);
    }

    #[test]
    fn rejects_singular_matrix() {
        let s = TridiagonalSystem::new(
            vec![0.0f64, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(solve(&s), Err(TridiagError::ZeroPivot { .. })));
    }

    #[test]
    fn accuracy_better_or_equal_on_close_values_f32() {
        // The family where pivoting matters (paper: "GEP always has the
        // best accuracy because it has pivoting").
        let mut g = Generator::new(33);
        let mut worse = 0usize;
        const TRIALS: usize = 20;
        for _ in 0..TRIALS {
            let s: TridiagonalSystem<f32> = g.system(Workload::CloseValues, 128);
            let gep = solve(&s).unwrap();
            let r_gep = l2_residual(&s, &gep).unwrap();
            if let Ok(th) = thomas::solve(&s) {
                let r_th = l2_residual(&s, &th).unwrap();
                if r_gep > r_th * 4.0 {
                    worse += 1;
                }
            }
        }
        // GEP should essentially never be much worse than plain GE.
        assert!(worse <= TRIALS / 10, "GEP clearly worse in {worse}/{TRIALS} trials");
    }

    #[test]
    fn interchange_count_separates_dominant_from_pivoting_inputs() {
        let mut g = Generator::new(77);
        let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 64);
        let mut x = vec![0.0; 64];
        let swaps = solve_into_counting(&s.a, &s.b, &s.c, &s.d, &mut x).unwrap();
        assert_eq!(swaps, 0, "dominant matrix must be pivot-free");

        // b[0] = 0 forces an interchange at the very first step.
        let s = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 3.0],
        )
        .unwrap();
        let mut x = vec![0.0; 2];
        let swaps = solve_into_counting(&s.a, &s.b, &s.c, &s.d, &mut x).unwrap();
        assert!(swaps > 0, "degenerate diagonal must pivot");
    }

    #[test]
    fn stored_factors_replay_solve_into_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut g = Generator::new(91);
        for family in Workload::ALL {
            for n in [1usize, 2, 3, 17, 64] {
                let s: TridiagonalSystem<f64> = g.system(family, n);
                let mut fresh = vec![0.0; n];
                let fresh_ok = solve_into(&s.a, &s.b, &s.c, &s.d, &mut fresh);
                match GepFactors::factor(&s.a, &s.b, &s.c) {
                    Ok(lu) => {
                        fresh_ok.unwrap();
                        let mut x = s.d.clone();
                        lu.solve_in_place(&mut x);
                        assert_eq!(bits(&x), bits(&fresh), "{family:?} n={n}");
                    }
                    Err(e) => assert_eq!(fresh_ok, Err(e)),
                }
                // The transpose factors solve Aᵀ: check against the
                // explicitly transposed system.
                let mut t = s.clone();
                if n > 1 {
                    t.a[1..].copy_from_slice(&s.c[..n - 1]);
                    t.c[..n - 1].copy_from_slice(&s.a[1..]);
                }
                let mut fresh_t = vec![0.0; n];
                let fresh_t_ok = solve_into(&t.a, &t.b, &t.c, &t.d, &mut fresh_t);
                match GepFactors::factor_transpose(&s.a, &s.b, &s.c) {
                    Ok(lu) => {
                        fresh_t_ok.unwrap();
                        let mut x = s.d.clone();
                        lu.solve_in_place(&mut x);
                        assert_eq!(bits(&x), bits(&fresh_t), "{family:?} n={n} (transpose)");
                    }
                    Err(e) => assert_eq!(fresh_t_ok, Err(e)),
                }
            }
        }
        // Singular input: the factorization reports solve_into's error.
        let z = [0.0f64; 2];
        let mut x = [0.0; 2];
        assert_eq!(
            GepFactors::factor(&z, &z, &z).unwrap_err(),
            solve_into(&z, &z, &z, &z, &mut x).unwrap_err()
        );
    }

    #[test]
    fn small_sizes() {
        let s1 = TridiagonalSystem::new(vec![0.0f64], vec![5.0], vec![0.0], vec![10.0]).unwrap();
        assert_eq!(solve(&s1).unwrap(), vec![2.0]);
        let s2 = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![2.0, 2.0],
            vec![1.0, 0.0],
            vec![3.0, 3.0],
        )
        .unwrap();
        let x = solve(&s2).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }
}
