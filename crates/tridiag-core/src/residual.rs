//! Residual and error norms used by the accuracy experiments (§5.4).
//!
//! The paper compares solvers "by checking the residual of the solution,
//! i.e. ||Ax - b||". Accumulation happens in `f64` regardless of the solve
//! precision so the measurement itself does not drown in rounding error.

use crate::batch::{SolutionBatch, SystemBatch};
use crate::error::Result;
use crate::real::Real;
use crate::system::SystemRef;

/// Residual component `(A x - d)_i`, computed entirely in f64 so the
/// *measurement* cannot overflow even when a solver returned huge (finite)
/// garbage in a narrower type. Always inlined: it is the body of the
/// per-row loops below, and a build that called it out of line once per
/// row measured the residual 2–3× slower.
#[inline(always)]
fn residual_component<T: Real>(system: &SystemRef<'_, T>, x: &[T], i: usize) -> f64 {
    let n = system.n();
    let mut v = system.b[i].to_f64() * x[i].to_f64();
    if i > 0 {
        v += system.a[i].to_f64() * x[i - 1].to_f64();
    }
    if i + 1 < n {
        v += system.c[i].to_f64() * x[i + 1].to_f64();
    }
    v - system.d[i].to_f64()
}

fn check_len<T: Real>(system: &SystemRef<'_, T>, x: &[T]) -> Result<()> {
    if x.len() != system.n() {
        return Err(crate::error::TridiagError::DimensionMismatch {
            what: "x",
            expected: system.n(),
            got: x.len(),
        });
    }
    Ok(())
}

/// `||A x - d||_2` for one system, accumulated in f64.
pub fn l2_residual<'a, T: Real>(system: impl Into<SystemRef<'a, T>>, x: &[T]) -> Result<f64> {
    let system = system.into();
    check_len(&system, x)?;
    let sum: f64 = (0..system.n())
        .map(|i| {
            let r = residual_component(&system, x, i);
            r * r
        })
        .sum();
    Ok(sum.sqrt())
}

/// `||A x - d||_inf` for one system.
pub fn linf_residual<'a, T: Real>(system: impl Into<SystemRef<'a, T>>, x: &[T]) -> Result<f64> {
    let system = system.into();
    check_len(&system, x)?;
    Ok((0..system.n()).map(|i| residual_component(&system, x, i).abs()).fold(0.0f64, f64::max))
}

/// Residual normalized by `||d||_2` (scale-free comparison across families).
pub fn relative_l2_residual<'a, T: Real>(
    system: impl Into<SystemRef<'a, T>>,
    x: &[T],
) -> Result<f64> {
    let system = system.into();
    let num = l2_residual(system, x)?;
    let den: f64 = system.d.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt();
    Ok(if den == 0.0 { num } else { num / den })
}

/// The wrong-answer rule every served-answer count shares: an answer is
/// wrong when its residual `‖Ax − d‖₂` is non-finite or at least this.
pub const RESIDUAL_BOUND: f64 = 1e-2;

/// Counts wrong answers by recomputing each residual against the system
/// that was sent, never by trusting the residual a solver or service
/// reports (under a certificate skip that figure is an a-priori bound, not
/// a measurement).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Scorer {
    /// Answers whose recomputed residual is non-finite or ≥
    /// [`RESIDUAL_BOUND`].
    pub wrong: u64,
    /// The largest finite recomputed residual.
    pub max_residual: f64,
}

impl Scorer {
    /// Recomputes the residual of `x` against `sent` and counts it. An
    /// answer of the wrong length is wrong.
    pub fn score<'a, T: Real>(&mut self, sent: impl Into<SystemRef<'a, T>>, x: &[T]) {
        let residual = l2_residual(sent, x).unwrap_or(f64::NAN);
        if !residual.is_finite() || residual >= RESIDUAL_BOUND {
            self.wrong += 1;
        }
        self.max_residual = self.max_residual.max(residual);
    }
}

/// Max absolute componentwise difference between two solutions.
pub fn max_abs_diff<T: Real>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "solution length mismatch");
    x.iter().zip(y).map(|(&p, &q)| (p.to_f64() - q.to_f64()).abs()).fold(0.0f64, f64::max)
}

/// Summary of residuals across a whole batch, as plotted in Figure 18
/// (one residual bar per solver; we keep mean and max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchResidual {
    /// Mean L2 residual over the systems.
    pub mean_l2: f64,
    /// Worst L2 residual over the systems.
    pub max_l2: f64,
    /// Worst Linf residual over the systems.
    pub max_linf: f64,
    /// Number of systems whose solution contains NaN/Inf ("overflow" bars
    /// in Figure 18).
    pub overflowed_systems: usize,
}

impl BatchResidual {
    /// `true` when at least one system overflowed to non-finite values.
    pub fn has_overflow(&self) -> bool {
        self.overflowed_systems > 0
    }
}

/// Residual summary of `solutions` against `batch`.
pub fn batch_residual<T: Real>(
    batch: &SystemBatch<T>,
    solutions: &SolutionBatch<T>,
) -> Result<BatchResidual> {
    assert_eq!(batch.n(), solutions.n());
    assert_eq!(batch.count(), solutions.count());
    let mut sum_l2 = 0.0f64;
    let mut max_l2 = 0.0f64;
    let mut max_linf = 0.0f64;
    let mut overflowed = 0usize;
    let mut finite_count = 0usize;
    for i in 0..batch.count() {
        let sys = batch.system(i);
        let x = solutions.system(i);
        if x.iter().any(|v| !v.is_finite()) {
            overflowed += 1;
            continue;
        }
        let l2 = l2_residual(&sys, x)?;
        let linf = linf_residual(&sys, x)?;
        sum_l2 += l2;
        max_l2 = max_l2.max(l2);
        max_linf = max_linf.max(linf);
        finite_count += 1;
    }
    Ok(BatchResidual {
        mean_l2: if finite_count > 0 { sum_l2 / finite_count as f64 } else { f64::INFINITY },
        max_l2: if finite_count > 0 { max_l2 } else { f64::INFINITY },
        max_linf: if finite_count > 0 { max_linf } else { f64::INFINITY },
        overflowed_systems: overflowed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TridiagonalSystem;

    fn sys() -> TridiagonalSystem<f64> {
        TridiagonalSystem::toeplitz(4, -1.0, 2.0, -1.0, 1.0).unwrap()
    }

    #[test]
    fn exact_solution_has_zero_residual() {
        let x = vec![2.0, 3.0, 3.0, 2.0]; // exact for [-1,2,-1] with d=1
        let s = sys();
        assert!(l2_residual(&s, &x).unwrap() < 1e-12);
        assert!(linf_residual(&s, &x).unwrap() < 1e-12);
        assert!(relative_l2_residual(&s, &x).unwrap() < 1e-12);
    }

    #[test]
    fn perturbed_solution_has_expected_residual() {
        let s = sys();
        let x = vec![2.0, 3.0, 3.0, 2.0 + 1.0]; // perturb last unknown by 1
                                                // A*e for e = (0,0,0,1): rows get (0, 0, -1, 2).
        let l2 = l2_residual(&s, &x).unwrap();
        assert!((l2 - (1.0f64 + 4.0).sqrt()).abs() < 1e-12);
        assert!((linf_residual(&s, &x).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_scorer_recomputes_every_residual() {
        let s = sys();
        let mut scorer = Scorer::default();
        scorer.score(&s, &[2.0, 3.0, 3.0, 2.0]);
        assert_eq!(scorer.wrong, 0);
        assert!(scorer.max_residual < 1e-12, "{scorer:?}");

        // One entry off by one: residual √5, wrong.
        scorer.score(&s, &[2.0, 3.0, 3.0, 3.0]);
        assert_eq!(scorer.wrong, 1);
        assert!((scorer.max_residual - 5.0f64.sqrt()).abs() < 1e-12);

        // A non-finite or short answer is wrong and leaves the max finite.
        scorer.score(&s, &[f64::NAN, 3.0, 3.0, 2.0]);
        scorer.score(&s, &[2.0, 3.0]);
        assert_eq!(scorer.wrong, 3);
        assert!((scorer.max_residual - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_works() {
        assert_eq!(max_abs_diff(&[1.0f32, 2.0], &[1.0, 4.5]), 2.5);
        assert_eq!(max_abs_diff::<f32>(&[], &[]), 0.0);
    }

    #[test]
    fn batch_residual_counts_overflow() {
        let batch = SystemBatch::from_systems(&[sys(), sys()]).unwrap();
        let mut sol = SolutionBatch::zeros_like(&batch);
        sol.system_mut(0).copy_from_slice(&[2.0, 3.0, 3.0, 2.0]);
        sol.system_mut(1).copy_from_slice(&[f64::NAN, 0.0, 0.0, 0.0]);
        let r = batch_residual(&batch, &sol).unwrap();
        assert_eq!(r.overflowed_systems, 1);
        assert!(r.has_overflow());
        assert!(r.mean_l2 < 1e-12);
    }

    #[test]
    fn all_overflowed_batch_is_infinite() {
        let batch = SystemBatch::from_systems(&[sys()]).unwrap();
        let mut sol = SolutionBatch::zeros_like(&batch);
        sol.system_mut(0)[0] = f64::INFINITY;
        let r = batch_residual(&batch, &sol).unwrap();
        assert!(r.mean_l2.is_infinite());
        assert_eq!(r.overflowed_systems, 1);
    }
}
