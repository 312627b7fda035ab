//! Verify and repair: the one acceptance rule for every engine's answers.
//!
//! The paper's solvers "do not include pivoting; therefore they might fail
//! for a general tridiagonal matrix", and its future work asks to
//! "incorporate a pivoting strategy to GPU-based tridiagonal solvers for
//! numerical stability". True in-kernel pivoting breaks the regular
//! communication pattern the algorithms rely on; what a production library
//! can do instead is **verify and repair**: solve the whole batch with a
//! fast pivot-free engine, check each answer, and re-solve only the
//! failures with the pivoted CPU solver (GEP). For workloads that are
//! mostly well-conditioned — the common case — this keeps GPU throughput
//! while guaranteeing GEP-quality answers everywhere.
//!
//! [`accept_or_repair`] is that check, applied after any engine has run:
//! the paper's kernels via [`crate::solve_batch`], CPU Thomas, a warm
//! back-substitution, or GEP itself.

use cpu_solvers::gep;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Real, SolutionBatch, SystemRef};

/// How much verification a batch of answers pays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyPolicy {
    /// Accept an answer when `‖Ax − d‖₂ ≤ threshold_scale · ‖d‖₂ · ε · n`,
    /// with ε the element type's machine epsilon (a normwise
    /// backward-error style bound).
    pub threshold_scale: f64,
    /// `Some(bound)` skips the residual test: a numeric certificate
    /// guarantees pivot-free stability for the matrix, and each accepted
    /// answer reports `bound`, the certificate's a-priori forward-error
    /// bound, as its residual. The NaN/Inf guard still runs (it reads
    /// only `x` and catches exponent-corrupting faults). `None` measures
    /// every answer.
    pub certificate_bound: Option<f64>,
}

impl VerifyPolicy {
    /// Measure every answer against `threshold_scale`.
    pub fn full(threshold_scale: f64) -> Self {
        Self { threshold_scale, certificate_bound: None }
    }

    /// Condition-informed full verification: widens `base` by one decade
    /// per decade of 1-norm condition number above 1, so that sampled
    /// verifies of certified-but-worse-conditioned matrices are not
    /// flagged as corrupt for honest rounding growth. Monotone in
    /// `kappa1`; `base` is kept for `kappa1 <= 1` or non-finite estimates.
    pub fn condition_scaled(base: f64, kappa1: f64) -> Self {
        let scale = if kappa1.is_finite() && kappa1 > 1.0 {
            base * (1.0 + kappa1.log10().max(0.0))
        } else {
            base
        };
        Self::full(scale)
    }

    /// Whether the residual test is skipped.
    pub fn skips(&self) -> bool {
        self.certificate_bound.is_some()
    }

    /// The acceptance bound `threshold_scale · ‖d‖₂ · ε · n` for `sys`.
    fn threshold<T: Real>(&self, sys: SystemRef<'_, T>) -> f64 {
        let d_norm: f64 =
            sys.d.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt().max(1e-30);
        self.threshold_scale * d_norm * T::EPSILON.to_f64() * sys.n() as f64
    }
}

/// Which kind of engine produced the answers under acceptance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// A pivot-free engine (the paper's kernels, Thomas, a warm
    /// back-substitution): an answer that fails acceptance is re-solved
    /// with GEP.
    PivotFree,
    /// GEP itself, the safety net: there is nothing stronger to re-solve
    /// with, so its answers are checked and reported but never re-solved.
    Gep,
}

/// What acceptance concluded about each answer of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Acceptance {
    /// Per answer: the measured `‖Ax − d‖₂`, the policy's certificate
    /// bound when the residual test was skipped, or `+∞` for a system GEP
    /// could not solve (or a non-finite GEP answer).
    pub residuals: Vec<f64>,
    /// Per answer: whether it failed acceptance and was re-solved with GEP.
    pub repaired: Vec<bool>,
}

impl Acceptance {
    /// Answers re-solved with GEP.
    pub fn repairs(&self) -> usize {
        self.repaired.iter().filter(|&&r| r).count()
    }
}

/// Accepts or repairs every answer in `solutions`, in place: answer `i`
/// solves the `i`-th of `systems` (owned systems by reference, or
/// [`SystemRef`] views of systems held elsewhere).
///
/// The NaN/Inf guard runs under every policy; the residual test runs
/// unless the policy carries a certificate bound, and each verified
/// residual is computed once and reported as is. A failed answer from a
/// [`Producer::PivotFree`] engine is re-solved with GEP and reports its
/// new residual. A repair never aborts the batch: a system GEP cannot
/// solve (exactly singular) is answered with NaN at residual `+∞`, and
/// the other answers keep their engine's result.
pub fn accept_or_repair<'a, T: Real, S: Into<SystemRef<'a, T>>>(
    systems: impl IntoIterator<Item = S>,
    solutions: &mut SolutionBatch<T>,
    producer: Producer,
    policy: VerifyPolicy,
) -> Acceptance {
    let count = solutions.count();
    let mut acceptance =
        Acceptance { residuals: Vec::with_capacity(count), repaired: vec![false; count] };
    for (i, sys) in systems.into_iter().enumerate() {
        let sys = sys.into();
        let x = solutions.system_mut(i);
        let residual = match (check(sys, x, policy), producer) {
            (Ok(residual), _) => residual,
            (Err(measured), Producer::Gep) => measured.unwrap_or(f64::INFINITY),
            (Err(_), Producer::PivotFree) => {
                acceptance.repaired[i] = true;
                repair(sys, x)
            }
        };
        acceptance.residuals.push(residual);
    }
    acceptance
}

/// One answer against the policy: `Ok(residual to report)` when accepted;
/// `Err(measured residual)` when it fails, `Err(None)` for a non-finite
/// answer.
fn check<T: Real>(
    sys: SystemRef<'_, T>,
    x: &[T],
    policy: VerifyPolicy,
) -> Result<f64, Option<f64>> {
    if !all_finite(x) {
        return Err(None);
    }
    if let Some(bound) = policy.certificate_bound {
        return Ok(bound);
    }
    let residual = l2_residual(sys, x).unwrap_or(f64::INFINITY);
    if residual <= policy.threshold(sys) {
        Ok(residual)
    } else {
        Err(Some(residual))
    }
}

/// The NaN/Inf guard: whether every entry of `x` is finite. Chunks of 16
/// fold their verdicts with `&` and branch once, so the loop vectorizes
/// where a per-element early exit would not; the decision is the same as
/// `x.iter().all(|v| v.is_finite())` for every input.
fn all_finite<T: Real>(x: &[T]) -> bool {
    let mut chunks = x.chunks_exact(16);
    for chunk in &mut chunks {
        if !chunk.iter().fold(true, |finite, v| finite & v.is_finite()) {
            return false;
        }
    }
    chunks.remainder().iter().all(|v| v.is_finite())
}

/// Re-solves `sys` into `x` with GEP and measures the result.
fn repair<T: Real>(sys: SystemRef<'_, T>, x: &mut [T]) -> f64 {
    match gep::solve_into(sys.a, sys.b, sys.c, sys.d, x) {
        Ok(()) => l2_residual(sys, x).unwrap_or(f64::INFINITY),
        Err(_) => {
            x.fill(T::from_f64(f64::NAN));
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rd::RdMode;
    use crate::{solve_batch, GpuAlgorithm, GpuSolveReport};
    use gpu_sim::Launcher;
    use tridiag_core::residual::batch_residual;
    use tridiag_core::{Generator, SystemBatch, TridiagonalSystem, Workload};

    /// `solve_batch` then `accept_or_repair` over the same systems; also
    /// returns which answers the engine left non-finite.
    fn solve_and_accept<T: Real>(
        algorithm: GpuAlgorithm,
        systems: &[TridiagonalSystem<T>],
        policy: VerifyPolicy,
        launcher: &Launcher,
    ) -> (GpuSolveReport<T>, Acceptance, Vec<bool>) {
        let batch = SystemBatch::from_systems(systems).unwrap();
        let mut report = solve_batch(launcher, algorithm, &batch).unwrap();
        let non_finite = (0..systems.len())
            .map(|s| report.solutions.system(s).iter().any(|v| !v.is_finite()))
            .collect();
        let acceptance =
            accept_or_repair(systems, &mut report.solutions, Producer::PivotFree, policy);
        (report, acceptance, non_finite)
    }

    fn dominant<T: Real>(seed: u64, n: usize, count: usize) -> Vec<TridiagonalSystem<T>> {
        let mut generator = Generator::new(seed);
        (0..count).map(|_| generator.system(Workload::DiagonallyDominant, n)).collect()
    }

    fn max_l2<T: Real>(systems: &[TridiagonalSystem<T>], solutions: &SolutionBatch<T>) -> f64 {
        let batch = SystemBatch::from_systems(systems).unwrap();
        let res = batch_residual(&batch, solutions).unwrap();
        assert!(!res.has_overflow());
        res.max_l2
    }

    #[test]
    fn clean_batches_need_no_repair() {
        let systems = dominant::<f32>(1, 128, 8);
        let (_, acceptance, _) = solve_and_accept(
            GpuAlgorithm::CrPcr { m: 32 },
            &systems,
            VerifyPolicy::full(100.0),
            &Launcher::gtx280(),
        );
        assert_eq!(acceptance.repairs(), 0, "{acceptance:?}");
    }

    #[test]
    fn rd_overflow_is_repaired() {
        let systems = dominant::<f32>(2, 512, 8);
        let (report, acceptance, non_finite) = solve_and_accept(
            GpuAlgorithm::Rd(RdMode::Plain),
            &systems,
            VerifyPolicy::full(100.0),
            &Launcher::gtx280(),
        );
        assert!(acceptance.repairs() > 0);
        assert_eq!(acceptance.repaired, non_finite, "exactly the overflowed answers repair");
        // After repair, everything is accurate.
        assert!(max_l2(&systems, &report.solutions) < 1e-3);
    }

    #[test]
    fn systems_needing_pivoting_are_repaired() {
        // Mix well-conditioned systems with one that has a zero leading
        // pivot (fatal for every pivoting-free reduction, fine for GEP).
        let mut systems = dominant::<f32>(3, 64, 7);
        systems[3].b[0] = 0.0; // needs a row interchange
        let (report, acceptance, _) = solve_and_accept(
            GpuAlgorithm::Cr,
            &systems,
            VerifyPolicy::full(100.0),
            &Launcher::gtx280(),
        );
        let repaired: Vec<usize> = (0..7).filter(|&s| acceptance.repaired[s]).collect();
        assert_eq!(repaired, vec![3]);
        assert!(max_l2(&systems, &report.solutions) < 1e-3);
    }

    #[test]
    fn random_general_batches_end_up_accurate() {
        // The stress family: no stability promises on the GPU, but the
        // acceptance rule must always deliver GEP-quality answers.
        let mut generator = Generator::new(4);
        let systems: Vec<TridiagonalSystem<f32>> =
            (0..16).map(|_| generator.system(Workload::RandomGeneral, 64)).collect();
        let (report, _, _) = solve_and_accept(
            GpuAlgorithm::Pcr,
            &systems,
            VerifyPolicy::full(100.0),
            &Launcher::gtx280(),
        );
        assert!(max_l2(&systems, &report.solutions) < 1e-2);
    }

    #[test]
    fn injected_corruption_is_caught_and_repaired() {
        // An ECC-style bit flip in the downloaded solution must never
        // survive acceptance: the check flags it, GEP repairs it.
        use gpu_sim::{FaultConfig, FaultPlan};
        use std::sync::Arc;
        let policy = VerifyPolicy::full(100.0);
        for seed in 0..8u64 {
            let plan = Arc::new(FaultPlan::new(FaultConfig {
                seed,
                bit_flip_rate: 1.0,
                ..Default::default()
            }));
            let launcher = Launcher::gtx280().with_fault_plan(Arc::clone(&plan));
            let systems = dominant::<f64>(seed, 128, 8);
            let (report, acceptance, _) =
                solve_and_accept(GpuAlgorithm::CrPcr { m: 32 }, &systems, policy, &launcher);
            assert_eq!(report.corruption_count(), 1, "seed {seed}");
            assert_eq!(plan.stats().bit_flips, 1, "seed {seed}");
            assert!(acceptance.repairs() > 0, "seed {seed}: flip not caught");
            for (s, sys) in systems.iter().enumerate() {
                let r = l2_residual(sys, report.solutions.system(s)).unwrap();
                assert_eq!(r, acceptance.residuals[s], "seed {seed}: reported residual");
                assert!(r <= policy.threshold(sys.into()), "seed {seed}: {r}");
            }
        }
    }

    #[test]
    fn skip_mode_still_catches_non_finite_solutions() {
        // Residual verify off: RD's overflow (NaN/Inf) must still be
        // repaired — the finiteness guard never turns off.
        let systems = dominant::<f32>(2, 512, 8);
        let policy = VerifyPolicy { certificate_bound: Some(1e-4), ..VerifyPolicy::full(100.0) };
        let (_, acceptance, non_finite) = solve_and_accept(
            GpuAlgorithm::Rd(RdMode::Plain),
            &systems,
            policy,
            &Launcher::gtx280(),
        );
        assert!(acceptance.repairs() > 0);
        assert_eq!(acceptance.repaired, non_finite);
    }

    #[test]
    fn skip_mode_never_pays_for_residual_repairs() {
        // Even a threshold that would repair everything is ignored when
        // the residual verify is skipped on finite solutions.
        let systems = dominant::<f32>(5, 128, 8);
        let policy = VerifyPolicy { certificate_bound: Some(1e-4), ..VerifyPolicy::full(0.0) };
        let (_, acceptance, _) =
            solve_and_accept(GpuAlgorithm::Pcr, &systems, policy, &Launcher::gtx280());
        assert_eq!(acceptance.repairs(), 0, "{acceptance:?}");
        assert!(acceptance.residuals.iter().all(|&r| r == 1e-4), "skips report the bound");
    }

    #[test]
    fn condition_scaling_is_monotone_and_bounded_below_by_base() {
        let base = 100.0;
        let s1 = VerifyPolicy::condition_scaled(base, 1.0).threshold_scale;
        let s2 = VerifyPolicy::condition_scaled(base, 1e3).threshold_scale;
        let s3 = VerifyPolicy::condition_scaled(base, 1e6).threshold_scale;
        assert_eq!(s1, base);
        assert!(s2 > s1 && s3 > s2, "{s1} {s2} {s3}");
        assert_eq!(VerifyPolicy::condition_scaled(base, f64::NAN).threshold_scale, base);
        assert!(!VerifyPolicy::condition_scaled(base, 1e9).skips());
    }

    #[test]
    fn tighter_threshold_repairs_more() {
        let mut generator = Generator::new(5);
        let systems: Vec<TridiagonalSystem<f32>> =
            (0..16).map(|_| generator.system(Workload::CloseValues, 128)).collect();
        let launcher = Launcher::gtx280();
        let (_, loose, _) =
            solve_and_accept(GpuAlgorithm::Pcr, &systems, VerifyPolicy::full(1e9), &launcher);
        let (_, tight, _) =
            solve_and_accept(GpuAlgorithm::Pcr, &systems, VerifyPolicy::full(1.0), &launcher);
        assert!(tight.repairs() >= loose.repairs());
    }

    /// Every combination of answer × policy × producer, against one
    /// well-conditioned system (or, for `Singular`, the all-zero matrix).
    /// n = 37 puts the guard's probes at both ends of its first 16-entry
    /// chunk (0, 15), at the start of the second (16) and in the
    /// remainder (n − 1).
    fn acceptance_table<T: Real>() {
        #[derive(Debug, Clone, Copy)]
        enum Answer {
            Clean,
            NaN(usize),
            Inf(usize),
            FiniteButWrong,
            Singular,
        }
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Expect {
            /// Kept, reporting the measured residual.
            Measured,
            /// Kept, reporting the certificate bound.
            Bound,
            /// Re-solved with GEP to an accurate answer.
            Repaired,
            /// Re-solve impossible: repaired, NaN answer, residual +∞.
            RepairFailed,
            /// Kept as is, residual +∞.
            Infinite,
        }
        const BOUND: f64 = 1e-5;
        let n = 37;
        let good: TridiagonalSystem<T> = Generator::new(9).system(Workload::DiagonallyDominant, n);
        let zero = vec![T::ZERO; n];
        let singular = TridiagonalSystem::new(zero.clone(), zero.clone(), zero, good.d.clone())
            .expect("an all-zero matrix is a well-formed system");
        let exact = {
            let mut x = vec![T::ZERO; n];
            gep::solve_into(&good.a, &good.b, &good.c, &good.d, &mut x).unwrap();
            x
        };
        let policies = [
            ("full", VerifyPolicy::full(100.0)),
            ("sampled", VerifyPolicy::condition_scaled(100.0, 1e3)),
            ("skip", VerifyPolicy { certificate_bound: Some(BOUND), ..VerifyPolicy::full(100.0) }),
        ];
        let mut answers = vec![Answer::Clean, Answer::FiniteButWrong, Answer::Singular];
        for at in [0, 15, 16, n - 1] {
            answers.extend([Answer::NaN(at), Answer::Inf(at)]);
        }
        for answer in answers {
            for (policy_name, policy) in policies {
                for producer in [Producer::PivotFree, Producer::Gep] {
                    let sys = if matches!(answer, Answer::Singular) { &singular } else { &good };
                    let mut x = exact.clone();
                    match answer {
                        Answer::Clean => {}
                        Answer::NaN(at) => x[at] = T::from_f64(f64::NAN),
                        Answer::Inf(at) => x[at] = T::from_f64(f64::INFINITY),
                        Answer::Singular => x[3] = T::from_f64(f64::NAN),
                        Answer::FiniteButWrong => x[3] += T::ONE,
                    }
                    let mut solutions = SolutionBatch::from_flat(n, 1, x.clone()).unwrap();
                    let got = accept_or_repair([sys], &mut solutions, producer, policy);
                    let (residual, repaired) = (got.residuals[0], got.repaired[0]);
                    let out = solutions.system(0);

                    let skip = policy.skips();
                    let expect = match (answer, producer) {
                        (Answer::Clean, _) if skip => Expect::Bound,
                        (Answer::Clean, _) => Expect::Measured,
                        (Answer::NaN(_) | Answer::Inf(_), Producer::PivotFree) => Expect::Repaired,
                        (Answer::FiniteButWrong, Producer::PivotFree) if skip => Expect::Bound,
                        (Answer::FiniteButWrong, Producer::PivotFree) => Expect::Repaired,
                        (Answer::FiniteButWrong, Producer::Gep) if skip => Expect::Bound,
                        (Answer::FiniteButWrong, Producer::Gep) => Expect::Measured,
                        (Answer::Singular, Producer::PivotFree) => Expect::RepairFailed,
                        (Answer::NaN(_) | Answer::Inf(_) | Answer::Singular, Producer::Gep) => {
                            Expect::Infinite
                        }
                    };
                    let case = format!(
                        "{} {answer:?} × {policy_name} × {producer:?}",
                        std::any::type_name::<T>()
                    );
                    match expect {
                        Expect::Measured => {
                            assert!(!repaired, "{case}");
                            assert_eq!(out, &x[..], "{case}: answer untouched");
                            assert_eq!(residual, l2_residual(sys, &x).unwrap(), "{case}");
                        }
                        Expect::Bound => {
                            assert!(!repaired, "{case}");
                            assert_eq!(out, &x[..], "{case}: answer untouched");
                            assert_eq!(residual, BOUND, "{case}");
                        }
                        Expect::Repaired => {
                            assert!(repaired, "{case}");
                            assert_eq!(residual, l2_residual(sys, out).unwrap(), "{case}");
                            assert!(residual <= policy.threshold(sys.into()), "{case}: {residual}");
                        }
                        Expect::RepairFailed => {
                            assert!(repaired, "{case}");
                            assert_eq!(residual, f64::INFINITY, "{case}");
                            assert!(out.iter().all(|v| v.to_f64().is_nan()), "{case}: {out:?}");
                        }
                        Expect::Infinite => {
                            assert!(!repaired, "{case}: GEP answers are never re-solved");
                            assert_eq!(residual, f64::INFINITY, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_acceptance_rule_over_every_answer_policy_and_producer() {
        acceptance_table::<f32>();
        acceptance_table::<f64>();
    }

    #[test]
    fn the_chunked_guard_agrees_with_the_per_element_scan() {
        for n in [1, 15, 16, 17, 32, 37, 256] {
            for at in 0..n {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut x = vec![1.0f32; n];
                    assert!(all_finite(&x), "n {n}");
                    x[at] = bad;
                    assert!(!all_finite(&x), "n {n}, {bad} at {at}");
                }
            }
        }
        assert!(all_finite::<f64>(&[]));
    }
}
