//! The static analysis: class scan, machine-checked pivot propagation,
//! forward-error bound.
//!
//! ## Floating-point slack
//!
//! Every class scan compares quantities computed from `T`-precision
//! coefficients. A row whose dominance gap is smaller than a few ulps of
//! the row's magnitude could flip classes under a different rounding of
//! the same physical matrix, so each row must clear its gap by an
//! explicit slack of `4·ε_T·(|a|+|b|+|c|)` — four ulps of the row sum,
//! covering the three magnitude sums and the two subtractions of the
//! scan itself. The scan arithmetic runs in `f64`, where those five
//! operations on `T`-ranged values are exact to well under one `ε_T`.
//!
//! ## Machine-checked propagation
//!
//! The dominance lemma (see [`cpu_solvers::pivot_bounds`]) and Heller's
//! CR-level bound (see [`gpu_solvers::dominance`]) are theorems, but the
//! analyzer does not take them on faith: it re-runs the Thomas pivot
//! recurrence and every CR reduction level in `f64` and verifies the
//! certified property numerically at each level. The check is O(n) total
//! (levels halve), and a certificate is only issued when both the scan
//! *and* the propagation check pass — so even a mis-stated analytic
//! bound cannot mint an unsound certificate.

use cpu_solvers::{condition_estimate, positive_pivot_floor, thomas_pivot_floor};
use tridiag_core::{NumericCertificate, Real, SystemRef};

/// Ulps of row magnitude a class scan must clear before certifying.
const SLACK_ULPS: f64 = 4.0;

/// Result of analyzing one matrix.
#[derive(Debug, Clone, Copy)]
pub struct Analysis {
    /// The issued certificate (possibly `Uncertified`).
    pub certificate: NumericCertificate,
    /// A-priori forward-error bound `κ₁·ε_T·n` for pivot-free solves of
    /// this matrix; `+∞` when uncertified or the estimator failed.
    pub forward_error_bound: f64,
    /// Hager 1-norm condition estimate (`+∞` when unavailable).
    pub kappa1: f64,
    /// How many condition-estimator invocations the analysis performed.
    pub condest_calls: u64,
}

impl Analysis {
    fn uncertified(condest_calls: u64) -> Self {
        Analysis {
            certificate: NumericCertificate::Uncertified,
            forward_error_bound: f64::INFINITY,
            kappa1: f64::INFINITY,
            condest_calls,
        }
    }
}

/// Per-row slack: `4·ε_T` of the row magnitude.
fn row_slack(eps: f64, a: f64, b: f64, c: f64) -> f64 {
    SLACK_ULPS * eps * (a.abs() + b.abs() + c.abs())
}

/// Strict-dominance scan. Returns the worst-row gap
/// `min_i (|b_i| − |a_i| − |c_i|)` when every row clears its slack.
fn dominance_margin(a: &[f64], b: &[f64], c: &[f64], eps: f64) -> Option<f64> {
    let mut margin = f64::INFINITY;
    for i in 0..b.len() {
        let gap = b[i].abs() - a[i].abs() - c[i].abs();
        // NaN gaps (overflowing rows) must reject, not certify.
        if !gap.is_finite() || gap <= row_slack(eps, a[i], b[i], c[i]) {
            return None;
        }
        margin = margin.min(gap);
    }
    Some(margin)
}

/// SPD scan: exact symmetry, positive diagonal, and every LDLᵀ pivot
/// `p_i = b_i − c_{i−1}²/p_{i−1}` strictly positive beyond slack.
fn is_spd(a: &[f64], b: &[f64], c: &[f64], eps: f64) -> bool {
    let n = b.len();
    for i in 1..n {
        if a[i] != c[i - 1] {
            return false;
        }
    }
    let mut p = 0.0f64;
    for i in 0..n {
        p = if i == 0 { b[0] } else { b[i] - c[i - 1] * c[i - 1] / p };
        if !p.is_finite() || p <= row_slack(eps, a[i], b[i], c[i]) {
            return false;
        }
    }
    true
}

/// M-matrix scan: positive diagonal, non-positive off-diagonals, every
/// Thomas pivot strictly positive beyond slack.
fn is_m_matrix(a: &[f64], b: &[f64], c: &[f64], eps: f64) -> bool {
    let n = b.len();
    let mut max_row = 0.0f64;
    for i in 0..n {
        if b[i] <= 0.0 || a[i] > 0.0 || c[i] > 0.0 {
            return false;
        }
        max_row = max_row.max(a[i].abs() + b[i] + c[i].abs());
    }
    positive_pivot_floor(a, b, c, SLACK_ULPS * eps * max_row).is_some()
}

/// One CR forward-reduction level: keeps the odd-indexed rows, folding
/// each one's even neighbours in via the Schur complement. Returns `None`
/// on a zero or non-finite elimination pivot.
fn cr_reduce(a: &[f64], b: &[f64], c: &[f64]) -> Option<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    let n = b.len();
    let mut ra = Vec::with_capacity(n / 2);
    let mut rb = Vec::with_capacity(n / 2);
    let mut rc = Vec::with_capacity(n / 2);
    let mut i = 1;
    while i < n {
        if b[i - 1] == 0.0 || !b[i - 1].is_finite() {
            return None;
        }
        let k1 = a[i] / b[i - 1];
        let (k2, a_next, c_next) = if i + 1 < n {
            if b[i + 1] == 0.0 || !b[i + 1].is_finite() {
                return None;
            }
            (c[i] / b[i + 1], a[i + 1], c[i + 1])
        } else {
            (0.0, 0.0, 0.0)
        };
        ra.push(-a[i - 1] * k1);
        rb.push(b[i] - c[i - 1] * k1 - a_next * k2);
        rc.push(-c_next * k2);
        i += 2;
    }
    (!rb.is_empty()).then_some((ra, rb, rc))
}

/// Runs CR reduction to the bottom, checking `property` on every reduced
/// level (the top level is the caller's class scan). O(n) total work.
fn cr_levels_preserve(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    property: impl Fn(&[f64], &[f64], &[f64]) -> bool,
) -> bool {
    let (mut a, mut b, mut c) = (a.to_vec(), b.to_vec(), c.to_vec());
    while b.len() > 2 {
        let Some((ra, rb, rc)) = cr_reduce(&a, &b, &c) else {
            return false;
        };
        if !property(&ra, &rb, &rc) {
            return false;
        }
        (a, b, c) = (ra, rb, rc);
    }
    true
}

/// Analyzes one system and issues the strongest certificate it can prove.
///
/// Issue priority is `StrictlyDominant > Spd > MMatrix`: strict dominance
/// carries a quantitative margin the other classes lack. A certificate is
/// only returned when the class scan, the machine-checked Thomas/CR pivot
/// propagation, **and** a finite Hager forward-error bound all hold —
/// any failure yields `Uncertified` (never an error).
pub fn analyze<'a, T: Real>(system: impl Into<SystemRef<'a, T>>) -> Analysis {
    let system = system.into();
    let n = system.n();
    if n == 0 {
        return Analysis::uncertified(0);
    }
    let to64 = |v: &[T]| v.iter().map(|x| x.to_f64()).collect::<Vec<f64>>();
    let (a, b, c) = (to64(system.a), to64(system.b), to64(system.c));
    if a.iter().chain(&b).chain(&c).any(|v| !v.is_finite()) {
        return Analysis::uncertified(0);
    }
    let eps = T::EPSILON.to_f64();

    // Class scan, strongest first.
    let certificate = if let Some(margin) = dominance_margin(&a, &b, &c, eps) {
        NumericCertificate::StrictlyDominant { margin }
    } else if is_spd(&a, &b, &c, eps) {
        NumericCertificate::Spd
    } else if is_m_matrix(&a, &b, &c, eps) {
        NumericCertificate::MMatrix
    } else {
        return Analysis::uncertified(0);
    };

    // Machine-checked propagation: the Thomas pivots must clear the
    // class's derived lower bound, and every CR reduction level must
    // preserve the certified property.
    let propagated = match certificate {
        NumericCertificate::StrictlyDominant { margin } => {
            thomas_pivot_floor(&a, &b, &c).is_some_and(|floor| floor >= margin * (1.0 - 1e-9))
                && cr_levels_preserve(&a, &b, &c, |ra, rb, rc| {
                    (0..rb.len()).all(|i| rb[i].abs() > ra[i].abs() + rc[i].abs())
                })
        }
        NumericCertificate::Spd | NumericCertificate::MMatrix => {
            positive_pivot_floor(&a, &b, &c, 0.0).is_some()
                && cr_levels_preserve(&a, &b, &c, |ra, rb, rc| {
                    positive_pivot_floor(ra, rb, rc, 0.0).is_some()
                })
        }
        NumericCertificate::Uncertified => false,
    };
    if !propagated {
        return Analysis::uncertified(0);
    }

    // Forward-error bound from the Hager estimator; certification
    // requires it to be finite.
    match condition_estimate(system) {
        Ok(kappa1) if kappa1.is_finite() => {
            let forward_error_bound = kappa1 * eps * n as f64;
            if !forward_error_bound.is_finite() {
                return Analysis::uncertified(1);
            }
            Analysis { certificate, forward_error_bound, kappa1, condest_calls: 1 }
        }
        _ => Analysis::uncertified(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    fn system_of(a: Vec<f64>, b: Vec<f64>, c: Vec<f64>) -> TridiagonalSystem<f64> {
        let d = vec![1.0; b.len()];
        TridiagonalSystem::new(a, b, c, d).unwrap()
    }

    #[test]
    fn dominant_family_earns_the_dominant_certificate() {
        let mut g = Generator::new(42);
        for n in [8usize, 64, 256] {
            let s: TridiagonalSystem<f32> = g.system(Workload::DiagonallyDominant, n);
            let analysis = analyze(&s);
            assert!(
                matches!(analysis.certificate, NumericCertificate::StrictlyDominant { margin } if margin > 0.0),
                "n={n}: {:?}",
                analysis.certificate
            );
            assert!(analysis.forward_error_bound.is_finite());
            assert!(analysis.forward_error_bound < 1e-2, "{}", analysis.forward_error_bound);
            assert_eq!(analysis.condest_calls, 1);
        }
    }

    #[test]
    fn poisson_is_spd_not_strictly_dominant() {
        // The [-1, 2, -1] stencil has a zero dominance gap on interior
        // rows — strict dominance must refuse it, the SPD pivots accept.
        let mut g = Generator::new(7);
        let s: TridiagonalSystem<f64> = g.system(Workload::Poisson, 64);
        let analysis = analyze(&s);
        assert_eq!(analysis.certificate, NumericCertificate::Spd, "{:?}", analysis.certificate);
        assert!(analysis.kappa1 > 1.0);
    }

    #[test]
    fn asymmetric_positive_stencil_is_an_m_matrix() {
        // Weakly dominant, asymmetric, sign-patterned: not strictly
        // dominant, not symmetric, but a textbook M-matrix.
        let n = 32;
        let mut a = vec![-1.0; n];
        let mut c = vec![-0.5; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let b = vec![1.5; n];
        let s = system_of(a, b, c);
        assert_eq!(analyze(&s).certificate, NumericCertificate::MMatrix);
    }

    #[test]
    fn near_ties_inside_the_slack_band_stay_uncertified() {
        // Gap of 1 ulp: inside the 4-ulp slack band, must not certify as
        // strictly dominant (it is still SPD-shaped? no — asymmetric).
        let n = 8;
        let mut a = vec![-1.0f64; n];
        let mut c = vec![-1.0 - 0.5 * f64::EPSILON; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let b = vec![2.0 + f64::EPSILON; n];
        let s = system_of(a, b, c);
        assert!(!matches!(analyze(&s).certificate, NumericCertificate::StrictlyDominant { .. }));
    }

    #[test]
    fn random_general_and_nonfinite_inputs_are_uncertified() {
        let mut g = Generator::new(9);
        let s: TridiagonalSystem<f32> = g.system(Workload::RandomGeneral, 64);
        // Random general rows routinely break dominance; whenever the
        // analyzer does certify, GEP must agree it is pivot-free.
        let analysis = analyze(&s);
        if analysis.certificate.is_certified() {
            let mut x = vec![0.0f32; 64];
            let swaps =
                cpu_solvers::gep::solve_into_counting(&s.a, &s.b, &s.c, &s.d, &mut x).unwrap();
            assert_eq!(swaps, 0);
        }

        let mut bad: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 16);
        bad.b[3] = f64::NAN;
        assert_eq!(analyze(&bad).certificate, NumericCertificate::Uncertified);
    }

    #[test]
    fn near_singular_tiny_diagonal_stays_uncertified() {
        // Signs alone look M-matrix-ish, but the diagonal sits far below
        // the slack floor — no class scan may accept it.
        let s = system_of(vec![0.0, -1.0], vec![1e-300, 1e-300], vec![-1.0, 0.0]);
        assert_eq!(analyze(&s).certificate, NumericCertificate::Uncertified);
    }
}
