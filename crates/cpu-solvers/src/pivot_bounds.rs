//! Pivot lower-bound lemmas for pivot-free elimination.
//!
//! The `numeric-verify` analyzer does not trust the analytic dominance
//! lemma alone: it *machine-checks* it by running the relevant pivot
//! recurrence in `f64` and confirming every pivot clears a derived lower
//! bound. These helpers are that check, shared between the analyzer, its
//! adversarial property tests, and the acceptance rule's documentation.
//!
//! **Lemma (strict dominance ⇒ pivot floor).** If `|b_i| > |a_i| + |c_i|`
//! for every row with worst-row gap `m = min_i (|b_i| − |a_i| − |c_i|)`,
//! then the Thomas pivots `p_1 = b_1`, `p_i = b_i − a_i c_{i−1} / p_{i−1}`
//! satisfy `|p_i| ≥ |b_i| − |a_i| ≥ |c_i| + m` by induction: assuming
//! `|p_{i−1}| ≥ |c_{i−1}|`, the correction term is bounded by `|a_i|`, so
//! `|p_i| ≥ |b_i| − |a_i|`. Every pivot stays at least `m` away from
//! zero and every elimination multiplier `|c_i / p_i| ≤ 1` — elimination
//! cannot blow up, so pivoting is never *necessary*. (Partial pivoting
//! may still *choose* to interchange on a row-dominant matrix when a
//! large sub-diagonal sits under a modest updated diagonal — that is a
//! magnitude heuristic, not a stability need; the no-interchange theorem
//! belongs to *column* dominance.)

use tridiag_core::Real;

/// Runs the Thomas pivot recurrence in `f64` and returns the smallest
/// pivot magnitude, or `None` if any pivot is non-finite or exactly zero.
///
/// This is the machine check behind the dominance lemma: for a strictly
/// dominant matrix the returned floor must be at least the dominance
/// margin (asserted by the analyzer, property-tested adversarially).
pub fn thomas_pivot_floor<T: Real>(a: &[T], b: &[T], c: &[T]) -> Option<f64> {
    let n = b.len();
    if n == 0 {
        return None;
    }
    let mut floor = f64::INFINITY;
    let mut prev = b[0].to_f64();
    for i in 0..n {
        if i > 0 {
            prev = b[i].to_f64() - a[i].to_f64() * c[i - 1].to_f64() / prev;
        }
        if !prev.is_finite() || prev == 0.0 {
            return None;
        }
        floor = floor.min(prev.abs());
    }
    Some(floor)
}

/// Like [`thomas_pivot_floor`], but requires every pivot to be strictly
/// *positive* (the M-matrix / LDLᵀ flavor of the lemma). Returns the
/// smallest pivot, or `None` if any pivot is non-finite or `≤ floor_min`.
pub fn positive_pivot_floor<T: Real>(a: &[T], b: &[T], c: &[T], floor_min: f64) -> Option<f64> {
    let n = b.len();
    if n == 0 {
        return None;
    }
    let mut floor = f64::INFINITY;
    let mut prev = b[0].to_f64();
    for i in 0..n {
        if i > 0 {
            prev = b[i].to_f64() - a[i].to_f64() * c[i - 1].to_f64() / prev;
        }
        if !prev.is_finite() || prev <= floor_min {
            return None;
        }
        floor = floor.min(prev);
    }
    Some(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    #[test]
    fn dominant_pivots_clear_the_margin() {
        let mut g = Generator::new(11);
        for n in [2usize, 8, 65, 256] {
            let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, n);
            let margin = (0..n)
                .map(|i| s.b[i].abs() - s.a[i].abs() - s.c[i].abs())
                .fold(f64::INFINITY, f64::min);
            assert!(margin > 0.0, "generator must emit strictly dominant rows");
            let floor = thomas_pivot_floor(&s.a, &s.b, &s.c).unwrap();
            // The lemma promises |p_i| >= |b_i| - |a_i| >= |c_i| + margin,
            // so in particular the floor clears the margin itself.
            assert!(floor >= margin * (1.0 - 1e-12), "n={n}: floor {floor} < margin {margin}");
        }
    }

    #[test]
    fn zero_pivot_inputs_return_none() {
        // b[0] = 0: the recurrence dies immediately.
        assert_eq!(thomas_pivot_floor(&[0.0f64, 1.0], &[0.0, 1.0], &[1.0, 0.0]), None);
        // Interior breakdown: b[1] - a[1] c[0] / b[0] == 0.
        assert_eq!(
            thomas_pivot_floor(&[0.0f64, 2.0, 1.0], &[1.0, 2.0, 3.0], &[1.0, 1.0, 0.0]),
            None
        );
    }

    #[test]
    fn positive_floor_rejects_negative_pivots() {
        // Strictly dominant but with a negative diagonal row: the plain
        // floor accepts it, the positive (M-matrix) floor must not.
        let a = [0.0f64, 1.0, 1.0];
        let b = [4.0, -4.0, 4.0];
        let c = [1.0, 1.0, 0.0];
        assert!(thomas_pivot_floor(&a, &b, &c).is_some());
        assert_eq!(positive_pivot_floor(&a, &b, &c, 0.0), None);
    }
}
