//! Lockstep sweeps: solve a batch of same-size systems [`W`] at a time,
//! lane `s` of row `i` beside lane `s + 1` (Gloster et al.), so eight
//! independent systems issue each row's work together instead of each
//! waiting on its own serial chain of divisions or multiplies.
//!
//! * [`solve_thomas`] — cold Thomas; every lane does the operations of
//!   [`crate::thomas::solve_into`] in the same order.
//! * [`solve_factored`] — the warm back-substitution of many right-hand
//!   sides against one shared [`ThomasFactors`], the CPU twin of the warm
//!   GPU kernel's warp broadcasts; every lane does the operations of
//!   [`ThomasFactors::solve_into`] in the same order.
//!
//! Both read every system where its owner holds it — no transpose — and
//! write each answer straight into its row of a [`SolutionBatch`]. Only
//! the `c′`/`d′` scratch is interleaved, at `i·W + s`, and it is allocated
//! once per call. Answers therefore equal the scalar functions' bit for
//! bit, in `f32` and `f64`.
//!
//! Occupancy selects the path: full groups of `W` take the sweep, and the
//! remainder (`count mod W`) runs the scalar function in place, so a batch
//! of fewer than `W` systems runs exactly the scalar code.

use crate::{thomas, ThomasFactors};
use tridiag_core::{Real, Result, SolutionBatch, SystemBatch, TridiagError};

/// Systems per lockstep group: 8 `f32` lanes fill one AVX register (two
/// SSE registers), and the compiler vectorizes the lane loops.
pub const W: usize = 8;

/// One system's `(a, b, c, d)`, borrowed where its owner holds them.
pub type Coefficients<'a, T> = (&'a [T], &'a [T], &'a [T], &'a [T]);

/// Solves every row of `out` with Thomas: row `k` from `system(k)`, `W`
/// systems at a time.
///
/// Returns the indices, ascending, of the systems that met an exact zero
/// pivot. Their rows are NaN (so acceptance's guard catches them) and no
/// other lane is affected; every other row equals
/// [`thomas::solve_into`]'s answer bit for bit.
pub fn solve_thomas<'a, T: Real>(
    out: &mut SolutionBatch<T>,
    system: impl Fn(usize) -> Coefficients<'a, T>,
) -> Vec<usize> {
    let (n, count) = (out.n(), out.count());
    let full = count - count % W;
    let mut failed = Vec::new();
    let half = if full > 0 { n * W } else { 0 };
    let mut scratch = vec![T::ZERO; 2 * half];
    let (cp, dp) = scratch.split_at_mut(half);
    for first in (0..full).step_by(W) {
        let lanes: [Coefficients<'a, T>; W] = std::array::from_fn(|s| system(first + s));
        let zero = thomas_group(&lanes, cp, dp, rows(&mut out.x, n, first));
        for s in (0..W).filter(|&s| zero[s]) {
            out.system_mut(first + s).fill(T::from_f64(f64::NAN));
            failed.push(first + s);
        }
    }
    for k in full..count {
        let (a, b, c, d) = system(k);
        let x = out.system_mut(k);
        if thomas::solve_into(a, b, c, d, x).is_err() {
            x.fill(T::from_f64(f64::NAN));
            failed.push(k);
        }
    }
    failed
}

/// Solves every row of `out` against the shared `factors`: row `k` from
/// the right-hand side `rhs(k)`, `W` right-hand sides at a time. Every row
/// equals [`ThomasFactors::solve_into`]'s answer bit for bit.
pub fn solve_factored<'a, T: Real>(
    factors: &ThomasFactors<T>,
    out: &mut SolutionBatch<T>,
    rhs: impl Fn(usize) -> &'a [T],
) {
    let (n, count) = (out.n(), out.count());
    debug_assert_eq!(factors.n(), n);
    let full = count - count % W;
    let mut dp = vec![T::ZERO; if full > 0 { n * W } else { 0 }];
    for first in (0..full).step_by(W) {
        let d: [&[T]; W] = std::array::from_fn(|s| rhs(first + s));
        factored_group(factors, &d, &mut dp, rows(&mut out.x, n, first));
    }
    for k in full..count {
        factors.solve_into(rhs(k), out.system_mut(k));
    }
}

/// Solves `batch` with [`solve_thomas`].
///
/// # Errors
/// [`TridiagError::ZeroPivot`] if any system meets an exactly zero pivot,
/// with the row a row-by-row sweep meets first: the smallest failing row
/// among the failing systems of the first group (of `W`, or the
/// remainder) that holds one. The batch is not partially returned.
pub fn solve_batch_soa<T: Real>(batch: &SystemBatch<T>) -> Result<SolutionBatch<T>> {
    let mut out = SolutionBatch::zeros_like(batch);
    let failed = solve_thomas(&mut out, |k| batch.system_slices(k));
    let Some(&first) = failed.first() else {
        return Ok(out);
    };
    // The failing rows are not kept by the sweep: re-run the first failing
    // group's failing systems on the scalar solver to find them.
    let end = (first - first % W + W).min(batch.count());
    let mut x = vec![T::ZERO; batch.n()];
    let row = failed
        .iter()
        .take_while(|&&k| k < end)
        .filter_map(|&k| {
            let (a, b, c, d) = batch.system_slices(k);
            match thomas::solve_into(a, b, c, d, &mut x) {
                Err(TridiagError::ZeroPivot { row }) => Some(row),
                _ => None,
            }
        })
        .min()
        .expect("a system the sweep failed fails the scalar solver too");
    Err(TridiagError::ZeroPivot { row })
}

/// The `W` consecutive rows of the system-major `x` starting at system
/// `first`, each `n` long.
fn rows<T>(x: &mut [T], n: usize, first: usize) -> [&mut [T]; W] {
    let mut rows = x[first * n..(first + W) * n].chunks_exact_mut(n);
    std::array::from_fn(|_| rows.next().expect("a full group holds W rows"))
}

/// Cold Thomas over one full group; `cp`/`dp` are `n·W` interleaved
/// scratch. Returns which lanes met an exact zero pivot (their `x` holds
/// garbage the caller overwrites).
fn thomas_group<T: Real>(
    lanes: &[Coefficients<'_, T>; W],
    cp: &mut [T],
    dp: &mut [T],
    x: [&mut [T]; W],
) -> [bool; W] {
    let n = x[0].len();
    let a: [&[T]; W] = std::array::from_fn(|s| &lanes[s].0[..n]);
    let b: [&[T]; W] = std::array::from_fn(|s| &lanes[s].1[..n]);
    let c: [&[T]; W] = std::array::from_fn(|s| &lanes[s].2[..n]);
    let d: [&[T]; W] = std::array::from_fn(|s| &lanes[s].3[..n]);
    let mut zero = [false; W];
    let mut cprev = [T::ZERO; W];
    let mut dprev = [T::ZERO; W];
    for s in 0..W {
        zero[s] = b[s][0] == T::ZERO;
        cprev[s] = c[s][0] / b[s][0];
        dprev[s] = d[s][0] / b[s][0];
    }
    cp[..W].copy_from_slice(&cprev);
    dp[..W].copy_from_slice(&dprev);
    for i in 1..n {
        for s in 0..W {
            let denom = b[s][i] - cprev[s] * a[s][i];
            zero[s] |= denom == T::ZERO;
            cprev[s] = c[s][i] / denom;
            dprev[s] = (d[s][i] - dprev[s] * a[s][i]) / denom;
        }
        cp[i * W..(i + 1) * W].copy_from_slice(&cprev);
        dp[i * W..(i + 1) * W].copy_from_slice(&dprev);
    }
    let mut next = dprev;
    for s in 0..W {
        x[s][n - 1] = next[s];
    }
    for i in (0..n - 1).rev() {
        for s in 0..W {
            next[s] = dp[i * W + s] - cp[i * W + s] * next[s];
            x[s][i] = next[s];
        }
    }
    zero
}

/// The warm sweep over one full group of right-hand sides; `dp` is `n·W`
/// interleaved scratch. Every lane reads the same factor, the CPU form of
/// a warp broadcast.
fn factored_group<T: Real>(
    factors: &ThomasFactors<T>,
    d: &[&[T]; W],
    dp: &mut [T],
    x: [&mut [T]; W],
) {
    let n = x[0].len();
    let (wk1, wk2, sub) = (&factors.wk1[..n], &factors.wk2[..n], &factors.sub[..n]);
    let d: [&[T]; W] = std::array::from_fn(|s| &d[s][..n]);
    let mut prev = [T::ZERO; W];
    for s in 0..W {
        prev[s] = d[s][0] * wk1[0];
    }
    dp[..W].copy_from_slice(&prev);
    for i in 1..n {
        for s in 0..W {
            prev[s] = (d[s][i] - sub[i] * prev[s]) * wk1[i];
        }
        dp[i * W..(i + 1) * W].copy_from_slice(&prev);
    }
    for s in 0..W {
        x[s][n - 1] = prev[s];
    }
    for i in (0..n - 1).rev() {
        for s in 0..W {
            prev[s] = dp[i * W + s] - wk2[i] * prev[s];
            x[s][i] = prev[s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    const COUNTS: [usize; 6] = [1, 7, 8, 9, 64, 67];
    const SIZES: [usize; 6] = [1, 2, 3, 5, 64, 1023];

    fn bits<T: Real>(x: &[T]) -> Vec<u64> {
        x.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Both sweeps against the scalar functions, bit for bit, over every
    /// count and size of the grid.
    fn sweeps_match_scalar<T: Real>(
        seed: u64,
        family: Workload,
    ) -> std::result::Result<(), TestCaseError> {
        let mut generator = Generator::new(seed);
        for n in SIZES {
            for count in COUNTS {
                let batch: SystemBatch<T> = generator.batch(family, n, count).unwrap();
                let mut cold = SolutionBatch::zeros_like(&batch);
                let failed = solve_thomas(&mut cold, |k| batch.system_slices(k));
                let (a0, b0, c0, _) = batch.system_slices(0);
                let factors = ThomasFactors::factor(a0, b0, c0).ok();
                let mut warm = SolutionBatch::zeros_like(&batch);
                if let Some(f) = &factors {
                    solve_factored(f, &mut warm, |k| batch.system_slices(k).3);
                }
                let mut x = vec![T::ZERO; n];
                for k in 0..count {
                    let (a, b, c, d) = batch.system_slices(k);
                    let scalar = thomas::solve_into(a, b, c, d, &mut x);
                    prop_assert_eq!(scalar.is_err(), failed.contains(&k));
                    if scalar.is_ok() {
                        prop_assert!(
                            bits(&x) == bits(cold.system(k)),
                            "thomas n={n} count={count} system {k}"
                        );
                    }
                    if let Some(f) = &factors {
                        f.solve_into(d, &mut x);
                        prop_assert!(
                            bits(&x) == bits(warm.system(k)),
                            "factored n={n} count={count} rhs {k}"
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn sweeps_equal_the_scalar_solvers_bit_for_bit(
            seed in any::<u64>(),
            family in prop::sample::select(vec![
                Workload::DiagonallyDominant,
                Workload::CloseValues,
                Workload::Poisson,
            ]),
        ) {
            sweeps_match_scalar::<f32>(seed, family)?;
            sweeps_match_scalar::<f64>(seed, family)?;
        }
    }

    /// Makes Thomas's pivot at `row` exactly zero: `b[row]` becomes the
    /// very product the elimination subtracts from it.
    fn zero_pivot_at(sys: &mut TridiagonalSystem<f32>, row: usize) {
        if row == 0 {
            sys.b[0] = 0.0;
            return;
        }
        let mut cp = sys.c[0] / sys.b[0];
        for i in 1..row {
            cp = sys.c[i] / (sys.b[i] - cp * sys.a[i]);
        }
        sys.b[row] = cp * sys.a[row];
        assert!(matches!(thomas::solve(sys), Err(TridiagError::ZeroPivot { row: r }) if r == row));
    }

    fn dominant(count: usize, n: usize) -> Vec<TridiagonalSystem<f32>> {
        let mut generator = Generator::new(29);
        (0..count).map(|_| generator.system(Workload::DiagonallyDominant, n)).collect()
    }

    #[test]
    fn zero_pivot_lanes_are_nan_and_spare_their_neighbours() {
        // Zero pivots on the first row, mid-sweep, and on the last row (whose
        // sweep alone would leave ±∞, not NaN).
        let mut systems = dominant(W, 64);
        zero_pivot_at(&mut systems[2], 0);
        zero_pivot_at(&mut systems[5], 37);
        zero_pivot_at(&mut systems[7], 63);
        let batch = SystemBatch::from_systems(&systems).unwrap();
        let mut out = SolutionBatch::zeros_like(&batch);
        assert_eq!(solve_thomas(&mut out, |k| batch.system_slices(k)), vec![2, 5, 7]);
        for (k, sys) in systems.iter().enumerate() {
            if [2, 5, 7].contains(&k) {
                assert!(out.system(k).iter().all(|v| v.is_nan()), "lane {k}");
            } else {
                assert_eq!(bits(&thomas::solve(sys).unwrap()), bits(out.system(k)), "lane {k}");
            }
        }
    }

    #[test]
    fn batch_soa_reports_the_smallest_failing_row_of_the_first_failing_group() {
        // Three groups: two full, then a remainder of four.
        let mut systems = dominant(20, 64);
        zero_pivot_at(&mut systems[10], 37);
        zero_pivot_at(&mut systems[13], 5);
        zero_pivot_at(&mut systems[18], 0);
        let batch = SystemBatch::from_systems(&systems).unwrap();
        assert!(matches!(solve_batch_soa(&batch), Err(TridiagError::ZeroPivot { row: 5 })));

        // A failing system in the remainder alone.
        let mut systems = dominant(3, 8);
        zero_pivot_at(&mut systems[1], 0);
        let batch = SystemBatch::from_systems(&systems).unwrap();
        assert!(matches!(solve_batch_soa(&batch), Err(TridiagError::ZeroPivot { row: 0 })));

        let batch = SystemBatch::from_systems(&dominant(20, 64)).unwrap();
        let soa = solve_batch_soa(&batch).unwrap();
        assert_eq!(bits(&crate::solve_batch_seq(&crate::Thomas, &batch).unwrap().x), bits(&soa.x));
    }
}
