//! The recursive doubling (RD) kernel — §2.3 of the paper.
//!
//! RD rewrites the recurrence as a chain of 3×3 matrix products evaluated
//! with a step-efficient Hillis–Steele scan. Only the first two rows of each
//! matrix are stored ("special matrices, which enable us to only store the
//! first two rows ... and save several floating point operations"), i.e. six
//! shared arrays; the third row stays `[0 0 1]` (or `[0 0 s]` for the
//! rescaled variant).
//!
//! Supersteps: matrix setup (fused with the global load, as in the paper's
//! Figure 13 grouping), `log2 n` scan steps, one solution-evaluation step,
//! one global store — `log2 n + 2` algorithmic steps, matching Table 1.
//!
//! The scan contains **no divisions** (Table 1) and is bank-conflict free.
//! The optional [`RdMode::Rescaled`] variant implements the overflow remedy
//! of §5.4 (normalize partial products, carrying the scale in the
//! homogeneous coordinate) at the cost of extra work per scan step.

use crate::common::SystemHandles;
use gpu_sim::{hillis_steele, BlockCtx, GridKernel, Phase, Shared, ThreadCtx};
use tridiag_core::Real;

/// Overflow-handling mode for recursive doubling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RdMode {
    /// Plain scan — overflows in `f32` for diagonally dominant systems
    /// larger than ~64 unknowns (paper §5.4); overflow is surfaced as
    /// non-finite solution values, not an error.
    #[default]
    Plain,
    /// Scan with projective rescaling — never produces non-finite values,
    /// at the price of extra operations and control per scan step.
    Rescaled,
}

/// Recursive-doubling kernel (one system per block).
#[derive(Debug, Clone, Copy)]
pub struct RdKernel<T> {
    /// System size (power of two, >= 2).
    pub n: usize,
    /// Device arrays.
    pub gm: SystemHandles<T>,
    /// Overflow handling.
    pub mode: RdMode,
}

/// The six shared arrays holding rows 1-2 of the scan matrices, plus the
/// scale array for the rescaled variant. Shared with the hybrid kernel.
pub(crate) struct ScanArrays<T> {
    pub r1x: Shared<T>,
    pub r1y: Shared<T>,
    pub r1z: Shared<T>,
    pub r2x: Shared<T>,
    pub r2y: Shared<T>,
    pub r2z: Shared<T>,
    /// Present only in rescaled mode.
    pub scale: Option<Shared<T>>,
}

impl<T: Real> ScanArrays<T> {
    pub fn alloc(ctx: &mut BlockCtx<'_, T>, m: usize, mode: RdMode) -> Self {
        Self {
            r1x: ctx.alloc(m),
            r1y: ctx.alloc(m),
            r1z: ctx.alloc(m),
            r2x: ctx.alloc(m),
            r2y: ctx.alloc(m),
            r2z: ctx.alloc(m),
            scale: (mode == RdMode::Rescaled).then(|| ctx.alloc(m)),
        }
    }

    /// Number of 32-bit words `alloc` consumes for size `m`.
    pub fn words(m: usize, mode: RdMode) -> usize {
        let arrays = if mode == RdMode::Rescaled { 7 } else { 6 };
        arrays * m * T::SHARED_WORDS
    }
}

/// Builds matrix `B_k` (thread-local) from equation coefficients and stores
/// it at scan position `k`. The caller passes `c = 1` for the last equation
/// of the (sub)system. Counted: 1 division, 3 multiplies, 2 negations.
#[inline]
pub(crate) fn setup_matrix<T: Real>(
    t: &mut ThreadCtx<'_, '_, T>,
    mats: &ScanArrays<T>,
    k: usize,
    a: T,
    b: T,
    c: T,
    d: T,
) {
    let inv = t.div(T::ONE, c);
    let p = t.mul(b, inv);
    let r1x = t.neg(p);
    let p = t.mul(a, inv);
    let r1y = t.neg(p);
    let r1z = t.mul(d, inv);
    t.store(mats.r1x, k, r1x);
    t.store(mats.r1y, k, r1y);
    t.store(mats.r1z, k, r1z);
    t.store(mats.r2x, k, T::ONE);
    t.store(mats.r2y, k, T::ZERO);
    t.store(mats.r2z, k, T::ZERO);
    if let Some(s) = mats.scale {
        t.store(s, k, T::ONE);
    }
}

/// One scan combine: `S_i := S_i * S_j` (later-index matrix on the left),
/// with optional rescaling. Shared with the hybrid kernel.
#[inline]
pub(crate) fn scan_combine<T: Real>(
    t: &mut ThreadCtx<'_, '_, T>,
    mats: &ScanArrays<T>,
    i: usize,
    j: usize,
) {
    let l1x = t.load(mats.r1x, i);
    let l1y = t.load(mats.r1y, i);
    let l1z = t.load(mats.r1z, i);
    let l2x = t.load(mats.r2x, i);
    let l2y = t.load(mats.r2y, i);
    let l2z = t.load(mats.r2z, i);
    let rj1x = t.load(mats.r1x, j);
    let rj1y = t.load(mats.r1y, j);
    let rj1z = t.load(mats.r1z, j);
    let rj2x = t.load(mats.r2x, j);
    let rj2y = t.load(mats.r2y, j);
    let rj2z = t.load(mats.r2z, j);
    let s_j = mats.scale.map(|s| t.load(s, j));

    let p = t.mul(l1y, rj2x);
    let p1x = t.fma(l1x, rj1x, p);
    let p = t.mul(l1y, rj2y);
    let p1y = t.fma(l1x, rj1y, p);
    let p = t.mul(l2y, rj2x);
    let p2x = t.fma(l2x, rj1x, p);
    let p = t.mul(l2y, rj2y);
    let p2y = t.fma(l2x, rj1y, p);

    // Homogeneous column: + l?z (times s_j when rescaling).
    let (mut p1z, mut p2z) = {
        let q = t.mul(l1y, rj2z);
        let q = t.fma(l1x, rj1z, q);
        let r = t.mul(l2y, rj2z);
        let r = t.fma(l2x, rj1z, r);
        match s_j {
            None => (t.add(q, l1z), t.add(r, l2z)),
            Some(sj) => (t.fma(l1z, sj, q), t.fma(l2z, sj, r)),
        }
    };
    let mut p1x = p1x;
    let mut p1y = p1y;
    let mut p2x = p2x;
    let mut p2y = p2y;

    if let (Some(s_arr), Some(sj)) = (mats.scale, s_j) {
        let s_i = t.load(s_arr, i);
        let mut ns = t.mul(s_i, sj);
        // Normalize if the largest magnitude exceeds the threshold.
        let mut m = ns.abs();
        for v in [p1x, p1y, p1z, p2x, p2y, p2z] {
            m = m.max(v.abs());
        }
        t.ops_charge(6); // the max/abs chain issues compare instructions
        let threshold = T::from_f64(1e18);
        if m > threshold {
            let inv = t.div(T::ONE, m);
            p1x = t.mul(p1x, inv);
            p1y = t.mul(p1y, inv);
            p1z = t.mul(p1z, inv);
            p2x = t.mul(p2x, inv);
            p2y = t.mul(p2y, inv);
            p2z = t.mul(p2z, inv);
            ns = t.mul(ns, inv);
        }
        t.store(s_arr, i, ns);
    }

    t.store(mats.r1x, i, p1x);
    t.store(mats.r1y, i, p1y);
    t.store(mats.r1z, i, p1z);
    t.store(mats.r2x, i, p2x);
    t.store(mats.r2y, i, p2y);
    t.store(mats.r2z, i, p2z);
}

/// Solution evaluation over scan positions `0..m`, writing `x` through
/// `write_x(t, k, value)` (the hybrid redirects this into the strided
/// positions of the full system). One superstep; every thread reads the
/// chain tail broadcast-style and needs one division.
pub(crate) fn evaluate_solutions<T: Real>(
    ctx: &mut BlockCtx<'_, T>,
    mats: &ScanArrays<T>,
    m: usize,
    mut write_x: impl FnMut(&mut ThreadCtx<'_, '_, T>, usize, T),
) {
    ctx.step(Phase::SolutionEvaluation, 0..m, |t| {
        let tail_z = t.load(mats.r1z, m - 1);
        let tail_x = t.load(mats.r1x, m - 1);
        let neg_z = t.neg(tail_z);
        let x0 = t.div(neg_z, tail_x);
        let k = t.tid();
        // Branchless: thread 0 performs the same loads (at clamped index 0)
        // and simply selects x0 instead of the prefix evaluation.
        let p = k.saturating_sub(1);
        let r1x = t.load(mats.r1x, p);
        let r1z = t.load(mats.r1z, p);
        let mut v = t.fma(r1x, x0, r1z);
        if let Some(s_arr) = mats.scale {
            let s = t.load(s_arr, p);
            v = t.div(v, s);
            if !v.is_finite() {
                // Scale underflowed past the format; saturate (see the
                // reference implementation for the rationale).
                v = T::ZERO;
            }
        }
        let v = if k == 0 { x0 } else { v };
        write_x(t, k, v);
    });
}

impl<T: Real> GridKernel<T> for RdKernel<T> {
    fn block_dim(&self) -> usize {
        self.n
    }

    fn shared_words(&self) -> usize {
        ScanArrays::<T>::words(self.n, self.mode)
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let n = self.n;
        let base = block_id * n;
        let mats = ScanArrays::alloc(ctx, n, self.mode);
        // The second matrix row is dead after the scan; its first column
        // array is reused as the solution vector (saves n words of shared
        // memory — without this the rescaled variant would not fit at
        // n = 512).
        let x = mats.r2x;

        // Matrix setup, fused with the global load (Figure 13's "global
        // memory access and matrix setup" phase).
        let gm = self.gm;
        ctx.step(Phase::MatrixSetup, 0..n, |t| {
            let i = t.tid();
            let a = t.load_global(gm.a, base + i);
            let b = t.load_global(gm.b, base + i);
            let c = t.load_global(gm.c, base + i);
            let d = t.load_global(gm.d, base + i);
            let c = if i == n - 1 { T::ONE } else { c };
            setup_matrix(t, &mats, i, a, b, c, d);
        });

        hillis_steele(ctx, n, Phase::Scan, |t, i, j| scan_combine(t, &mats, i, j));

        evaluate_solutions(ctx, &mats, n, |t, k, v| t.store(x, k, v));

        ctx.step(Phase::GlobalStore, 0..n, |t| {
            let i = t.tid();
            let v = t.load(x, i);
            t.store_global(gm.x, base + i, v);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GlobalMem, LaunchReport, Launcher};
    use tridiag_core::residual::batch_residual;
    use tridiag_core::{Generator, SolutionBatch, SystemBatch, Workload};

    fn run(
        n: usize,
        count: usize,
        workload: Workload,
        mode: RdMode,
    ) -> (SystemBatch<f32>, SolutionBatch<f32>, LaunchReport) {
        let batch: SystemBatch<f32> = Generator::new(42).batch(workload, n, count).unwrap();
        let mut gmem = GlobalMem::new();
        let gm = SystemHandles::upload(&mut gmem, &batch);
        let kernel = RdKernel { n, gm, mode };
        let report = Launcher::gtx280().launch(&kernel, count, &mut gmem).unwrap();
        let sol = gm.download_solutions(&mut gmem, &batch);
        (batch, sol, report)
    }

    #[test]
    fn solves_close_values_accurately() {
        for n in [2usize, 16, 128, 512] {
            let (batch, sol, _) = run(n, 4, Workload::CloseValues, RdMode::Plain);
            let r = batch_residual(&batch, &sol).unwrap();
            assert!(!r.has_overflow(), "n={n}");
            // f32 RD accuracy on this family is mediocre by nature —
            // Figure 18 reports residuals around 1e-1 here.
            assert!(r.max_l2 < 1.0, "n={n}: residual {}", r.max_l2);
        }
    }

    #[test]
    fn solves_small_dominant_accurately() {
        for n in [2usize, 8, 32] {
            let (batch, sol, _) = run(n, 4, Workload::DiagonallyDominant, RdMode::Plain);
            let r = batch_residual(&batch, &sol).unwrap();
            assert!(!r.has_overflow(), "n={n}");
        }
    }

    #[test]
    fn overflows_on_large_dominant_systems() {
        // Paper §5.4: "RD and PCR+RD suffer from arithmetic overflow" on
        // the 512-unknown diagonally dominant family.
        let (_, sol, _) = run(512, 8, Workload::DiagonallyDominant, RdMode::Plain);
        assert!(sol.first_non_finite().is_some(), "expected overflow");
    }

    #[test]
    fn rescaled_mode_stays_finite() {
        let (_, sol, _) = run(512, 8, Workload::DiagonallyDominant, RdMode::Rescaled);
        assert_eq!(sol.first_non_finite(), None);
    }

    #[test]
    fn scan_is_bank_conflict_free_and_div_free() {
        let (_, _, report) = run(512, 1, Workload::CloseValues, RdMode::Plain);
        for s in report.stats.steps_in_phase(Phase::Scan) {
            assert_eq!(s.max_conflict_degree, 1);
            assert_eq!(s.divs, 0, "Table 1: no div in the scan");
        }
    }

    #[test]
    fn step_count_matches_paper() {
        // Table 1: log2 n + 2 algorithmic steps (setup + scan + eval).
        let (_, _, report) = run(512, 1, Workload::CloseValues, RdMode::Plain);
        let algo_steps =
            report.stats.steps.iter().filter(|s| !matches!(s.phase, Phase::GlobalStore)).count();
        assert_eq!(algo_steps, 9 + 2);
    }

    #[test]
    fn scan_active_threads_shrink() {
        // §4: RD's active thread count starts at n and reduces toward half
        // during the scan.
        let (_, _, report) = run(64, 1, Workload::CloseValues, RdMode::Plain);
        let actives: Vec<usize> =
            report.stats.steps_in_phase(Phase::Scan).map(|s| s.active_threads).collect();
        assert_eq!(actives, vec![63, 62, 60, 56, 48, 32]);
    }

    #[test]
    fn rd_does_roughly_twice_pcr_flops() {
        // Table 1: 20 n log n vs 12 n log n.
        let (_, _, rd) = run(256, 1, Workload::CloseValues, RdMode::Plain);
        let batch: SystemBatch<f32> =
            Generator::new(42).batch(Workload::CloseValues, 256, 1).unwrap();
        let mut gmem = GlobalMem::new();
        let gm = SystemHandles::upload(&mut gmem, &batch);
        let pcr =
            Launcher::gtx280().launch(&crate::pcr::PcrKernel { n: 256, gm }, 1, &mut gmem).unwrap();
        let ratio = rd.stats.total_ops() as f64 / pcr.stats.total_ops() as f64;
        assert!((1.2..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn matches_reference_rd() {
        let batch: SystemBatch<f64> =
            Generator::new(9).batch(Workload::CloseValues, 64, 2).unwrap();
        let mut gmem = GlobalMem::new();
        let gm = SystemHandles::upload(&mut gmem, &batch);
        let kernel = RdKernel { n: 64, gm, mode: RdMode::Plain };
        Launcher::gtx280().launch(&kernel, 2, &mut gmem).unwrap();
        let sol = gm.download_solutions(&mut gmem, &batch);
        for s in 0..2 {
            let sys = batch.system(s);
            let mut x_ref = vec![0.0f64; 64];
            cpu_solvers::reference::rd::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, &mut x_ref)
                .unwrap();
            for i in 0..64 {
                assert!((sol.system(s)[i] - x_ref[i]).abs() < 1e-9, "sys {s} i {i}");
            }
        }
    }
}
