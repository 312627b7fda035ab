//! High-level solver facade: pick an algorithm, hand it a batch, get
//! solutions plus the simulated timing/instrumentation report.

use crate::common::SystemHandles;
use crate::cr::CrKernel;
use crate::cr_variants::CrEvenOddKernel;
use crate::global_only::GlobalCrKernel;
use crate::hybrid::{HybridKernel, InnerSolver};
use crate::pcr::PcrKernel;
use crate::rd::{RdKernel, RdMode};
use gpu_sim::{GlobalMem, KernelStats, Launcher, TimingReport};
use tridiag_core::{
    require_pow2, Algorithm, Real, Result, SolutionBatch, SystemBatch, TridiagError,
};

/// Every GPU solver this crate provides: the paper's five plus the ablation
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuAlgorithm {
    /// Cyclic reduction.
    Cr,
    /// Parallel cyclic reduction.
    Pcr,
    /// Recursive doubling.
    Rd(RdMode),
    /// Hybrid CR+PCR with intermediate size `m`.
    CrPcr {
        /// Intermediate system size.
        m: usize,
    },
    /// Hybrid CR+RD with intermediate size `m`.
    CrRd {
        /// Intermediate system size.
        m: usize,
        /// Overflow handling of the inner RD.
        mode: RdMode,
    },
    /// Bank-conflict-free CR via even/odd level separation
    /// (Göddeke & Strzodka, paper footnote 1) — an ablation.
    CrEvenOdd,
    /// CR operating on global memory only (the paper's fallback for systems
    /// exceeding shared memory, "at a cost of roughly 3x performance
    /// degradation").
    CrGlobalOnly,
    /// Coarse-grained batched Thomas: one thread per system over an
    /// interleaved layout (the approach the paper sets aside as
    /// CPU-suited; latency-bound on the GPU, wins only for huge batches).
    ThomasPerThread,
}

impl GpuAlgorithm {
    /// The five solvers evaluated in the paper's figures, using the best
    /// switch points of §5.3 for `n = 512` (scaled as `n/2` and `n/4`).
    pub fn paper_five(n: usize) -> [GpuAlgorithm; 5] {
        [
            GpuAlgorithm::CrPcr { m: (n / 2).max(2) },
            GpuAlgorithm::CrRd { m: (n / 4).max(2), mode: RdMode::Plain },
            GpuAlgorithm::Pcr,
            GpuAlgorithm::Rd(RdMode::Plain),
            GpuAlgorithm::Cr,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GpuAlgorithm::Cr => "CR",
            GpuAlgorithm::Pcr => "PCR",
            GpuAlgorithm::Rd(RdMode::Plain) => "RD",
            GpuAlgorithm::Rd(RdMode::Rescaled) => "RD (rescaled)",
            GpuAlgorithm::CrPcr { .. } => "CR+PCR",
            GpuAlgorithm::CrRd { mode: RdMode::Plain, .. } => "CR+RD",
            GpuAlgorithm::CrRd { mode: RdMode::Rescaled, .. } => "CR+RD (rescaled)",
            GpuAlgorithm::CrEvenOdd => "CR (no bank conflicts)",
            GpuAlgorithm::CrGlobalOnly => "CR (global memory only)",
            GpuAlgorithm::ThomasPerThread => "Thomas (thread per system)",
        }
    }

    /// The corresponding Table 1 row, when the paper models this variant.
    pub fn paper_algorithm(self) -> Option<Algorithm> {
        match self {
            GpuAlgorithm::Cr | GpuAlgorithm::CrEvenOdd | GpuAlgorithm::CrGlobalOnly => {
                Some(Algorithm::Cr)
            }
            GpuAlgorithm::Pcr => Some(Algorithm::Pcr),
            GpuAlgorithm::Rd(_) => Some(Algorithm::Rd),
            GpuAlgorithm::CrPcr { m } => Some(Algorithm::CrPcr { m }),
            GpuAlgorithm::CrRd { m, .. } => Some(Algorithm::CrRd { m }),
            GpuAlgorithm::ThomasPerThread => None,
        }
    }

    /// Validates the algorithm for system size `n`.
    pub fn validate(self, n: usize) -> Result<()> {
        require_pow2(n, 2)?;
        match self {
            GpuAlgorithm::CrPcr { m } | GpuAlgorithm::CrRd { m, .. } => {
                // The hybrid kernel needs at least one CR level (m <= n/2);
                // m == n degenerates to the pure inner solver and is
                // dispatched as such.
                if m < 2 || m > n || !m.is_power_of_two() {
                    return Err(TridiagError::InvalidIntermediateSize { n, m });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Per-block shared-memory bytes the in-shared-memory kernels need for
    /// one system of size `n` (the paper's five arrays), or `None` when the
    /// variant does not stage systems in shared memory.
    pub fn shared_bytes_per_system(self, n: usize, element_bytes: usize) -> Option<usize> {
        match self {
            GpuAlgorithm::CrGlobalOnly | GpuAlgorithm::ThomasPerThread => None,
            _ => Some(5 * n * element_bytes),
        }
    }

    /// Whether a system of size `n` (elements of `element_bytes`) fits this
    /// variant's shared-memory footprint on `device` — the planner's
    /// admission rule for routing oversized systems to the global-memory
    /// path instead.
    pub fn fits_shared(
        self,
        n: usize,
        element_bytes: usize,
        device: &gpu_sim::DeviceConfig,
    ) -> bool {
        match self.shared_bytes_per_system(n, element_bytes) {
            None => true,
            Some(bytes) => bytes + device.shared_mem_reserved_per_block <= device.shared_mem_per_sm,
        }
    }
}

/// Canonical machine-readable spelling, round-trippable through
/// [`FromStr`](core::str::FromStr): `cr`, `pcr`, `rd`, `rd-rescaled`,
/// `cr+pcr@256`, `cr+rd@128`, `cr+rd-rescaled@128`, `cr-evenodd`,
/// `cr-global`, `thomas-per-thread`.
impl core::fmt::Display for GpuAlgorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GpuAlgorithm::Cr => f.write_str("cr"),
            GpuAlgorithm::Pcr => f.write_str("pcr"),
            GpuAlgorithm::Rd(RdMode::Plain) => f.write_str("rd"),
            GpuAlgorithm::Rd(RdMode::Rescaled) => f.write_str("rd-rescaled"),
            GpuAlgorithm::CrPcr { m } => write!(f, "cr+pcr@{m}"),
            GpuAlgorithm::CrRd { m, mode: RdMode::Plain } => write!(f, "cr+rd@{m}"),
            GpuAlgorithm::CrRd { m, mode: RdMode::Rescaled } => {
                write!(f, "cr+rd-rescaled@{m}")
            }
            GpuAlgorithm::CrEvenOdd => f.write_str("cr-evenodd"),
            GpuAlgorithm::CrGlobalOnly => f.write_str("cr-global"),
            GpuAlgorithm::ThomasPerThread => f.write_str("thomas-per-thread"),
        }
    }
}

/// Error parsing a [`GpuAlgorithm`] from its canonical spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGpuAlgorithmError {
    /// The rejected input.
    pub input: String,
}

impl core::fmt::Display for ParseGpuAlgorithmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown GPU algorithm '{}' (expected cr, pcr, rd, rd-rescaled, cr+pcr@<m>, \
             cr+rd@<m>, cr+rd-rescaled@<m>, cr-evenodd, cr-global, or thomas-per-thread)",
            self.input
        )
    }
}

impl std::error::Error for ParseGpuAlgorithmError {}

impl core::str::FromStr for GpuAlgorithm {
    type Err = ParseGpuAlgorithmError;

    fn from_str(s: &str) -> core::result::Result<Self, Self::Err> {
        let err = || ParseGpuAlgorithmError { input: s.to_string() };
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "cr" => return Ok(GpuAlgorithm::Cr),
            "pcr" => return Ok(GpuAlgorithm::Pcr),
            "rd" => return Ok(GpuAlgorithm::Rd(RdMode::Plain)),
            "rd-rescaled" => return Ok(GpuAlgorithm::Rd(RdMode::Rescaled)),
            "cr-evenodd" => return Ok(GpuAlgorithm::CrEvenOdd),
            "cr-global" => return Ok(GpuAlgorithm::CrGlobalOnly),
            "thomas-per-thread" => return Ok(GpuAlgorithm::ThomasPerThread),
            _ => {}
        }
        let (head, m) = lower.split_once('@').ok_or_else(err)?;
        let m: usize = m.parse().map_err(|_| err())?;
        match head {
            "cr+pcr" => Ok(GpuAlgorithm::CrPcr { m }),
            "cr+rd" => Ok(GpuAlgorithm::CrRd { m, mode: RdMode::Plain }),
            "cr+rd-rescaled" => Ok(GpuAlgorithm::CrRd { m, mode: RdMode::Rescaled }),
            _ => Err(err()),
        }
    }
}

/// Result of a GPU batch solve.
#[derive(Debug, Clone)]
pub struct GpuSolveReport<T: Real> {
    /// Which solver ran.
    pub algorithm: GpuAlgorithm,
    /// Solutions, one per system (may contain non-finite values if the
    /// algorithm overflowed — see `SolutionBatch::first_non_finite`).
    pub solutions: SolutionBatch<T>,
    /// Per-block instrumentation of the representative block.
    pub stats: KernelStats,
    /// Simulated timing; `transfer_ms` is pre-filled with the PCIe cost of
    /// the batch's five arrays so callers can report either the
    /// "without transfer" (`kernel_ms`) or "with transfer" (`total_ms()`)
    /// variant of Figures 6 and 7.
    pub timing: TimingReport,
    /// Sanitizer findings across all blocks (empty unless the launcher's
    /// sanitize mode is on — see [`gpu_sim::SanitizeOptions`]).
    pub diagnostics: Vec<gpu_sim::Diagnostic>,
    /// Faults the launcher's fault plan injected into this solve
    /// (corruptions of the downloaded solutions, stalls). Always empty when
    /// no [`gpu_sim::FaultPlan`] is installed.
    pub injected_faults: Vec<gpu_sim::InjectedFault>,
}

impl<T: Real> GpuSolveReport<T> {
    /// Number of `Error`-severity sanitizer diagnostics.
    pub fn sanitizer_error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == gpu_sim::Severity::Error).count()
    }

    /// Number of `Warning`-severity sanitizer diagnostics.
    pub fn sanitizer_warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == gpu_sim::Severity::Warning).count()
    }

    /// Number of injected output corruptions (bit flips + NaN poisonings) —
    /// nonzero only under an active fault plan.
    pub fn corruption_count(&self) -> usize {
        self.injected_faults
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    gpu_sim::InjectedFault::BitFlip { .. }
                        | gpu_sim::InjectedFault::NanPoison { .. }
                )
            })
            .count()
    }
}

/// Solves every system of `batch` with `algorithm` on the simulated GPU.
///
/// # Errors
/// Configuration errors (bad sizes, shared-memory overflow for the chosen
/// variant). Numerical overflow is *not* an error — it is visible in the
/// returned solutions, as on real hardware.
pub fn solve_batch<T: Real>(
    launcher: &Launcher,
    algorithm: GpuAlgorithm,
    batch: &SystemBatch<T>,
) -> Result<GpuSolveReport<T>> {
    let n = batch.n();
    algorithm.validate(n)?;
    if algorithm == GpuAlgorithm::ThomasPerThread {
        return crate::coarse::solve_batch_coarse(launcher, batch);
    }
    let mut gmem = GlobalMem::new();
    let gm = SystemHandles::upload(&mut gmem, batch);
    let count = batch.count();

    let report = match algorithm {
        GpuAlgorithm::Cr => launcher.launch(&CrKernel { n, gm }, count, &mut gmem)?,
        GpuAlgorithm::Pcr => launcher.launch(&PcrKernel { n, gm }, count, &mut gmem)?,
        GpuAlgorithm::Rd(mode) => launcher.launch(&RdKernel { n, gm, mode }, count, &mut gmem)?,
        GpuAlgorithm::CrPcr { m } => {
            if m >= n {
                launcher.launch(&PcrKernel { n, gm }, count, &mut gmem)?
            } else if m <= 2 && n == 2 {
                launcher.launch(&CrKernel { n, gm }, count, &mut gmem)?
            } else {
                let kernel = HybridKernel { n, m, inner: InnerSolver::Pcr, gm };
                launcher.launch(&kernel, count, &mut gmem)?
            }
        }
        GpuAlgorithm::CrRd { m, mode } => {
            if m >= n {
                launcher.launch(&RdKernel { n, gm, mode }, count, &mut gmem)?
            } else {
                let kernel = HybridKernel { n, m, inner: InnerSolver::Rd(mode), gm };
                launcher.launch(&kernel, count, &mut gmem)?
            }
        }
        GpuAlgorithm::CrEvenOdd => launcher.launch(&CrEvenOddKernel { n, gm }, count, &mut gmem)?,
        GpuAlgorithm::CrGlobalOnly => {
            launcher.launch(&GlobalCrKernel::new(n, gm), count, &mut gmem)?
        }
        GpuAlgorithm::ThomasPerThread => unreachable!("dispatched above"),
    };

    let solutions = gm.download_solutions(&mut gmem, batch);
    let timing = report.timing.with_transfer(&launcher.cost, batch.transfer_bytes() as u64);
    Ok(GpuSolveReport {
        algorithm,
        solutions,
        stats: report.stats,
        timing,
        diagnostics: report.diagnostics,
        injected_faults: report.injected_faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::residual::batch_residual;
    use tridiag_core::{Generator, Workload};

    fn batch(n: usize, count: usize) -> SystemBatch<f32> {
        Generator::new(42).batch(Workload::DiagonallyDominant, n, count).unwrap()
    }

    #[test]
    fn all_stable_algorithms_agree() {
        let launcher = Launcher::gtx280();
        let b = batch(128, 4);
        // CR+RD is excluded: it overflows on diagonally dominant input in
        // f32 (Figure 18's finding) — covered by its own tests.
        let algs = [
            GpuAlgorithm::Cr,
            GpuAlgorithm::Pcr,
            GpuAlgorithm::CrPcr { m: 32 },
            GpuAlgorithm::CrEvenOdd,
            GpuAlgorithm::CrGlobalOnly,
        ];
        for alg in algs {
            let r = solve_batch(&launcher, alg, &b).unwrap();
            let res = batch_residual(&b, &r.solutions).unwrap();
            assert!(!res.has_overflow(), "{}", alg.name());
            assert!(res.max_l2 < 2e-4, "{}: {}", alg.name(), res.max_l2);
        }
    }

    #[test]
    fn cr_rd_works_on_close_values() {
        let launcher = Launcher::gtx280();
        let b: SystemBatch<f32> = Generator::new(3).batch(Workload::CloseValues, 128, 4).unwrap();
        let r =
            solve_batch(&launcher, GpuAlgorithm::CrRd { m: 32, mode: RdMode::Plain }, &b).unwrap();
        let res = batch_residual(&b, &r.solutions).unwrap();
        assert!(!res.has_overflow());
        assert!(res.max_l2 < 1.0, "{}", res.max_l2);
    }

    #[test]
    fn hybrid_m_equals_n_degenerates_to_inner() {
        let launcher = Launcher::gtx280();
        let b = batch(64, 2);
        let hybrid = solve_batch(&launcher, GpuAlgorithm::CrPcr { m: 64 }, &b).unwrap();
        let pure = solve_batch(&launcher, GpuAlgorithm::Pcr, &b).unwrap();
        assert_eq!(hybrid.solutions.x, pure.solutions.x);
        assert_eq!(hybrid.stats.num_steps(), pure.stats.num_steps());
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        let launcher = Launcher::gtx280();
        let b: SystemBatch<f32> = Generator::new(1).batch(Workload::Poisson, 48, 2).unwrap();
        assert!(matches!(
            solve_batch(&launcher, GpuAlgorithm::Cr, &b),
            Err(TridiagError::NotPowerOfTwo { n: 48 })
        ));
        let b = batch(64, 1);
        assert!(solve_batch(&launcher, GpuAlgorithm::CrPcr { m: 3 }, &b).is_err());
        assert!(solve_batch(&launcher, GpuAlgorithm::CrPcr { m: 128 }, &b).is_err());
    }

    #[test]
    fn transfer_time_is_populated() {
        let launcher = Launcher::gtx280();
        let b = batch(64, 8);
        let r = solve_batch(&launcher, GpuAlgorithm::Pcr, &b).unwrap();
        assert!(r.timing.transfer_ms > 0.0);
        assert!(r.timing.total_ms() > r.timing.kernel_ms);
    }

    #[test]
    fn paper_five_names() {
        let names: Vec<_> = GpuAlgorithm::paper_five(512).iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["CR+PCR", "CR+RD", "PCR", "RD", "CR"]);
    }

    #[test]
    fn display_from_str_round_trips() {
        let algs = [
            GpuAlgorithm::Cr,
            GpuAlgorithm::Pcr,
            GpuAlgorithm::Rd(RdMode::Plain),
            GpuAlgorithm::Rd(RdMode::Rescaled),
            GpuAlgorithm::CrPcr { m: 256 },
            GpuAlgorithm::CrRd { m: 128, mode: RdMode::Plain },
            GpuAlgorithm::CrRd { m: 64, mode: RdMode::Rescaled },
            GpuAlgorithm::CrEvenOdd,
            GpuAlgorithm::CrGlobalOnly,
            GpuAlgorithm::ThomasPerThread,
        ];
        for alg in algs {
            let text = alg.to_string();
            let parsed: GpuAlgorithm = text.parse().unwrap();
            assert_eq!(parsed, alg, "{text}");
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trimmed() {
        assert_eq!(" CR ".parse::<GpuAlgorithm>().unwrap(), GpuAlgorithm::Cr);
        assert_eq!(
            "Cr+Rd@64".parse::<GpuAlgorithm>().unwrap(),
            GpuAlgorithm::CrRd { m: 64, mode: RdMode::Plain }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "thomas", "cr+", "cr+pcr", "cr+pcr@", "cr+pcr@x", "pcr@8", "rd@4"] {
            let e = bad.parse::<GpuAlgorithm>().unwrap_err();
            assert_eq!(e.input, bad, "{bad}");
        }
    }

    #[test]
    fn fits_shared_matches_gtx280_limits() {
        let device = Launcher::gtx280().device;
        // f32, n = 512: 5*512*4 = 10240 B + reserve fits in 16 KiB.
        assert!(GpuAlgorithm::Cr.fits_shared(512, 4, &device));
        // f32, n = 1024: 5*1024*4 = 20480 B does not fit.
        assert!(!GpuAlgorithm::Pcr.fits_shared(1024, 4, &device));
        // The global-memory and coarse paths never stage in shared memory.
        assert!(GpuAlgorithm::CrGlobalOnly.fits_shared(1 << 20, 4, &device));
        assert!(GpuAlgorithm::ThomasPerThread.fits_shared(1 << 20, 4, &device));
    }

    #[test]
    fn f64_solves_work_end_to_end() {
        let launcher = Launcher::gtx280();
        let b: SystemBatch<f64> =
            Generator::new(5).batch(Workload::DiagonallyDominant, 64, 2).unwrap();
        // f64 doubles the shared footprint: 5*64*2 words is still fine.
        for alg in [GpuAlgorithm::Cr, GpuAlgorithm::Pcr, GpuAlgorithm::CrPcr { m: 16 }] {
            let r = solve_batch(&launcher, alg, &b).unwrap();
            let res = batch_residual(&b, &r.solutions).unwrap();
            assert!(res.max_l2 < 1e-12, "{}: {}", alg.name(), res.max_l2);
        }
    }
}
