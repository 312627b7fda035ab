//! # gpu-solvers
//!
//! The paper's contribution: five tridiagonal solvers for batches of small
//! systems, implemented as kernels on the [`gpu_sim`] SIMT simulator —
//! cyclic reduction ([`CrKernel`]), parallel cyclic reduction
//! ([`PcrKernel`]), recursive doubling ([`RdKernel`]), and the hybrid
//! CR+PCR / CR+RD solvers ([`HybridKernel`]) that switch algorithms at an
//! intermediate system size. Ablation variants: the Figure 9 stride-one
//! timing kernel, the Göddeke–Strzodka bank-conflict-free CR (footnote 1),
//! and the global-memory-only fallback for oversized systems.
//!
//! Entry point: [`solve_batch`].
//!
//! ```
//! use gpu_sim::Launcher;
//! use gpu_solvers::{solve_batch, GpuAlgorithm};
//! use tridiag_core::{dominant_batch, residual::batch_residual};
//!
//! let batch = dominant_batch::<f32>(7, 64, 16); // 16 systems of 64 unknowns
//! let report = solve_batch(&Launcher::gtx280(), GpuAlgorithm::CrPcr { m: 32 }, &batch).unwrap();
//! let res = batch_residual(&batch, &report.solutions).unwrap();
//! assert!(res.max_l2 < 1e-3);
//! println!("simulated kernel time: {:.3} ms", report.timing.kernel_ms);
//! ```

#![warn(missing_docs)]

pub mod block_cr;
pub mod coarse;
pub mod common;
pub mod cr;
pub mod cr_variants;
pub mod dominance;
pub mod fixtures;
pub mod global_only;
pub mod hybrid;
pub mod partitioned;
pub mod pcr;
pub mod pcr_thomas;
pub mod periodic;
pub mod rd;
pub mod refine;
pub mod robust;
pub mod solver;
pub mod verify;
pub mod warm;

pub use block_cr::{solve_block_batch, BlockCrKernel, BlockSolveReport, BlockSystemHandles};
pub use coarse::{solve_batch_coarse, ThomasPerThreadKernel};
pub use common::SystemHandles;
pub use cr::CrKernel;
pub use cr_variants::{CrEvenOddKernel, CrStrideOneKernel};
pub use dominance::{cr_level_ratio_bound, levels_until_ratio};
pub use global_only::GlobalCrKernel;
pub use hybrid::{HybridKernel, InnerSolver};
pub use partitioned::{
    back_substitute, even_offsets, local_reduce, solve_interface, solve_partitioned,
    BackSubstKernel, InterfaceSystem, LocalPhase, LocalReduceKernel, PartitionedReport,
    PartitionedTiming, Span, Transport, MIN_CHUNK,
};
pub use pcr::PcrKernel;
pub use pcr_thomas::PcrThomasKernel;
pub use periodic::{solve_periodic_batch, PeriodicSolveReport};
pub use rd::{RdKernel, RdMode};
pub use refine::{solve_batch_refined, RefinedSolveReport};
pub use robust::{accept_or_repair, Acceptance, Producer, VerifyPolicy};
pub use solver::{solve_batch, GpuAlgorithm, GpuSolveReport, ParseGpuAlgorithmError};
pub use verify::{
    block_instance, fixture_instance, solver_instance, verify_family, VerifyInstance, FIXTURE_NAMES,
};
pub use warm::{solve_batch_warm, ThomasWarmKernel, WarmGpuReport};
