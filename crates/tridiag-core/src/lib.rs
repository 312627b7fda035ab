//! # tridiag-core
//!
//! Problem-domain foundation for the reproduction of *Fast Tridiagonal
//! Solvers on the GPU* (Zhang, Cohen & Owens, PPoPP 2010):
//!
//! * [`TridiagonalSystem`] / [`SystemBatch`] — single and batched systems,
//!   stored in the paper's five-contiguous-arrays layout; a [`Matrix`]
//!   shared by many right-hand sides, and [`SystemRef`], the borrowed view
//!   of one system that the residual and the batch gather read;
//! * [`workload`] — the evaluation's matrix families (diagonally dominant,
//!   close-values-in-rows, Poisson stencil, random);
//! * [`residual`] — the `||Ax − d||` accuracy metrics of §5.4;
//! * [`complexity`] — the analytic cost model of Table 1;
//! * [`Real`] — `f32`/`f64` abstraction (the paper uses `f32`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod block;
pub mod certificate;
pub mod complexity;
pub mod error;
pub mod identity;
pub mod periodic;
pub mod real;
pub mod residual;
pub mod system;
pub mod workload;

pub use batch::{SolutionBatch, SystemBatch};
pub use block::BlockTridiagonalSystem;
pub use certificate::NumericCertificate;
pub use complexity::{table1, Algorithm, ComplexityRow, ParseAlgorithmError};
pub use error::{require_pow2, Result, TridiagError};
pub use identity::{structure_tag, MatrixKey, StructureTag};
pub use periodic::PeriodicTridiagonalSystem;
pub use real::Real;
pub use system::{Matrix, SystemRef, TridiagonalSystem};
pub use workload::{dominant_batch, Generator, Workload};
