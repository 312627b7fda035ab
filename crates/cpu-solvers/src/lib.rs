//! # cpu-solvers
//!
//! CPU baselines of the paper's evaluation plus sequential reference
//! implementations of the parallel algorithms:
//!
//! * [`thomas`] — the Thomas algorithm (the "GE" baseline);
//! * [`gep`] — Gaussian elimination with partial pivoting (LAPACK `sgtsv`
//!   equivalent, the "GEP" baseline);
//! * [`mt`] — the multi-threaded batch solver (the "MT" baseline, OpenMP in
//!   the paper);
//! * [`lockstep`] — Thomas and the warm back-substitution over groups of
//!   eight same-size systems at a time, bit-identical to the scalar
//!   solvers (the engine of the service's CPU flushes);
//! * [`mod@reference`] — plain sequential CR / PCR / RD used to validate the
//!   GPU kernels' algebra independently of the simulator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod block_thomas;
pub mod condest;
pub mod cyclic;
pub mod factored;
pub mod gep;
pub mod lockstep;
pub mod mt;
pub mod partition;
pub mod pivot_bounds;
pub mod reference;
pub mod thomas;

pub use batch::{solve_batch_seq, Gep, SystemSolver, Thomas};
pub use condest::{condition_estimate, inverse_norm1_estimate, norm1};
pub use factored::ThomasFactors;
pub use lockstep::solve_batch_soa;
pub use mt::{MtSolver, Schedule};
pub use pivot_bounds::{positive_pivot_floor, thomas_pivot_floor};
pub use reference::rd::RdVariant;
