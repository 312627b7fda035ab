//! # numeric-verify
//!
//! Static numerical-safety certification for tridiagonal systems — the
//! numerics counterpart of `kernel-verify`'s memory-safety proofs.
//!
//! The paper's solvers "do not include pivoting" (§5.4), which is why the
//! serving tier pays an O(n) residual verify plus a GEP-repair net on
//! every answer. But for the diagonally dominant / SPD / M-matrix
//! families that dominate real traffic, pivoting-free elimination is
//! *provably* backward-stable: Thomas pivots are bounded below by the
//! dominance margin, and each cyclic-reduction level preserves (indeed
//! squares, Heller 1976) the dominance property. This crate turns that
//! theory into a once-per-[`MatrixKey`] static analysis:
//!
//! 1. [`analyze`] scans the matrix in O(n) — dominance/sign/symmetry
//!    checks with an explicit floating-point slack argument — and then
//!    **machine-checks** the pivot-propagation lemma by running the
//!    Thomas recurrence and every CR reduction level in `f64`;
//! 2. a forward-error bound `κ₁·ε·n` is derived from the Hager
//!    1-norm condition estimator (`cpu_solvers::condest`);
//! 3. the result is a [`NumericCertificate`] memoized in a
//!    [`CertifiedCatalog`], which the dispatch layer consults per flush.
//!    The catalog analyzes a key on its second flush (a key that never
//!    repeats is never analyzed); from then on certified traffic skips
//!    the per-answer residual verify, downgrading
//!    to deterministic 1-in-K *sampled* verification, while uncertified
//!    traffic keeps the full verify + repair path.
//!
//! A caught corruption on a certified key [`CertifiedCatalog::revoke`]s
//! the certificate permanently, restoring full verification for that key.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod catalog;

pub use analyze::{analyze, Analysis};
pub use catalog::{CatalogStats, CertifiedCatalog, Observation, VerifyDecision};

#[doc(no_inline)]
pub use tridiag_core::{MatrixKey, NumericCertificate};
