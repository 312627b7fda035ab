//! Matrix identity: content hashing and symbolic structure tags.
//!
//! The serving tier's factorization cache needs a
//! cheap, deterministic answer to "have we seen this matrix before?".
//! Production traffic is dominated by repeated solves against the *same*
//! left-hand side — ADI sweeps, compact finite differences, spectral
//! Poisson — so the identity of a matrix is worth computing once per
//! request and caching factorizations against.
//!
//! Two layers:
//!
//! * [`StructureTag`] — a symbolic classification (Toeplitz,
//!   near-Toeplitz with boundary rows, periodic, uniform Poisson) found
//!   by a single O(n) scan. Structured matrices are keyed by their tag
//!   plus the handful of defining constants, so two clients that build
//!   the same Toeplitz operator from scratch unify without hashing 3n
//!   floats twice.
//! * a content hash (FNV-1a over the exact bit patterns) as the general
//!   fallback, so *any* repeated matrix unifies even when it has no
//!   recognizable structure.
//!
//! Keys are advisory: FNV-1a is not collision-resistant, and a 64-bit
//! collision aliases two different matrices, so the factor cache and the
//! certificate catalog apply one matrix's factors and certificate to the
//! other. What catches the result depends on the flush's verify policy:
//!
//! * a fully verified or sampled flush residual-verifies every answer, so
//!   there a collision degrades to a GEP-repaired answer and an
//!   invalidated cache entry;
//! * a flush whose certificate licenses skipping the residual keeps only
//!   the NaN/Inf guard, so a collision on a certified key can serve a
//!   finite wrong answer.
//!
//! ROADMAP item 1 (check every skipped answer, or stop skipping) and
//! item 2 (confirm every hit by an exact comparison of the coefficients)
//! close that gap.

use crate::real::Real;
use crate::system::TridiagonalSystem;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Symbolic structure classification of a tridiagonal matrix, detected by
/// one pass over `(a, b, c)`. Comparisons are exact (bitwise): the tags
/// unify structurally *identical* matrices, never merely similar ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureTag {
    /// No recognized structure; identity falls back to the content hash.
    General,
    /// Constant diagonals: `a[i] = α`, `b[i] = β`, `c[i] = γ` everywhere
    /// (boundary zeros of `a[0]`/`c[n-1]` excepted).
    Toeplitz,
    /// Constant *interior* diagonals with modified first and/or last rows
    /// (the boundary-condition shape of compact finite differences).
    NearToeplitz,
    /// Constant diagonals with wraparound corner entries (`a[0]` couples
    /// row 0 to row n-1, `c[n-1]` couples back) — a circulant operator.
    Periodic,
    /// The uniform Poisson stencil `[α, -2α, α]` (any scaling `α`), the
    /// single most common matrix in the example workloads.
    UniformPoisson,
}

impl StructureTag {
    /// Short machine-readable name (used in metrics and trace labels).
    pub fn name(self) -> &'static str {
        match self {
            StructureTag::General => "general",
            StructureTag::Toeplitz => "toeplitz",
            StructureTag::NearToeplitz => "near-toeplitz",
            StructureTag::Periodic => "periodic",
            StructureTag::UniformPoisson => "uniform-poisson",
        }
    }

    /// Stable discriminant mixed into structured-key hashes.
    fn discriminant(self) -> u64 {
        match self {
            StructureTag::General => 0,
            StructureTag::Toeplitz => 1,
            StructureTag::NearToeplitz => 2,
            StructureTag::Periodic => 3,
            StructureTag::UniformPoisson => 4,
        }
    }
}

/// The identity of a tridiagonal left-hand side: size, element width,
/// structure tag, and a 64-bit content digest. Two systems with equal
/// keys are (up to hash collision — see the module docs) the same matrix,
/// so a factorization computed for one serves the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    /// System size.
    pub n: usize,
    /// Element width in bytes (`f32` and `f64` never unify).
    pub element_bytes: usize,
    /// Detected symbolic structure.
    pub tag: StructureTag,
    /// FNV-1a digest: over the defining constants for structured tags,
    /// over every element's bit pattern for [`StructureTag::General`].
    pub hash: u64,
}

impl MatrixKey {
    /// Computes the key of the matrix `(a, b, c)`. The slices must be the
    /// same length; `d` plays no part in matrix identity.
    pub fn of<T: Real>(a: &[T], b: &[T], c: &[T]) -> MatrixKey {
        let n = b.len();
        debug_assert!(a.len() == n && c.len() == n, "diagonal length mismatch");
        let tag = structure_tag(a, b, c);
        let mut h = FNV_OFFSET;
        h = fnv_u64(h, n as u64);
        h = fnv_u64(h, T::BYTES as u64);
        h = fnv_u64(h, tag.discriminant());
        match tag {
            StructureTag::General => {
                for v in a.iter().chain(b).chain(c) {
                    h = fnv_u64(h, v.to_f64().to_bits());
                }
            }
            StructureTag::Toeplitz | StructureTag::UniformPoisson => {
                // Interior constants fully determine the matrix.
                h = fnv_u64(h, interior_or(a, 1).to_f64().to_bits());
                h = fnv_u64(h, b[0].to_f64().to_bits());
                h = fnv_u64(h, c[0].to_f64().to_bits());
            }
            StructureTag::Periodic => {
                h = fnv_u64(h, a[0].to_f64().to_bits());
                h = fnv_u64(h, b[0].to_f64().to_bits());
                h = fnv_u64(h, c[0].to_f64().to_bits());
            }
            StructureTag::NearToeplitz => {
                // Interior constants plus both boundary rows.
                h = fnv_u64(h, interior_or(a, 1).to_f64().to_bits());
                h = fnv_u64(h, interior_or(b, 1).to_f64().to_bits());
                h = fnv_u64(h, interior_or(c, 1).to_f64().to_bits());
                for v in [b[0], c[0], a[n - 1], b[n - 1]] {
                    h = fnv_u64(h, v.to_f64().to_bits());
                }
            }
        }
        MatrixKey { n, element_bytes: T::BYTES, tag, hash: h }
    }

    /// Key of a [`TridiagonalSystem`]'s left-hand side.
    pub fn of_system<T: Real>(system: &TridiagonalSystem<T>) -> MatrixKey {
        MatrixKey::of(&system.a, &system.b, &system.c)
    }

    /// Folds the whole key into one `u64` for compact trace events and
    /// bucket grouping (0 is reserved for "no key").
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.hash;
        h = fnv_u64(h, self.n as u64);
        h = fnv_u64(h, self.element_bytes as u64);
        h.max(1)
    }
}

/// One FNV-1a step over the eight bytes of `v`.
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// First interior element of a diagonal (index `from`), or the first
/// element for systems too small to have an interior.
fn interior_or<T: Real>(diag: &[T], from: usize) -> T {
    *diag.get(from).unwrap_or(&diag[0])
}

/// Classifies `(a, b, c)` with one scan. See [`StructureTag`] for the
/// recognized shapes; anything else is [`StructureTag::General`].
pub fn structure_tag<T: Real>(a: &[T], b: &[T], c: &[T]) -> StructureTag {
    let n = b.len();
    if n < 3 {
        return StructureTag::General;
    }
    // Representative interior constants (row 1..n-1 is interior for b; the
    // sub-diagonal's first real entry is a[1], the super-diagonal's last
    // is c[n-2]).
    let ai = a[1];
    let bi = b[1];
    let ci = c[1];
    let interior_constant = (1..n - 1).all(|i| a[i] == ai && b[i] == bi && c[i] == ci)
        && a[n - 1] == ai
        && b[0] == bi
        && b[n - 1] == bi
        && c[0] == ci;
    let wraps = a[0] != T::ZERO || c[n - 1] != T::ZERO;
    if wraps {
        // Circulant: every row identical including the corner couplings.
        let constant = (0..n).all(|i| a[i] == ai && b[i] == bi && c[i] == ci);
        return if constant { StructureTag::Periodic } else { StructureTag::General };
    }
    if interior_constant && c[n - 1] == T::ZERO {
        // Fully Toeplitz (boundary zeros aside): check the Poisson shape.
        if ai == ci && ai != T::ZERO && bi == -(ai + ai) {
            return StructureTag::UniformPoisson;
        }
        return StructureTag::Toeplitz;
    }
    // Interior constant but boundary rows modified?
    let interior_only = (2..n - 1).all(|i| a[i] == ai && b[i] == bi && c[i] == ci);
    if interior_only && n > 3 {
        return StructureTag::NearToeplitz;
    }
    StructureTag::General
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(n: usize, scale: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut a = vec![-scale; n];
        let mut c = vec![-scale; n];
        let b = vec![2.0 * scale; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        (a, b, c)
    }

    #[test]
    fn poisson_is_tagged_uniform() {
        let (a, b, c) = poisson(64, 1.0);
        assert_eq!(structure_tag(&a, &b, &c), StructureTag::UniformPoisson);
        let (a, b, c) = poisson(64, 0.25);
        assert_eq!(structure_tag(&a, &b, &c), StructureTag::UniformPoisson);
    }

    #[test]
    fn toeplitz_and_near_toeplitz_are_distinguished() {
        let n = 32;
        let mut a = vec![-1.0f32; n];
        let b = vec![4.0f32; n];
        let mut c = vec![-2.0f32; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        assert_eq!(structure_tag(&a, &b, &c), StructureTag::Toeplitz);
        // Modified boundary rows (e.g. Dirichlet closure) downgrade to
        // near-Toeplitz, not general.
        let mut b2 = b.clone();
        b2[0] = 1.0;
        b2[n - 1] = 1.0;
        let mut c2 = c.clone();
        c2[0] = 0.0;
        assert_eq!(structure_tag(&a, &b2, &c2), StructureTag::NearToeplitz);
    }

    #[test]
    fn periodic_wraparound_is_tagged() {
        let n = 16;
        let a = vec![-1.0f64; n];
        let b = vec![3.0f64; n];
        let c = vec![-1.0f64; n];
        assert_eq!(structure_tag(&a, &b, &c), StructureTag::Periodic);
        // A lone nonzero corner on an otherwise varying matrix is general.
        let mut b2 = b.clone();
        b2[3] = 9.0;
        assert_eq!(structure_tag(&a, &b2, &c), StructureTag::General);
    }

    #[test]
    fn random_matrices_are_general_and_keys_differ() {
        let g = |seed: u64, i: usize| {
            let mut z = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) + 1.0
        };
        let n = 48;
        let mut a: Vec<f64> = (0..n).map(|i| g(1, i)).collect();
        let b: Vec<f64> = (0..n).map(|i| g(2, i) + 4.0).collect();
        let mut c: Vec<f64> = (0..n).map(|i| g(3, i)).collect();
        a[0] = 0.0;
        c[n - 1] = 0.0;
        assert_eq!(structure_tag(&a, &b, &c), StructureTag::General);
        let k1 = MatrixKey::of(&a, &b, &c);
        // A one-element perturbation must change the key.
        let mut b2 = b.clone();
        b2[17] += 1e-9;
        let k2 = MatrixKey::of(&a, &b2, &c);
        assert_ne!(k1, k2);
        assert_eq!(k1, MatrixKey::of(&a, &b, &c), "keys are deterministic");
    }

    #[test]
    fn same_structure_unifies_across_constructions() {
        let (a1, b1, c1) = poisson(128, 2.0);
        let (a2, b2, c2) = poisson(128, 2.0);
        assert_eq!(MatrixKey::of(&a1, &b1, &c1), MatrixKey::of(&a2, &b2, &c2));
        // Different scaling must not unify.
        let (a3, b3, c3) = poisson(128, 4.0);
        assert_ne!(MatrixKey::of(&a1, &b1, &c1), MatrixKey::of(&a3, &b3, &c3));
        // Same values, different width must not unify.
        let (af, bf, cf) = {
            let (a, b, c) = poisson(128, 2.0);
            (
                a.iter().map(|v| *v as f32).collect::<Vec<_>>(),
                b.iter().map(|v| *v as f32).collect::<Vec<_>>(),
                c.iter().map(|v| *v as f32).collect::<Vec<_>>(),
            )
        };
        assert_ne!(
            MatrixKey::of(&af, &bf, &cf).fingerprint(),
            MatrixKey::of(&a1, &b1, &c1).fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_never_zero() {
        let (a, b, c) = poisson(8, 1.0);
        assert_ne!(MatrixKey::of(&a, &b, &c).fingerprint(), 0);
    }
}
