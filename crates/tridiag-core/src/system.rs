//! A single tridiagonal linear system `A x = d`.
//!
//! The matrix is stored as three diagonals following the paper's convention:
//!
//! ```text
//!         | b[0] c[0]                      |
//!         | a[1] b[1] c[1]                 |
//!     A = |      a[2] b[2] c[2]            |
//!         |           ...  ...   c[n-2]    |
//!         |                a[n-1] b[n-1]   |
//! ```
//!
//! `a[0]` and `c[n-1]` are stored but must be zero; every constructor and
//! generator enforces this so kernels can rely on it.
//!
//! A [`Matrix`] is the coefficient part alone, which many right-hand
//! sides can share, and a [`SystemRef`] borrows the four diagonals of one
//! system wherever they live: in a [`TridiagonalSystem`], or in a shared
//! matrix plus a separately held right-hand side.

use crate::error::{Result, TridiagError};
use crate::real::Real;

/// The three diagonals of a tridiagonal matrix, without a right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Real> {
    /// Sub-diagonal, `a[0] == 0`.
    pub a: Vec<T>,
    /// Main diagonal.
    pub b: Vec<T>,
    /// Super-diagonal, `c[n-1] == 0`.
    pub c: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Builds a matrix from its diagonals, validating shapes and the
    /// boundary-zero convention.
    pub fn new(a: Vec<T>, b: Vec<T>, c: Vec<T>) -> Result<Self> {
        let n = b.len();
        if n == 0 {
            return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
        }
        for (what, len) in [("a", a.len()), ("c", c.len())] {
            if len != n {
                return Err(TridiagError::DimensionMismatch { what, expected: n, got: len });
            }
        }
        if a[0] != T::ZERO {
            return Err(TridiagError::InvalidConfig { what: "a[0] must be zero" });
        }
        if c[n - 1] != T::ZERO {
            return Err(TridiagError::InvalidConfig { what: "c[n-1] must be zero" });
        }
        Ok(Self { a, b, c })
    }

    /// Number of unknowns.
    #[inline]
    pub fn n(&self) -> usize {
        self.b.len()
    }

    /// Checks that `d` is a right-hand side of this matrix's size.
    pub fn check_rhs(&self, d: &[T]) -> Result<()> {
        if d.len() != self.n() {
            return Err(TridiagError::DimensionMismatch {
                what: "d",
                expected: self.n(),
                got: d.len(),
            });
        }
        Ok(())
    }

    /// The system `A x = d` for this matrix, borrowed.
    #[inline]
    pub fn with_rhs<'a>(&'a self, d: &'a [T]) -> SystemRef<'a, T> {
        SystemRef { a: &self.a, b: &self.b, c: &self.c, d }
    }
}

/// One tridiagonal system, borrowed: the four diagonals as slices of
/// equal length, with the same conventions as [`TridiagonalSystem`].
#[derive(Debug, Clone, Copy)]
pub struct SystemRef<'a, T: Real> {
    /// Sub-diagonal, `a[0] == 0`.
    pub a: &'a [T],
    /// Main diagonal.
    pub b: &'a [T],
    /// Super-diagonal, `c[n-1] == 0`.
    pub c: &'a [T],
    /// Right-hand side.
    pub d: &'a [T],
}

impl<T: Real> SystemRef<'_, T> {
    /// Number of unknowns.
    #[inline]
    pub fn n(&self) -> usize {
        self.b.len()
    }
}

impl<'a, T: Real> From<&'a TridiagonalSystem<T>> for SystemRef<'a, T> {
    #[inline]
    fn from(system: &'a TridiagonalSystem<T>) -> Self {
        SystemRef { a: &system.a, b: &system.b, c: &system.c, d: &system.d }
    }
}

/// One tridiagonal system of `n` equations.
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalSystem<T: Real> {
    /// Sub-diagonal, `a[0] == 0`.
    pub a: Vec<T>,
    /// Main diagonal.
    pub b: Vec<T>,
    /// Super-diagonal, `c[n-1] == 0`.
    pub c: Vec<T>,
    /// Right-hand side.
    pub d: Vec<T>,
}

impl<T: Real> TridiagonalSystem<T> {
    /// Builds a system from the four diagonals, validating shapes and the
    /// boundary-zero convention.
    pub fn new(a: Vec<T>, b: Vec<T>, c: Vec<T>, d: Vec<T>) -> Result<Self> {
        let matrix = Matrix::new(a, b, c)?;
        matrix.check_rhs(&d)?;
        let Matrix { a, b, c } = matrix;
        Ok(Self { a, b, c, d })
    }

    /// Number of unknowns.
    #[inline]
    pub fn n(&self) -> usize {
        self.b.len()
    }

    /// Splits the system into its matrix and its right-hand side, moving
    /// the vectors without copying them.
    pub fn into_parts(self) -> (Matrix<T>, Vec<T>) {
        let Self { a, b, c, d } = self;
        (Matrix { a, b, c }, d)
    }

    /// Constant-coefficient (Toeplitz) system with the given stencil and
    /// right-hand side values. `a[0]`/`c[n-1]` are zeroed per convention.
    pub fn toeplitz(n: usize, a: T, b: T, c: T, d: T) -> Result<Self> {
        if n == 0 {
            return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
        }
        let mut av = vec![a; n];
        let mut cv = vec![c; n];
        av[0] = T::ZERO;
        cv[n - 1] = T::ZERO;
        Self::new(av, vec![b; n], cv, vec![d; n])
    }

    /// Computes `A x` (used by residual checks and to manufacture systems
    /// with known solutions).
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        let n = self.n();
        if x.len() != n {
            return Err(TridiagError::DimensionMismatch { what: "x", expected: n, got: x.len() });
        }
        let mut y = vec![T::ZERO; n];
        for i in 0..n {
            let mut v = self.b[i] * x[i];
            if i > 0 {
                v += self.a[i] * x[i - 1];
            }
            if i + 1 < n {
                v += self.c[i] * x[i + 1];
            }
            y[i] = v;
        }
        Ok(y)
    }

    /// Replaces the right-hand side with `A x_exact`, so that `x_exact` is
    /// the exact solution of the returned system.
    pub fn with_exact_solution(mut self, x_exact: &[T]) -> Result<Self> {
        self.d = self.matvec(x_exact)?;
        Ok(self)
    }

    /// `true` if every row is strictly diagonally dominant
    /// (`|b_i| > |a_i| + |c_i|`), the stability condition the paper cites
    /// for pivoting-free CR [Lambiotte & Voigt].
    pub fn is_diagonally_dominant(&self) -> bool {
        (0..self.n()).all(|i| self.b[i].abs() > self.a[i].abs() + self.c[i].abs())
    }

    /// Dense `n x n` representation — only for small-`n` tests and debugging.
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let n = self.n();
        let mut m = vec![vec![T::ZERO; n]; n];
        for i in 0..n {
            m[i][i] = self.b[i];
            if i > 0 {
                m[i][i - 1] = self.a[i];
            }
            if i + 1 < n {
                m[i][i + 1] = self.c[i];
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> TridiagonalSystem<f64> {
        TridiagonalSystem::new(
            vec![0.0, 1.0, 1.0, 1.0],
            vec![4.0, 4.0, 4.0, 4.0],
            vec![1.0, 1.0, 1.0, 0.0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let err =
            TridiagonalSystem::new(vec![0.0f32], vec![1.0, 2.0], vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(matches!(err, Err(TridiagError::DimensionMismatch { what: "a", .. })));
    }

    #[test]
    fn new_validates_boundary_zeros() {
        let err = TridiagonalSystem::new(
            vec![1.0f32, 1.0],
            vec![4.0, 4.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        );
        assert!(err.is_err());
        let err = TridiagonalSystem::new(
            vec![0.0f32, 1.0],
            vec![4.0, 4.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
        );
        assert!(err.is_err());
    }

    #[test]
    fn a_matrix_and_its_rhs_view_the_same_system() {
        let s = sys();
        let view = SystemRef::from(&s);
        let (matrix, d) = s.clone().into_parts();
        assert_eq!(matrix, Matrix::new(s.a.clone(), s.b.clone(), s.c.clone()).unwrap());
        let rebuilt = matrix.with_rhs(&d);
        assert_eq!((rebuilt.a, rebuilt.b, rebuilt.c, rebuilt.d), (view.a, view.b, view.c, view.d));
        assert_eq!(rebuilt.n(), 4);
        assert!(matches!(
            matrix.check_rhs(&[1.0; 3]),
            Err(TridiagError::DimensionMismatch { what: "d", expected: 4, got: 3 })
        ));
        assert!(Matrix::new(vec![1.0f32, 1.0], vec![4.0, 4.0], vec![1.0, 0.0]).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(TridiagonalSystem::<f32>::new(vec![], vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let s = sys();
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let y = s.matvec(&x).unwrap();
        let dense = s.to_dense();
        for i in 0..4 {
            let expect: f64 = (0..4).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_rejects_wrong_len() {
        assert!(sys().matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn with_exact_solution_round_trips() {
        let x = vec![2.0, -1.0, 0.0, 5.0];
        let s = sys().with_exact_solution(&x).unwrap();
        assert_eq!(s.d, s.matvec(&x).unwrap());
    }

    #[test]
    fn diagonal_dominance() {
        assert!(sys().is_diagonally_dominant());
        let weak =
            TridiagonalSystem::new(vec![0.0, 2.0], vec![2.0, 2.0], vec![2.0, 0.0], vec![1.0, 1.0])
                .unwrap();
        assert!(!weak.is_diagonally_dominant());
    }

    #[test]
    fn toeplitz_builds() {
        let s = TridiagonalSystem::<f32>::toeplitz(8, -1.0, 2.0, -1.0, 1.0).unwrap();
        assert_eq!(s.n(), 8);
        assert_eq!(s.a[0], 0.0);
        assert_eq!(s.c[7], 0.0);
        assert_eq!(s.a[3], -1.0);
    }
}
