//! Batched storage for "a large number of small tridiagonal systems".
//!
//! Mirrors the paper's layout exactly (§4): *"The total storage consists of
//! five arrays: three for the matrix diagonals, one for the right-hand side,
//! and one for the solution vector. These five arrays store the data of all
//! systems continuously, with the data of the first system stored at the
//! beginning of the arrays, followed by the second system, ..."*

use crate::error::{Result, TridiagError};
use crate::real::Real;
use crate::system::{SystemRef, TridiagonalSystem};

/// A batch of `count` systems, each of size `n`, stored contiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBatch<T: Real> {
    n: usize,
    count: usize,
    /// Sub-diagonals, length `n * count`.
    pub a: Vec<T>,
    /// Main diagonals, length `n * count`.
    pub b: Vec<T>,
    /// Super-diagonals, length `n * count`.
    pub c: Vec<T>,
    /// Right-hand sides, length `n * count`.
    pub d: Vec<T>,
}

impl<T: Real> SystemBatch<T> {
    /// Collects individual systems (all of size `n`) into batched storage.
    pub fn from_systems(systems: &[TridiagonalSystem<T>]) -> Result<Self> {
        Self::gather(systems)
    }

    /// [`SystemBatch::from_systems`] over borrowed systems, wherever they
    /// live: each system is copied once, straight into the batch arrays.
    pub fn gather<'a, S: Into<SystemRef<'a, T>>>(
        systems: impl IntoIterator<Item = S>,
    ) -> Result<Self>
    where
        T: 'a,
    {
        let mut systems = systems.into_iter().map(Into::into).peekable();
        let Some(n) = systems.peek().map(|s| s.n()) else {
            return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
        };
        let capacity = n * systems.size_hint().0;
        let mut batch = Self {
            n,
            count: 0,
            a: Vec::with_capacity(capacity),
            b: Vec::with_capacity(capacity),
            c: Vec::with_capacity(capacity),
            d: Vec::with_capacity(capacity),
        };
        for s in systems {
            if s.n() != n {
                return Err(TridiagError::DimensionMismatch {
                    what: "system size in batch",
                    expected: n,
                    got: s.n(),
                });
            }
            batch.a.extend_from_slice(s.a);
            batch.b.extend_from_slice(s.b);
            batch.c.extend_from_slice(s.c);
            batch.d.extend_from_slice(s.d);
            batch.count += 1;
        }
        Ok(batch)
    }

    /// Builds a batch by calling `make` once per system index.
    pub fn generate(
        count: usize,
        mut make: impl FnMut(usize) -> TridiagonalSystem<T>,
    ) -> Result<Self> {
        let systems: Vec<_> = (0..count).map(&mut make).collect();
        Self::from_systems(&systems)
    }

    /// System size (number of unknowns per system).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of systems in the batch.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total number of stored equations (`n * count`).
    #[inline]
    pub fn total_len(&self) -> usize {
        self.n * self.count
    }

    /// Bytes moved over PCIe for input (4 arrays) plus output (1 array),
    /// matching the paper's 5-array traffic model.
    #[inline]
    pub fn transfer_bytes(&self) -> usize {
        5 * self.total_len() * T::BYTES
    }

    /// Borrowed view of system `i`'s four diagonals.
    pub fn system_slices(&self, i: usize) -> (&[T], &[T], &[T], &[T]) {
        let r = self.range(i);
        (&self.a[r.clone()], &self.b[r.clone()], &self.c[r.clone()], &self.d[r])
    }

    /// Copies system `i` back out as an owned [`TridiagonalSystem`].
    pub fn system(&self, i: usize) -> TridiagonalSystem<T> {
        let (a, b, c, d) = self.system_slices(i);
        TridiagonalSystem { a: a.to_vec(), b: b.to_vec(), c: c.to_vec(), d: d.to_vec() }
    }

    /// Index range of system `i` inside the flat arrays.
    #[inline]
    pub fn range(&self, i: usize) -> core::ops::Range<usize> {
        assert!(i < self.count, "system index {i} out of range ({})", self.count);
        let start = i * self.n;
        start..start + self.n
    }
}

/// Flat solution storage matching a [`SystemBatch`] (the paper's fifth array).
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionBatch<T: Real> {
    n: usize,
    count: usize,
    /// Solutions, length `n * count`, system-major.
    pub x: Vec<T>,
}

impl<T: Real> SolutionBatch<T> {
    /// Zero-initialized solutions for `batch`.
    pub fn zeros_like(batch: &SystemBatch<T>) -> Self {
        Self { n: batch.n(), count: batch.count(), x: vec![T::ZERO; batch.total_len()] }
    }

    /// Wraps an existing flat solution vector.
    pub fn from_flat(n: usize, count: usize, x: Vec<T>) -> Result<Self> {
        if x.len() != n * count {
            return Err(TridiagError::DimensionMismatch {
                what: "solution batch",
                expected: n * count,
                got: x.len(),
            });
        }
        Ok(Self { n, count, x })
    }

    /// System size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of systems.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Solution of system `i`.
    pub fn system(&self, i: usize) -> &[T] {
        assert!(i < self.count);
        &self.x[i * self.n..(i + 1) * self.n]
    }

    /// Mutable solution of system `i`.
    pub fn system_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.count);
        &mut self.x[i * self.n..(i + 1) * self.n]
    }

    /// First non-finite entry if any — overflow detection for RD (§5.4).
    pub fn first_non_finite(&self) -> Option<usize> {
        self.x.iter().position(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_batch() -> SystemBatch<f32> {
        SystemBatch::generate(3, |i| {
            TridiagonalSystem::toeplitz(4, -1.0, 4.0 + i as f32, -1.0, 1.0).unwrap()
        })
        .unwrap()
    }

    #[test]
    fn layout_is_system_major() {
        let batch = small_batch();
        assert_eq!(batch.n(), 4);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.total_len(), 12);
        // System 1's main diagonal lives at offsets 4..8 and equals 5.0.
        assert!(batch.b[4..8].iter().all(|&v| v == 5.0));
        let (_, b1, _, _) = batch.system_slices(1);
        assert!(b1.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn round_trip_system() {
        let batch = small_batch();
        let s = batch.system(2);
        assert_eq!(s.b, vec![6.0; 4]);
        assert_eq!(s.a[0], 0.0);
        assert_eq!(s.c[3], 0.0);
    }

    #[test]
    fn rejects_mixed_sizes() {
        let s1 = TridiagonalSystem::<f32>::toeplitz(4, -1.0, 4.0, -1.0, 1.0).unwrap();
        let s2 = TridiagonalSystem::<f32>::toeplitz(8, -1.0, 4.0, -1.0, 1.0).unwrap();
        assert!(SystemBatch::from_systems(&[s1, s2]).is_err());
    }

    #[test]
    fn rejects_empty_batch() {
        assert!(SystemBatch::<f32>::from_systems(&[]).is_err());
    }

    #[test]
    fn transfer_bytes_counts_five_arrays() {
        let batch = small_batch();
        assert_eq!(batch.transfer_bytes(), 5 * 12 * 4);
    }

    #[test]
    fn solutions_slice_per_system() {
        let batch = small_batch();
        let mut sol = SolutionBatch::zeros_like(&batch);
        sol.system_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sol.system(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sol.system(0), &[0.0; 4]);
        assert_eq!(sol.first_non_finite(), None);
    }

    #[test]
    fn non_finite_detection() {
        let batch = small_batch();
        let mut sol = SolutionBatch::zeros_like(&batch);
        sol.x[5] = f32::INFINITY;
        assert_eq!(sol.first_non_finite(), Some(5));
    }

    #[test]
    fn from_flat_validates_len() {
        assert!(SolutionBatch::from_flat(4, 3, vec![0.0f32; 11]).is_err());
        assert!(SolutionBatch::from_flat(4, 3, vec![0.0f32; 12]).is_ok());
    }
}
