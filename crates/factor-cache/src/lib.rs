//! # factor-cache
//!
//! Bounded LRU cache of precomputed tridiagonal factorizations, keyed by
//! matrix identity ([`tridiag_core::MatrixKey`]): the serving tier's
//! answer to traffic that re-solves the *same* matrix with fresh
//! right-hand sides.
//!
//! Each entry holds the Thomas elimination coefficients
//! ([`cpu_solvers::ThomasFactors`] — `wk1` reciprocal pivots / `wk2`
//! swept super-diagonal), a pure function of `(a, b, c)`; consuming them
//! turns the `O(8n)` cold elimination+substitution into `O(5n)` pure
//! substitution (on the CPU sweep and the GPU warm kernel alike).
//!
//! Determinism contract: every operation's outcome (hit/miss, which
//! entry is evicted) is a pure function of the *sequence* of calls —
//! LRU order is a logical access counter, never wall-clock time — so the
//! trace-lab harness can replay warm traffic bit-identically.
//!
//! Safety contract: lookups are advisory. A cached artifact can be
//! stale only through a 64-bit key collision or memory corruption. On a
//! fully verified or sampled flush the service residual-verifies every
//! warm answer, repairing via GEP and [`FactorCache::invalidate`]-ing the
//! entry on failure, so there a bad entry degrades to a repaired miss.
//! On a flush whose certificate skips the residual only the NaN/Inf guard
//! runs, so a stale entry whose answers stay finite is served as it is.
//! ROADMAP items 1 (check every skipped answer, or stop skipping) and 2
//! (confirm every hit exactly) close that gap.

#![warn(missing_docs)]

use cpu_solvers::ThomasFactors;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tridiag_core::{MatrixKey, NumericCertificate, Real, Result};

/// Default entry capacity: generous for real traffic (a few live
/// operator matrices), small enough that a key-churning adversary stays
/// bounded at ~3n floats per entry.
pub const DEFAULT_CAPACITY: usize = 64;

/// One cached factorization: the Thomas coefficients of one matrix.
#[derive(Debug, Clone)]
pub struct FactorEntry<T: Real> {
    /// Identity of the factored matrix.
    pub key: MatrixKey,
    /// Thomas `wk1`/`wk2`/sub-diagonal coefficients.
    pub thomas: Arc<ThomasFactors<T>>,
}

impl<T: Real> FactorEntry<T> {
    /// Heap bytes of the entry's artifacts (eviction accounting).
    pub fn bytes(&self) -> usize {
        self.thomas.bytes()
    }
}

/// Cache counters; all monotonic. Snapshot via [`FactorCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries removed because a warm answer failed verification.
    pub invalidations: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Heap bytes of all live artifacts right now.
    pub resident_bytes: u64,
}

struct Slot<T: Real> {
    entry: FactorEntry<T>,
    last_used: u64,
}

struct Inner<T: Real> {
    slots: HashMap<MatrixKey, Slot<T>>,
    capacity: usize,
    access: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Bounded, deterministic LRU cache of factorizations for one element
/// width (the service holds one per `T`). Thread-safe; all decisions are
/// functions of the call sequence only.
pub struct FactorCache<T: Real> {
    inner: Mutex<Inner<T>>,
}

impl<T: Real> Default for FactorCache<T> {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl<T: Real> FactorCache<T> {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FactorCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                capacity: capacity.max(1),
                access: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks `key` up, refreshing its LRU stamp. Counts a hit or a miss.
    pub fn lookup(&self, key: &MatrixKey) -> Option<FactorEntry<T>> {
        let mut inner = self.lock();
        inner.access += 1;
        let stamp = inner.access;
        let found = inner.slots.get_mut(key).map(|slot| {
            slot.last_used = stamp;
            slot.entry.clone()
        });
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Factors `(a, b, c)` and inserts the artifacts under `key`,
    /// evicting the least-recently-used entry if the cache is full.
    /// Returns the fresh entry plus the fingerprints of evicted entries
    /// (for trace emission).
    ///
    /// # Errors
    /// Propagates a zero pivot from the Thomas elimination — singular
    /// matrices are never cached. A non-finite factorization (overflow)
    /// is likewise refused, as `InvalidConfig`.
    pub fn factor_and_insert(
        &self,
        key: MatrixKey,
        a: &[T],
        b: &[T],
        c: &[T],
    ) -> Result<(FactorEntry<T>, Vec<u64>)> {
        let thomas = ThomasFactors::factor(a, b, c)?;
        if !thomas.is_finite() {
            return Err(tridiag_core::TridiagError::InvalidConfig {
                what: "non-finite factorization refused by the factor cache",
            });
        }
        let entry = FactorEntry { key, thomas: Arc::new(thomas) };

        let mut inner = self.lock();
        inner.access += 1;
        let stamp = inner.access;
        let mut evicted = Vec::new();
        // Replacing an existing key is not an eviction.
        if !inner.slots.contains_key(&key) {
            while inner.slots.len() >= inner.capacity {
                // The minimum stamp is unique (the counter is strictly
                // increasing), so the victim is independent of HashMap
                // iteration order — the determinism contract.
                let victim = inner
                    .slots
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty: len >= capacity >= 1");
                inner.slots.remove(&victim);
                inner.evictions += 1;
                evicted.push(victim.fingerprint());
            }
        }
        inner.slots.insert(key, Slot { entry: entry.clone(), last_used: stamp });
        Ok((entry, evicted))
    }

    /// [`Self::factor_and_insert`] with the matrix's certificate, which
    /// the cache ignores: whether a warm flush may skip its residual
    /// verify is the certified catalog's per-flush decision alone.
    ///
    /// # Errors
    /// Same as [`Self::factor_and_insert`].
    pub fn factor_and_insert_with_certificate(
        &self,
        key: MatrixKey,
        a: &[T],
        b: &[T],
        c: &[T],
        _certificate: NumericCertificate,
    ) -> Result<(FactorEntry<T>, Vec<u64>)> {
        self.factor_and_insert(key, a, b, c)
    }

    /// Removes `key` after a failed warm verification. Returns whether an
    /// entry was actually dropped.
    pub fn invalidate(&self, key: &MatrixKey) -> bool {
        let mut inner = self.lock();
        let dropped = inner.slots.remove(key).is_some();
        if dropped {
            inner.invalidations += 1;
        }
        dropped
    }

    /// Current counters.
    pub fn stats(&self) -> FactorStats {
        let inner = self.lock();
        FactorStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.slots.len() as u64,
            resident_bytes: inner.slots.values().map(|s| s.entry.bytes() as u64).sum(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }
}

/// Width-erased pair of caches (one per [`Real`] implementation), so a
/// non-generic service config can carry a single handle and each typed
/// dispatch path can recover its own cache.
pub struct SharedFactorCache {
    caches: [Arc<dyn Any + Send + Sync>; 2],
}

impl std::fmt::Debug for SharedFactorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s32 = self.of::<f32>().stats();
        let s64 = self.of::<f64>().stats();
        f.debug_struct("SharedFactorCache").field("f32", &s32).field("f64", &s64).finish()
    }
}

impl Default for SharedFactorCache {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl SharedFactorCache {
    /// Creates both width caches with the same entry bound.
    pub fn new(capacity: usize) -> Self {
        SharedFactorCache {
            caches: [
                Arc::new(FactorCache::<f32>::new(capacity)),
                Arc::new(FactorCache::<f64>::new(capacity)),
            ],
        }
    }

    /// The cache for element type `T`.
    ///
    /// # Panics
    /// For a `Real` implementation other than `f32`/`f64` (none exist in
    /// this workspace).
    pub fn of<T: Real>(&self) -> Arc<FactorCache<T>> {
        self.caches
            .iter()
            .find_map(|c| Arc::clone(c).downcast::<FactorCache<T>>().ok())
            .expect("factor caches exist for f32 and f64 only")
    }

    /// Combined counters across both widths.
    pub fn stats(&self) -> FactorStats {
        let a = self.of::<f32>().stats();
        let b = self.of::<f64>().stats();
        FactorStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            evictions: a.evictions + b.evictions,
            invalidations: a.invalidations + b.invalidations,
            entries: a.entries + b.entries,
            resident_bytes: a.resident_bytes + b.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    fn system(seed: u64, n: usize) -> TridiagonalSystem<f64> {
        Generator::new(seed).system(Workload::DiagonallyDominant, n)
    }

    fn keyed(seed: u64, n: usize) -> (MatrixKey, TridiagonalSystem<f64>) {
        let s = system(seed, n);
        (MatrixKey::of_system(&s), s)
    }

    #[test]
    fn miss_insert_hit_round_trip() {
        let cache: FactorCache<f64> = FactorCache::new(4);
        let (key, s) = keyed(1, 64);
        assert!(cache.lookup(&key).is_none());
        let (entry, evicted) = cache.factor_and_insert(key, &s.a, &s.b, &s.c).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(entry.bytes(), entry.thomas.bytes());
        let hit = cache.lookup(&key).expect("warm");
        assert_eq!(hit.key, key);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!(st.resident_bytes > 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: FactorCache<f64> = FactorCache::new(2);
        let (k1, s1) = keyed(1, 32);
        let (k2, s2) = keyed(2, 32);
        let (k3, s3) = keyed(3, 32);
        cache.factor_and_insert(k1, &s1.a, &s1.b, &s1.c).unwrap();
        cache.factor_and_insert(k2, &s2.a, &s2.b, &s2.c).unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.lookup(&k1).is_some());
        let (_, evicted) = cache.factor_and_insert(k3, &s3.a, &s3.b, &s3.c).unwrap();
        assert_eq!(evicted, vec![k2.fingerprint()]);
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k2).is_none(), "k2 was evicted");
        assert!(cache.lookup(&k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_then_refactorization_round_trips() {
        let cache: FactorCache<f64> = FactorCache::new(1);
        let (k1, s1) = keyed(1, 16);
        let (k2, s2) = keyed(2, 16);
        let (first, _) = cache.factor_and_insert(k1, &s1.a, &s1.b, &s1.c).unwrap();
        cache.factor_and_insert(k2, &s2.a, &s2.b, &s2.c).unwrap();
        assert!(cache.lookup(&k1).is_none(), "displaced");
        let (again, evicted) = cache.factor_and_insert(k1, &s1.a, &s1.b, &s1.c).unwrap();
        assert_eq!(evicted, vec![k2.fingerprint()]);
        // Refactoring the same matrix reproduces identical coefficients.
        assert_eq!(first.thomas.as_ref(), again.thomas.as_ref());
    }

    #[test]
    fn invalidate_drops_the_entry() {
        let cache: FactorCache<f64> = FactorCache::new(4);
        let (key, s) = keyed(5, 32);
        cache.factor_and_insert(key, &s.a, &s.b, &s.c).unwrap();
        assert!(cache.invalidate(&key));
        assert!(!cache.invalidate(&key), "second invalidate is a no-op");
        assert!(cache.lookup(&key).is_none());
        let st = cache.stats();
        assert_eq!((st.invalidations, st.entries), (1, 0));
    }

    #[test]
    fn singular_matrices_are_never_cached() {
        let cache: FactorCache<f64> = FactorCache::new(4);
        let s = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let key = MatrixKey::of_system(&s);
        assert!(cache.factor_and_insert(key, &s.a, &s.b, &s.c).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_order_is_a_pure_function_of_the_call_sequence() {
        // Two caches fed the same sequence evict the same keys — the
        // harness determinism requirement.
        let run = || {
            let cache: FactorCache<f64> = FactorCache::new(3);
            let mut log = Vec::new();
            for seed in 1..=8u64 {
                let (k, s) = keyed(seed, 16);
                let (_, ev) = cache.factor_and_insert(k, &s.a, &s.b, &s.c).unwrap();
                log.extend(ev);
                if seed % 2 == 0 {
                    let (k1, _) = keyed(1, 16);
                    log.push(u64::from(cache.lookup(&k1).is_some()));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
