//! The certified catalog: memoized analysis verdicts plus the per-key
//! sampled-verification policy the dispatch layer consults on each flush.
//!
//! ## The sampled-verification contract
//!
//! * A key is analyzed **exactly once, on its second flush**; the verdict
//!   is memoized under its [`MatrixKey`]. A certificate only pays off from
//!   a key's second flush on, so the first flush merely records the key in
//!   a bounded seen-once set and is served with `Full` verification at the
//!   base threshold: a key that never repeats never pays for an analysis.
//! * The seen-once set holds at most [`SEEN_ONCE_CAPACITY`] keys, in two
//!   generations of half that size: when the newer one fills, the older
//!   one is dropped. A key is remembered across at least
//!   `SEEN_ONCE_CAPACITY / 2` first sightings of other keys; a key whose
//!   flushes are always further apart than that may never be analyzed,
//!   and then pays `Full` verification on every flush. The policy stays a
//!   pure function of the call sequence.
//! * The analysis runs outside the catalog lock. Two racing calls may both
//!   analyze a key, but only the one that inserts the verdict reports
//!   `newly_analyzed`, so each key is issued one certificate.
//! * Certified keys downgrade the per-answer residual verify to 1-in-K
//!   sampling. The key's first flush — verified in full before any
//!   analysis — is sample 0 of the schedule, so the flush that issues the
//!   certificate already skips, and every K-th flush after the first is
//!   `Sampled`: verified, K−1 skips, verified, … Sampling is a
//!   deterministic function of the per-key flush counter — no randomness
//!   — so fault-injection replay still catches bit-flips at exactly the
//!   same flushes every run.
//! * `Skip`ped answers keep the O(n) NaN/Inf guard and report the
//!   certificate's a-priori forward-error bound in place of a measured
//!   residual.
//! * Any corruption caught on a verified flush of a certified key
//!   [`CertifiedCatalog::revoke`]s the certificate permanently: the key
//!   returns to `Full` verification for the life of the process. A
//!   corruption caught on a key's first flush makes the catalog forget the
//!   sighting, so a skip window only ever opens right after a flush whose
//!   verify passed.

use crate::analyze::analyze;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use tridiag_core::{MatrixKey, NumericCertificate, Real, SystemRef};

/// How much verification one flush of one key must pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyDecision {
    /// Full per-answer residual verify + repair (first sight, uncertified
    /// or revoked).
    Full,
    /// This flush is a deterministic 1-in-K sample: full verify, with a
    /// condition-informed acceptance threshold.
    Sampled,
    /// Residual verify skipped; only the NaN/Inf guard runs.
    Skip,
}

/// What the catalog tells dispatch about one flush of one key.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The key's certificate (`Uncertified` until analyzed).
    pub certificate: NumericCertificate,
    /// `true` exactly when this call inserted the (once-per-key)
    /// analysis — the trigger for a `CertIssued` trace event.
    pub newly_analyzed: bool,
    /// Condition-estimator invocations charged to this call (0 unless
    /// `newly_analyzed`; a racing call's discarded analysis is not
    /// charged).
    pub condest_calls: u64,
    /// Verification policy for this flush.
    pub decision: VerifyDecision,
    /// A-priori forward-error bound `κ₁·ε·n` (`+∞` when uncertified).
    pub forward_error_bound: f64,
    /// Hager condition estimate (`+∞` when unavailable).
    pub kappa1: f64,
}

impl Observation {
    /// A key's first flush: nothing is known about it yet.
    fn first_sight() -> Self {
        Observation {
            certificate: NumericCertificate::Uncertified,
            newly_analyzed: false,
            condest_calls: 0,
            decision: VerifyDecision::Full,
            forward_error_bound: f64::INFINITY,
            kappa1: f64::INFINITY,
        }
    }
}

#[derive(Debug)]
struct Entry {
    certificate: NumericCertificate,
    forward_error_bound: f64,
    kappa1: f64,
    flushes: u64,
    revoked: bool,
}

impl Entry {
    /// Advances the key's flush counter and decides this flush's policy.
    fn observe(
        &mut self,
        sample_period: u64,
        newly_analyzed: bool,
        condest_calls: u64,
    ) -> Observation {
        let decision = if self.revoked || !self.certificate.is_certified() {
            VerifyDecision::Full
        } else {
            self.flushes += 1;
            if (self.flushes - 1).is_multiple_of(sample_period) {
                VerifyDecision::Sampled
            } else {
                VerifyDecision::Skip
            }
        };
        Observation {
            certificate: self.live_certificate(),
            newly_analyzed,
            condest_calls,
            decision,
            forward_error_bound: self.forward_error_bound,
            kappa1: self.kappa1,
        }
    }

    /// The certificate, reading revoked keys as `Uncertified`.
    fn live_certificate(&self) -> NumericCertificate {
        if self.revoked {
            NumericCertificate::Uncertified
        } else {
            self.certificate
        }
    }
}

/// Aggregate catalog counters (for metrics and gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Keys analyzed (certified or not).
    pub analyzed: u64,
    /// Keys holding a live (non-revoked) certificate.
    pub certified: u64,
    /// Certificates revoked after a caught corruption.
    pub revoked: u64,
    /// Keys seen once and not yet analyzed (at most
    /// [`SEEN_ONCE_CAPACITY`]).
    pub seen_once: u64,
}

/// Keys seen once and not yet analyzed, in two generations: when
/// `current` holds half of [`SEEN_ONCE_CAPACITY`], it becomes `previous`
/// and the old `previous` is dropped.
#[derive(Debug, Default)]
struct SeenOnce {
    current: HashSet<MatrixKey>,
    previous: HashSet<MatrixKey>,
}

impl SeenOnce {
    const GENERATION: usize = SEEN_ONCE_CAPACITY / 2;

    fn contains(&self, key: &MatrixKey) -> bool {
        self.current.contains(key) || self.previous.contains(key)
    }

    fn insert(&mut self, key: MatrixKey) {
        if self.current.len() >= Self::GENERATION {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        self.current.insert(key);
    }

    fn remove(&mut self, key: &MatrixKey) {
        self.current.remove(key);
        self.previous.remove(key);
    }

    fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<MatrixKey, Entry>,
    seen_once: SeenOnce,
}

/// Thread-safe memoized certificate store + sampling policy.
///
/// Mirrors `kernel_verify::VerifiedCatalog`: shared via `Arc` between the
/// service configuration and every dispatch worker.
#[derive(Debug)]
pub struct CertifiedCatalog {
    inner: Mutex<Inner>,
    sample_period: u64,
}

/// Default 1-in-K sampling period for certified keys.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 8;

/// Bound on the seen-once set. Key-churning traffic holds at most this
/// many keys; a key is forgotten after between `SEEN_ONCE_CAPACITY / 2`
/// and `SEEN_ONCE_CAPACITY` first sightings of other keys, so one whose
/// flushes are always further apart than that is never analyzed.
pub const SEEN_ONCE_CAPACITY: usize = 4096;

impl Default for CertifiedCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl CertifiedCatalog {
    /// Catalog with the default 1-in-8 sampling period.
    pub fn new() -> Self {
        Self::with_sample_period(DEFAULT_SAMPLE_PERIOD as usize)
    }

    /// Catalog sampling 1-in-`k` flushes of certified keys (`k` is
    /// clamped to at least 1; `k == 1` means every flush is verified).
    pub fn with_sample_period(k: usize) -> Self {
        CertifiedCatalog { inner: Mutex::new(Inner::default()), sample_period: (k as u64).max(1) }
    }

    /// The 1-in-K period this catalog samples at.
    pub fn sample_period(&self) -> u64 {
        self.sample_period
    }

    /// Records one flush of `key` and returns the verification policy for
    /// it. The first flush only marks the key as seen (`Full`); the second
    /// analyzes the system — outside the lock — and memoizes the verdict;
    /// later flushes advance the key's deterministic flush counter.
    pub fn observe<'a, T: Real>(
        &self,
        key: MatrixKey,
        system: impl Into<SystemRef<'a, T>>,
    ) -> Observation {
        {
            let mut inner = self.inner.lock();
            if let Some(entry) = inner.entries.get_mut(&key) {
                return entry.observe(self.sample_period, false, 0);
            }
            if !inner.seen_once.contains(&key) {
                inner.seen_once.insert(key);
                return Observation::first_sight();
            }
        }
        let analysis = analyze(system);
        let mut inner = self.inner.lock();
        inner.seen_once.remove(&key);
        let mut newly_analyzed = false;
        let entry = inner.entries.entry(key).or_insert_with(|| {
            newly_analyzed = true;
            Entry {
                certificate: analysis.certificate,
                forward_error_bound: analysis.forward_error_bound,
                kappa1: analysis.kappa1,
                // The first-sight flush, verified in full, is sample 0.
                flushes: 1,
                revoked: false,
            }
        });
        let condest_calls = if newly_analyzed { analysis.condest_calls } else { 0 };
        entry.observe(self.sample_period, newly_analyzed, condest_calls)
    }

    /// The memoized certificate for `key`, if it has been analyzed
    /// (revoked keys read as `Uncertified`).
    pub fn certificate(&self, key: &MatrixKey) -> Option<NumericCertificate> {
        self.inner.lock().entries.get(key).map(Entry::live_certificate)
    }

    /// Permanently revokes `key`'s certificate after a caught
    /// corruption. Returns `true` when a live certificate was actually
    /// revoked (idempotent thereafter). A key that has only been seen once
    /// is forgotten instead (returning `false`): its next flush is a first
    /// sight again, so its skip window can only open after a flush whose
    /// verify passed.
    pub fn revoke(&self, key: &MatrixKey) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(key) {
            Some(e) if !e.revoked && e.certificate.is_certified() => {
                e.revoked = true;
                true
            }
            Some(_) => false,
            None => {
                inner.seen_once.remove(key);
                false
            }
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CatalogStats {
        let inner = self.inner.lock();
        let mut stats = CatalogStats {
            analyzed: inner.entries.len() as u64,
            seen_once: inner.seen_once.len() as u64,
            ..Default::default()
        };
        for e in inner.entries.values() {
            if e.revoked {
                stats.revoked += 1;
            } else if e.certificate.is_certified() {
                stats.certified += 1;
            }
        }
        stats
    }

    /// Number of analyzed keys.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// `true` when no key has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, StructureTag, TridiagonalSystem, Workload};

    fn dominant(seed: u64, n: usize) -> (MatrixKey, TridiagonalSystem<f32>) {
        let s: TridiagonalSystem<f32> =
            Generator::new(seed).system(Workload::DiagonallyDominant, n);
        (MatrixKey::of_system(&s), s)
    }

    /// A distinct key per `i` (the catalog never re-derives keys, so
    /// first-sight bookkeeping can be driven without building matrices).
    fn synthetic_key(i: u64) -> MatrixKey {
        MatrixKey { n: 64, element_bytes: 4, tag: StructureTag::General, hash: i }
    }

    #[test]
    fn analysis_happens_exactly_once_on_the_second_flush() {
        let catalog = CertifiedCatalog::new();
        let (key, s) = dominant(1, 64);
        // First flush: seen, not analyzed, fully verified.
        let first = catalog.observe(key, &s);
        assert!(!first.newly_analyzed);
        assert_eq!(first.condest_calls, 0);
        assert_eq!(first.decision, VerifyDecision::Full);
        assert_eq!(first.certificate, NumericCertificate::Uncertified);
        assert!(catalog.is_empty() && catalog.certificate(&key).is_none());
        // Second flush: the once-per-key analysis runs and certifies.
        let second = catalog.observe(key, &s);
        assert!(second.newly_analyzed);
        assert_eq!(second.condest_calls, 1);
        assert!(second.certificate.is_certified());
        let third = catalog.observe(key, &s);
        assert!(!third.newly_analyzed);
        assert_eq!(third.condest_calls, 0);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.stats().seen_once, 0, "an analyzed key leaves the seen-once set");
    }

    #[test]
    fn sampling_is_full_first_then_one_in_k() {
        // The first flush is verified in full before any analysis and
        // counts as the schedule's first sample, so the certificate's own
        // flush already skips: verified, K−1 skips, verified, …
        let catalog = CertifiedCatalog::with_sample_period(4);
        let (key, s) = dominant(2, 64);
        let decisions: Vec<VerifyDecision> =
            (0..10).map(|_| catalog.observe(key, &s).decision).collect();
        use VerifyDecision::*;
        assert_eq!(
            decisions,
            vec![Full, Skip, Skip, Skip, Sampled, Skip, Skip, Skip, Sampled, Skip]
        );
    }

    #[test]
    fn one_shot_keys_are_never_analyzed_and_always_fully_verified() {
        let catalog = CertifiedCatalog::with_sample_period(1);
        for seed in 0..32 {
            let (key, s) = dominant(100 + seed, 32);
            let obs = catalog.observe(key, &s);
            assert_eq!(obs.decision, VerifyDecision::Full);
            assert!(!obs.newly_analyzed && obs.condest_calls == 0);
        }
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.seen_once), (0, 32));
    }

    #[test]
    fn seen_once_set_stays_bounded_across_100k_distinct_keys() {
        let catalog = CertifiedCatalog::new();
        let (_, s) = dominant(6, 64);
        for i in 0..100_000 {
            assert_eq!(catalog.observe(synthetic_key(i), &s).decision, VerifyDecision::Full);
            assert!(catalog.stats().seen_once as usize <= SEEN_ONCE_CAPACITY);
        }
        assert!(catalog.is_empty(), "no one-shot key may be analyzed");
    }

    #[test]
    fn a_key_is_remembered_across_half_the_capacity_of_other_keys() {
        let (key, s) = dominant(7, 64);
        let half = (SEEN_ONCE_CAPACITY / 2) as u64;
        // Wherever the key's first sight lands in a generation, it
        // survives half the capacity of other first sightings.
        for offset in [0, 1, half - 1, half, half + 7] {
            let catalog = CertifiedCatalog::new();
            for i in 0..offset {
                catalog.observe(synthetic_key(i), &s);
            }
            assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Full);
            for i in 0..half {
                catalog.observe(synthetic_key(offset + i), &s);
            }
            let second = catalog.observe(key, &s);
            assert!(second.newly_analyzed, "forgotten at offset {offset}");
            assert_eq!(second.decision, VerifyDecision::Skip);
        }
    }

    #[test]
    fn a_key_repeating_beyond_the_capacity_is_never_analyzed() {
        // One repeating key between bursts of one-shot keys longer than
        // the seen-once bound: it is forgotten before every return, so it
        // is never analyzed and pays full verification on every flush.
        let catalog = CertifiedCatalog::new();
        let (key, s) = dominant(8, 64);
        let mut next = 0u64;
        for _ in 0..4 {
            let obs = catalog.observe(key, &s);
            assert_eq!(obs.decision, VerifyDecision::Full);
            assert!(!obs.newly_analyzed);
            for _ in 0..SEEN_ONCE_CAPACITY {
                catalog.observe(synthetic_key(next), &s);
                next += 1;
            }
        }
        assert!(catalog.is_empty());
    }

    #[test]
    fn corruption_on_a_first_sight_flush_forgets_the_key() {
        let catalog = CertifiedCatalog::new();
        let (key, s) = dominant(9, 64);
        assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Full);
        assert!(!catalog.revoke(&key), "nothing certified to revoke");
        assert_eq!(catalog.stats().seen_once, 0);
        // Seen afresh: fully verified again, analyzed only on the flush
        // after that one.
        let again = catalog.observe(key, &s);
        assert!(!again.newly_analyzed);
        assert_eq!(again.decision, VerifyDecision::Full);
        let third = catalog.observe(key, &s);
        assert!(third.newly_analyzed && third.certificate.is_certified());
        assert_eq!(third.decision, VerifyDecision::Skip);
    }

    #[test]
    fn racing_second_flushes_issue_one_certificate_per_key() {
        use std::sync::Barrier;
        let catalog = CertifiedCatalog::new();
        let pool: Vec<(MatrixKey, TridiagonalSystem<f32>)> =
            (0..16).map(|seed| dominant(200 + seed, 128)).collect();
        for (key, s) in &pool {
            catalog.observe(*key, s);
        }
        // Both threads deliver every key's second (and later) flushes at
        // once; however the analyses interleave, one call per key inserts.
        let barrier = Barrier::new(2);
        let issued: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.iter()
                            .map(|(key, s)| {
                                let obs = catalog.observe(*key, s);
                                assert!(obs.certificate.is_certified());
                                assert!(!obs.newly_analyzed || obs.condest_calls == 1);
                                u64::from(obs.newly_analyzed)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
        });
        for k in 0..pool.len() {
            assert_eq!(issued[0][k] + issued[1][k], 1, "key {k} issued twice or never");
        }
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified, stats.seen_once), (16, 16, 0));
    }

    #[test]
    fn uncertified_keys_always_pay_full_verification() {
        let catalog = CertifiedCatalog::new();
        let s: TridiagonalSystem<f32> = Generator::new(3).system(Workload::RandomGeneral, 64);
        let key = MatrixKey::of_system(&s);
        for _ in 0..5 {
            let obs = catalog.observe(key, &s);
            if !obs.certificate.is_certified() {
                assert_eq!(obs.decision, VerifyDecision::Full);
                assert!(obs.forward_error_bound.is_infinite());
            }
        }
    }

    #[test]
    fn revocation_is_permanent_and_idempotent() {
        let catalog = CertifiedCatalog::with_sample_period(4);
        let (key, s) = dominant(4, 64);
        // Certificates are issued on the second flush: revoke after it.
        assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Full);
        assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Skip);
        assert!(catalog.revoke(&key));
        assert!(!catalog.revoke(&key), "second revoke must be a no-op");
        for _ in 0..6 {
            let obs = catalog.observe(key, &s);
            assert_eq!(obs.decision, VerifyDecision::Full);
            assert_eq!(obs.certificate, NumericCertificate::Uncertified);
        }
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified, stats.revoked), (1, 0, 1));
    }

    #[test]
    fn sample_period_one_verifies_every_flush() {
        let catalog = CertifiedCatalog::with_sample_period(1);
        let (key, s) = dominant(5, 32);
        // First sight is Full; every certified flush after it is sampled.
        assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Full);
        for _ in 0..4 {
            assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Sampled);
        }
    }
}
