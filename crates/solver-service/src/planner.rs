//! Planner: autotune once per size class, cache the winning plan.
//!
//! The paper's headline result is that *which* solver wins depends on the
//! system size and the hardware (Figures 6–8: CR+PCR at 512, PCR at small
//! sizes, global-memory CR beyond shared capacity). A serving layer cannot
//! re-derive that choice per request, so the planner runs the tournament
//! **once** per `(n, element width, device)` key — every candidate from
//! [`GpuAlgorithm::paper_five`] that fits shared memory, the global-memory
//! fallback, and the CPU baseline — and caches the winner in a
//! [`PlanCache`]. Subsequent flushes of the same size class dispatch in
//! O(1) with a cache hit.
//!
//! Scoring follows the repo's figure methodology: GPU candidates are
//! scored by the simulator's cost model (`TimingReport::total_ms`, i.e.
//! kernel + PCIe transfer), the CPU baseline by measured wall-clock of the
//! lockstep Thomas sweep the dispatcher serves CPU flushes with, on the
//! same probe batch (on a simulated clock, by the per-row model). Non-
//! power-of-two sizes, which no GPU kernel accepts, route straight to the
//! CPU.

use gpu_sim::{Clock, Launcher};
use gpu_solvers::{solve_batch, GpuAlgorithm};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tridiag_core::{Generator, Real, SystemBatch, Workload};

/// CPU execution engines the planner may pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEngine {
    /// The Thomas algorithm (the paper's "GE" baseline), run in lockstep
    /// groups of eight systems, with per-system GEP repair on
    /// verification failure.
    Thomas,
    /// Gaussian elimination with partial pivoting everywhere — chosen only
    /// as an explicit override, never by the tournament (it is strictly
    /// slower than Thomas on well-conditioned systems).
    Gep,
}

/// Where a batch is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One of the simulated GPU kernels.
    Gpu(GpuAlgorithm),
    /// A CPU baseline.
    Cpu(CpuEngine),
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Engine::Gpu(alg) => write!(f, "{alg}"),
            Engine::Cpu(CpuEngine::Thomas) => f.write_str("cpu-thomas"),
            Engine::Cpu(CpuEngine::Gep) => f.write_str("cpu-gep"),
        }
    }
}

/// The cached outcome of one autotune tournament.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The winning engine.
    pub engine: Engine,
    /// The winner's score: milliseconds to serve the probe batch
    /// (simulated for GPU engines, wall-clock for CPU).
    pub predicted_ms: f64,
    /// How many systems the probe batch contained.
    pub probe_count: usize,
}

/// Cache key: system size, element width, device.
type PlanKey = (usize, usize, &'static str);

/// Concurrent plan cache with hit/tune accounting.
///
/// Tuning is serialized per cache (a `Mutex` around the map): if two
/// workers miss on the same key simultaneously, the second waits and then
/// hits — each key is tuned at most once. Alongside the winning [`Plan`]
/// the cache keeps the full tournament **ranking** (every admissible
/// engine, best score first) so the dispatcher's retry loop can exclude a
/// faulting engine and fall to the next-best candidate without re-tuning.
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, (Plan, Vec<Engine>)>>,
    /// Keys whose first GPU flush has (started) running under the kernel
    /// sanitizer — see [`PlanCache::begin_sanitize`].
    sanitized: Mutex<HashSet<PlanKey>>,
    hits: AtomicU64,
    tunes: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            plans: Mutex::new(HashMap::new()),
            sanitized: Mutex::new(HashSet::new()),
            hits: AtomicU64::new(0),
            tunes: AtomicU64::new(0),
        }
    }

    /// Claims the one-time sanitize token for the `(n, width, device)` size
    /// class: returns `true` exactly once per key. The caller that wins the
    /// token runs that flush with the kernel sanitizer recording, so every
    /// size class the service ever serves on the GPU gets checked for
    /// races/hazards/OOB at least once on real traffic.
    pub fn begin_sanitize<T: Real>(&self, launcher: &Launcher, n: usize) -> bool {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        self.sanitized.lock().unwrap_or_else(|p| p.into_inner()).insert(key)
    }

    /// Plans served from cache without re-tuning.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Autotune tournaments actually run.
    pub fn tunes(&self) -> u64 {
        self.tunes.load(Ordering::Relaxed)
    }

    /// Returns the plan for size `n` with element type `T`, running the
    /// tournament on first use of the key.
    pub fn plan_for<T: Real>(&self, launcher: &Launcher, n: usize, probe_count: usize) -> Plan {
        self.plan_for_on::<T>(launcher, n, probe_count, &Clock::real())
    }

    /// [`PlanCache::plan_for`] with the tournament timed on `clock` — a
    /// simulated clock scores the CPU baseline with the deterministic cost
    /// model instead of the wall, so replayed tournaments pick the same
    /// winner bit-for-bit.
    pub fn plan_for_on<T: Real>(
        &self,
        launcher: &Launcher,
        n: usize,
        probe_count: usize,
        clock: &Clock,
    ) -> Plan {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((plan, _)) = plans.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *plan;
        }
        let (plan, ranking) = autotune_ranked_on::<T>(launcher, n, probe_count, clock);
        self.tunes.fetch_add(1, Ordering::Relaxed);
        plans.insert(key, (plan, ranking));
        plan
    }

    /// The full tournament ranking (best engine first) for size `n`,
    /// tuning on first use exactly like [`PlanCache::plan_for`]. The
    /// dispatcher walks this list when an engine keeps faulting.
    pub fn ranking_for<T: Real>(
        &self,
        launcher: &Launcher,
        n: usize,
        probe_count: usize,
    ) -> Vec<Engine> {
        self.ranking_for_on::<T>(launcher, n, probe_count, &Clock::real())
    }

    /// [`PlanCache::ranking_for`] timed on `clock` (see
    /// [`PlanCache::plan_for_on`] for why replay needs this).
    pub fn ranking_for_on<T: Real>(
        &self,
        launcher: &Launcher,
        n: usize,
        probe_count: usize,
        clock: &Clock,
    ) -> Vec<Engine> {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, ranking)) = plans.get(&key) {
            return ranking.clone();
        }
        let (plan, ranking) = autotune_ranked_on::<T>(launcher, n, probe_count, clock);
        self.tunes.fetch_add(1, Ordering::Relaxed);
        plans.insert(key, (plan, ranking.clone()));
        ranking
    }

    /// Read-only peek, never tunes. For tests and introspection.
    pub fn peek<T: Real>(&self, launcher: &Launcher, n: usize) -> Option<Plan> {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        self.plans.lock().unwrap_or_else(|p| p.into_inner()).get(&key).map(|(p, _)| *p)
    }
}

/// Runs the candidate tournament for size `n` and returns the winner.
///
/// Candidates:
/// * the paper's five (with §5.3 switch points), each admitted only when
///   [`GpuAlgorithm::fits_shared`] says its footprint fits the device;
/// * [`GpuAlgorithm::CrGlobalOnly`] — always admitted for power-of-two
///   sizes (the paper's oversized-system fallback);
/// * the sequential CPU Thomas baseline, timed wall-clock.
///
/// Candidates that error on the probe (e.g. shared-memory overflow the
/// admission rule missed) or return non-finite solutions (RD overflow on
/// dominant systems, Figure 18) are disqualified rather than crowned.
pub fn autotune<T: Real>(launcher: &Launcher, n: usize, probe_count: usize) -> Plan {
    autotune_ranked::<T>(launcher, n, probe_count).0
}

/// [`autotune`], but also returning the **full ranking**: every candidate
/// that survived the tournament (no probe error, finite solutions), sorted
/// by score ascending. The CPU Thomas baseline is always present, so the
/// ranking is never empty and always ends in an engine that cannot
/// device-fault — the dispatcher's retry ladder terminates.
pub fn autotune_ranked<T: Real>(
    launcher: &Launcher,
    n: usize,
    probe_count: usize,
) -> (Plan, Vec<Engine>) {
    autotune_ranked_on::<T>(launcher, n, probe_count, &Clock::real())
}

/// [`autotune_ranked`] with the CPU baseline timed on `clock`: wall-clock
/// on a real clock (production behaviour), the deterministic per-row cost
/// model on a simulated one — a replayed tournament must score every
/// candidate identically to the captured run, and the wall never repeats.
/// GPU candidates are scored by the simulator's cost model either way,
/// which is already deterministic.
pub fn autotune_ranked_on<T: Real>(
    launcher: &Launcher,
    n: usize,
    probe_count: usize,
    clock: &Clock,
) -> (Plan, Vec<Engine>) {
    let probe_count = probe_count.max(1);
    if n < 2 || !n.is_power_of_two() {
        // No GPU kernel accepts this size; measure the CPU so the score is
        // still meaningful.
        let probe = cpu_probe::<T>(n, probe_count);
        let ms = probe.as_ref().map(|b| time_cpu_thomas(b, clock)).unwrap_or(f64::INFINITY);
        let plan = Plan { engine: Engine::Cpu(CpuEngine::Thomas), predicted_ms: ms, probe_count };
        return (plan, vec![plan.engine]);
    }

    let probe: SystemBatch<T> = Generator::new(0x5EED_CAFE)
        .batch(Workload::DiagonallyDominant, n, probe_count)
        .expect("probe batch generation cannot fail for n >= 2");

    let mut candidates: Vec<GpuAlgorithm> = GpuAlgorithm::paper_five(n)
        .into_iter()
        .filter(|alg| alg.validate(n).is_ok())
        .filter(|alg| alg.fits_shared(n, T::BYTES, &launcher.device))
        .collect();
    candidates.push(GpuAlgorithm::CrGlobalOnly);

    let mut scored: Vec<(Engine, f64)> = Vec::with_capacity(candidates.len() + 1);
    for alg in candidates {
        let Ok(report) = solve_batch(launcher, alg, &probe) else { continue };
        if report.solutions.first_non_finite().is_some() {
            continue; // overflowed on the probe — unfit to serve
        }
        scored.push((Engine::Gpu(alg), report.timing.total_ms()));
    }
    scored.push((Engine::Cpu(CpuEngine::Thomas), time_cpu_thomas(&probe, clock)));
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal));

    let (engine, predicted_ms) = scored[0];
    let ranking = scored.into_iter().map(|(e, _)| e).collect();
    (Plan { engine, predicted_ms, probe_count }, ranking)
}

fn cpu_probe<T: Real>(n: usize, count: usize) -> Option<SystemBatch<T>> {
    if n < 1 {
        return None;
    }
    SystemBatch::generate(count, |i| {
        Generator::new(0x5EED_CAFE ^ i as u64).system(Workload::DiagonallyDominant, n)
    })
    .ok()
}

/// Milliseconds for one Thomas pass over `batch`: on a real clock the
/// wall-clock time of the lockstep sweep the dispatcher serves CPU
/// flushes with ([`cpu_solvers::solve_batch_soa`], median of three runs,
/// to shrug off scheduler noise); on a simulated one the deterministic
/// per-row model, matching the dispatcher's simulated CPU engine time.
fn time_cpu_thomas<T: Real>(batch: &SystemBatch<T>, clock: &Clock) -> f64 {
    if clock.is_sim() {
        return crate::dispatch::sim_cpu_ns(CpuEngine::Thomas, batch.n(), batch.count()) as f64
            / 1e6;
    }
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let start = Instant::now();
        let out = cpu_solvers::solve_batch_soa(batch);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        *s = if out.is_ok() { elapsed } else { f64::INFINITY };
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_display_is_canonical() {
        assert_eq!(Engine::Gpu(GpuAlgorithm::CrPcr { m: 256 }).to_string(), "cr+pcr@256");
        assert_eq!(Engine::Cpu(CpuEngine::Thomas).to_string(), "cpu-thomas");
        assert_eq!(Engine::Cpu(CpuEngine::Gep).to_string(), "cpu-gep");
    }

    #[test]
    fn oversized_systems_avoid_shared_memory_kernels() {
        // f32, n = 4096: 5*4096*4 = 80 KiB ≫ 16 KiB shared — only the
        // global-memory path (or the CPU) may win.
        let launcher = Launcher::gtx280();
        let plan = autotune::<f32>(&launcher, 4096, 4);
        match plan.engine {
            Engine::Gpu(alg) => assert_eq!(alg, GpuAlgorithm::CrGlobalOnly),
            Engine::Cpu(_) => {}
        }
    }

    #[test]
    fn non_pow2_routes_to_cpu() {
        let launcher = Launcher::gtx280();
        let plan = autotune::<f32>(&launcher, 100, 4);
        assert_eq!(plan.engine, Engine::Cpu(CpuEngine::Thomas));
    }

    #[test]
    fn cache_tunes_once_then_hits() {
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        assert!(cache.peek::<f32>(&launcher, 128).is_none());
        let first = cache.plan_for::<f32>(&launcher, 128, 4);
        assert_eq!(cache.tunes(), 1);
        assert_eq!(cache.hits(), 0);
        let second = cache.plan_for::<f32>(&launcher, 128, 4);
        assert_eq!(cache.tunes(), 1, "second lookup must not re-tune");
        assert_eq!(cache.hits(), 1);
        assert_eq!(first, second);
        assert_eq!(cache.peek::<f32>(&launcher, 128), Some(first));
    }

    #[test]
    fn cache_keys_on_element_width() {
        // f64 doubles the shared footprint, so f32 and f64 plans are
        // separate cache entries.
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        cache.plan_for::<f32>(&launcher, 256, 4);
        cache.plan_for::<f64>(&launcher, 256, 4);
        assert_eq!(cache.tunes(), 2);
    }

    #[test]
    fn winner_fits_the_device_and_has_a_finite_score() {
        // Whatever wins the tournament (the CPU/GPU cut depends on host
        // wall-clock, which this test must not assume), the plan is always
        // executable: a GPU winner fits the device, the score is finite.
        let launcher = Launcher::gtx280();
        for n in [64usize, 512, 4096] {
            let plan = autotune::<f32>(&launcher, n, 8);
            assert!(plan.predicted_ms.is_finite(), "n={n}");
            if let Engine::Gpu(alg) = plan.engine {
                assert!(alg.fits_shared(n, 4, &launcher.device), "n={n} {alg}");
            }
        }
    }

    #[test]
    fn ranking_is_sorted_always_contains_cpu_and_shares_the_tune() {
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        let ranking = cache.ranking_for::<f32>(&launcher, 256, 4);
        assert_eq!(cache.tunes(), 1);
        assert!(!ranking.is_empty());
        // The winner heads the list and matches the cached plan.
        let plan = cache.plan_for::<f32>(&launcher, 256, 4);
        assert_eq!(cache.tunes(), 1, "ranking and plan share one tournament");
        assert_eq!(ranking[0], plan.engine);
        // The ladder always terminates in an engine that cannot fault.
        assert!(
            ranking.contains(&Engine::Cpu(CpuEngine::Thomas)),
            "CPU baseline must always be ranked: {ranking:?}"
        );
        // Several GPU candidates fit at n = 256, so retries have somewhere
        // to go before the CPU.
        assert!(ranking.iter().filter(|e| matches!(e, Engine::Gpu(_))).count() >= 2, "{ranking:?}");
    }

    #[test]
    fn non_pow2_ranking_is_cpu_only() {
        let launcher = Launcher::gtx280();
        let (plan, ranking) = autotune_ranked::<f32>(&launcher, 100, 4);
        assert_eq!(plan.engine, Engine::Cpu(CpuEngine::Thomas));
        assert_eq!(ranking, vec![Engine::Cpu(CpuEngine::Thomas)]);
    }

    #[test]
    fn among_gpu_candidates_shared_kernels_beat_global_only_at_512() {
        // Deterministic simulator-only check of the paper's ~3x claim:
        // the tournament would never pick CrGlobalOnly while a shared
        // kernel fits, because its simulated time is strictly worse.
        let launcher = Launcher::gtx280();
        let probe: SystemBatch<f32> =
            Generator::new(0x5EED_CAFE).batch(Workload::DiagonallyDominant, 512, 8).unwrap();
        let shared = solve_batch(&launcher, GpuAlgorithm::CrPcr { m: 256 }, &probe).unwrap();
        let global = solve_batch(&launcher, GpuAlgorithm::CrGlobalOnly, &probe).unwrap();
        assert!(
            shared.timing.total_ms() < global.timing.total_ms(),
            "{} vs {}",
            shared.timing.total_ms(),
            global.timing.total_ms()
        );
    }
}
