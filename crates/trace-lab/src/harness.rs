//! The deterministic lab harness: the solver service's decision pipeline
//! — admission, bucket batching, planning, dispatch, verify-and-repair,
//! breakers — driven from **one thread** on a **simulated clock**.
//!
//! The threaded [`solver_service::SolverService`] under a sim clock is
//! de-flaked but not reproducible: OS scheduling still reorders events.
//! This harness removes the last nondeterminism source by being the only
//! thread: it runs the scenario's arrivals through
//! [`solver_service::drive`], which merges them with linger deadlines in
//! tick order under fixed tie-break rules and serves each flush
//! synchronously on one launcher, and the clock only moves where the
//! driver (or `serve_flush`'s modeled engine time) moves it. The resulting
//! event stream — values *and* timestamps — is a pure function of the
//! [`Scenario`], which is what makes bit-identical replay possible (the
//! invariant DESIGN.md §10 states precisely).

use crate::record::RecordingSink;
use crate::scenario::Scenario;
use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, FaultConfig, FaultPlan, Launcher, Tick};
use gpu_solvers::GpuAlgorithm;
use numeric_verify::CertifiedCatalog;
use solver_service::{
    drive, serve_flush, Arrival, BreakerConfig, BucketTable, CircuitBreakers, DeviceCtx,
    DispatchConfig, Engine, FlushedBatch, PlanCache, ServiceMetrics, TraceEvent, TraceHandle,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::{Generator, MatrixKey, TridiagonalSystem, Workload};

/// What one harness run measured, alongside the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Requests admitted and served to completion.
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub rejected: u64,
    /// Per-served-request virtual latency (submit → fulfilled), ns,
    /// in submission order.
    pub latencies_ns: Vec<u64>,
    /// Answers whose residual, recomputed against the system sent, is
    /// non-finite or at least the scorer's bound (must stay 0).
    pub wrong: u64,
    /// Systems the verify step re-solved with GEP.
    pub repairs: u64,
    /// The virtual tick the run finished at (the simulated makespan).
    pub final_tick: Tick,
}

/// One completed harness run: the captured decision stream plus stats.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Every service decision, in emission order.
    pub events: Vec<TraceEvent>,
    /// Aggregate measurements.
    pub stats: RunStats,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `scenario` to completion and returns the decision stream + stats.
///
/// Two calls with the same scenario return identical [`RunOutput`]s,
/// bit for bit — the property the replay gate enforces.
pub fn run(scenario: &Scenario) -> RunOutput {
    let clock = Clock::sim();
    let sink = Arc::new(RecordingSink::new());
    let trace = TraceHandle::to(sink.clone());

    let fault_cfg = FaultConfig::chaos(
        scenario.seed,
        scenario.launch_fault_ppm as f64 / 1e6,
        scenario.bit_flip_ppm as f64 / 1e6,
    );
    let launcher = Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(fault_cfg)));
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone())
        .with_trace(trace.clone());
    let metrics = ServiceMetrics::new();
    let cfg = DispatchConfig {
        min_gpu_batch: scenario.min_gpu_batch.max(1) as usize,
        pin_engine: (scenario.pin_cr_pcr_m > 0)
            .then_some(Engine::Gpu(GpuAlgorithm::CrPcr { m: scenario.pin_cr_pcr_m as usize })),
        // The sanitizer is its own CI gate; lab runs skip its overhead.
        sanitize_first_flush: false,
        clock: clock.clone(),
        trace: trace.clone(),
        factor_cache: (scenario.matrix_pool > 0)
            .then(|| Arc::new(SharedFactorCache::new(scenario.matrix_pool.max(1) as usize * 8))),
        certified: (scenario.certify > 0)
            .then(|| Arc::new(CertifiedCatalog::with_sample_period(scenario.certify as usize))),
        ..DispatchConfig::default()
    };

    let mut generator = Generator::new(scenario.seed);
    let mut size_rng = scenario.seed ^ 0x5A1E_D065;
    // Pooled matrix templates, keyed `(n, slot)`. Populated lazily but
    // deterministically: template contents are a pure function of
    // `(seed, n, slot)`, independent of arrival order.
    let mut pool = BTreeMap::new();
    let next_arrival = |_| {
        let n = scenario.sizes[(splitmix64(&mut size_rng) as usize) % scenario.sizes.len()].max(2)
            as usize;
        if scenario.matrix_pool == 0 {
            return Arrival::from(generator.system::<f32>(Workload::DiagonallyDominant, n));
        }
        let slot = splitmix64(&mut size_rng) % scenario.matrix_pool;
        let (template, key) = pool.entry((n, slot)).or_insert_with(|| {
            let mut g =
                Generator::new(scenario.seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64);
            let s: TridiagonalSystem<f32> = g.system(Workload::DiagonallyDominant, n);
            let key = MatrixKey::of::<f32>(&s.a, &s.b, &s.c);
            (Arc::new(s.into_parts().0), key)
        });
        // Fresh RHS per request, drawn from the sequential generator so
        // the stream stays a pure function of the scenario.
        let d = generator.system::<f32>(Workload::DiagonallyDominant, n).d;
        Arrival { matrix: Arc::clone(template), d, key: Some(*key) }
    };

    // Arrival ticks are a pure function of the scenario.
    let arrivals: Vec<Tick> = (0..scenario.requests).map(|i| scenario.arrival_tick(i)).collect();
    let tally = drive(
        &mut |flush: FlushedBatch<f32>| {
            serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &cfg, flush)
        },
        BucketTable::new(
            scenario.target_batch.max(1) as usize,
            Duration::from_micros(scenario.max_linger_us),
        )
        .with_capacity(scenario.queue_capacity.max(1) as usize),
        &arrivals,
        next_arrival,
        &clock,
        &trace,
    );
    let stats = RunStats {
        served: tally.latencies_ns.len() as u64,
        rejected: tally.rejected,
        latencies_ns: tally.latencies_ns,
        wrong: tally.wrong,
        repairs: tally.repairs,
        final_tick: clock.now(),
    };
    RunOutput { events: sink.take(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn two_runs_of_the_same_scenario_are_bit_identical() {
        let scenario = Scenario::chaos(120);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events, b.events, "decision streams diverged");
        assert_eq!(a.stats, b.stats, "stats diverged");
        assert!(a.stats.served > 0);
        assert_eq!(a.stats.wrong, 0, "a wrong answer escaped verification");
    }

    #[test]
    fn warm_cell_hits_the_factor_cache_and_stays_deterministic() {
        let scenario = Scenario::warm(150);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events, b.events, "warm decision streams diverged");
        assert_eq!(a.stats, b.stats, "warm stats diverged");
        assert_eq!(a.stats.wrong, 0, "a warm answer escaped verification");
        let hits = a.events.iter().filter(|e| e.kind() == "factor-hit").count();
        let misses = a.events.iter().filter(|e| e.kind() == "factor-miss").count();
        assert!(misses > 0, "warm cell never populated the cache");
        assert!(
            hits > misses,
            "pooled traffic should be mostly warm: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn certified_cell_skips_verification_and_stays_deterministic() {
        let scenario = Scenario::certified(150);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events, b.events, "certified decision streams diverged");
        assert_eq!(a.stats, b.stats, "certified stats diverged");
        assert_eq!(a.stats.wrong, 0, "a certified answer escaped its bound");
        let issued = a.events.iter().filter(|e| e.kind() == "cert-issued").count();
        let skips = a.events.iter().filter(|e| e.kind() == "cert-skip-verify").count();
        assert!(issued > 0, "certified cell never analyzed a matrix");
        assert!(skips > 0, "certified cell never skipped a verify");
        assert_eq!(
            a.events.iter().filter(|e| e.kind() == "cert-revoked").count(),
            0,
            "fault-free certified traffic must not revoke"
        );
    }

    #[test]
    fn event_timestamps_never_go_backwards() {
        let out = run(&Scenario::bursty(100));
        let ticks: Vec<Tick> = out.events.iter().map(TraceEvent::at).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "trace is not tick-ordered");
    }

    #[test]
    fn adversarial_flood_sheds_load_but_loses_nothing() {
        let out = run(&Scenario::adversarial(300));
        assert_eq!(out.stats.served + out.stats.rejected, 300);
        assert_eq!(out.stats.wrong, 0);
        // The flood must actually stress admission — otherwise the cell
        // tests nothing.
        assert!(out.stats.rejected > 0, "adversarial cell never filled the queue");
    }

    #[test]
    fn conservation_served_plus_rejected_equals_offered() {
        for scenario in [Scenario::steady(150), Scenario::diurnal(150), Scenario::bursty(150)] {
            let out = run(&scenario);
            assert_eq!(
                out.stats.served + out.stats.rejected,
                150,
                "{} lost requests",
                scenario.name
            );
            assert_eq!(out.stats.wrong, 0, "{}", scenario.name);
        }
    }
}
