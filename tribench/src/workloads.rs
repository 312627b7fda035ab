//! The four workloads: inputs made from the seed, the client loops that
//! drive the service, and the answer check.
//!
//! Every service workload runs in *epochs*: a fresh `SolverService` (so
//! plan cache, factor cache and certified catalog start empty), a warm-up
//! pass whose end marks the set-up time, then a fixed number of measured
//! operations, then a drain. A run repeats epochs for its `--seconds`, so
//! memory and per-epoch work stay the same however fast the code is.
//! One client thread drives a service with one worker (batcher + worker
//! + client = 3 threads).

use crate::analysis::{OpRecord, RequestRecord};
use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, Tick};
use numeric_verify::CertifiedCatalog;
use solver_service::{ServiceConfig, SolverService, Ticket, TraceEvent, TraceHandle};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use trace_lab::{harness, Pattern, RecordingSink, Scenario};
use tridiag_core::{Generator, TridiagonalSystem, Workload as Family};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdBatch,
    WarmRhs,
    KeyedChurn,
    GpuModeled,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdBatch, Workload::WarmRhs, Workload::KeyedChurn, Workload::GpuModeled];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBatch => "cold_batch",
            Workload::WarmRhs => "warm_rhs",
            Workload::KeyedChurn => "keyed_churn",
            Workload::GpuModeled => "gpu_modeled",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A served answer is wrong when the residual tribench recomputes is
/// non-finite or at least this.
pub const RESIDUAL_BOUND: f64 = 1e-2;

/// `‖Ax − d‖₂` in f64, from the coefficients tribench sent; infinite when
/// `x` has the wrong length.
pub fn residual(a: &[f32], b: &[f32], c: &[f32], d: &[f32], x: &[f32]) -> f64 {
    let n = d.len();
    if x.len() != n {
        return f64::INFINITY;
    }
    let mut sum = 0.0f64;
    for i in 0..n {
        let mut r = f64::from(b[i]) * f64::from(x[i]) - f64::from(d[i]);
        if i > 0 {
            r += f64::from(a[i]) * f64::from(x[i - 1]);
        }
        if i + 1 < n {
            r += f64::from(c[i]) * f64::from(x[i + 1]);
        }
        sum += r * r;
    }
    sum.sqrt()
}

fn wrong_residual(r: f64) -> bool {
    !r.is_finite() || r >= RESIDUAL_BOUND
}

fn is_wrong(sys: &TridiagonalSystem<f32>, x: &[f32]) -> bool {
    wrong_residual(residual(&sys.a, &sys.b, &sys.c, &sys.d, x))
}

/// A run of consecutive measured operations, about a tenth of a second
/// long: the unit the end-to-end estimators rank (see `main`).
#[derive(Default)]
pub struct Window {
    /// The window's share of the throughput divisor.
    pub cost_ns: u64,
    pub rows: u64,
    /// One per measured client operation.
    pub latencies_ns: Vec<u64>,
}

/// What one epoch measured.
#[derive(Default)]
pub struct Epoch {
    /// Service start through the end of the warm-up pass.
    pub setup_ns: u64,
    pub windows: Vec<Window>,
    /// Requests sent (warm-up included) and those rejected, wrong or
    /// missing.
    pub attempted: u64,
    pub failed: u64,
    /// Engine label → systems it served.
    pub dispatch: BTreeMap<String, u64>,
    /// gpu_modeled: size → planned engine → flushes, for flushes large
    /// enough for the planner (not the small-flush CPU override).
    pub plans: BTreeMap<u64, BTreeMap<String, u64>>,
    /// The warm-up left a size class planned on a GPU engine (real clock
    /// only): the epoch stopped there and measured nothing.
    pub rerouted: bool,
    /// Traced epochs only (so memory does not grow with the epoch count):
    /// the service's events and the client's records.
    pub events: Vec<TraceEvent>,
    pub ops: Vec<OpRecord>,
}

impl Epoch {
    /// Records one measured operation into the current window, opening a
    /// new one every `per_window` operations.
    fn record(&mut self, per_window: usize, cost_ns: u64, latency_ns: u64, rows: u64) {
        if self.windows.last().is_none_or(|w| w.latencies_ns.len() >= per_window) {
            self.windows.push(Window::default());
        }
        let w = self.windows.last_mut().expect("a window is open");
        w.cost_ns += cost_ns;
        w.rows += rows;
        w.latencies_ns.push(latency_ns);
    }

    pub fn wall_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.cost_ns).sum()
    }

    pub fn rows(&self) -> u64 {
        self.windows.iter().map(|w| w.rows).sum()
    }
}

/// A running service plus the clock its events are stamped with.
struct Session {
    svc: SolverService<f32>,
    clock: Clock,
    sink: Option<Arc<RecordingSink>>,
    started: Instant,
    traced: bool,
}

impl Session {
    fn start(config: ServiceConfig, traced: bool) -> Self {
        let started = Instant::now();
        let clock = Clock::real();
        let sink = traced.then(|| Arc::new(RecordingSink::new()));
        let trace = match &sink {
            Some(s) => TraceHandle::to(s.clone()),
            None => TraceHandle::disabled(),
        };
        let svc = SolverService::start(ServiceConfig { clock: clock.clone(), trace, ..config });
        Session { svc, clock, sink, started, traced }
    }

    /// Ends the warm-up: stamps the set-up time and drops warm-up events
    /// (every warm-up answer is in, so all of its events are too). Returns
    /// `false`, marking the epoch rerouted, when the warm-up's plans put
    /// any size class on a GPU engine: measuring on would time the SIMT
    /// interpreter on the wall clock.
    fn warmed_up(&self, epoch: &mut Epoch) -> bool {
        epoch.setup_ns = self.started.elapsed().as_nanos() as u64;
        if let Some(sink) = &self.sink {
            sink.take();
        }
        let dispatch = self.svc.metrics().dispatch_systems;
        epoch.rerouted = dispatch.keys().any(|engine| !engine.starts_with("cpu"));
        !epoch.rerouted
    }

    fn finish(self, epoch: &mut Epoch) {
        let snapshot = self.svc.shutdown();
        epoch.dispatch = snapshot.dispatch_systems;
        if let Some(sink) = self.sink {
            epoch.events = sink.take();
        }
    }

    fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Closed loop over requests `ids`, keeping `window` outstanding and
    /// waiting for answers in submission order. Each request is one
    /// operation, timed from its submit to its answer; `per_window`
    /// requests make one measurement window.
    fn request_window(
        &self,
        epoch: &mut Epoch,
        ids: Range<u64>,
        window: usize,
        make: impl Fn(u64) -> TridiagonalSystem<f32>,
        per_window: Option<usize>,
    ) {
        type Pending = (TridiagonalSystem<f32>, Option<Ticket<f32>>, Tick, Tick);
        let mut pending: VecDeque<Pending> = VecDeque::with_capacity(window);
        let mut next = ids.start;
        let mut last_done = self.now();
        loop {
            while pending.len() < window && next < ids.end {
                let system = make(next);
                next += 1;
                let sent = system.clone();
                let t0 = self.now();
                let ticket = self.svc.submit(sent).ok();
                let t1 = self.now();
                pending.push_back((system, ticket, t0, t1));
            }
            let Some((system, ticket, t0, t1)) = pending.pop_front() else { break };
            epoch.attempted += 1;
            let Some(ticket) = ticket else {
                epoch.failed += 1;
                continue;
            };
            let id = ticket.id();
            let answer = ticket.wait();
            let done = self.now();
            epoch.failed += u64::from(is_wrong(&system, &answer.x));
            if let Some(per_window) = per_window {
                epoch.record(per_window, done - last_done, done - t0, system.n() as u64);
                if self.traced {
                    let requests = vec![RequestRecord { id, submit: Some((t0, t1)), done }];
                    epoch.ops.push(OpRecord { start: t0, end: done, requests });
                }
            }
            last_done = done;
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------- cold_batch

const COLD_SIZES: [usize; 4] = [64, 128, 256, 512];
const COLD_PER_SIZE: usize = 64;
/// Distinct steps generated up front; later steps reuse them. Nothing on
/// the cold path caches by content, so reuse only saves generation time.
const COLD_POOL_STEPS: usize = 8;
const COLD_IN_FLIGHT: usize = 2;
pub const COLD_STEPS_PER_EPOCH: usize = 500;
const COLD_STEPS_PER_WINDOW: usize = 50;

/// ADI-style steps: 256 fresh diagonally-dominant systems per step, 64 of
/// each size, buckets filling to exactly the target batch of 64.
pub struct ColdBatch {
    steps: Vec<Vec<TridiagonalSystem<f32>>>,
}

struct PendingStep {
    pool: usize,
    start: Tick,
    tickets: Vec<(Option<Ticket<f32>>, Tick, Tick)>,
}

impl ColdBatch {
    pub fn new(seed: u64) -> Self {
        let mut g = Generator::new(seed);
        let steps = (0..COLD_POOL_STEPS)
            .map(|_| {
                COLD_SIZES
                    .iter()
                    .flat_map(|&n| (0..COLD_PER_SIZE).map(move |_| n))
                    .map(|n| g.system(Family::DiagonallyDominant, n))
                    .collect()
            })
            .collect();
        ColdBatch { steps }
    }

    pub fn sample(&self) -> Vec<TridiagonalSystem<f32>> {
        self.steps[0].clone()
    }

    pub fn epoch(&self, steps: usize, traced: bool) -> Epoch {
        let mut epoch = Epoch::default();
        let s = Session::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }, traced);
        let warm = self.submit(&s, 0);
        self.finish_step(&s, warm, &mut epoch, None);
        if !s.warmed_up(&mut epoch) {
            s.finish(&mut epoch);
            return epoch;
        }

        let mut last_end = s.now();
        let mut in_flight = VecDeque::with_capacity(COLD_IN_FLIGHT);
        let mut submitted = 0;
        for _ in 0..steps {
            while in_flight.len() < COLD_IN_FLIGHT && submitted < steps {
                submitted += 1;
                in_flight.push_back(self.submit(&s, submitted));
            }
            let step = in_flight.pop_front().expect("a step is in flight");
            self.finish_step(&s, step, &mut epoch, Some(&mut last_end));
        }
        s.finish(&mut epoch);
        epoch
    }

    fn submit(&self, s: &Session, step: usize) -> PendingStep {
        let pool = step % COLD_POOL_STEPS;
        let start = s.now();
        let tickets = self.steps[pool]
            .iter()
            .map(|system| {
                let t0 = s.now();
                let ticket = s.svc.submit(system.clone()).ok();
                (ticket, t0, s.now())
            })
            .collect();
        PendingStep { pool, start, tickets }
    }

    /// Waits for a step's answers and checks them; a measured step also
    /// records its latency and its share of wall time since `last_end`.
    fn finish_step(
        &self,
        s: &Session,
        step: PendingStep,
        epoch: &mut Epoch,
        last_end: Option<&mut Tick>,
    ) {
        let mut requests = Vec::new();
        let mut answers = Vec::with_capacity(step.tickets.len());
        for (ticket, t0, t1) in step.tickets {
            let answer = ticket.map(|t| {
                let id = t.id();
                let answer = t.wait();
                if s.traced {
                    requests.push(RequestRecord { id, submit: Some((t0, t1)), done: s.now() });
                }
                answer
            });
            answers.push(answer);
        }
        let end = s.now();
        for (system, answer) in self.steps[step.pool].iter().zip(&answers) {
            epoch.attempted += 1;
            epoch.failed += u64::from(answer.as_ref().is_none_or(|a| is_wrong(system, &a.x)));
        }
        if let Some(last_end) = last_end {
            let rows = self.steps[step.pool].iter().map(|sys| sys.n() as u64).sum();
            epoch.record(COLD_STEPS_PER_WINDOW, end - *last_end, end - step.start, rows);
            *last_end = end;
            if s.traced {
                epoch.ops.push(OpRecord { start: step.start, end, requests });
            }
        }
    }
}

// ------------------------------------------------------------ shared matrices

/// Matrix pool of `warm_rhs` and `keyed_churn`: (size, count).
const POOL_SIZES: [(usize, usize); 2] = [(256, 8), (1024, 8)];
const RHS_PER_CALL: usize = 64;
const RHS_SETS: usize = 2;

/// Sixteen fixed diagonally-dominant matrices with their right-hand sides.
pub struct Matrices {
    systems: Vec<TridiagonalSystem<f32>>,
    /// Per matrix, `RHS_SETS * RHS_PER_CALL` right-hand sides.
    rhs: Vec<Vec<Vec<f32>>>,
}

impl Matrices {
    pub fn new(seed: u64) -> Self {
        let mut g = Generator::new(seed);
        let systems: Vec<TridiagonalSystem<f32>> = POOL_SIZES
            .iter()
            .flat_map(|&(n, count)| (0..count).map(move |_| n))
            .map(|n| g.system(Family::DiagonallyDominant, n))
            .collect();
        let rhs = systems
            .iter()
            .map(|sys| {
                (0..RHS_SETS * RHS_PER_CALL)
                    .map(|_| g.system::<f32>(Family::DiagonallyDominant, sys.n()).d)
                    .collect()
            })
            .collect();
        Matrices { systems, rhs }
    }

    /// Factor cache (64 entries) and certified catalog (1-in-8 sampled
    /// verify), warm flushes kept on the CPU as `repro factor` runs them.
    fn config() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            factor_cache: Some(Arc::new(SharedFactorCache::new(64))),
            certified: Some(Arc::new(CertifiedCatalog::with_sample_period(8))),
            min_gpu_batch: usize::MAX,
            ..ServiceConfig::default()
        }
    }

    pub fn sample(&self) -> Vec<TridiagonalSystem<f32>> {
        self.systems
            .iter()
            .zip(&self.rhs)
            .map(|(sys, rhs)| TridiagonalSystem { d: rhs[0].clone(), ..sys.clone() })
            .collect()
    }
}

// ------------------------------------------------------------------ warm_rhs

pub const WARM_CALLS_PER_EPOCH: usize = 1000;
const WARM_CALLS_PER_WINDOW: usize = 100;

/// `solve_many_rhs` over the sixteen fixed matrices, 64 right-hand sides
/// per call, one call in flight.
pub struct WarmRhs<'a> {
    pub matrices: &'a Matrices,
}

impl WarmRhs<'_> {
    pub fn epoch(&self, calls: usize, traced: bool) -> Epoch {
        let mut epoch = Epoch::default();
        let s = Session::start(Matrices::config(), traced);
        let count = self.matrices.systems.len();
        for m in 0..count {
            self.call(&s, m, 0, &mut epoch, false);
        }
        if !s.warmed_up(&mut epoch) {
            s.finish(&mut epoch);
            return epoch;
        }
        for i in 0..calls {
            self.call(&s, i % count, (i / count) % RHS_SETS, &mut epoch, true);
        }
        s.finish(&mut epoch);
        epoch
    }

    fn call(&self, s: &Session, m: usize, set: usize, epoch: &mut Epoch, measured: bool) {
        let sys = &self.matrices.systems[m];
        let rhs = &self.matrices.rhs[m][set * RHS_PER_CALL..(set + 1) * RHS_PER_CALL];
        let t0 = s.now();
        let answers = s.svc.solve_many_rhs(&sys.a, &sys.b, &sys.c, rhs);
        let t1 = s.now();
        epoch.attempted += rhs.len() as u64;
        let answers = answers.unwrap_or_default();
        // Missing answers count as failed; so do wrong ones.
        epoch.failed += rhs.len().saturating_sub(answers.len()) as u64;
        for (d, answer) in rhs.iter().zip(&answers) {
            let r = residual(&sys.a, &sys.b, &sys.c, d, &answer.x);
            epoch.failed += u64::from(wrong_residual(r));
        }
        if measured {
            // The answer check runs between calls, so the divisor is the
            // calls' own time.
            let rows = (sys.n() * rhs.len()) as u64;
            epoch.record(WARM_CALLS_PER_WINDOW, t1 - t0, t1 - t0, rows);
            if s.traced {
                let requests = answers
                    .iter()
                    .map(|a| RequestRecord { id: a.id, submit: None, done: t1 })
                    .collect();
                epoch.ops.push(OpRecord { start: t0, end: t1, requests });
            }
        }
    }
}

// --------------------------------------------------------------- keyed_churn

pub const CHURN_REQUESTS_PER_EPOCH: u64 = 8000;
const CHURN_PER_WINDOW: usize = 1000;
/// Requests outstanding.
const CHURN_WINDOW: usize = 512;

/// The `warm_rhs` configuration, but every request carries a distinct
/// matrix: a pool matrix with one perturbed diagonal coefficient.
pub struct KeyedChurn<'a> {
    pub matrices: &'a Matrices,
}

impl KeyedChurn<'_> {
    /// Request `j`'s system. `(j / 16)` picks the perturbed row and the
    /// perturbation round, so every `j` gives a distinct matrix; growing
    /// the diagonal keeps it dominant.
    pub fn system(&self, j: u64) -> TridiagonalSystem<f32> {
        let count = self.matrices.systems.len() as u64;
        let m = (j % count) as usize;
        let q = j / count;
        let base = &self.matrices.systems[m];
        let rhs = &self.matrices.rhs[m];
        let n = base.n() as u64;
        let mut b = base.b.clone();
        b[(q % n) as usize] += 1e-3 * (1 + q / n) as f32;
        TridiagonalSystem {
            a: base.a.clone(),
            b,
            c: base.c.clone(),
            d: rhs[(q % rhs.len() as u64) as usize].clone(),
        }
    }

    pub fn sample(&self) -> Vec<TridiagonalSystem<f32>> {
        (0..256).map(|j| self.system(j)).collect()
    }

    pub fn epoch(&self, requests: u64, traced: bool) -> Epoch {
        let mut epoch = Epoch::default();
        let s = Session::start(Matrices::config(), traced);
        let warm = self.matrices.systems.len() as u64;
        s.request_window(&mut epoch, 0..warm, warm as usize, |j| self.system(j), None);
        if !s.warmed_up(&mut epoch) {
            s.finish(&mut epoch);
            return epoch;
        }
        let ids = warm..warm + requests;
        s.request_window(&mut epoch, ids, CHURN_WINDOW, |j| self.system(j), Some(CHURN_PER_WINDOW));
        s.finish(&mut epoch);
        epoch
    }
}

// --------------------------------------------------------------- gpu_modeled

pub const GPU_SIZES: [u64; 4] = [64, 128, 256, 512];
pub const GPU_REQUESTS_PER_RUN: u64 = 4000;
const GPU_RUNS_PER_EPOCH: u64 = 4;
const GPU_WARMUP_REQUESTS: u64 = 256;
const GPU_MIN_BATCH: u64 = 4;
/// Requests per real-clock replay epoch.
pub const GPU_REPLAY_REQUESTS: u64 = 8000;
/// Offered load, requests per simulated second: about 70% of the modeled
/// capacity of this size mix, frozen so the workload stays the same when
/// the model gets faster.
pub const GPU_RATE_RPS: u64 = 128_000;
/// The plan the cost model picks per size class for flushes of at least
/// `min_gpu_batch`. A different plan changes what the workload measures,
/// so the run is refused.
pub const GPU_PLANS: [(u64, &str); 4] =
    [(64, "cpu-thomas"), (128, "cpu-thomas"), (256, "cpu-thomas"), (512, "cr+pcr@256")];

/// The trace-lab harness on a steady open loop, on the simulated clock.
pub struct GpuModeled {
    pub seed: u64,
}

impl GpuModeled {
    fn scenario(seed: u64, requests: u64) -> Scenario {
        Scenario {
            name: "gpu_modeled".into(),
            seed,
            pattern: Pattern::Steady,
            requests,
            rate_rps: GPU_RATE_RPS,
            sizes: GPU_SIZES.to_vec(),
            burst_len: 0,
            launch_fault_ppm: 0,
            bit_flip_ppm: 0,
            target_batch: 64,
            max_linger_us: 2000,
            queue_capacity: 1024,
            min_gpu_batch: GPU_MIN_BATCH,
            pin_cr_pcr_m: 0,
            matrix_pool: 0,
            certify: 0,
        }
    }

    /// A warm-up harness run (the set-up: every run tunes its own plan
    /// cache), then `GPU_RUNS_PER_EPOCH` runs of `requests` each, one
    /// window apiece. Every run has its own seed, so runs add distinct
    /// samples.
    pub fn epoch(&self, index: u64, requests: u64, traced: bool) -> Epoch {
        let base = self.seed.wrapping_add(index * GPU_RUNS_PER_EPOCH);
        let mut epoch = Epoch::default();
        let t = Instant::now();
        harness::run(&Self::scenario(base, GPU_WARMUP_REQUESTS));
        epoch.setup_ns = t.elapsed().as_nanos() as u64;
        for run in 0..GPU_RUNS_PER_EPOCH {
            let t = Instant::now();
            let out = harness::run(&Self::scenario(base.wrapping_add(run), requests));
            let cost_ns = t.elapsed().as_nanos() as u64;
            let stats = &out.stats;
            epoch.attempted += requests;
            // The harness recomputes every residual (certify is off, so
            // none is skipped) and counts the wrong ones.
            epoch.failed += stats.wrong
                + stats.rejected
                + requests.saturating_sub(stats.served + stats.rejected);
            let mut window = Window { cost_ns, rows: 0, latencies_ns: stats.latencies_ns.clone() };
            for event in &out.events {
                match event {
                    TraceEvent::Admit { n, .. } => window.rows += n,
                    TraceEvent::Served { engine, occupancy, .. } => {
                        *epoch.dispatch.entry(engine.clone()).or_default() += occupancy
                    }
                    TraceEvent::Plan { n, occupancy, engine, .. }
                        if *occupancy >= GPU_MIN_BATCH =>
                    {
                        *epoch.plans.entry(*n).or_default().entry(engine.clone()).or_default() += 1
                    }
                    _ => {}
                }
            }
            epoch.windows.push(window);
            // Each run restarts the simulated clock, so streams of two runs
            // cannot be joined into one timeline: keep the first run's.
            if traced && run == 0 {
                epoch.events = out.events;
            }
        }
        epoch
    }

    /// The first `count` systems the harness generates for `seed`, in the
    /// harness's own order.
    pub fn sample(seed: u64, count: usize) -> Vec<TridiagonalSystem<f32>> {
        let mut g = Generator::new(seed);
        let mut size_rng = seed ^ 0x5A1E_D065;
        (0..count)
            .map(|_| {
                let n = GPU_SIZES[(splitmix64(&mut size_rng) as usize) % GPU_SIZES.len()];
                g.system(Family::DiagonallyDominant, n as usize)
            })
            .collect()
    }

    /// The same size mix and batching on the real clock, through the
    /// threaded service: the wall-clock cost of each service stage for
    /// this workload's inputs (the harness clock only moves by modeled
    /// engine time). The real-clock planner serves every size on the CPU.
    pub fn replay_epoch(sample: &[TridiagonalSystem<f32>], requests: u64, traced: bool) -> Epoch {
        let mut epoch = Epoch::default();
        let s = Session::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }, traced);
        let make = |j: u64| sample[(j % sample.len() as u64) as usize].clone();
        let warm = GPU_WARMUP_REQUESTS;
        s.request_window(&mut epoch, 0..warm, warm as usize, make, None);
        if !s.warmed_up(&mut epoch) {
            s.finish(&mut epoch);
            return epoch;
        }
        s.request_window(&mut epoch, warm..warm + requests, 256, make, Some(1000));
        s.finish(&mut epoch);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_replays_the_harness_inputs() {
        let sample = GpuModeled::sample(7, 64);
        let out = harness::run(&GpuModeled::scenario(7, 64));
        let admitted: Vec<u64> = out
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Admit { n, .. } => Some(*n),
                _ => None,
            })
            .collect();
        let sizes: Vec<u64> = sample.iter().map(|s| s.n() as u64).collect();
        assert_eq!(sizes, admitted);
    }

    #[test]
    fn churn_matrices_are_distinct_and_dominant() {
        let matrices = Matrices::new(3);
        let churn = KeyedChurn { matrices: &matrices };
        let keys: std::collections::HashSet<u64> = (0..40_000)
            .step_by(997)
            .chain(0..64)
            .map(|j| tridiag_core::MatrixKey::of_system(&churn.system(j)).fingerprint())
            .collect();
        assert_eq!(
            keys.len(),
            (0..40_000).step_by(997).chain(0..64).collect::<std::collections::HashSet<_>>().len()
        );
        assert!(churn.system(12_345).is_diagonally_dominant());
    }

    #[test]
    fn residual_catches_wrong_and_non_finite_answers() {
        let sys: TridiagonalSystem<f32> = Generator::new(1).system(Family::DiagonallyDominant, 32);
        let x = cpu_solvers::thomas::solve(&sys).unwrap();
        assert!(!is_wrong(&sys, &x));
        let mut bad = x.clone();
        bad[5] += 1.0;
        assert!(is_wrong(&sys, &bad));
        bad[5] = f32::NAN;
        assert!(is_wrong(&sys, &bad));
        assert!(is_wrong(&sys, &x[1..]));
    }
}
