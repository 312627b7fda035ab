//! Allocation counts on the serving path, read from a counting global
//! allocator.
//!
//! The worker hands every client buffer back: it writes each accepted
//! answer into its request's own `d` and returns the request's matrix
//! `Arc` on the response. So serving a flush makes the same number of
//! allocations and frees whatever its occupancy, and a `submit` that joins
//! a bucket with spare room allocates only its matrix's `Arc` and its
//! ticket's slot. The allocator counts per
//! thread, so the service's own threads, and the other tests running
//! alongside, never leak into a measurement.

use gpu_sim::Launcher;
use solver_service::{
    make_request_keyed, serve_flush, CircuitBreakers, CpuEngine, DeviceCtx, DispatchConfig, Engine,
    FlushReason, FlushedBatch, PlanCache, ServiceConfig, ServiceMetrics, SolverService, Ticket,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, Matrix, MatrixKey, TridiagonalSystem, Workload};

/// The system allocator, counting every call on the calling thread. A
/// `realloc` counts as one allocation and one free.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread being torn down may still free memory.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        bump(&FREES);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and frees one closure made on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    frees: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let now = || (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let before = now();
    let out = f();
    let after = now();
    (out, Counts { allocs: after.0 - before.0, frees: after.1 - before.1 })
}

const N: usize = 128;

/// What a served request must hand back: its `d` buffer and its matrix.
struct Sent {
    system: TridiagonalSystem<f32>,
    d: *const f32,
    matrix: *const Matrix<f32>,
}

/// A flush of one request per system, keyed with `key`, with what each
/// request holds noted down.
fn flush(
    systems: &[TridiagonalSystem<f32>],
    key: Option<MatrixKey>,
) -> (FlushedBatch<f32>, Vec<Ticket<f32>>, Vec<Sent>) {
    let mut requests = Vec::with_capacity(systems.len());
    let mut tickets = Vec::with_capacity(systems.len());
    let mut sent = Vec::with_capacity(systems.len());
    for (id, system) in systems.iter().enumerate() {
        let (request, ticket) = make_request_keyed(id as u64, system.clone(), 0, None, key);
        sent.push(Sent {
            system: system.clone(),
            d: request.d.as_ptr(),
            matrix: Arc::as_ptr(&request.matrix),
        });
        requests.push(request);
        tickets.push(ticket);
    }
    (FlushedBatch { n: N, requests, reason: FlushReason::Full }, tickets, sent)
}

/// One serving worker's state, kept across flushes as a worker keeps it.
struct Worker {
    launcher: Launcher,
    plans: PlanCache,
    breakers: CircuitBreakers,
    metrics: ServiceMetrics,
    cfg: DispatchConfig,
}

impl Worker {
    fn new(cfg: DispatchConfig) -> Self {
        Worker {
            launcher: Launcher::gtx280(),
            plans: PlanCache::new(),
            breakers: CircuitBreakers::default(),
            metrics: ServiceMetrics::new(),
            cfg,
        }
    }

    /// Serves one flush of `systems` and counts what serving it allocated
    /// and freed. Checks every response: the right answer, from `engine`,
    /// in the request's own `d` buffer, with the request's own matrix.
    fn serve(
        &self,
        systems: &[TridiagonalSystem<f32>],
        key: Option<MatrixKey>,
        engine: &str,
    ) -> Counts {
        let (batch, tickets, sent) = flush(systems, key);
        let device = DeviceCtx::solo(&self.launcher);
        let ((), counts) = counted(|| {
            serve_flush(device, &self.plans, &self.breakers, &self.metrics, &self.cfg, batch)
        });
        for (ticket, sent) in tickets.into_iter().zip(&sent) {
            let resp = ticket.try_take().expect("a synchronous serve fulfils every ticket");
            assert_eq!(&*resp.engine, engine);
            assert_eq!(resp.x.as_ptr(), sent.d, "the answer comes back in the request's d");
            assert!(std::ptr::eq(Arc::as_ptr(&resp.matrix), sent.matrix), "the request's matrix");
            let residual = l2_residual(&sent.system, &resp.x).expect("n answers");
            assert!(residual < 1e-2, "{engine} answer off by {residual}");
        }
        counts
    }
}

fn systems(count: usize, seed: u64) -> Vec<TridiagonalSystem<f32>> {
    let mut generator = Generator::new(seed);
    (0..count).map(|_| generator.system(Workload::DiagonallyDominant, N)).collect()
}

#[test]
fn a_cold_flush_allocates_the_same_at_any_occupancy() {
    let worker = Worker::new(DispatchConfig {
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        ..Default::default()
    });
    for (count, seed) in [(8, 1), (64, 2)] {
        worker.serve(&systems(count, seed), None, "cpu-thomas");
    }
    let small = worker.serve(&systems(8, 3), None, "cpu-thomas");
    let large = worker.serve(&systems(64, 4), None, "cpu-thomas");
    assert_eq!(large, small, "serving 64 requests must cost what serving 8 does");
}

#[test]
fn a_warm_flush_allocates_the_same_at_any_occupancy() {
    // One matrix against many right-hand sides, every flush on the CPU.
    let worker = Worker::new(DispatchConfig {
        factor_cache: Some(Arc::new(factor_cache::SharedFactorCache::new(8))),
        min_gpu_batch: usize::MAX,
        ..Default::default()
    });
    let matrix = Generator::new(5).system::<f32>(Workload::DiagonallyDominant, N);
    let key = Some(MatrixKey::of_system(&matrix));
    let against = |count: usize, seed: u64| -> Vec<TridiagonalSystem<f32>> {
        let rhs = systems(count, seed);
        rhs.into_iter().map(|s| TridiagonalSystem { d: s.d, ..matrix.clone() }).collect()
    };
    // The key's first flush is served cold and factors the matrix.
    worker.serve(&against(2, 6), key, "cpu-thomas");
    for (count, seed) in [(8, 7), (64, 8)] {
        worker.serve(&against(count, seed), key, "cpu-warm");
    }
    let small = worker.serve(&against(8, 9), key, "cpu-warm");
    let large = worker.serve(&against(64, 10), key, "cpu-warm");
    assert_eq!(large, small, "serving 64 requests must cost what serving 8 does");
}

#[test]
fn a_flush_on_an_engine_already_seen_allocates_nothing_in_the_metrics() {
    let metrics = ServiceMetrics::new();
    let flush = || metrics.on_batch_served("cpu-thomas", 64, FlushReason::Full, 1, 0.25);
    let ((), first) = counted(flush);
    assert!(first.allocs > 0, "the engine's first flush stores its label");
    let ((), second) = counted(flush);
    assert_eq!(second, Counts { allocs: 0, frees: 0 }, "a known engine's flush copies no label");
    let snapshot = metrics.snapshot(0, 0, 0);
    assert_eq!(snapshot.dispatch_systems["cpu-thomas"], 128);
    assert_eq!(snapshot.engine_ms["cpu-thomas"], 0.5);
}

/// What the `i`th submit into a bucket of 64 allocates and frees on the
/// calling thread, which admits straight into the bucket table. Every
/// submit allocates the matrix `Arc` and the ticket slot; the one that
/// opens the bucket also allocates its `Vec` (4 slots), one that finds the
/// `Vec` full doubles it (a realloc: one allocation, one free). The one
/// that fills the bucket routes the batch to a device queue, which
/// allocates nothing once that queue has grown, so it counts as a join
/// into spare capacity: the two blocks and nothing else.
fn submit_counts(i: usize) -> Counts {
    match i {
        0 => Counts { allocs: 3, frees: 0 },
        4 | 8 | 16 | 32 => Counts { allocs: 3, frees: 1 },
        _ => Counts { allocs: 2, frees: 0 },
    }
}

#[test]
fn submit_allocates_the_matrix_arc_and_the_ticket_slot_only() {
    // A 60 s linger: no bucket flushes part-full while the test counts.
    let service: SolverService<f32> = SolverService::start(ServiceConfig {
        workers: 1,
        max_linger: std::time::Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let mut generator = Generator::new(7);
    // The first bucket of the first round also allocates the bucket map's
    // node and grows the device queue; the second round is steady state.
    for round in 0..2 {
        let systems: Vec<_> =
            (0..64).map(|_| generator.system(Workload::DiagonallyDominant, N)).collect();
        let (tickets, counts): (Vec<_>, Vec<_>) =
            systems.into_iter().map(|system| counted(|| service.submit(system).unwrap())).unzip();
        if round == 1 {
            assert_eq!(counts, (0..64).map(submit_counts).collect::<Vec<_>>());
        }
        for ticket in tickets {
            assert!(ticket.wait().residual < 1e-2);
        }
    }
    service.shutdown();
}
