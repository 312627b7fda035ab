//! Cross-tier differential test: one fault-free arrival stream through the
//! sim-clock serving loop into a solo launcher, a device pool and a
//! cluster. Where a flush is served is the loop's only variable, so on a
//! pinned engine every request's answer must be the same bits on all
//! three, and the driver's scorer must count no wrong answer.

use cluster::{ClusterConfig, ClusterServiceConfig, ClusterSink};
use device_pool::PoolConfig;
use gpu_sim::{Clock, Launcher, Tick};
use gpu_solvers::GpuAlgorithm;
use solver_service::{
    drive, serve_flush, Arrival, BreakerConfig, BucketTable, CircuitBreakers, CpuEngine, DeviceCtx,
    DispatchConfig, Engine, FlushedBatch, PlanCache, ServiceMetrics, Sink, SolveRequest, Tally,
    TraceHandle,
};
use std::collections::BTreeMap;
use std::time::Duration;
use tridiag_core::{Generator, Workload};

const REQUESTS: usize = 120;
const SIZES: [usize; 3] = [64, 128, 256];

/// Wraps a sink and keeps every answer's bits by request id: it serves
/// copies of each request, reads their answers, then hands each answer to
/// the driver's own request.
struct Recording<S> {
    inner: S,
    x: BTreeMap<u64, Vec<u32>>,
}

impl<S: Sink<f32>> Sink<f32> for Recording<S> {
    fn serve(&mut self, flush: FlushedBatch<f32>) {
        let (copies, tickets): (Vec<_>, Vec<_>) =
            flush.requests.iter().map(SolveRequest::attempt).unzip();
        self.inner.serve(FlushedBatch { n: flush.n, requests: copies, reason: flush.reason });
        for (request, ticket) in flush.requests.into_iter().zip(tickets) {
            let answer = ticket.try_take().expect("the inner sink answers every request");
            self.x.insert(request.id, answer.x.iter().map(|v| v.to_bits()).collect());
            request.answer(answer);
        }
    }

    fn pump(&mut self, now: Tick) -> Option<Tick> {
        self.inner.pump(now)
    }
}

/// Runs the one stream into `sink` on `clock`, recording every answer.
fn run(sink: impl Sink<f32>, clock: &Clock) -> (Tally, BTreeMap<u64, Vec<u32>>) {
    let mut recording = Recording { inner: sink, x: BTreeMap::new() };
    let arrivals: Vec<Tick> = (0..REQUESTS as u64).map(|i| i * 25_000).collect();
    let mut generator = Generator::new(0xC205_5713);
    let tally = drive(
        &mut recording,
        BucketTable::new(8, Duration::from_micros(200)),
        &arrivals,
        |i| -> Arrival<f32> {
            generator.system(Workload::DiagonallyDominant, SIZES[i % SIZES.len()]).into()
        },
        clock,
        &TraceHandle::disabled(),
    );
    (tally, recording.x)
}

/// One node's serving state on its own sim clock.
struct Node {
    clock: Clock,
    plans: PlanCache,
    breakers: CircuitBreakers,
    metrics: ServiceMetrics,
    cfg: DispatchConfig,
}

impl Node {
    fn pinned(engine: Engine) -> Self {
        let clock = Clock::sim();
        Node {
            plans: PlanCache::new(),
            breakers: CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone()),
            metrics: ServiceMetrics::new(),
            cfg: DispatchConfig {
                pin_engine: Some(engine),
                sanitize_first_flush: false,
                clock: clock.clone(),
                ..DispatchConfig::default()
            },
            clock,
        }
    }

    fn serve(&self, device: DeviceCtx<'_>, flush: FlushedBatch<f32>) {
        serve_flush(device, &self.plans, &self.breakers, &self.metrics, &self.cfg, flush);
    }
}

/// The answers of the solo, pool and cluster runs, each checked for a
/// full, correct tally.
fn three_tiers(engine: Engine) -> [BTreeMap<u64, Vec<u32>>; 3] {
    let (node, launcher) = (Node::pinned(engine), Launcher::gtx280());
    let solo = run(|flush| node.serve(DeviceCtx::solo(&launcher), flush), &node.clock);

    let (node, pool) = (Node::pinned(engine), PoolConfig::new(4).build());
    let pooled = run(
        |flush: FlushedBatch<f32>| node.serve(DeviceCtx::routed(&pool, flush.n), flush),
        &node.clock,
    );

    let mut cluster = ClusterConfig::new(3, 2).build();
    let clock = cluster.clock().clone();
    let svc = ClusterServiceConfig { pin_engine: Some(engine) };
    let clustered = run(ClusterSink::new(&mut cluster, &svc), &clock);
    let serving_nodes =
        cluster.nodes().iter().filter(|node| node.metrics.snapshot(0, 0, 0).completed > 0).count();
    assert!(serving_nodes > 1, "the ring must route work off the coordinator");

    [solo, pooled, clustered].map(|(tally, x)| {
        assert_eq!(tally.latencies_ns.len(), REQUESTS, "{engine}: a request went unserved");
        assert_eq!((tally.rejected, tally.wrong, tally.repairs), (0, 0, 0), "{engine}");
        assert_eq!(x.len(), REQUESTS);
        x
    })
}

fn assert_bitwise_equal(engine: Engine) {
    let [solo, pooled, clustered] = three_tiers(engine);
    for (id, x) in &solo {
        assert_eq!(&pooled[id], x, "{engine}: pool answer {id} differs from solo");
        assert_eq!(&clustered[id], x, "{engine}: cluster answer {id} differs from solo");
    }
}

#[test]
fn pinned_cpu_answers_match_bitwise_across_solo_pool_and_cluster() {
    assert_bitwise_equal(Engine::Cpu(CpuEngine::Thomas));
}

#[test]
fn pinned_gpu_answers_match_bitwise_across_solo_pool_and_cluster() {
    assert_bitwise_equal(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 }));
}
