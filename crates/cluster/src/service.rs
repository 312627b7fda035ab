//! Cluster dispatch: the cluster as a sink of the sim-clock serving loop
//! ([`solver_service::drive`], whose rules DESIGN.md §10.2 states). Batches
//! form on the coordinator, route to their size class's home node on the
//! hash ring, and ride deadline-guarded RPCs to be served by that node's
//! device pool; the gossip protocol is the sink's timer.
//!
//! Failover is layered, worst case last:
//! 1. the ring's preference order — a batch whose home node is dead (per
//!    the coordinator's gossip view or an open peer breaker) routes to
//!    the next node on the ring, so a dead node's backlog drains to
//!    survivors automatically, and only its keys move;
//! 2. hedged retries — a candidate that times out `hedge_after` RPC
//!    attempts in a row is abandoned for the next candidate;
//! 3. local degrade — when every remote candidate is exhausted the
//!    coordinator serves the batch on its own pool (and `serve_flush`
//!    itself degrades to the CPU GEP engine if that pool is dead), so a
//!    batch is *never* dropped: zero wrong answers, zero losses, at
//!    worst higher latency.

use crate::cluster::Cluster;
use crate::ring::HashRing;
use gpu_sim::Tick;
use solver_service::{
    drive, serve_flush, BucketTable, DeviceCtx, DispatchConfig, Engine, FlushedBatch, Sink,
    SolveRequest, SolveResponse, TraceEvent,
};
use std::time::Duration;
use tridiag_core::{Generator, Workload};

/// The node requests arrive at and batches route from.
pub const COORDINATOR: usize = 0;

/// Bucket flush threshold.
const TARGET_BATCH: usize = 8;

/// Bucket linger bound.
const MAX_LINGER: Duration = Duration::from_micros(200);

/// Smallest batch worth a GPU engine (below: CPU Thomas).
const MIN_GPU_BATCH: usize = 4;

/// Serving-loop knobs for one cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterServiceConfig {
    /// Pin every batch to one engine (None = autotune per size class).
    pub pin_engine: Option<Engine>,
}

/// The offered load: `requests` arrivals at a fixed inter-arrival gap,
/// sizes drawn round-robin from `sizes`, systems generated from `seed`.
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    /// Generator seed (systems are a pure function of it).
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Size classes, cycled in arrival order.
    pub sizes: Vec<usize>,
    /// Gap between consecutive arrivals.
    pub interarrival: Duration,
}

impl ClusterWorkload {
    /// Arrival tick of request `i`.
    pub fn arrival_tick(&self, i: usize) -> Tick {
        (i as u128 * self.interarrival.as_nanos()).min(u64::MAX as u128) as Tick
    }
}

/// What one cluster serving run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterRunStats {
    /// Requests offered by the workload.
    pub offered: u64,
    /// Responses collected (must equal `offered` — nothing is dropped).
    pub completed: u64,
    /// Answers whose residual, recomputed against the system sent, is
    /// non-finite or at least the scorer's bound (must stay 0).
    pub wrong: u64,
    /// Responses the verify step repaired with GEP.
    pub repaired: u64,
    /// Batches served by a different node than first routed to.
    pub rerouted: u64,
    /// Batches that fell all the way back to the coordinator after every
    /// remote candidate was exhausted.
    pub degraded_local: u64,
    /// Total RPC attempt timeouts across the run.
    pub rpc_timeouts: u64,
    /// Total RPC retries across the run.
    pub rpc_retries: u64,
    /// Per-request virtual latency (submit → response), ns, submission
    /// order.
    pub latencies_ns: Vec<u64>,
    /// Batches served per node.
    pub served_by_node: Vec<u64>,
    /// `(node, tick, requests)` per served batch, in serve order — the
    /// capacity timeline partition/heal assertions read.
    pub batch_log: Vec<(usize, Tick, usize)>,
    /// The virtual tick the run finished at.
    pub final_tick: Tick,
}

/// One node's serve of a batch: its answers, in request order, and the
/// tick the serve finished at.
struct NodeServe {
    node: usize,
    at: Tick,
    answers: Vec<SolveResponse<f32>>,
}

/// Serves copies of `flush`'s requests on `node`'s pool, on the device its
/// pool routes to. Infallible by design: `serve_flush` always answers
/// every request (degrading through engines down to CPU GEP). The copies
/// share each request's matrix and copy only its `d`, so a batch whose
/// response is lost can be served again.
fn serve_on_node(
    cluster: &Cluster,
    node: usize,
    flush: &FlushedBatch<f32>,
    dispatch: &DispatchConfig,
) -> NodeServe {
    let on = cluster.node(node);
    let (requests, tickets): (Vec<_>, Vec<_>) =
        flush.requests.iter().map(SolveRequest::attempt).unzip();
    serve_flush(
        DeviceCtx::routed(&on.pool, flush.n),
        &on.plans,
        &on.engine_breakers,
        &on.metrics,
        dispatch,
        FlushedBatch { n: flush.n, requests, reason: flush.reason },
    );
    let answers = tickets
        .iter()
        .map(|ticket| ticket.try_take().expect("synchronous serve fulfils every ticket"))
        .collect();
    NodeServe { node, at: cluster.clock().now(), answers }
}

/// The cluster as a sink of [`solver_service::drive`]: each flush routes
/// ring → hedged RPCs → local degrade and is served on its node's pool;
/// the gossip protocol is its timer.
pub struct ClusterSink<'c> {
    cluster: &'c mut Cluster,
    dispatch: DispatchConfig,
    next_gossip: Tick,
    stats: ClusterRunStats,
}

impl<'c> ClusterSink<'c> {
    /// A sink serving on `cluster` with the engine `cfg` pins, its first
    /// gossip round one period after the clock's start.
    pub fn new(cluster: &'c mut Cluster, cfg: &ClusterServiceConfig) -> Self {
        let dispatch = DispatchConfig {
            min_gpu_batch: MIN_GPU_BATCH,
            pin_engine: cfg.pin_engine,
            sanitize_first_flush: false,
            clock: cluster.clock().clone(),
            trace: cluster.trace().clone(),
            ..DispatchConfig::default()
        };
        let next_gossip = cluster.gossip_period().as_nanos().min(u64::MAX as u128) as Tick;
        let stats =
            ClusterRunStats { served_by_node: vec![0; cluster.len()], ..Default::default() };
        Self { cluster, dispatch, next_gossip, stats }
    }
}

impl Sink<f32> for ClusterSink<'_> {
    /// Routes one flushed batch: ring preference → hedged RPCs → local
    /// degrade. Never drops the batch.
    fn serve(&mut self, flush: FlushedBatch<f32>) {
        let cluster = &*self.cluster;
        let dispatch = &self.dispatch;
        let candidates: Vec<usize> = cluster
            .ring()
            .preference(HashRing::key(flush.n, 4))
            .into_iter()
            .filter(|&node| cluster.eligible_from(COORDINATOR, node))
            .collect();
        let routed = candidates.first().copied().unwrap_or(COORDINATOR);
        cluster.trace().emit(|| TraceEvent::RouteNode {
            at: cluster.clock().now(),
            n: flush.n as u64,
            node: routed as u64,
        });
        let occupancy = flush.requests.len();
        let req_bytes = occupancy * 4 * flush.n * 4;
        let resp_bytes = occupancy * flush.n * 4;
        let hedge_after = cluster.rpc_config().hedge_after.max(1);
        // A remote serve runs between the delivered legs; its answers count
        // only once its response is received, so a dropped response serves
        // again on retry without double counting.
        let remote = |node| {
            cluster
                .rpc(COORDINATOR, node, req_bytes, resp_bytes, hedge_after, || {
                    serve_on_node(cluster, node, &flush, dispatch)
                })
                .ok()
        };
        let served = candidates
            .iter()
            .find_map(|&node| match node {
                COORDINATOR => Some(serve_on_node(cluster, node, &flush, dispatch)),
                _ => remote(node),
            })
            .unwrap_or_else(|| {
                // Every candidate exhausted: serve at home, whatever it costs.
                self.stats.degraded_local += 1;
                serve_on_node(cluster, COORDINATOR, &flush, dispatch)
            });
        if served.node != routed {
            self.stats.rerouted += 1;
        }
        self.stats.served_by_node[served.node] += 1;
        self.stats.batch_log.push((served.node, served.at, occupancy));
        for (request, answer) in flush.requests.into_iter().zip(served.answers) {
            request.answer(answer);
        }
    }

    /// Runs every gossip round due at or before `now`. The driver pumps
    /// this before any work at a tick and after every serve: a serve
    /// advances the clock (RPC legs, backoff, solve time), and without the
    /// catch-up one long stall could carry the run to completion with the
    /// protocol blind to a node that died mid-stall.
    fn pump(&mut self, now: Tick) -> Option<Tick> {
        let period = self.cluster.gossip_period().as_nanos() as Tick;
        while now >= self.next_gossip {
            self.cluster.gossip_tick();
            self.next_gossip = self.next_gossip.saturating_add(period);
        }
        Some(self.next_gossip)
    }
}

/// Runs `workload` through the cluster serving loop to completion.
/// Deterministic: two calls on identically-configured clusters return
/// identical stats, tick for tick.
pub fn run_cluster_service(
    cluster: &mut Cluster,
    cfg: &ClusterServiceConfig,
    workload: &ClusterWorkload,
) -> ClusterRunStats {
    let (clock, trace) = (cluster.clock().clone(), cluster.trace().clone());
    let arrivals: Vec<Tick> = (0..workload.requests).map(|i| workload.arrival_tick(i)).collect();
    let mut generator = Generator::new(workload.seed);
    let mut sink = ClusterSink::new(cluster, cfg);
    let tally = drive(
        &mut sink,
        BucketTable::new(TARGET_BATCH, MAX_LINGER),
        &arrivals,
        |i| {
            let n = workload.sizes[i % workload.sizes.len()].max(2);
            generator.system::<f32>(Workload::DiagonallyDominant, n).into()
        },
        &clock,
        &trace,
    );
    // The driver's tally of what was served, plus the sink's routing, RPC
    // and per-node books.
    let stats = sink.stats;
    ClusterRunStats {
        offered: workload.requests as u64,
        completed: tally.latencies_ns.len() as u64,
        wrong: tally.wrong,
        repaired: tally.repairs,
        rpc_timeouts: cluster.rpc_timeouts(),
        rpc_retries: cluster.rpc_retries(),
        latencies_ns: tally.latencies_ns,
        final_tick: clock.now(),
        ..stats
    }
}
