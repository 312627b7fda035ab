//! Cluster dispatch: the single-threaded, sim-clock serving loop one
//! level above `solver_service` — batches form on the coordinator,
//! route to their size class's home node on the hash ring, and ride
//! deadline-guarded RPCs to be served by that node's device pool.
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
//!
//! The loop follows the trace-lab harness tie-break rules (due flushes
//! before arrivals, arrivals in index order, full-bucket flushes served
//! inline, shutdown drain ascending) plus one more: the gossip protocol
//! ticks fire at their period *before* any work due at the same tick —
//! health decisions at tick `t` see every heartbeat outcome of `t`.

use crate::cluster::Cluster;
use crate::ring::HashRing;
use gpu_sim::Tick;
use solver_service::{
    make_request_at, serve_flush, BucketTable, DeviceCtx, DispatchConfig, Engine, FlushReason,
    FlushedBatch, SolveRequest, SolveResponse, TraceEvent,
};
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::{Generator, Matrix, TridiagonalSystem, Workload};

/// Serving-loop knobs for one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterServiceConfig {
    /// Bucket flush threshold.
    pub target_batch: usize,
    /// Bucket linger bound.
    pub max_linger: Duration,
    /// Smallest batch worth a GPU engine (below: CPU Thomas).
    pub min_gpu_batch: usize,
    /// Pin every batch to one engine (None = autotune per size class).
    pub pin_engine: Option<Engine>,
    /// The node requests arrive at and batches route from.
    pub coordinator: usize,
    /// Residual a served f32 answer must beat to count as correct.
    pub residual_bound: f64,
}

impl Default for ClusterServiceConfig {
    fn default() -> Self {
        Self {
            target_batch: 8,
            max_linger: Duration::from_micros(200),
            min_gpu_batch: 4,
            pin_engine: None,
            coordinator: 0,
            residual_bound: 1e-2,
        }
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRunStats {
    /// Requests offered by the workload.
    pub offered: u64,
    /// Responses collected (must equal `offered` — nothing is dropped).
    pub completed: u64,
    /// Responses whose residual escaped the bound (must stay 0).
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
    /// Per-request virtual latency (submit → response), ns, completion
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

impl ClusterRunStats {
    /// Aggregate throughput proxy: completed requests per simulated
    /// second of the busiest device (the cluster makespan is bounded by
    /// its most loaded device).
    pub fn throughput_per_busiest_ms(&self, max_busy_ms: f64) -> f64 {
        if max_busy_ms <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / max_busy_ms
    }
}

/// A flushed batch with its requests decomposed for (re-)dispatch: the
/// original request objects are consumed, and every dispatch attempt
/// builds fresh request/ticket pairs carrying the original submit ticks
/// so latency accounting survives retries and failover.
struct Pending {
    n: usize,
    ids: Vec<u64>,
    submitted: Vec<Tick>,
    systems: Vec<TridiagonalSystem<f32>>,
    reason: FlushReason,
}

impl Pending {
    fn from_flush(flush: FlushedBatch<f32>) -> Self {
        let FlushedBatch { n, requests, reason } = flush;
        let mut ids = Vec::with_capacity(requests.len());
        let mut submitted = Vec::with_capacity(requests.len());
        let mut systems = Vec::with_capacity(requests.len());
        for req in requests {
            let SolveRequest { id, matrix, d, submitted_at, .. } = req;
            let Matrix { a, b, c } = Arc::unwrap_or_clone(matrix);
            ids.push(id);
            submitted.push(submitted_at);
            systems.push(TridiagonalSystem { a, b, c, d });
        }
        Self { n, ids, submitted, systems, reason }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Serves `pending` on `node`'s pool and folds the responses into the
/// stats. Infallible by design: `serve_flush` always fulfils every
/// ticket (degrading through engines down to CPU GEP).
fn serve_on_node(
    cluster: &Cluster,
    node_idx: usize,
    pending: &Pending,
    cfg: &ClusterServiceConfig,
    stats: &mut ClusterRunStats,
) {
    let node = cluster.node(node_idx);
    let device = node.pool.route(pending.n).unwrap_or(0);
    let dispatch = DispatchConfig {
        min_gpu_batch: cfg.min_gpu_batch,
        pin_engine: cfg.pin_engine,
        sanitize_first_flush: false,
        clock: cluster.clock().clone(),
        trace: cluster.trace().clone(),
        ..DispatchConfig::default()
    };
    let mut requests = Vec::with_capacity(pending.len());
    let mut tickets = Vec::with_capacity(pending.len());
    for i in 0..pending.len() {
        let (req, ticket) =
            make_request_at(pending.ids[i], pending.systems[i].clone(), pending.submitted[i], None);
        requests.push(req);
        tickets.push(ticket);
    }
    let flush = FlushedBatch { n: pending.n, requests, reason: pending.reason };
    serve_flush(
        DeviceCtx {
            launcher: &node.pool.device(device).launcher,
            device_id: device,
            pool: Some(&node.pool),
        },
        &node.plans,
        &node.engine_breakers,
        &node.metrics,
        &dispatch,
        flush,
    );
    for ticket in tickets {
        let response: SolveResponse<f32> =
            ticket.try_take().expect("synchronous serve fulfils every ticket");
        stats.completed += 1;
        stats.latencies_ns.push(response.latency.as_nanos().min(u64::MAX as u128) as u64);
        if !response.residual.is_finite() || response.residual >= cfg.residual_bound {
            stats.wrong += 1;
        }
        stats.repaired += u64::from(response.repaired);
    }
    stats.served_by_node[node_idx] += 1;
    stats.batch_log.push((node_idx, cluster.clock().now(), pending.len()));
}

/// Routes one flushed batch: ring preference → hedged RPCs → local
/// degrade. Never drops the batch.
fn dispatch_flush(
    cluster: &Cluster,
    flush: FlushedBatch<f32>,
    cfg: &ClusterServiceConfig,
    stats: &mut ClusterRunStats,
) {
    let pending = Pending::from_flush(flush);
    let key = HashRing::key(pending.n, 4);
    let coordinator = cfg.coordinator;
    let candidates: Vec<usize> = cluster
        .ring()
        .preference(key)
        .into_iter()
        .filter(|&node| cluster.eligible_from(coordinator, node))
        .collect();
    let routed = candidates.first().copied().unwrap_or(coordinator);
    cluster.trace().emit(|| TraceEvent::RouteNode {
        at: cluster.clock().now(),
        n: pending.n as u64,
        node: routed as u64,
    });
    let occupancy = pending.len();
    let req_bytes = occupancy * 4 * pending.n * 4;
    let resp_bytes = occupancy * pending.n * 4;
    let hedge_after = cluster.rpc_config().hedge_after.max(1);
    for &candidate in &candidates {
        if candidate == coordinator {
            serve_on_node(cluster, candidate, &pending, cfg, stats);
            if candidate != routed {
                stats.rerouted += 1;
            }
            return;
        }
        let outcome =
            cluster.rpc(coordinator, candidate, req_bytes, resp_bytes, hedge_after, || {
                // The callee's serve runs between the delivered legs; stats
                // mutate only on a *received* response, so a dropped response
                // re-serves on retry without double counting.
                let mut local = stats_shell(cluster.len());
                serve_on_node(cluster, candidate, &pending, cfg, &mut local);
                local
            });
        if let Ok(local) = outcome {
            merge_stats(stats, local);
            if candidate != routed {
                stats.rerouted += 1;
            }
            return;
        }
    }
    // Every candidate exhausted: serve at home, whatever it costs.
    serve_on_node(cluster, coordinator, &pending, cfg, stats);
    stats.degraded_local += 1;
    if coordinator != routed {
        stats.rerouted += 1;
    }
}

/// Runs every gossip round due at or before the current tick. Dispatches
/// advance the clock (RPC legs, backoff, solve time), so this must run
/// after each dispatch as well as at the top of the driver loop —
/// otherwise one long stall can carry the run to completion with the
/// protocol blind to a node that died mid-stall.
fn pump_gossip(cluster: &mut Cluster, next_gossip: &mut Tick, period: Duration) {
    while cluster.clock().now() >= *next_gossip {
        cluster.gossip_tick();
        *next_gossip = next_gossip.saturating_add(period.as_nanos() as Tick);
    }
}

fn stats_shell(nodes: usize) -> ClusterRunStats {
    ClusterRunStats {
        offered: 0,
        completed: 0,
        wrong: 0,
        repaired: 0,
        rerouted: 0,
        degraded_local: 0,
        rpc_timeouts: 0,
        rpc_retries: 0,
        latencies_ns: Vec::new(),
        served_by_node: vec![0; nodes],
        batch_log: Vec::new(),
        final_tick: 0,
    }
}

fn merge_stats(into: &mut ClusterRunStats, from: ClusterRunStats) {
    into.completed += from.completed;
    into.wrong += from.wrong;
    into.repaired += from.repaired;
    into.latencies_ns.extend(from.latencies_ns);
    for (a, b) in into.served_by_node.iter_mut().zip(from.served_by_node) {
        *a += b;
    }
    into.batch_log.extend(from.batch_log);
}

/// Runs `workload` through the cluster serving loop to completion.
/// Deterministic: two calls on identically-configured clusters return
/// identical stats, tick for tick.
pub fn run_cluster_service(
    cluster: &mut Cluster,
    cfg: &ClusterServiceConfig,
    workload: &ClusterWorkload,
) -> ClusterRunStats {
    let clock = cluster.clock().clone();
    let gossip_period = cluster.gossip_period();
    let mut next_gossip: Tick = gossip_period.as_nanos().min(u64::MAX as u128) as Tick;
    let mut table: BucketTable<f32> = BucketTable::new(cfg.target_batch.max(1), cfg.max_linger);
    let mut generator = Generator::new(workload.seed);
    let mut stats = stats_shell(cluster.len());
    stats.offered = workload.requests as u64;

    let arrivals: Vec<Tick> = (0..workload.requests).map(|i| workload.arrival_tick(i)).collect();
    let mut i = 0usize;
    let mut next_id = 0u64;

    while i < arrivals.len() || table.pending() > 0 {
        let mut next = match (arrivals.get(i).copied(), table.next_deadline()) {
            (Some(a), Some(d)) => a.min(d),
            (Some(a), None) => a,
            (None, Some(d)) => d,
            (None, None) => break,
        };
        // Gossip fires on its period grid even when no work is due.
        next = next.max(clock.now()).min(next_gossip.max(clock.now()));
        clock.advance_to(next);

        // Gossip rounds due at or before this tick run first, so routing
        // below sees every heartbeat outcome of the tick.
        pump_gossip(cluster, &mut next_gossip, gossip_period);

        // Rule 1: due linger flushes before arrivals.
        for flush in table.flush_expired(clock.now()) {
            dispatch_flush(cluster, flush, cfg, &mut stats);
            pump_gossip(cluster, &mut next_gossip, gossip_period);
        }

        // Rules 2–3: admit arrivals in order, serving full-bucket flushes
        // inline.
        while i < arrivals.len() && arrivals[i] <= clock.now() {
            let n = workload.sizes[i % workload.sizes.len()].max(2);
            let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, n);
            let at = clock.now();
            let id = next_id;
            next_id += 1;
            cluster.trace().emit(|| TraceEvent::Admit { at, id, n: n as u64 });
            // The dispatch path rebuilds request/ticket pairs per attempt;
            // the admission ticket is bookkeeping only.
            let (request, _ticket) = make_request_at(id, system, at, None);
            if let Some(flush) = table.insert(request, at) {
                dispatch_flush(cluster, flush, cfg, &mut stats);
                pump_gossip(cluster, &mut next_gossip, gossip_period);
            }
            i += 1;
        }
    }

    // Rule 4: shutdown drain, ascending size order.
    for flush in table.flush_all() {
        dispatch_flush(cluster, flush, cfg, &mut stats);
        pump_gossip(cluster, &mut next_gossip, gossip_period);
    }

    stats.rpc_timeouts = cluster.rpc_timeouts();
    stats.rpc_retries = cluster.rpc_retries();
    stats.final_tick = clock.now();
    stats
}
