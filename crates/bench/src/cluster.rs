//! The `cluster` subcommand: multi-node aggregate scaling, node-kill and
//! partition-heal failover, and two-level large-n solve verification on
//! the simulated cluster tier.
//!
//! ```text
//! cargo run --release -p bench -- cluster            # full sweep (1→4 nodes)
//! cargo run --release -p bench -- cluster --quick    # CI gate subset
//! ```
//!
//! Four experiments, four gates (exit 1 iff any fails):
//!
//! 1. **Scaling** — one batched stream over 32 size classes through the
//!    cluster dispatch loop at 1→4 nodes × 8 devices. Aggregate
//!    throughput is `completed / makespan`, where the makespan is the max
//!    per-device simulated busy time across the *whole cluster* (the
//!    critical path of a parallel fleet). Gate: 4 nodes deliver the
//!    baseline speedup over 1 node, plus the baseline throughput floor.
//! 2. **Node kill** — a 4×8 cluster where one non-coordinator node dies
//!    sticky mid-stream. Gate: zero lost requests, zero wrong answers,
//!    the dead node serves nothing after its crash tick, and only its
//!    peer breaker opens on the coordinator.
//! 3. **Partition heal** — the coordinator loses one direction of one
//!    link for a window mid-stream. Gate: zero loss, zero wrong,
//!    traffic fails over during the window and returns to the partitioned
//!    node after the heal (gossip + breaker cooldown).
//! 4. **Two-level solve** — `solve_partitioned` from a cluster
//!    coordinator at n = 2^18 (and 2^21 in the full sweep) over 4×8
//!    devices, plus one 2-node row at 2^18 where node 1's device 1 fails
//!    its first launch transiently, verified against CPU GEP / the l2
//!    residual. Gate: every row verifies, and the faulty row's fault
//!    fired and was retried.
//!
//! Everything runs on the virtual clock: every cell is a deterministic
//! replay of its cluster seed.

use crate::gate::Gate;
use crate::pool::{check_partitioned, PartitionCheck};
use crate::report::Table;
use cluster::{
    node_key, run_cluster_service, BlockedWindow, ClusterConfig, ClusterServiceConfig,
    ClusterWorkload, CrashWindow, NetFaultConfig, PeerState, COORDINATOR,
};
use gpu_sim::FaultConfig;
use gpu_solvers::{solve_partitioned, GpuAlgorithm};
use solver_service::{BreakerConfig, BreakerState, Engine};
use std::time::Duration;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// Devices per node, fixed across the sweep (the ISSUE's 4×8 target).
const DEVICES_PER_NODE: usize = 8;

/// The 4-node scaling point the gate reads.
const GATE_NODES: usize = 4;

/// Sticky node-kill tick for the failover cell (mid-stream).
const KILL_AT: u64 = 4_000_000;

/// Partition window for the heal cell.
const PART_FROM: u64 = 3_000_000;
const PART_UNTIL: u64 = 9_000_000;

/// Scaling-stream size classes with per-cycle batch weights. The four
/// pow2 classes each hash to a distinct home node on the
/// `SCALING_VNODES` ring; the weights equalize each node's measured
/// per-cycle GPU time under the pinned engine (bigger systems cost more
/// per batch, so they arrive less often).
const SCALING_CLASSES: [(usize, usize); 4] = [(128, 10), (256, 6), (1024, 2), (2048, 1)];

/// Ring layout under which `SCALING_CLASSES` spread one-per-node across
/// 4 nodes (checked by `scaling_classes_spread_one_per_node`).
const SCALING_VNODES: usize = 48;

/// Requests per scaling cycle (19 batches of 8).
const CYCLE_REQUESTS: usize = 152;

/// Engine pinned for the scaling stream: the global-memory CR path runs
/// every class on the GPU (shared-memory kernels cap out at n = 512 for
/// f32, and the autotune tournament would demote the rest to the CPU,
/// leaving nothing for the makespan to measure).
fn scaling_pin() -> Engine {
    Engine::Gpu(GpuAlgorithm::CrGlobalOnly)
}

/// One cycle of batch sizes, interleaved by weighted round-robin so a
/// node's batches spread over the stream instead of clumping.
fn batch_cycle() -> Vec<usize> {
    let total: usize = SCALING_CLASSES.iter().map(|&(_, w)| w).sum();
    let mut err = [0isize; SCALING_CLASSES.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        for (slot, &(_, w)) in SCALING_CLASSES.iter().enumerate() {
            err[slot] += w as isize;
        }
        let k = (0..SCALING_CLASSES.len()).max_by_key(|&slot| err[slot]).expect("non-empty");
        err[k] -= total as isize;
        out.push(SCALING_CLASSES[k].0);
    }
    out
}

fn scaling_workload(cycles: usize) -> ClusterWorkload {
    // Each class arrives in runs of the flush threshold (8), so buckets
    // fill and dispatch as real GPU batches instead of lingering out as
    // singletons.
    let sizes: Vec<usize> =
        batch_cycle().into_iter().flat_map(|n| std::iter::repeat_n(n, 8)).collect();
    debug_assert_eq!(sizes.len(), CYCLE_REQUESTS);
    ClusterWorkload {
        seed: 20100109,
        requests: cycles * CYCLE_REQUESTS,
        sizes,
        interarrival: Duration::from_micros(25),
    }
}

/// The failover cells' offered load: six size classes in batch-sized
/// runs (engine choice is irrelevant there — the gates are about loss,
/// routing, and breaker isolation). Classes 48 and 384 home on node 2
/// under the default ring, so killing or partitioning node 2 forces
/// real re-routes.
fn failover_workload(requests: usize) -> ClusterWorkload {
    let sizes = [64usize, 48, 96, 80, 384, 224]
        .into_iter()
        .flat_map(|n| std::iter::repeat_n(n, 8))
        .collect();
    ClusterWorkload { seed: 20100109, requests, sizes, interarrival: Duration::from_micros(25) }
}

/// Max per-device simulated busy time across every node — the cluster
/// makespan (critical path of the fleet).
fn cluster_makespan_ms(cluster: &cluster::Cluster) -> f64 {
    (0..cluster.len())
        .flat_map(|i| cluster.node(i).pool.devices().iter().map(|d| d.busy_ms()))
        .fold(0.0f64, f64::max)
        .max(1e-12)
}

/// Sum of per-device busy time — the serial work.
fn cluster_work_ms(cluster: &cluster::Cluster) -> f64 {
    (0..cluster.len())
        .flat_map(|i| cluster.node(i).pool.devices().iter().map(|d| d.busy_ms()))
        .sum()
}

/// Outcome of one scaling cell.
struct ScalingCell {
    nodes: usize,
    completed: u64,
    wrong: u64,
    makespan_ms: f64,
    work_ms: f64,
    throughput: f64,
}

fn drive_scaling(nodes: usize, cycles: usize) -> ScalingCell {
    let mut cfg = ClusterConfig::new(nodes, DEVICES_PER_NODE);
    cfg.vnodes = SCALING_VNODES;
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig { pin_engine: Some(scaling_pin()) };
    let stats = run_cluster_service(&mut cluster, &svc, &scaling_workload(cycles));
    let makespan_ms = cluster_makespan_ms(&cluster);
    ScalingCell {
        nodes,
        completed: stats.completed,
        wrong: stats.wrong,
        makespan_ms,
        work_ms: cluster_work_ms(&cluster),
        throughput: stats.completed as f64 / makespan_ms,
    }
}

/// Outcome of the node-kill cell.
struct KillOutcome {
    offered: u64,
    completed: u64,
    wrong: u64,
    rerouted: u64,
    rpc_timeouts: u64,
    dead_served_after_kill: bool,
    dead_isolated: bool,
    survivors_closed: bool,
    availability: f64,
}

impl KillOutcome {
    fn passes(&self) -> bool {
        self.completed == self.offered
            && self.wrong == 0
            && self.rerouted > 0
            && !self.dead_served_after_kill
            && self.dead_isolated
            && self.survivors_closed
    }
}

fn drive_kill(requests: usize) -> KillOutcome {
    const DEAD: usize = 2;
    let mut cfg = ClusterConfig::new(GATE_NODES, DEVICES_PER_NODE);
    cfg.net_fault = NetFaultConfig {
        crashes: vec![CrashWindow { node: DEAD, down_from: KILL_AT, up_at: None }],
        ..NetFaultConfig::quiet(0)
    };
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig::default();
    let stats = run_cluster_service(&mut cluster, &svc, &failover_workload(requests));
    let survivors_closed = (0..GATE_NODES).filter(|&j| j != DEAD && j != COORDINATOR).all(|j| {
        cluster.node(COORDINATOR).peer_breakers.state(&node_key(j)) != BreakerState::Open
            && cluster.gossip().view(COORDINATOR, j) == PeerState::Alive
    });
    KillOutcome {
        offered: stats.offered,
        completed: stats.completed,
        wrong: stats.wrong,
        rerouted: stats.rerouted,
        rpc_timeouts: stats.rpc_timeouts,
        dead_served_after_kill: stats
            .batch_log
            .iter()
            .any(|&(node, at, _)| node == DEAD && at >= KILL_AT),
        // The breaker trips Open at the kill and must never re-Close; by
        // run end the cooldown may have lapsed it to HalfOpen (probing),
        // so the gate is "not Closed" plus the gossip verdict Dead.
        dead_isolated: cluster.node(COORDINATOR).peer_breakers.state(&node_key(DEAD))
            != BreakerState::Closed
            && cluster.gossip().view(COORDINATOR, DEAD) == PeerState::Dead,
        survivors_closed,
        availability: stats.completed as f64 / stats.offered.max(1) as f64,
    }
}

/// Outcome of the partition-heal cell.
struct HealOutcome {
    offered: u64,
    completed: u64,
    wrong: u64,
    rerouted: u64,
    served_before: bool,
    served_after_heal: bool,
    view_healed: bool,
    availability: f64,
}

impl HealOutcome {
    fn passes(&self) -> bool {
        self.completed == self.offered
            && self.wrong == 0
            && self.rerouted > 0
            && self.served_before
            && self.served_after_heal
            && self.view_healed
    }
}

fn drive_heal(requests: usize) -> HealOutcome {
    const FAR: usize = 2;
    let mut cfg = ClusterConfig::new(GATE_NODES, DEVICES_PER_NODE);
    // Breaker cooldown tuned to the gossip cadence: the peer breaker
    // trips when gossip declares FAR dead (~5 ms in), and the first
    // delivered ping after the 9 ms heal must be able to probe it closed
    // while the stream still has traffic left to send back home.
    cfg.breaker = BreakerConfig { cooldown: Duration::from_millis(2), ..BreakerConfig::default() };
    // Asymmetric: only coordinator→FAR is blocked; FAR stays up and keeps
    // answering everyone else.
    cfg.net_fault = NetFaultConfig {
        blocked: vec![BlockedWindow { src: 0, dst: FAR, from: PART_FROM, until: Some(PART_UNTIL) }],
        ..NetFaultConfig::quiet(0)
    };
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig::default();
    let stats = run_cluster_service(&mut cluster, &svc, &failover_workload(requests));
    HealOutcome {
        offered: stats.offered,
        completed: stats.completed,
        wrong: stats.wrong,
        rerouted: stats.rerouted,
        served_before: stats.batch_log.iter().any(|&(node, at, _)| node == FAR && at < PART_FROM),
        served_after_heal: stats
            .batch_log
            .iter()
            .any(|&(node, at, _)| node == FAR && at > PART_UNTIL),
        view_healed: cluster.gossip().view(0, FAR) == PeerState::Alive
            && cluster.node(0).peer_breakers.state(&node_key(FAR)) != BreakerState::Open,
        availability: stats.completed as f64 / stats.offered.max(1) as f64,
    }
}

/// Outcome of one two-level solve verification row.
struct SolveCell {
    nodes: usize,
    n: usize,
    /// The shared partitioned-solve check; the retry row also needs its
    /// fault to have fired.
    check: PartitionCheck,
    chunks: usize,
    interface_rows: usize,
    local_ms: f64,
    interface_ms: f64,
    net_ms: f64,
    /// Transient launch faults injected, for the retry row only.
    launch_faults: Option<u64>,
}

/// One two-level solve. With `fault_burst`, node 1's device 1 fails its
/// first launch transiently, so the solve must retry it.
fn drive_solve(nodes: usize, n: usize, elementwise: bool, fault_burst: bool) -> SolveCell {
    let sys: TridiagonalSystem<f64> =
        Generator::new(20100109 ^ n as u64).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(nodes, DEVICES_PER_NODE);
    if fault_burst {
        let burst = FaultConfig { launch_fault_burst: 1, ..FaultConfig::quiet(0) };
        cfg.device_fault_overrides = vec![(1, 1, burst)];
    }
    let cluster = cfg.build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 8).expect("cluster solve");
    let launch_faults = fault_burst.then(|| {
        cluster.node(1).pool.device(1).fault_stats().map_or(0, |stats| stats.launch_failures)
    });
    let x_ref = elementwise.then(|| cpu_solvers::gep::solve(&sys).expect("GEP reference"));
    let mut check = check_partitioned(&sys, &report.x, x_ref.as_deref());
    // The retry row counts only if its fault actually fired.
    check.verified &= launch_faults != Some(0);
    SolveCell {
        nodes,
        n,
        check,
        chunks: report.chunks,
        interface_rows: report.interface_rows,
        local_ms: report.timing.local_ms,
        interface_ms: report.timing.interface_ms,
        net_ms: report.timing.net_ms,
        launch_faults,
    }
}

fn json_scaling(cell: &ScalingCell, speedup: f64) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"cluster-scaling\",\"nodes\":{},\"devices\":{},",
            "\"completed\":{},\"wrong\":{},\"makespan_ms\":{:.3},\"work_ms\":{:.3},",
            "\"throughput_per_ms\":{:.3},\"speedup\":{:.2}}}"
        ),
        cell.nodes,
        cell.nodes * DEVICES_PER_NODE,
        cell.completed,
        cell.wrong,
        cell.makespan_ms,
        cell.work_ms,
        cell.throughput,
        speedup,
    )
}

fn json_kill(out: &KillOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"cluster-kill\",\"offered\":{},\"completed\":{},",
            "\"wrong\":{},\"rerouted\":{},\"rpc_timeouts\":{},\"availability\":{:.4},",
            "\"dead_isolated\":{},\"survivors_closed\":{}}}"
        ),
        out.offered,
        out.completed,
        out.wrong,
        out.rerouted,
        out.rpc_timeouts,
        out.availability,
        out.dead_isolated,
        out.survivors_closed,
    )
}

fn json_heal(out: &HealOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"cluster-heal\",\"offered\":{},\"completed\":{},",
            "\"wrong\":{},\"rerouted\":{},\"availability\":{:.4},",
            "\"served_before\":{},\"served_after_heal\":{},\"view_healed\":{}}}"
        ),
        out.offered,
        out.completed,
        out.wrong,
        out.rerouted,
        out.availability,
        out.served_before,
        out.served_after_heal,
        out.view_healed,
    )
}

fn json_solve(cell: &SolveCell) -> String {
    let faults = cell.launch_faults.map_or(String::new(), |k| format!(",\"launch_faults\":{k}"));
    format!(
        concat!(
            "{{\"experiment\":\"cluster-solve\",\"nodes\":{},\"n\":{},\"verified\":{},",
            "\"rel_err\":{},\"residual\":{:.3e},\"chunks\":{},\"interface_rows\":{},",
            "\"local_ms\":{:.4},\"interface_ms\":{:.4},\"net_ms\":{:.4}{}}}"
        ),
        cell.nodes,
        cell.n,
        cell.check.verified,
        if cell.check.max_rel_err.is_finite() {
            format!("{:.3e}", cell.check.max_rel_err)
        } else {
            "null".to_string()
        },
        cell.check.residual,
        cell.chunks,
        cell.interface_rows,
        cell.local_ms,
        cell.interface_ms,
        cell.net_ms,
        faults,
    )
}

/// Runs the cluster sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("cluster", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let quick = gate.args.quick;
    let requests = if quick { 512 } else { 1024 };
    let cycles = if quick { 8 } else { 16 };
    let node_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };

    // 1. Scaling.
    let scaling_requests = cycles * CYCLE_REQUESTS;
    let mut scaling = Table::new(
        format!(
            "Cluster scaling: {scaling_requests} pinned cr-global requests over 4 size classes \
             (one home node each, cost-weighted arrivals), {DEVICES_PER_NODE} devices/node, \
             ring-sticky routing; throughput = completed / max per-device busy ms"
        ),
        &["nodes", "devices", "completed", "wrong", "makespan ms", "work ms", "req/ms", "speedup"],
    );
    let mut baseline: Option<f64> = None;
    let mut at_gate: Vec<(&str, f64)> = Vec::new();
    for &nodes in node_counts {
        eprintln!("[cluster] scaling @ {nodes} node(s) ...");
        let cell = drive_scaling(nodes, cycles);
        let speedup = match baseline {
            None => {
                baseline = Some(cell.throughput);
                1.0
            }
            Some(base) => cell.throughput / base,
        };
        if nodes == GATE_NODES {
            at_gate = vec![("speedup", speedup), ("throughput_per_ms", cell.throughput)];
        }
        gate.check(
            cell.wrong == 0 && cell.completed == scaling_requests as u64,
            format!(
                "scaling @ {nodes} node(s): {}/{scaling_requests} completed, {} wrong",
                cell.completed, cell.wrong
            ),
        );
        scaling.row(vec![
            nodes.to_string(),
            (nodes * DEVICES_PER_NODE).to_string(),
            cell.completed.to_string(),
            cell.wrong.to_string(),
            format!("{:.3}", cell.makespan_ms),
            format!("{:.3}", cell.work_ms),
            format!("{:.2}", cell.throughput),
            format!("{speedup:.2}x"),
        ]);
        gate.row(json_scaling(&cell, speedup));
    }
    scaling.note(format!(
        "gate (baseline): {GATE_NODES}-node speedup and throughput vs baselines/cluster.json — \
         measured {}",
        at_gate.first().map_or("n/a".to_string(), |&(_, s)| format!("{s:.2}x")),
    ));
    println!("{scaling}");
    gate.floors("scaling-4node", &at_gate);

    // 2. Node kill.
    eprintln!("[cluster] node kill (node 2 dies sticky at 4 ms) ...");
    let kill = drive_kill(requests);
    let kill_ok = kill.passes();
    gate.check(kill_ok, "node-kill: a request was lost, wrong or mis-routed (see its row)");
    let mut ktable = Table::new(
        format!(
            "Node-kill failover: {GATE_NODES}x{DEVICES_PER_NODE}, node 2 dies sticky mid-stream"
        ),
        &["offered", "completed", "wrong", "rerouted", "rpc timeouts", "breakers", "gate"],
    );
    ktable.row(vec![
        kill.offered.to_string(),
        kill.completed.to_string(),
        kill.wrong.to_string(),
        kill.rerouted.to_string(),
        kill.rpc_timeouts.to_string(),
        format!(
            "node2 {}, others {}",
            if kill.dead_isolated { "tripped" } else { "NOT tripped" },
            if kill.survivors_closed { "closed" } else { "NOT closed" }
        ),
        if kill_ok { "pass".into() } else { "FAIL".into() },
    ]);
    ktable.note("gate: zero loss, zero wrong, backlog drains to survivors, only node 2 breaks");
    println!("{ktable}");
    gate.row(json_kill(&kill));
    gate.floors("node-kill", &[("availability", kill.availability), ("wrong", kill.wrong as f64)]);

    // 3. Partition heal.
    eprintln!("[cluster] partition heal (0->2 blocked 3-9 ms) ...");
    let heal = drive_heal(requests.max(600));
    let heal_ok = heal.passes();
    gate.check(
        heal_ok,
        "partition-heal: a request was lost, wrong or never re-routed (see its row)",
    );
    let mut htable = Table::new(
        "Partition-heal failover: coordinator loses 0->2 for 6 ms; gossip detects, ring \
         re-routes, heal restores",
        &["offered", "completed", "wrong", "rerouted", "before", "after heal", "view", "gate"],
    );
    htable.row(vec![
        heal.offered.to_string(),
        heal.completed.to_string(),
        heal.wrong.to_string(),
        heal.rerouted.to_string(),
        heal.served_before.to_string(),
        heal.served_after_heal.to_string(),
        if heal.view_healed { "alive".into() } else { "NOT alive".to_string() },
        if heal_ok { "pass".into() } else { "FAIL".into() },
    ]);
    htable
        .note("gate: zero loss, zero wrong, re-route during the window, node 2 serves again after");
    println!("{htable}");
    gate.row(json_heal(&heal));
    gate.floors(
        "partition-heal",
        &[("availability", heal.availability), ("wrong", heal.wrong as f64)],
    );

    // 4. Two-level solve verification.
    let mut sizes: Vec<(usize, bool)> = vec![(1 << 18, true)];
    if !quick {
        sizes.push((1 << 21, false));
    }
    let mut stable = Table::new(
        "Two-level cluster solves (node-local modified Thomas -> cluster PCR interface -> \
         fan-out back-substitution), verified against CPU GEP",
        &[
            "nodes",
            "n",
            "chunks",
            "iface rows",
            "local ms",
            "iface ms",
            "net ms",
            "residual",
            "gate",
        ],
    );
    // Every size on every node count, then the retry row: 2 nodes at
    // 2^18 with one device's first launch failing transiently.
    let cells = sizes
        .iter()
        .flat_map(|&(n, elementwise)| {
            node_counts.iter().map(move |&nodes| (nodes, n, elementwise, false))
        })
        .chain([(2, 1 << 18, true, true)]);
    for (nodes, n, elementwise, fault_burst) in cells {
        eprintln!("[cluster] solve n=2^{} @ {nodes} node(s) ...", n.trailing_zeros());
        let cell = drive_solve(nodes, n, elementwise, fault_burst);
        gate.check(
            cell.check.verified,
            format!(
                "solve n=2^{} @ {nodes} node(s){}: rel err {:.3e}, residual {:.3e}, \
                 launch faults {:?}",
                n.trailing_zeros(),
                if fault_burst { " (retry row)" } else { "" },
                cell.check.max_rel_err,
                cell.check.residual,
                cell.launch_faults
            ),
        );
        stable.row(vec![
            if fault_burst { format!("{nodes}*") } else { nodes.to_string() },
            format!("2^{}", n.trailing_zeros()),
            cell.chunks.to_string(),
            cell.interface_rows.to_string(),
            format!("{:.4}", cell.local_ms),
            format!("{:.4}", cell.interface_ms),
            format!("{:.4}", cell.net_ms),
            format!("{:.2e}", cell.check.residual),
            if cell.check.verified { "pass".into() } else { "FAIL".into() },
        ]);
        gate.row(json_solve(&cell));
    }
    stable.note("gate: element-wise rel err < 1e-9 vs GEP (2^18) and l2 residual < 1e-6");
    stable.note(
        "2*: node 1's device 1 fails its first launch transiently; the gate needs it retried",
    );
    println!("{stable}");

    gate.finish(format!(
        "{GATE_NODES}-node scaling held its floors, node-kill and partition-heal lossless, \
         all two-level solves verified"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_cell_passes_its_gate() {
        let out = drive_kill(512);
        assert!(
            out.passes(),
            "completed={}/{} wrong={} rerouted={} open={} closed={}",
            out.completed,
            out.offered,
            out.wrong,
            out.rerouted,
            out.dead_isolated,
            out.survivors_closed
        );
    }

    #[test]
    fn heal_cell_passes_its_gate() {
        let out = drive_heal(600);
        assert!(
            out.passes(),
            "completed={}/{} wrong={} rerouted={} before={} after={} view={}",
            out.completed,
            out.offered,
            out.wrong,
            out.rerouted,
            out.served_before,
            out.served_after_heal,
            out.view_healed
        );
    }

    #[test]
    fn solve_cell_verifies_at_2_16() {
        let cell = drive_solve(4, 1 << 16, true, false);
        let check = &cell.check;
        assert!(
            check.verified,
            "rel err {:.3e} residual {:.3e}",
            check.max_rel_err, check.residual
        );
        assert_eq!(cell.interface_rows, 2 * cell.chunks);
        assert!(!json_solve(&cell).contains("launch_faults"));
    }

    #[test]
    fn retry_cell_fires_its_fault_and_verifies() {
        let cell = drive_solve(2, 1 << 16, true, true);
        assert_eq!(cell.launch_faults, Some(1));
        let check = &cell.check;
        assert!(
            check.verified,
            "rel err {:.3e} residual {:.3e}",
            check.max_rel_err, check.residual
        );
        assert!(json_solve(&cell).ends_with(",\"launch_faults\":1}"));
    }

    #[test]
    fn scaling_classes_spread_one_per_node() {
        use cluster::HashRing;
        let ring = HashRing::new(GATE_NODES, SCALING_VNODES);
        let homes: Vec<usize> =
            SCALING_CLASSES.iter().map(|&(n, _)| ring.home(HashRing::key(n, 4))).collect();
        let mut sorted = homes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "classes must home one per node, got {homes:?}");
    }

    #[test]
    fn batch_cycle_matches_weights() {
        let cycle = batch_cycle();
        assert_eq!(cycle.len() * 8, CYCLE_REQUESTS);
        for (n, w) in SCALING_CLASSES {
            assert_eq!(cycle.iter().filter(|&&c| c == n).count(), w, "class {n}");
        }
        // Interleaved: the two largest classes never open the cycle
        // back-to-back (weighted round-robin spreads them).
        assert_eq!(cycle[0], 128);
    }

    #[test]
    fn json_rows_are_balanced() {
        let cell = drive_scaling(1, 1);
        let line = json_scaling(&cell, 1.0);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
