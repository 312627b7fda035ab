//! Integration tests for the two-level cluster partitioned solve:
//! correctness against the CPU GEP oracle, failover around dead nodes and
//! devices, retries of transient device faults, agreement with a pool,
//! and bit-identical determinism under network chaos.

use cluster::{BlockedWindow, ClusterConfig, CrashWindow, NetFaultConfig};
use gpu_sim::FaultConfig;
use gpu_solvers::partitioned::solve_partitioned;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

#[test]
fn four_node_solve_matches_gep() {
    let n = 1 << 14;
    let sys: TridiagonalSystem<f64> = Generator::new(41).system(Workload::DiagonallyDominant, n);
    let cluster = ClusterConfig::new(4, 4).build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
    for i in 0..n {
        assert!((report.x[i] - x_ref[i]).abs() < 1e-9, "i={i}");
    }
    let nodes: Vec<usize> = report.spans.iter().map(|s| s.node).collect();
    assert_eq!(nodes, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    assert_eq!(report.spans.last().unwrap().end, n);
    // Every node's devices did local + back-substitution work.
    for node in cluster.nodes() {
        for d in node.pool.devices() {
            assert!(d.dispatched() >= 2, "node {} device {} idle", node.id, d.id);
        }
    }
    assert!(report.timing.net_ms > 0.0, "remote spans must be priced");
}

#[test]
fn cluster_solve_agrees_with_single_node_interface_algebra() {
    // The node-first/device-second cut must produce the same answer as a
    // flat device cut: both reduce to the same interface algebra.
    let n = 4096;
    let sys: TridiagonalSystem<f64> = Generator::new(7).system(Workload::DiagonallyDominant, n);
    let cluster = ClusterConfig::new(2, 2).build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    let pool = device_pool::PoolConfig::new(4).build();
    let flat = solve_partitioned(&pool, &sys, 4).unwrap();
    let r_cluster = l2_residual(&sys, &report.x).unwrap();
    let r_flat = l2_residual(&sys, &flat.x).unwrap();
    assert!(r_cluster < 1e-8, "cluster residual {r_cluster}");
    assert!(r_flat < 1e-8, "flat residual {r_flat}");
    assert_eq!(report.interface_rows, 2 * report.chunks);
}

#[test]
fn dead_node_is_excluded_and_survivors_solve() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(3).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(3, 2);
    // Node 1 is down from the start and never comes back.
    cfg.net_fault = NetFaultConfig {
        crashes: vec![CrashWindow { node: 1, down_from: 0, up_at: None }],
        ..NetFaultConfig::quiet(0)
    };
    let cluster = cfg.build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    assert!(report.spans.iter().all(|s| s.node != 1), "dead node used: {:?}", report.spans);
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
}

#[test]
fn asymmetrically_partitioned_node_is_routed_around() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(9).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(3, 2);
    // Coordinator 0 cannot reach node 2 (one direction only) — RPCs to 2
    // lose their request leg and exhaust retries.
    cfg.net_fault = NetFaultConfig {
        blocked: vec![BlockedWindow { src: 0, dst: 2, from: 0, until: None }],
        ..NetFaultConfig::quiet(0)
    };
    let cluster = cfg.build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    assert!(report.spans.iter().all(|s| s.node != 2), "partitioned node used: {:?}", report.spans);
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
    assert!(cluster.rpc_timeouts() > 0, "the partition must actually cost timeouts");
}

#[test]
fn device_death_inside_a_node_replans_without_excluding_the_node() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(5).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(2, 3);
    // Node 1, device 1 dies on its first launch; the node's other devices
    // keep the span.
    cfg.device_fault_overrides =
        vec![(1, 1, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
    let cluster = cfg.build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    assert!(cluster.node(1).pool.is_lost(1), "the dead device must be marked lost");
    assert!(report.spans.iter().any(|s| s.node == 1), "node 1 dropped: {:?}", report.spans);
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
}

#[test]
fn a_transient_device_fault_retries_instead_of_aborting() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(5).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(2, 2);
    // Node 1, device 1 fails its first launch transiently.
    cfg.device_fault_overrides =
        vec![(1, 1, FaultConfig { launch_fault_burst: 1, ..FaultConfig::quiet(0) })];
    let cluster = cfg.build();
    let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
    assert!(report.spans.iter().any(|s| s.node == 1), "node 1 dropped: {:?}", report.spans);
    assert!(!cluster.node(1).pool.is_lost(1), "a transient fault must not lose the device");
    let stats = cluster.node(1).pool.device(1).fault_stats().unwrap();
    assert_eq!(stats.launch_failures, 1, "the fault must actually fire");
}

#[test]
fn a_one_node_cluster_reports_exactly_what_a_pool_does() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(17).system(Workload::DiagonallyDominant, n);
    let cluster = ClusterConfig::new(1, 4).build();
    let on_cluster = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
    let pool = device_pool::PoolConfig::new(4).build();
    let on_pool = solve_partitioned(&pool, &sys, 4).unwrap();
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&on_cluster.x), bits(&on_pool.x), "solutions differ");
    // Downloads count on both; a lone coordinator never touches the net.
    assert_eq!(on_cluster.timing, on_pool.timing);
    assert_eq!(on_cluster.timing.net_ms, 0.0);
    assert_eq!(on_cluster, on_pool, "every report field must match");
}

#[test]
fn all_nodes_dead_surfaces_device_lost() {
    let sys: TridiagonalSystem<f64> = Generator::new(1).system(Workload::DiagonallyDominant, 256);
    let cluster = ClusterConfig::new(2, 2).build();
    for node in cluster.nodes() {
        for d in 0..node.pool.len() {
            node.pool.mark_lost(d);
        }
    }
    assert!(solve_partitioned(&cluster.coordinator(0), &sys, 4).is_err());
}

#[test]
fn chaos_solve_is_bit_identical_across_runs() {
    let n = 8192;
    let run = || {
        let sys: TridiagonalSystem<f64> =
            Generator::new(13).system(Workload::DiagonallyDominant, n);
        let mut cfg = ClusterConfig::new(3, 2);
        cfg.seed = 0xC1A5_0001;
        cfg.net_fault = NetFaultConfig::chaos(0xC1A5_0001, 0.05, 0.05);
        let cluster = cfg.build();
        let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
        (
            report.x,
            report.spans,
            report.chunks,
            cluster.rpc_timeouts(),
            cluster.rpc_retries(),
            cluster.clock().now(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.1, b.1, "spans diverged");
    assert_eq!(a.2, b.2, "chunk counts diverged");
    assert_eq!(a.3, b.3, "timeout counts diverged");
    assert_eq!(a.4, b.4, "retry counts diverged");
    assert_eq!(a.5, b.5, "final ticks diverged");
    assert!(a.0.iter().zip(&b.0).all(|(x, y)| x.to_bits() == y.to_bits()), "solutions diverged");
}
