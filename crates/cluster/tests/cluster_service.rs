//! Integration tests for cluster dispatch: sticky node kill mid-stream,
//! asymmetric partition with heal, ring stickiness, and bit-identical
//! determinism — all on the virtual clock.

use cluster::{
    node_key, run_cluster_service, BlockedWindow, ClusterConfig, ClusterServiceConfig,
    ClusterWorkload, CrashWindow, HashRing, NetFaultConfig, PeerState,
};
use gpu_solvers::GpuAlgorithm;
use solver_service::{BreakerState, Engine};
use std::time::Duration;

fn workload() -> ClusterWorkload {
    ClusterWorkload {
        seed: 2010,
        requests: 240,
        sizes: vec![64, 128, 256, 512, 96, 192],
        interarrival: Duration::from_micros(50),
    }
}

#[test]
fn quiet_cluster_serves_everything_with_sticky_routing() {
    let mut cluster = ClusterConfig::new(3, 2).build();
    let cfg = ClusterServiceConfig::default();
    let stats = run_cluster_service(&mut cluster, &cfg, &workload());
    assert_eq!(stats.completed, stats.offered, "quiet cluster must lose nothing");
    assert_eq!(stats.wrong, 0);
    assert_eq!(stats.rerouted, 0, "no failover on a quiet network");
    assert_eq!(stats.degraded_local, 0);
    // Stickiness: every batch of one size class lands on that class's
    // home node.
    let ring = cluster.ring();
    for &n in &workload().sizes {
        let home = ring.home(HashRing::key(n, 4));
        assert!(stats.served_by_node[home] > 0, "home node {home} of n={n} served nothing");
    }
    // Tune-once: each node autotuned at most its own resident classes.
    let tunes: u64 = (0..cluster.len()).map(|i| cluster.node(i).plans.tunes()).sum();
    assert!(tunes <= workload().sizes.len() as u64, "{tunes} tunes for 6 size classes");
}

#[test]
fn a_quiet_node_spreads_its_gpu_flushes_over_its_devices() {
    let mut cluster = ClusterConfig::new(1, 4).build();
    let cfg = ClusterServiceConfig { pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrGlobalOnly)) };
    let stats = run_cluster_service(&mut cluster, &cfg, &workload());
    assert_eq!((stats.completed, stats.wrong), (stats.offered, 0));
    let dispatched: Vec<u64> =
        cluster.node(0).pool.devices().iter().map(|device| device.dispatched()).collect();
    let busy = dispatched.iter().filter(|&&flushes| flushes > 0).count();
    assert!(busy > 1, "every GPU flush landed on one device: {dispatched:?}");
}

#[test]
fn sticky_node_kill_mid_stream_loses_nothing_and_drains_to_survivors() {
    let mut cfg = ClusterConfig::new(3, 2);
    // Node 1 dies at 4 ms into the run and never returns.
    cfg.net_fault = NetFaultConfig {
        crashes: vec![CrashWindow { node: 1, down_from: 4_000_000, up_at: None }],
        ..NetFaultConfig::quiet(0)
    };
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig::default();
    let stats = run_cluster_service(&mut cluster, &svc, &workload());
    assert_eq!(stats.completed, stats.offered, "node kill must lose zero requests");
    assert_eq!(stats.wrong, 0, "node kill must produce zero wrong answers");
    assert!(stats.rerouted > 0, "classes homed on node 1 must fail over");
    assert!(stats.rpc_timeouts > 0, "the kill must cost visible timeouts");
    // The dead node serves nothing after its crash tick.
    assert!(
        stats.batch_log.iter().all(|&(node, at, _)| node != 1 || at < 4_000_000),
        "a batch was served by the dead node after its crash"
    );
    // Failure isolation: only node 1's peer breaker is open on the
    // coordinator; the healthy peer stays closed.
    assert_eq!(cluster.node(0).peer_breakers.state(&node_key(1)), BreakerState::Open);
    assert_eq!(cluster.node(0).peer_breakers.state(&node_key(2)), BreakerState::Closed);
    assert_eq!(cluster.gossip().view(0, 1), PeerState::Dead);
    assert_eq!(cluster.gossip().view(0, 2), PeerState::Alive);
}

#[test]
fn asymmetric_partition_reroutes_and_heals_back() {
    let mut cfg = ClusterConfig::new(3, 2);
    // The coordinator loses its path to node 2 between 3 ms and 9 ms;
    // node 2 is never actually down.
    cfg.net_fault = NetFaultConfig {
        blocked: vec![BlockedWindow { src: 0, dst: 2, from: 3_000_000, until: Some(9_000_000) }],
        ..NetFaultConfig::quiet(0)
    };
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig::default();
    // Longer stream so the run outlives the heal plus breaker cooldown.
    let load = ClusterWorkload { requests: 600, ..workload() };
    let stats = run_cluster_service(&mut cluster, &svc, &load);
    assert_eq!(stats.completed, stats.offered, "partition must lose zero requests");
    assert_eq!(stats.wrong, 0);
    assert!(stats.rerouted > 0, "blocked classes must fail over during the window");
    // Node 2 serves before the partition and again after the heal.
    assert!(
        stats.batch_log.iter().any(|&(node, at, _)| node == 2 && at < 3_000_000),
        "node 2 must serve before the partition"
    );
    assert!(
        stats.batch_log.iter().any(|&(node, at, _)| node == 2 && at > 9_000_000),
        "healing must restore traffic to node 2"
    );
    // Post-heal the coordinator's view of node 2 converges back to alive.
    assert_eq!(cluster.gossip().view(0, 2), PeerState::Alive);
    assert_eq!(cluster.node(0).peer_breakers.state(&node_key(2)), BreakerState::Closed);
}

#[test]
fn coordinator_serves_alone_when_every_peer_is_dead() {
    let mut cfg = ClusterConfig::new(3, 2);
    cfg.net_fault = NetFaultConfig {
        crashes: vec![
            CrashWindow { node: 1, down_from: 0, up_at: None },
            CrashWindow { node: 2, down_from: 0, up_at: None },
        ],
        ..NetFaultConfig::quiet(0)
    };
    let mut cluster = cfg.build();
    let svc = ClusterServiceConfig::default();
    let load = ClusterWorkload { requests: 120, ..workload() };
    let stats = run_cluster_service(&mut cluster, &svc, &load);
    assert_eq!(stats.completed, stats.offered, "single-node degrade must lose nothing");
    assert_eq!(stats.wrong, 0);
    assert_eq!(
        stats.served_by_node[1] + stats.served_by_node[2],
        0,
        "dead peers must serve nothing"
    );
    assert_eq!(stats.served_by_node[0], stats.batch_log.len() as u64);
}

#[test]
fn chaos_service_run_is_bit_identical() {
    let run = || {
        let mut cfg = ClusterConfig::new(3, 2);
        cfg.seed = 0xDEAD_BEEF;
        cfg.net_fault = NetFaultConfig {
            blocked: vec![BlockedWindow {
                src: 0,
                dst: 1,
                from: 2_000_000,
                until: Some(6_000_000),
            }],
            ..NetFaultConfig::chaos(0xDEAD_BEEF, 0.02, 0.02)
        };
        let mut cluster = cfg.build();
        let svc = ClusterServiceConfig::default();
        run_cluster_service(&mut cluster, &svc, &workload())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identically-seeded cluster runs diverged");
    assert_eq!(a.completed, a.offered);
    assert_eq!(a.wrong, 0);
}
