//! Oracle for the partitioned solve on every transport: a bare launcher,
//! device pools and clusters. Each case pins the exact outputs of one
//! solve — an FNV-1a digest of the solution's bits, the chunk and
//! interface shape, the devices or nodes used with their spans, the bits
//! of the phase timings, and for clusters the network time, the RPC
//! counters and the final sim-clock tick — so any change to how the
//! pipeline plans, launches, gathers or prices shows up as a mismatch.
//! The cluster's `transfer_ms` is deliberately left unpinned.

use cluster::{BlockedWindow, Cluster, ClusterConfig, CrashWindow, NetFaultConfig};
use device_pool::{DevicePool, PoolConfig};
use gpu_sim::{FaultConfig, Launcher};
use gpu_solvers::partitioned::{
    back_substitute, local_reduce, solve_interface, solve_partitioned, InterfaceSystem,
    PartitionedReport, PartitionedTiming,
};
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// Everything one solve is pinned by.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// FNV-1a over the little-endian bits of every `x[i]`.
    x_fnv: u64,
    chunks: usize,
    /// Meaningful and padded interface rows.
    interface: (usize, usize),
    /// Devices (launcher, pool) or nodes (cluster) in span order.
    used: Vec<usize>,
    spans: Vec<(usize, usize)>,
    /// Bits of `local_ms`, `interface_ms` and `backsubst_ms`.
    phase_ms: [u64; 3],
    /// Bits of `transfer_ms` (launcher and pools only).
    transfer_ms: Option<u64>,
    /// Bits of `net_ms`, RPC timeouts, RPC retries and the final tick.
    cluster: Option<[u64; 4]>,
}

fn fnv(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn dominant(seed: u64, n: usize) -> TridiagonalSystem<f64> {
    Generator::new(seed).system(Workload::DiagonallyDominant, n)
}

fn phase_bits(t: &PartitionedTiming) -> [u64; 3] {
    [t.local_ms.to_bits(), t.interface_ms.to_bits(), t.backsubst_ms.to_bits()]
}

fn launcher_outcome(sys: &TridiagonalSystem<f64>, offsets: Option<&[usize]>) -> Outcome {
    let launcher = Launcher::gtx280();
    let Some(offsets) = offsets else {
        return outcome(solve_partitioned(&launcher, sys, 16).unwrap());
    };
    // Explicit chunk boundaries: the pipeline's phases, one by one.
    let mut phase = local_reduce(&launcher, &sys.a, &sys.b, &sys.c, &sys.d, offsets).unwrap();
    let [ra, rb, rc, rd] = &phase.reduced;
    let interface = InterfaceSystem::assemble(ra, rb, rc, rd);
    let (xi, interface_ms) = solve_interface(&launcher, &interface).unwrap();
    let (x, backsubst_ms, download_ms) = back_substitute(&launcher, &mut phase, &xi).unwrap();
    let timing = PartitionedTiming {
        local_ms: phase.local_ms,
        interface_ms,
        backsubst_ms,
        transfer_ms: phase.upload_ms + download_ms,
        net_ms: 0.0,
    };
    Outcome {
        x_fnv: fnv(&x),
        chunks: offsets.len() - 1,
        interface: (interface.rows, interface.padded),
        used: vec![0],
        spans: vec![(0, sys.n())],
        phase_ms: phase_bits(&timing),
        transfer_ms: Some(timing.transfer_ms.to_bits()),
        cluster: None,
    }
}

/// A launcher's or a pool's outcome: devices used and their spans.
fn outcome(r: PartitionedReport<f64>) -> Outcome {
    Outcome {
        x_fnv: fnv(&r.x),
        chunks: r.chunks,
        interface: (r.interface_rows, r.interface_padded),
        used: r.spans.iter().map(|s| s.device).collect(),
        spans: r.spans.iter().map(|s| (s.start, s.end)).collect(),
        phase_ms: phase_bits(&r.timing),
        transfer_ms: Some(r.timing.transfer_ms.to_bits()),
        cluster: None,
    }
}

fn pool_outcome(pool: &DevicePool, sys: &TridiagonalSystem<f64>, cpd: usize) -> Outcome {
    outcome(solve_partitioned(pool, sys, cpd).unwrap())
}

fn cluster_outcome(cluster: &Cluster, sys: &TridiagonalSystem<f64>) -> Outcome {
    let r = solve_partitioned(&cluster.coordinator(0), sys, 4).unwrap();
    // Nodes used, and each node's span from its first device's start to
    // its last device's end.
    let mut used: Vec<usize> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for s in &r.spans {
        if used.last() == Some(&s.node) {
            spans.last_mut().unwrap().1 = s.end;
        } else {
            used.push(s.node);
            spans.push((s.start, s.end));
        }
    }
    Outcome {
        x_fnv: fnv(&r.x),
        chunks: r.chunks,
        interface: (r.interface_rows, r.interface_padded),
        used,
        spans,
        phase_ms: phase_bits(&r.timing),
        transfer_ms: None,
        cluster: Some([
            r.timing.net_ms.to_bits(),
            cluster.rpc_timeouts(),
            cluster.rpc_retries(),
            cluster.clock().now(),
        ]),
    }
}

/// Compares one solve against its recorded outcome.
fn expect(got: Outcome, want: Outcome, case: &str) {
    assert_eq!(got, want, "{case}");
}

#[test]
fn launcher_even_chunks() {
    expect(
        launcher_outcome(&dominant(21, 4096), None),
        Outcome {
            x_fnv: 0x5d4c84072c69ced5,
            chunks: 16,
            interface: (32, 32),
            used: vec![0],
            spans: vec![(0, 4096)],
            phase_ms: [0x3fcc36963a8b18b2, 0x3f9133512aa39e68, 0x3f816474c90d6335],
            transfer_ms: Some(0x3fc6e7af458531c8),
            cluster: None,
        },
        "launcher_even",
    );
}

#[test]
fn launcher_uneven_offsets() {
    let got = launcher_outcome(&dominant(3, 100), Some(&[0, 7, 50, 52, 100]));
    expect(
        got,
        Outcome {
            x_fnv: 0x15c353a551706ef3,
            chunks: 4,
            interface: (8, 8),
            used: vec![0],
            spans: vec![(0, 100)],
            phase_ms: [0x3fa5b108caacb48f, 0x3f7e2a43f16beb12, 0x3f7182717c65b593],
            transfer_ms: Some(0x3fa138c9138c9138),
            cluster: None,
        },
        "launcher_uneven",
    );
}

/// Pools of 1, 2, 4 and 8 devices on one system, 16 chunks per device.
fn pools(sys: &TridiagonalSystem<f64>, wants: [Outcome; 4]) {
    for (devices, want) in [1, 2, 4, 8].into_iter().zip(wants) {
        let got = pool_outcome(&PoolConfig::new(devices).build(), sys, 16);
        expect(got, want, &format!("pool_{}_{devices}", sys.n()));
    }
}

#[test]
fn pools_at_4096() {
    pools(
        &dominant(22, 4096),
        [
            Outcome {
                x_fnv: 0x8d13a4521f2db368,
                chunks: 16,
                interface: (32, 32),
                used: vec![0],
                spans: vec![(0, 4096)],
                phase_ms: [0x3fcc36963a8b18b2, 0x3f9133512aa39e68, 0x3f816474c90d6335],
                transfer_ms: Some(0x3fc6e7af458531c8),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x1dcac5dad6b3d4d8,
                chunks: 32,
                interface: (64, 64),
                used: vec![0, 1],
                spans: vec![(0, 2048), (2048, 4096)],
                phase_ms: [0x3fbc9df4cd6b10d2, 0x3f963f3de1468793, 0x3f788f76d5571d93],
                transfer_ms: Some(0x3fbabeb982f5d5a0),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x9be018f20878a9f1,
                chunks: 64,
                interface: (128, 128),
                used: vec![0, 1, 2, 3],
                spans: vec![(0, 1024), (1024, 2048), (2048, 3072), (3072, 4096)],
                phase_ms: [0x3fad6cb1f32b0116, 0x3f9d44b5a903a413, 0x3f74c1590fe69886],
                transfer_ms: Some(0x3fb13666feeb8ea6),
                cluster: None,
            },
            Outcome {
                x_fnv: 0xc6f5d4f68ca7797b,
                chunks: 128,
                interface: (256, 256),
                used: vec![0, 1, 2, 3, 4, 5, 6, 7],
                spans: vec![
                    (0, 512),
                    (512, 1024),
                    (1024, 1536),
                    (1536, 2048),
                    (2048, 2560),
                    (2560, 3072),
                    (3072, 3584),
                    (3584, 4096),
                ],
                phase_ms: [0x3f9f0a2c3eaae19d, 0x3fa54c9923d180ba, 0x3f72da4a2d2e55ff],
                transfer_ms: Some(0x3fa8e47b79ccd654),
                cluster: None,
            },
        ],
    );
}

#[test]
fn pools_at_2_16() {
    pools(
        &dominant(42, 1 << 16),
        [
            Outcome {
                x_fnv: 0xf37b91e9cd99d9a7,
                chunks: 16,
                interface: (32, 32),
                used: vec![0],
                spans: vec![(0, 65536)],
                phase_ms: [0x400bd5ad90d92010, 0x3f9133512aa39e68, 0x3fb30eb56f6a3e15],
                transfer_ms: Some(0x40034e15abeb982f),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x041519cef68f183e,
                chunks: 32,
                interface: (64, 64),
                used: vec![0, 1],
                spans: vec![(0, 32768), (32768, 65536)],
                phase_ms: [0x3ffbdc237a071f95, 0x3f963f3de1468793, 0x3fa3f415b0f37561],
                transfer_ms: Some(0x3ff38b864fc2a26d),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x194f29b23446f307,
                chunks: 64,
                interface: (128, 128),
                used: vec![0, 1, 2, 3],
                spans: vec![(0, 16384), (16384, 32768), (32768, 49152), (49152, 65536)],
                phase_ms: [0x3febe90f4c631e97, 0x3f9d44b5a903a413, 0x3f96127d1a4237d0],
                transfer_ms: Some(0x3fe406679770b6e8),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x4ba9da07b2eba68c,
                chunks: 128,
                interface: (256, 256),
                used: vec![0, 1, 2, 3, 4, 5, 6, 7],
                spans: vec![
                    (0, 8192),
                    (8192, 16384),
                    (16384, 24576),
                    (24576, 32768),
                    (32768, 40960),
                    (40960, 49152),
                    (49152, 57344),
                    (57344, 65536),
                ],
                phase_ms: [0x3fdc02e6f11b1ca0, 0x3fa54c9923d180ba, 0x3f8a4f4becdfbcae],
                transfer_ms: Some(0x3fd4fc2a26ccdfde),
                cluster: None,
            },
        ],
    );
}

#[test]
fn pools_at_a_prime_n() {
    pools(
        &dominant(97, 4099),
        [
            Outcome {
                x_fnv: 0xfc343c069bb75c84,
                chunks: 16,
                interface: (32, 32),
                used: vec![0],
                spans: vec![(0, 4099)],
                phase_ms: [0x3fcc51699d692d47, 0x3f9133512aa39e68, 0x3f81a156a5646b86],
                transfer_ms: Some(0x3fc6eb426476b5a3),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x66afc6e4d4715398,
                chunks: 32,
                interface: (64, 64),
                used: vec![0, 1],
                spans: vec![(0, 2050), (2050, 4099)],
                phase_ms: [0x3fbcd374d4e0d410, 0x3f963f3de1468793, 0x3f79093a8e052e35],
                transfer_ms: Some(0x3fbac37dac37dac4),
                cluster: None,
            },
            Outcome {
                x_fnv: 0xd89481796ecc5750,
                chunks: 64,
                interface: (128, 128),
                used: vec![0, 1, 2, 3],
                spans: vec![(0, 1025), (1025, 2050), (2050, 3075), (3075, 4099)],
                phase_ms: [0x3fadd7648589bbb5, 0x3f9d44b5a903a413, 0x3f753b1cc894a927],
                transfer_ms: Some(0x3fb138c9138c9139),
                cluster: None,
            },
            Outcome {
                x_fnv: 0x0b447c0d048c231f,
                chunks: 128,
                interface: (256, 256),
                used: vec![0, 1, 2, 3, 4, 5, 6, 7],
                spans: vec![
                    (0, 513),
                    (513, 1026),
                    (1026, 1539),
                    (1539, 2051),
                    (2051, 2563),
                    (2563, 3075),
                    (3075, 3587),
                    (3587, 4099),
                ],
                phase_ms: [0x3f9fdf91636856d8, 0x3fa54c9923d180ba, 0x3f73540de5dc66a0],
                transfer_ms: Some(0x3fa8e93fa30edb78),
                cluster: None,
            },
        ],
    );
}

#[test]
fn pool_device_lost_on_its_first_launch() {
    let mut cfg = PoolConfig::new(4);
    cfg.fault_overrides =
        vec![(2, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
    let pool = cfg.build();
    expect(
        pool_outcome(&pool, &dominant(3, 2048), 4),
        Outcome {
            x_fnv: 0xbadcaa356b805320,
            chunks: 12,
            interface: (24, 32),
            used: vec![0, 1, 3],
            spans: vec![(0, 683), (683, 1366), (1366, 2048)],
            phase_ms: [0x3fc260043acbab6c, 0x3f9133512aa39e68, 0x3f73ffa1afe8f26d],
            transfer_ms: Some(0x3fac138308e64508),
            cluster: None,
        },
        "pool_lost",
    );
    assert!(pool.is_lost(2));
}

#[test]
fn clusters_of_1x4_2x2_and_4x4() {
    let sys = dominant(41, 1 << 14);
    for (nodes, devices, want) in [
        (
            1,
            4,
            Outcome {
                x_fnv: 0x0e279d2d05d8759e,
                chunks: 16,
                interface: (32, 32),
                used: vec![0],
                spans: vec![(0, 16384)],
                phase_ms: [0x3feb00bf020c9156, 0x3f9133512aa39e68, 0x3f81e94a4cb400fd],
                transfer_ms: None,
                cluster: Some([0x0000000000000000, 0, 0, 0]),
            },
        ),
        (
            2,
            2,
            Outcome {
                x_fnv: 0x0e279d2d05d8759e,
                chunks: 16,
                interface: (32, 32),
                used: vec![0, 1],
                spans: vec![(0, 8192), (8192, 16384)],
                phase_ms: [0x3feb00bf020c9156, 0x3f9133512aa39e68, 0x3f81e94a4cb400fd],
                transfer_ms: None,
                cluster: Some([0x3fdd9c27e9531550, 0, 0, 462656]),
            },
        ),
        (
            4,
            4,
            Outcome {
                x_fnv: 0x90e9e42b02aea296,
                chunks: 64,
                interface: (128, 128),
                used: vec![0, 1, 2, 3],
                spans: vec![(0, 4096), (4096, 8192), (8192, 12288), (12288, 16384)],
                phase_ms: [0x3fcb4eb6045ba006, 0x3f9d44b5a903a413, 0x3f7503c3d1b9e76a],
                transfer_ms: None,
                cluster: Some([0x3fd5410f94c87981, 0, 0, 996288]),
            },
        ),
    ] {
        let cluster = ClusterConfig::new(nodes, devices).build();
        expect(cluster_outcome(&cluster, &sys), want, &format!("cluster_{nodes}x{devices}"));
    }
}

#[test]
fn cluster_dead_node() {
    let mut cfg = ClusterConfig::new(3, 2);
    cfg.net_fault = NetFaultConfig {
        crashes: vec![CrashWindow { node: 1, down_from: 0, up_at: None }],
        ..NetFaultConfig::quiet(0)
    };
    expect(
        cluster_outcome(&cfg.build(), &dominant(3, 8192)),
        Outcome {
            x_fnv: 0x5dc756fb4686c142,
            chunks: 16,
            interface: (32, 32),
            used: vec![0, 2],
            spans: vec![(0, 4096), (4096, 8192)],
            phase_ms: [0x3fdb1abc02d1963b, 0x3f9133512aa39e68, 0x3f79144c58fdbb5b],
            transfer_ms: None,
            cluster: Some([0x3fd538ac18f81e8a, 0, 0, 331584]),
        },
        "dead_node",
    );
}

#[test]
fn cluster_asymmetric_partition() {
    let mut cfg = ClusterConfig::new(3, 2);
    cfg.net_fault = NetFaultConfig {
        blocked: vec![BlockedWindow { src: 0, dst: 2, from: 0, until: None }],
        ..NetFaultConfig::quiet(0)
    };
    expect(
        cluster_outcome(&cfg.build(), &dominant(9, 8192)),
        Outcome {
            x_fnv: 0xe71c0da4bca6e78d,
            chunks: 16,
            interface: (32, 32),
            used: vec![0, 1],
            spans: vec![(0, 4096), (4096, 8192)],
            phase_ms: [0x3fdb1abc02d1963b, 0x3f9133512aa39e68, 0x3f79144c58fdbb5b],
            transfer_ms: None,
            cluster: Some([0x3fd538ac18f81e8a, 3, 2, 4017572]),
        },
        "asymmetric",
    );
}

#[test]
fn cluster_device_death_inside_a_node() {
    let mut cfg = ClusterConfig::new(2, 3);
    cfg.device_fault_overrides =
        vec![(1, 1, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
    let cluster = cfg.build();
    expect(
        cluster_outcome(&cluster, &dominant(5, 8192)),
        Outcome {
            x_fnv: 0xb371d31b6acd3473,
            chunks: 20,
            interface: (40, 64),
            used: vec![0, 1],
            spans: vec![(0, 4096), (4096, 8192)],
            phase_ms: [0x3fdb1abc02d1963b, 0x3f963f3de1468793, 0x3f79144c58fdbb5b],
            transfer_ms: None,
            cluster: Some([0x3fd538ac18f81e8a, 0, 0, 537056]),
        },
        "device_death",
    );
    assert!(cluster.node(1).pool.is_lost(1));
}

#[test]
fn cluster_chaos_network() {
    let mut cfg = ClusterConfig::new(3, 2);
    cfg.seed = 0xC1A5_0001;
    cfg.net_fault = NetFaultConfig::chaos(0xC1A5_0001, 0.05, 0.05);
    expect(
        cluster_outcome(&cfg.build(), &dominant(13, 8192)),
        Outcome {
            x_fnv: 0x073b9da1be247a36,
            chunks: 24,
            interface: (48, 64),
            used: vec![0, 1, 2],
            spans: vec![(0, 2731), (2731, 5462), (5462, 8192)],
            phase_ms: [0x3fd22c0a3941a1a3, 0x3f963f3de1468793, 0x3f7689f7047356e4],
            transfer_ms: None,
            cluster: Some([0x3fd26d04e618ce2c, 0, 0, 575776]),
        },
        "chaos",
    );
}
