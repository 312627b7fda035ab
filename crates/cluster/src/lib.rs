//! # cluster — multi-node distributed solve on a faulty network
//!
//! The distributed tier of the suite: N simulated nodes, each carrying a
//! [`device_pool::DevicePool`] of M simulated GPUs, joined by a
//! deterministic faulty network. Everything above the kernels that the
//! single-node stack already proved — batching, autotuned plans, verify
//! and repair, circuit breakers — is reused; this crate adds what only
//! exists between nodes:
//!
//! - **[`net`]** — the network model: per-link latency + bandwidth pricing
//!   (the PCIe cost-model shape, one level up) and a seed-replayable
//!   adversity plan: message drops, latency spikes, sticky link loss,
//!   asymmetric partitions, node crash/restart windows.
//! - **[`gossip`]** — SWIM-style health protocol: per-observer
//!   `Alive → Suspect → Dead` views from consecutive missed heartbeats,
//!   driving per-node circuit breakers.
//! - **[`ring`]** — consistent hashing of plan-cache keys: each size
//!   class has a sticky home node (autotune once, cluster-wide) and a
//!   deterministic failover order in which only a dead node's keys move.
//! - **[`solve`]** — the two-level partitioned solve: a [`Coordinator`]
//!   view of the cluster is a [`gpu_solvers::partitioned::Transport`], so
//!   the one `solve_partitioned` pipeline runs node-local modified-Thomas
//!   reduction on each pool, one small interface system on the
//!   coordinator, and fan-out back-substitution over priced, retried
//!   RPCs — the substructuring algebra of the single pool, one level up,
//!   opening `n` far beyond one node.
//! - **[`service`]** — cluster dispatch: batches route on the ring, ride
//!   deadline-guarded hedged RPCs, and fail over ring → retry → local
//!   degrade so a dead or partitioned node's backlog drains to survivors
//!   with zero wrong answers and zero losses.
//!
//! ```
//! use cluster::ClusterConfig;
//! use gpu_solvers::partitioned::solve_partitioned;
//! use tridiag_core::{residual::l2_residual, Generator, Workload};
//!
//! let sys = Generator::new(7).system::<f64>(Workload::DiagonallyDominant, 1 << 14);
//! let cluster = ClusterConfig::new(2, 2).build();
//! let report = solve_partitioned(&cluster.coordinator(0), &sys, 4).unwrap();
//! assert!(l2_residual(&sys, &report.x).unwrap() < 1e-8);
//! assert!(report.timing.net_ms > 0.0, "node 1's spans ride priced RPCs");
//! ```
//!
//! Every stochastic decision is a pure function of the cluster seed (per
//! link, per message) and every structural fault is a tick window on the
//! shared [`gpu_sim::Clock`], so whole cluster chaos scenarios replay
//! bit-identically from one seed.

#![warn(missing_docs)]

pub mod cluster;
pub mod gossip;
pub mod net;
pub mod node;
pub mod ring;
pub mod service;
pub mod solve;

pub use cluster::{Cluster, ClusterConfig, RpcConfig, RpcTimeout};
pub use gossip::{node_key, Gossip, GossipConfig, PeerState};
pub use net::{BlockedWindow, CrashWindow, Delivery, LinkModel, NetFaultConfig, Network};
pub use node::ClusterNode;
pub use ring::HashRing;
pub use service::{
    run_cluster_service, ClusterRunStats, ClusterServiceConfig, ClusterSink, ClusterWorkload,
    COORDINATOR,
};
pub use solve::Coordinator;
