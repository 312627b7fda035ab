//! The cluster: N [`ClusterNode`]s, the faulty [`Network`] between them,
//! the gossip protocol, the consistent-hash ring, and the RPC layer.
//!
//! The RPC layer is where the clock *does* advance: [`Cluster::rpc`]
//! prices each leg through the network and waits out `min(latency,
//! deadline)` per leg on the virtual clock, retrying with exponential
//! backoff plus deterministic jitter. A dropped response re-executes the
//! work on retry — the callee is a pure solve, so at-least-once execution
//! is safe and the bookkeeping stays honest (the caller only counts a
//! result it actually received).

use crate::gossip::{node_key, Gossip, GossipConfig, PeerState};
use crate::net::Network;
use crate::node::ClusterNode;
use crate::ring::HashRing;
use crate::{LinkModel, NetFaultConfig};
use device_pool::PoolConfig;
use gpu_sim::{derive_node_seed, Clock, FaultConfig, Launcher};
use solver_service::{BreakerConfig, BreakerState, TraceEvent, TraceHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// RPC timing knobs. The deadline is **per leg** and payload-aware: a
/// leg's budget is `deadline + link.duration(bytes)` — fixed slack on
/// top of the ideal transfer time — so one knob governs both 64-byte
/// pings and multi-megabyte coefficient spans. A leg pricing above its
/// budget counts as a timeout even though the message would eventually
/// arrive (tail latency indistinguishable from loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcConfig {
    /// Per-leg slack beyond the link's ideal transfer time; a leg
    /// pricing above `deadline + ideal` is a timeout.
    pub deadline: Duration,
    /// Attempts against one callee before giving up on it.
    pub max_attempts: u32,
    /// Failed attempts against a candidate before hedging to the next
    /// node in the ring preference order.
    pub hedge_after: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for RpcConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_millis(1),
            max_attempts: 3,
            hedge_after: 2,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(2),
        }
    }
}

/// Why an RPC ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcTimeout {
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// Blueprint for a cluster. [`ClusterConfig::new`] gives a quiet cluster
/// of GTX 280 pools; override fields before [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (must be >= 1).
    pub nodes: usize,
    /// Devices per node's pool.
    pub devices_per_node: usize,
    /// The cluster seed. Node `i`'s pool seed is
    /// [`derive_node_seed`]`(seed, i)`, so every device plan in the
    /// cluster replays from this one number.
    pub seed: u64,
    /// Inter-node link cost model.
    pub link: LinkModel,
    /// Network adversity plan.
    pub net_fault: NetFaultConfig,
    /// Device fault template applied on every node (re-seeded per node
    /// and device).
    pub fault: Option<FaultConfig>,
    /// Per-device overrides `(node, device, template)`.
    pub device_fault_overrides: Vec<(usize, usize, FaultConfig)>,
    /// RPC timing.
    pub rpc: RpcConfig,
    /// Gossip thresholds and payload size.
    pub gossip: GossipConfig,
    /// Ticks between gossip protocol rounds.
    pub gossip_period: Duration,
    /// Breaker parameters for both peer and engine breakers.
    pub breaker: BreakerConfig,
    /// Launcher template cloned per device.
    pub base: Launcher,
    /// Virtual points per node on the hash ring.
    pub vnodes: usize,
    /// The cluster clock; use [`Clock::sim`] for deterministic scenarios.
    pub clock: Clock,
    /// Trace sink for cluster events.
    pub trace: TraceHandle,
}

impl ClusterConfig {
    /// A quiet `nodes × devices_per_node` cluster on a fresh sim clock.
    pub fn new(nodes: usize, devices_per_node: usize) -> Self {
        Self {
            nodes,
            devices_per_node,
            seed: 0x5EED_C1A5_7E12_0001,
            link: LinkModel::ten_gbe(),
            net_fault: NetFaultConfig::default(),
            fault: None,
            device_fault_overrides: Vec::new(),
            rpc: RpcConfig::default(),
            gossip: GossipConfig::default(),
            gossip_period: Duration::from_micros(500),
            breaker: BreakerConfig::default(),
            base: Launcher::gtx280(),
            vnodes: 64,
            clock: Clock::sim(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Builds the cluster.
    ///
    /// # Panics
    /// If `nodes` or `devices_per_node` is zero.
    pub fn build(self) -> Cluster {
        Cluster::new(self)
    }
}

/// The assembled cluster.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    net: Network,
    gossip: Gossip,
    ring: HashRing,
    rpc_cfg: RpcConfig,
    gossip_period: Duration,
    clock: Clock,
    trace: TraceHandle,
    /// `prev_down[i]`: was node `i` inside a crash window at the last
    /// gossip tick? Lets the driver detect the down→up edge and reboot.
    prev_down: Vec<bool>,
    rpc_timeouts: AtomicU64,
    rpc_retries: AtomicU64,
}

impl Cluster {
    /// Builds a cluster from its blueprint.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        assert!(cfg.devices_per_node >= 1, "nodes need at least one device");
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let mut pool_cfg = PoolConfig::new(cfg.devices_per_node);
                pool_cfg.seed = derive_node_seed(cfg.seed, i as u64);
                pool_cfg.fault = cfg.fault;
                pool_cfg.fault_overrides = cfg
                    .device_fault_overrides
                    .iter()
                    .filter(|(node, _, _)| *node == i)
                    .map(|(_, dev, tpl)| (*dev, *tpl))
                    .collect();
                pool_cfg.base = cfg.base.clone();
                ClusterNode::new(i, pool_cfg, cfg.breaker, cfg.clock.clone())
            })
            .collect();
        let net = Network::new(cfg.nodes, cfg.link, cfg.net_fault, cfg.clock.clone());
        Self {
            nodes,
            net,
            gossip: Gossip::new(cfg.nodes, cfg.gossip),
            ring: HashRing::new(cfg.nodes, cfg.vnodes),
            rpc_cfg: cfg.rpc,
            gossip_period: cfg.gossip_period,
            clock: cfg.clock,
            trace: cfg.trace,
            prev_down: vec![false; cfg.nodes],
            rpc_timeouts: AtomicU64::new(0),
            rpc_retries: AtomicU64::new(0),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for the degenerate empty cluster (never constructible via
    /// [`ClusterConfig::build`], kept for the `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.nodes[i]
    }

    /// Node `i`, mutably.
    pub fn node_mut(&mut self, i: usize) -> &mut ClusterNode {
        &mut self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The inter-node network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The gossip views.
    pub fn gossip(&self) -> &Gossip {
        &self.gossip
    }

    /// The hash ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// RPC configuration.
    pub fn rpc_config(&self) -> &RpcConfig {
        &self.rpc_cfg
    }

    /// Ticks between gossip rounds.
    pub fn gossip_period(&self) -> Duration {
        self.gossip_period
    }

    /// The cluster clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Total RPC attempts that timed out.
    pub fn rpc_timeouts(&self) -> u64 {
        self.rpc_timeouts.load(Ordering::Relaxed)
    }

    /// Total RPC retries (attempts beyond the first, per call).
    pub fn rpc_retries(&self) -> u64 {
        self.rpc_retries.load(Ordering::Relaxed)
    }

    /// Is `dst` eligible to receive work routed by `observer`? True when
    /// the observer's gossip view says `Alive` *and* its peer breaker for
    /// `dst` is not open. An observer is always eligible for itself —
    /// local dispatch needs no network.
    pub fn eligible_from(&self, observer: usize, dst: usize) -> bool {
        if observer == dst {
            return true;
        }
        self.gossip.view(observer, dst) == PeerState::Alive
            && self.nodes[observer].peer_breakers.state(&node_key(dst)) != BreakerState::Open
    }

    /// One gossip protocol round **plus** crash-edge handling: any node
    /// whose crash window just ended is rebooted via
    /// [`ClusterNode::restart`]. Call every [`Self::gossip_period`] from
    /// the driver loop.
    pub fn gossip_tick(&mut self) {
        let now = self.clock.now();
        for i in 0..self.nodes.len() {
            let down = self.net.node_down(i, now);
            if self.prev_down[i] && !down {
                self.nodes[i].restart();
            }
            self.prev_down[i] = down;
        }
        let breakers: Vec<&_> = self.nodes.iter().map(|n| &n.peer_breakers).collect();
        self.gossip.tick(&self.net, &breakers, &self.clock, &self.trace);
    }

    /// Deterministic retry backoff: `base · 2^(attempt-1)` capped at
    /// `backoff_max`, plus a sub-quarter-base jitter keyed by the attempt
    /// number (no RNG — replayable).
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.rpc_cfg.backoff_base;
        let shifted = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let capped = shifted.min(self.rpc_cfg.backoff_max);
        let jitter_us = (attempt as u64 * 7919) % (base.as_micros() as u64 / 4 + 1);
        capped + Duration::from_micros(jitter_us)
    }

    /// One deadline-guarded RPC `src → dst` carrying `req_bytes` out and
    /// `resp_bytes` back, retried up to `attempts` times with backoff.
    /// `work` runs on the callee between the delivered legs and is
    /// re-executed on retry (at-least-once; callees are pure solves).
    /// Each leg waits out `min(priced latency, deadline)` on the clock.
    pub fn rpc<T>(
        &self,
        src: usize,
        dst: usize,
        req_bytes: usize,
        resp_bytes: usize,
        attempts: u32,
        mut work: impl FnMut() -> T,
    ) -> Result<T, RpcTimeout> {
        let attempts = attempts.max(1);
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.clock.advance(self.backoff(attempt - 1));
                self.rpc_retries.fetch_add(1, Ordering::Relaxed);
                self.trace.emit(|| TraceEvent::RpcRetry {
                    at: self.clock.now(),
                    src: src as u64,
                    dst: dst as u64,
                    attempt: attempt as u64,
                });
            }
            self.trace.emit(|| TraceEvent::RpcSend {
                at: self.clock.now(),
                src: src as u64,
                dst: dst as u64,
                bytes: req_bytes as u64,
            });
            if let Some(result) = self.try_once(src, dst, req_bytes, resp_bytes, &mut work) {
                return Ok(result);
            }
            self.rpc_timeouts.fetch_add(1, Ordering::Relaxed);
            self.trace.emit(|| TraceEvent::RpcTimeout {
                at: self.clock.now(),
                src: src as u64,
                dst: dst as u64,
            });
        }
        Err(RpcTimeout { attempts })
    }

    /// One leg's timeout budget: fixed slack plus the ideal transfer
    /// time of the payload on a quiet link.
    fn leg_deadline(&self, bytes: usize) -> Duration {
        self.rpc_cfg.deadline + self.net.link().duration(bytes)
    }

    /// One attempt: request leg, work, response leg. `None` = timeout
    /// (the sender has waited out the leg's full budget).
    fn try_once<T>(
        &self,
        src: usize,
        dst: usize,
        req_bytes: usize,
        resp_bytes: usize,
        work: &mut impl FnMut() -> T,
    ) -> Option<T> {
        let req_deadline = self.leg_deadline(req_bytes);
        match self.net.send(src, dst, req_bytes).latency() {
            Some(lat) if lat <= req_deadline => self.clock.advance(lat),
            _ => {
                self.clock.advance(req_deadline);
                return None;
            }
        }
        let result = work();
        let resp_deadline = self.leg_deadline(resp_bytes);
        match self.net.send(dst, src, resp_bytes).latency() {
            Some(lat) if lat <= resp_deadline => {
                self.clock.advance(lat);
                Some(result)
            }
            _ => {
                self.clock.advance(resp_deadline);
                None
            }
        }
    }
}
