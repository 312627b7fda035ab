//! One cluster node: a device pool, its plan cache, and its two breaker
//! sets.
//!
//! A node owns **two** independent `CircuitBreakers`, both on the shared
//! virtual clock:
//!
//! - `peer_breakers` — keyed `node{j}`, driven by the gossip protocol;
//!   they gate *routing* decisions (never dispatch a batch to a peer this
//!   node believes is dead).
//! - `engine_breakers` — keyed `dev{id}:{engine}`, driven by
//!   `serve_flush`; they gate *engine* selection inside the node's own
//!   device pool, exactly as in single-node service.
//!
//! The split matters under partitions: an unreachable peer must not
//! poison the local engine health, and a flaky local engine must not make
//! the node look dead to itself.
//!
//! [`ClusterNode::restart`] models a node crash/reboot: the device pool is
//! rebuilt from the stored [`PoolConfig`] — the derived per-device fault
//! seeds are a pure function of `(cluster seed, node, device)`, so the
//! reborn pool replays the **same** fault plans — and the engine breakers
//! come back fresh (breaker state is in-memory). The plan cache survives:
//! autotuned plans are a persisted artifact of the node, not ephemeral
//! state, and re-tuning after every reboot would defeat the cluster-wide
//! tune-once routing goal.

use device_pool::{DevicePool, PoolConfig};
use gpu_sim::Clock;
use solver_service::{BreakerConfig, CircuitBreakers, PlanCache, ServiceMetrics};

/// One simulated node: device pool + plan cache + breakers + metrics.
pub struct ClusterNode {
    /// Node index within the cluster.
    pub id: usize,
    /// The node's device pool (devices, launcher fault plans, routing).
    pub pool: DevicePool,
    /// The pool recipe, kept so [`restart`](Self::restart) can rebuild an
    /// identical pool after a crash window.
    pool_cfg: PoolConfig,
    /// Autotuned plans for size classes homed on (or failed over to) this
    /// node. Survives restarts — modelled as a persisted plan store.
    pub plans: PlanCache,
    /// Peer-health breakers, keys `node{j}`, driven by gossip.
    pub peer_breakers: CircuitBreakers,
    /// Engine breakers for local dispatch, keys `dev{id}:{engine}`.
    pub engine_breakers: CircuitBreakers,
    /// Local serve metrics (batches, repairs, degradations).
    pub metrics: ServiceMetrics,
    breaker_cfg: BreakerConfig,
    clock: Clock,
    restarts: u64,
}

impl ClusterNode {
    /// Builds node `id` from its pool recipe. `breaker_cfg` parametrises
    /// both breaker sets; both run on `clock`.
    pub fn new(id: usize, pool_cfg: PoolConfig, breaker_cfg: BreakerConfig, clock: Clock) -> Self {
        let pool = pool_cfg.clone().build();
        Self {
            id,
            pool,
            pool_cfg,
            plans: PlanCache::new(),
            peer_breakers: CircuitBreakers::with_clock(breaker_cfg, clock.clone()),
            engine_breakers: CircuitBreakers::with_clock(breaker_cfg, clock.clone()),
            metrics: ServiceMetrics::new(),
            breaker_cfg,
            clock,
            restarts: 0,
        }
    }

    /// Reboots the node after a crash window: the device pool is rebuilt
    /// from the stored config (same derived fault seeds → same replayed
    /// fault plans), engine breakers reset to closed (in-memory state),
    /// while the plan cache, peer breakers, and metrics carry over.
    pub fn restart(&mut self) {
        self.pool = self.pool_cfg.clone().build();
        self.engine_breakers = CircuitBreakers::with_clock(self.breaker_cfg, self.clock.clone());
        self.restarts += 1;
    }

    /// How many times this node has rebooted.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// True when the pool still has at least one healthy device.
    pub fn has_healthy_device(&self) -> bool {
        self.pool.devices().iter().any(|d| !d.is_lost())
    }
}
