//! The device pool: N independent simulated GPUs behind one scheduler.
//!
//! Each [`SimDevice`] wraps its own [`Launcher`] — its own fault plan
//! (seeded as a pure function of the pool seed and the device index, see
//! [`gpu_sim::derive_device_seed`]), its own launch counter, and its own
//! accumulated simulated busy time. The [`DevicePool`] routes work across
//! the healthy subset according to a [`RoutingPolicy`] and keeps the
//! counters that the serving layer surfaces per device.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_sim::{FaultConfig, FaultPlan, FaultStats, Launcher};

use crate::routing::RoutingPolicy;

/// Blueprint for a pool: how many devices, how they are seeded, and how
/// work is routed between them.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of simulated devices (must be >= 1).
    pub devices: usize,
    /// Pool-level seed. Every device's fault plan is re-keyed from this
    /// via [`gpu_sim::derive_device_seed`], so a whole-pool chaos run is
    /// replayable from this one number.
    pub seed: u64,
    /// Fault-configuration *template* applied to every device (its `seed`
    /// field is ignored and replaced per device). `None` leaves devices
    /// fault-free.
    pub fault: Option<FaultConfig>,
    /// Per-device overrides `(device index, template)` taking precedence
    /// over `fault`; also re-seeded per device. Lets a scenario give one
    /// device a sticky `device_lost_after` while the rest stay quiet.
    pub fault_overrides: Vec<(usize, FaultConfig)>,
    /// The launcher cloned for every device (device model, cost model,
    /// sanitizer settings). Any fault plan installed on it is discarded in
    /// favour of the per-device plans above.
    pub base: Launcher,
    /// Routing policy for [`DevicePool::route`].
    pub routing: RoutingPolicy,
}

impl PoolConfig {
    /// A quiet pool of `devices` GTX 280s with round-robin routing.
    pub fn new(devices: usize) -> Self {
        Self {
            devices,
            seed: 0x9E37_79B9_7F4A_7C15,
            fault: None,
            fault_overrides: Vec::new(),
            base: Launcher::gtx280(),
            routing: RoutingPolicy::RoundRobin,
        }
    }

    /// Builds the pool.
    pub fn build(self) -> DevicePool {
        DevicePool::new(self)
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::new(1)
    }
}

/// One simulated GPU in the pool: an independent launcher plus the
/// counters the scheduler and metrics layer need.
#[derive(Debug)]
pub struct SimDevice {
    /// Position in the pool (0-based); also the fault-seed derivation key.
    pub id: usize,
    /// The device's launcher. Clones share the device's fault plan (and
    /// therefore its launch counter) via `Arc`.
    pub launcher: Launcher,
    lost: AtomicBool,
    dispatched: AtomicU64,
    pending: AtomicU64,
    steals: AtomicU64,
    /// Busy time accumulated by dispatch, nanoseconds (fixed-point so it
    /// fits an atomic).
    busy_ns: AtomicU64,
}

impl SimDevice {
    fn new(id: usize, launcher: Launcher) -> Self {
        Self {
            id,
            launcher,
            lost: AtomicBool::new(false),
            dispatched: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `true` once the device has been marked lost (sticky).
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// Records one dispatched unit of work that kept the device busy for
    /// `ms` simulated milliseconds.
    pub fn note_dispatched(&self, ms: f64) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add((ms.max(0.0) * 1e6) as u64, Ordering::Relaxed);
    }

    /// Records a job this device stole from another device's queue.
    pub fn note_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Units of work dispatched on this device so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Jobs stolen *by* this device so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Accumulated simulated busy milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Jobs currently routed to this device but not yet served.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Fault-injection counters of this device's plan, if it has one.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.launcher.fault.as_ref().map(|p| p.stats())
    }
}

/// Point-in-time counters for one device, as reported by
/// [`DevicePool::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device id.
    pub id: usize,
    /// Units of work dispatched.
    pub dispatched: u64,
    /// Simulated busy milliseconds.
    pub busy_ms: f64,
    /// Jobs stolen by this device.
    pub steals: u64,
    /// Jobs routed here but not yet served.
    pub pending: u64,
    /// Sticky lost flag.
    pub lost: bool,
}

/// A deterministic multi-GPU node: devices plus routing state.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<SimDevice>,
    routing: RoutingPolicy,
    seed: u64,
    rr: AtomicUsize,
}

impl DevicePool {
    /// Builds a pool from `cfg`. Each device gets a clone of `cfg.base`
    /// with a fault plan seeded by `derive_device_seed(cfg.seed, id)` —
    /// the pure derivation that makes whole-pool chaos runs replayable.
    ///
    /// # Panics
    /// If `cfg.devices` is 0 or an override names a device out of range.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.devices >= 1, "a pool needs at least one device");
        for &(id, _) in &cfg.fault_overrides {
            assert!(id < cfg.devices, "fault override for device {id} out of range");
        }
        let devices = (0..cfg.devices)
            .map(|id| {
                let template = cfg
                    .fault_overrides
                    .iter()
                    .rev()
                    .find(|(d, _)| *d == id)
                    .map(|(_, t)| *t)
                    .or(cfg.fault);
                let mut launcher = cfg.base.clone();
                launcher.fault =
                    template.map(|t| Arc::new(FaultPlan::new(t.for_device(cfg.seed, id as u64))));
                SimDevice::new(id, launcher)
            })
            .collect();
        Self { devices, routing: cfg.routing, seed: cfg.seed, rr: AtomicUsize::new(0) }
    }

    /// Wraps one existing launcher — fault plan and all — as a 1-device
    /// pool. This is the backward-compatible path: a service configured
    /// without a pool behaves exactly as before.
    pub fn single(launcher: Launcher) -> Self {
        Self {
            devices: vec![SimDevice::new(0, launcher)],
            routing: RoutingPolicy::RoundRobin,
            seed: 0,
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of devices (healthy or not).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` iff the pool has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pool seed every device plan derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The routing policy in force.
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// The device with id `i`.
    pub fn device(&self, i: usize) -> &SimDevice {
        &self.devices[i]
    }

    /// All devices in id order.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Ids of devices not marked lost, ascending.
    pub fn healthy(&self) -> Vec<usize> {
        self.devices.iter().filter(|d| !d.is_lost()).map(|d| d.id).collect()
    }

    /// Marks device `i` lost (sticky). Routing skips it from now on.
    pub fn mark_lost(&self, i: usize) {
        self.devices[i].lost.store(true, Ordering::Release);
    }

    /// `true` once device `i` has been marked lost.
    pub fn is_lost(&self, i: usize) -> bool {
        self.devices[i].is_lost()
    }

    /// Picks a healthy device for work keyed by system size `n`, or
    /// `None` when every device is lost (callers fall back to the CPU
    /// safety net).
    pub fn route(&self, n: usize) -> Option<usize> {
        let healthy = || self.devices.iter().filter(|d| !d.is_lost()).map(|d| d.id);
        let count = healthy().count();
        if count == 0 {
            return None;
        }
        let k = match self.routing {
            RoutingPolicy::RoundRobin => self.rr.fetch_add(1, Ordering::Relaxed) % count,
            RoutingPolicy::LeastLoaded => {
                return healthy().min_by_key(|&i| (self.devices[i].pending(), i));
            }
            RoutingPolicy::PlanAffinity => (affinity_hash(n) % count as u64) as usize,
        };
        // A device lost since the count leaves fewer healthy ids; then the
        // last one still healthy serves.
        healthy().nth(k).or_else(|| healthy().last())
    }

    /// Notes a job routed to device `dev` (feeds least-loaded routing).
    pub fn note_enqueued(&self, dev: usize) {
        self.devices[dev].pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a routed job leaving device `dev`'s queue (served or
    /// re-routed).
    pub fn note_dequeued(&self, dev: usize) {
        let prev = self.devices[dev].pending.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "pending underflow on device {dev}");
    }

    /// Point-in-time counters for every device, id order.
    pub fn stats(&self) -> Vec<DeviceStats> {
        self.devices
            .iter()
            .map(|d| DeviceStats {
                id: d.id,
                dispatched: d.dispatched(),
                busy_ms: d.busy_ms(),
                steals: d.steals(),
                pending: d.pending(),
                lost: d.is_lost(),
            })
            .collect()
    }
}

/// Splitmix-style avalanche of `n`, so adjacent sizes spread over the
/// devices under [`RoutingPolicy::PlanAffinity`].
fn affinity_hash(n: usize) -> u64 {
    let mut h = (n as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::derive_device_seed;

    fn chaos_cfg(devices: usize) -> PoolConfig {
        PoolConfig { fault: Some(FaultConfig::chaos(0, 0.05, 0.01)), ..PoolConfig::new(devices) }
    }

    #[test]
    fn devices_get_pure_derived_seeds() {
        let pool = chaos_cfg(8).build();
        for d in pool.devices() {
            let plan = d.launcher.fault.as_ref().expect("chaos template installs a plan");
            assert_eq!(
                plan.config().seed,
                derive_device_seed(pool.seed(), d.id as u64),
                "device {} seed must be the pure derivation",
                d.id
            );
        }
    }

    #[test]
    fn pool_rebuild_replays_identical_fault_schedules() {
        // Satellite: whole-pool chaos runs are replayable — building the
        // same config twice yields per-device plans with identical
        // decision schedules, and distinct devices get distinct schedules.
        let a = chaos_cfg(4).build();
        let b = chaos_cfg(4).build();
        let mut schedules = Vec::new();
        for id in 0..4 {
            let ca = *a.device(id).launcher.fault.as_ref().unwrap().config();
            let cb = *b.device(id).launcher.fault.as_ref().unwrap().config();
            let sa = FaultPlan::schedule(&ca, 256);
            assert_eq!(sa, FaultPlan::schedule(&cb, 256), "device {id} replay");
            schedules.push(sa);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(schedules[i], schedules[j], "devices {i}/{j} must decorrelate");
            }
        }
        // A different pool seed re-keys every device.
        let c = PoolConfig { seed: 7, ..chaos_cfg(4) }.build();
        let c0 = *c.device(0).launcher.fault.as_ref().unwrap().config();
        let a0 = *a.device(0).launcher.fault.as_ref().unwrap().config();
        assert_ne!(FaultPlan::schedule(&c0, 256), FaultPlan::schedule(&a0, 256));
    }

    #[test]
    fn overrides_win_and_are_reseeded() {
        let mut cfg = chaos_cfg(3);
        cfg.fault_overrides =
            vec![(1, FaultConfig { device_lost_after: Some(2), ..FaultConfig::quiet(0) })];
        let pool = cfg.build();
        let plan1 = *pool.device(1).launcher.fault.as_ref().unwrap().config();
        assert_eq!(plan1.device_lost_after, Some(2));
        assert_eq!(plan1.seed, derive_device_seed(pool.seed(), 1));
        // Other devices keep the template.
        let plan0 = *pool.device(0).launcher.fault.as_ref().unwrap().config();
        assert!(plan0.launch_failure_rate > 0.0);
    }

    #[test]
    fn round_robin_cycles_and_skips_lost_devices() {
        let pool = PoolConfig::new(4).build();
        let first: Vec<_> = (0..8).map(|_| pool.route(64).unwrap()).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        pool.mark_lost(2);
        let after: Vec<_> = (0..6).map(|_| pool.route(64).unwrap()).collect();
        assert!(!after.contains(&2), "lost device must not be routed to: {after:?}");
        assert_eq!(pool.healthy(), vec![0, 1, 3]);
    }

    #[test]
    fn least_loaded_prefers_emptiest_queue() {
        let pool = PoolConfig { routing: RoutingPolicy::LeastLoaded, ..PoolConfig::new(3) }.build();
        pool.note_enqueued(0);
        pool.note_enqueued(0);
        pool.note_enqueued(1);
        assert_eq!(pool.route(64), Some(2));
        pool.note_enqueued(2);
        pool.note_enqueued(2);
        assert_eq!(pool.route(64), Some(1), "1 has fewer pending than 0 and 2");
        pool.note_dequeued(0);
        pool.note_dequeued(0);
        assert_eq!(pool.route(64), Some(0), "drained queue wins (tie broken by id)");
    }

    #[test]
    fn plan_affinity_is_sticky_per_size_and_survives_loss() {
        let pool =
            PoolConfig { routing: RoutingPolicy::PlanAffinity, ..PoolConfig::new(4) }.build();
        let d64 = pool.route(64).unwrap();
        for _ in 0..16 {
            assert_eq!(pool.route(64), Some(d64), "same n must stick to one device");
        }
        let hits: std::collections::BTreeSet<_> = [8usize, 16, 32, 64, 128, 256, 512, 1024]
            .iter()
            .map(|&n| pool.route(n).unwrap())
            .collect();
        assert!(hits.len() > 1, "different sizes should spread across devices: {hits:?}");
        pool.mark_lost(d64);
        let moved = pool.route(64).unwrap();
        assert_ne!(moved, d64, "affinity must remap away from a lost device");
        assert_eq!(pool.route(64), Some(moved), "...and stay sticky afterwards");
    }

    #[test]
    fn every_policy_routes_as_the_healthy_list_formula_for_every_loss_mask() {
        // The formulas `route` used when it collected `healthy()` first.
        for routing in
            [RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded, RoutingPolicy::PlanAffinity]
        {
            for mask in 0u32..16 {
                let pool = PoolConfig { routing, ..PoolConfig::new(4) }.build();
                for (i, load) in [2, 0, 3, 0].into_iter().enumerate() {
                    (0..load).for_each(|_| pool.note_enqueued(i));
                    if mask & (1 << i) != 0 {
                        pool.mark_lost(i);
                    }
                }
                let healthy = pool.healthy();
                for (tick, n) in [64usize, 128, 256, 512, 1024, 7].into_iter().enumerate() {
                    let expected = (!healthy.is_empty()).then(|| match routing {
                        RoutingPolicy::RoundRobin => healthy[tick % healthy.len()],
                        RoutingPolicy::LeastLoaded => {
                            *healthy.iter().min_by_key(|&&i| (pool.device(i).pending(), i)).unwrap()
                        }
                        RoutingPolicy::PlanAffinity => {
                            healthy[(affinity_hash(n) % healthy.len() as u64) as usize]
                        }
                    });
                    assert_eq!(pool.route(n), expected, "{routing:?} mask {mask:04b} n {n}");
                }
            }
        }
    }

    #[test]
    fn route_returns_none_when_every_device_is_lost() {
        let pool = PoolConfig::new(2).build();
        pool.mark_lost(0);
        pool.mark_lost(1);
        assert_eq!(pool.route(64), None);
        assert!(pool.healthy().is_empty());
    }

    #[test]
    fn single_preserves_the_installed_fault_plan() {
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(3, 0.5, 0.0)));
        let pool = DevicePool::single(Launcher::gtx280().with_fault_plan(plan.clone()));
        assert_eq!(pool.len(), 1);
        let installed = pool.device(0).launcher.fault.as_ref().unwrap();
        assert!(Arc::ptr_eq(installed, &plan), "single() must not re-key the plan");
    }

    #[test]
    fn stats_track_dispatch_busy_time_and_steals() {
        let pool = PoolConfig::new(2).build();
        pool.device(0).note_dispatched(1.5);
        pool.device(0).note_dispatched(0.5);
        pool.device(1).note_steal();
        let stats = pool.stats();
        assert_eq!(stats[0].dispatched, 2);
        assert!((stats[0].busy_ms - 2.0).abs() < 1e-9);
        assert_eq!(stats[1].steals, 1);
        assert!(!stats[0].lost && !stats[1].lost);
    }
}
