//! The cluster as a partitioned-solve transport: a coordinator's view.
//!
//! [`gpu_solvers::partitioned::solve_partitioned`] runs the same
//! substructuring pipeline on a launcher, a pool and a cluster; only the
//! transport differs. Seen from its coordinator, the cluster cuts the
//! system node-first, device-second. The reduction is associative, so
//! this yields the *same* interface system as a flat cut over all devices,
//! and the interface stays `2 × total chunks` rows no matter how many
//! nodes feed it. That is what opens `n` far beyond a single pool.
//!
//! The coordinator runs its own phases inline. A remote node's phase
//! rides a deadline-guarded, retried RPC priced by its bytes: the
//! coefficient arrays out and the reduced rows back, then the node's slice
//! of the interface solution out and its solved rows back. A node is
//! eligible while the coordinator's gossip view and peer breaker say so
//! and it is outside a crash window. An RPC that exhausts its retries
//! excludes that **node** for this solve (the coordinator cannot tell a
//! dead node from a dead link, and does not need to). A `DeviceLost`
//! inside a node marks that **device** lost in the node's pool. Transient
//! device faults retry, as on a single pool.

use crate::cluster::Cluster;
use gpu_sim::Launcher;
use gpu_solvers::partitioned::Transport;
use solver_service::TraceEvent;

/// The cluster seen from `node`, the coordinator of a partitioned solve.
/// It gathers the reduced rows, solves the interface on its first healthy
/// device (on the first eligible node's once its own pool is dead), and
/// traces each interface solve.
pub struct Coordinator<'a> {
    cluster: &'a Cluster,
    node: usize,
}

impl Cluster {
    /// This cluster as seen from coordinator `node`, ready for
    /// [`solve_partitioned`](gpu_solvers::partitioned::solve_partitioned).
    pub fn coordinator(&self, node: usize) -> Coordinator<'_> {
        Coordinator { cluster: self, node }
    }
}

impl Transport for Coordinator<'_> {
    fn nodes(&self) -> Vec<(usize, Vec<usize>)> {
        let now = self.cluster.clock().now();
        (0..self.cluster.len())
            .filter(|&i| {
                // The coordinator never routes to a node it can see is
                // inside a crash window (its own view suffices).
                self.cluster.eligible_from(self.node, i)
                    && (i == self.node || !self.cluster.net().node_down(i, now))
            })
            .map(|i| (i, self.cluster.node(i).pool.healthy()))
            .collect()
    }

    fn launcher(&self, node: usize, device: usize) -> &Launcher {
        &self.cluster.node(node).pool.device(device).launcher
    }

    fn run_on<R>(
        &self,
        node: usize,
        up: usize,
        down: usize,
        mut work: impl FnMut() -> R,
    ) -> Option<(R, f64)> {
        if node == self.node {
            return Some((work(), 0.0));
        }
        let link = self.cluster.net().link();
        let net_ms = link.seconds(up) * 1e3 + link.seconds(down) * 1e3;
        let attempts = self.cluster.rpc_config().max_attempts;
        let result = self.cluster.rpc(self.node, node, up, down, attempts, work).ok()?;
        Some((result, net_ms))
    }

    fn lose_device(&self, node: usize, device: usize) {
        self.cluster.node(node).pool.mark_lost(device);
    }

    fn home(&self) -> usize {
        self.node
    }

    fn note_busy(&self, node: usize, device: usize, ms: f64) {
        self.cluster.node(node).pool.device(device).note_dispatched(ms);
    }

    fn interface_solved(&self, n: usize, rows: usize, node: usize) {
        self.cluster.trace().emit(|| TraceEvent::InterfaceSolve {
            at: self.cluster.clock().now(),
            n: n as u64,
            rows: rows as u64,
            node: node as u64,
        });
    }
}
