//! The pool as a partitioned-solve transport: one node whose healthy
//! devices each take a contiguous span of rows.
//! [`gpu_solvers::partitioned::solve_partitioned`] runs the pipeline
//! (local reduction on every device, one interface solve, then the
//! back-substitution fan-out) and replans around a device that dies
//! mid-solve: `DeviceLost` marks it lost here, and transient faults
//! retry.

use gpu_sim::Launcher;
use gpu_solvers::partitioned::Transport;

use crate::pool::DevicePool;

impl Transport for DevicePool {
    fn nodes(&self) -> Vec<(usize, Vec<usize>)> {
        vec![(0, self.healthy())]
    }

    fn launcher(&self, _node: usize, device: usize) -> &Launcher {
        &self.device(device).launcher
    }

    fn lose_device(&self, _node: usize, device: usize) {
        self.mark_lost(device);
    }

    fn note_busy(&self, _node: usize, device: usize, ms: f64) {
        self.device(device).note_dispatched(ms);
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::PoolConfig;
    use gpu_sim::FaultConfig;
    use gpu_solvers::partitioned::solve_partitioned;
    use tridiag_core::residual::l2_residual;
    use tridiag_core::{Generator, TridiagError, TridiagonalSystem, Workload};

    #[test]
    fn four_device_solve_matches_gep() {
        let n = 4096;
        let sys: TridiagonalSystem<f64> =
            Generator::new(11).system(Workload::DiagonallyDominant, n);
        let pool = PoolConfig::new(4).build();
        let report = solve_partitioned(&pool, &sys, 8).unwrap();
        let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
        for i in 0..n {
            assert!((report.x[i] - x_ref[i]).abs() < 1e-9, "i={i}");
        }
        assert_eq!(report.spans.iter().map(|s| s.device).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(report.spans.last().unwrap().end, n);
        // Every device did local + back-subst work.
        for d in pool.devices() {
            assert!(d.dispatched() >= 2, "device {} dispatched {}", d.id, d.dispatched());
        }
    }

    #[test]
    fn device_loss_mid_stream_replans_on_survivors() {
        let n = 2048;
        let sys: TridiagonalSystem<f64> = Generator::new(3).system(Workload::DiagonallyDominant, n);
        let mut cfg = PoolConfig::new(4);
        // Device 2 dies on its very first launch.
        cfg.fault_overrides =
            vec![(2, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
        let pool = cfg.build();
        let report = solve_partitioned(&pool, &sys, 4).unwrap();
        assert!(pool.is_lost(2), "the dead device must be marked lost");
        assert!(report.spans.iter().all(|s| s.device != 2), "replan must avoid the dead device");
        let r = l2_residual(&sys, &report.x).unwrap();
        assert!(r < 1e-8, "residual {r}");
    }

    #[test]
    fn all_devices_lost_surfaces_device_lost() {
        let sys: TridiagonalSystem<f32> =
            Generator::new(1).system(Workload::DiagonallyDominant, 64);
        let pool = PoolConfig::new(2).build();
        pool.mark_lost(0);
        pool.mark_lost(1);
        assert_eq!(solve_partitioned(&pool, &sys, 2).unwrap_err(), TridiagError::DeviceLost);
    }
}
