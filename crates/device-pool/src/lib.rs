//! # device-pool
//!
//! A deterministic multi-GPU node on top of [`gpu_sim`]: N independent
//! simulated devices — each with its own launcher, launch counter, and a
//! fault plan seeded as a **pure function** of `(pool seed, device id)` —
//! behind a [`DevicePool`] scheduler. The pool offers:
//!
//! * pluggable [`RoutingPolicy`]s (round-robin, least-loaded,
//!   plan-affinity) over the healthy subset of devices;
//! * per-device work queues with blocking pop and work-stealing
//!   ([`StealQueues`]), including a no-steal drain mode for dead devices;
//! * a **partitioned-solve transport**: the pool implements
//!   [`gpu_solvers::partitioned::Transport`], so
//!   [`gpu_solvers::partitioned::solve_partitioned`] runs systems far
//!   beyond one block's shared memory (n up to 2^20) across its healthy
//!   devices — per-device modified-Thomas local reduction, a gathered PCR
//!   interface solve, and parallel back-substitution — marking devices
//!   that die mid-solve lost and replanning over the survivors.
//!
//! ```
//! use device_pool::PoolConfig;
//! use gpu_solvers::partitioned::solve_partitioned;
//! use tridiag_core::{residual::l2_residual, Generator, Workload};
//!
//! let sys = Generator::new(7).system::<f64>(Workload::DiagonallyDominant, 1 << 14);
//! let pool = PoolConfig::new(4).build();
//! let report = solve_partitioned(&pool, &sys, 8).unwrap();
//! assert!(l2_residual(&sys, &report.x).unwrap() < 1e-8);
//! assert_eq!(report.spans.len(), 4);
//! ```

#![warn(missing_docs)]

mod partitioned;
pub mod pool;
pub mod queue;
pub mod routing;

pub use pool::{DevicePool, DeviceStats, PoolConfig, SimDevice};
pub use queue::{Pop, StealQueues};
pub use routing::{ParseRoutingPolicyError, RoutingPolicy};
