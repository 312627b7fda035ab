//! # bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§5), each regenerating the same rows/series the paper
//! reports — simulated GPU timings from [`gpu_sim`]'s calibrated cost model,
//! real wall-clock timings for the CPU baselines.
//!
//! Run everything with `cargo run --release -p bench --bin repro`, or a
//! single experiment with e.g. `... --bin repro fig9`.

#![warn(missing_docs)]

pub mod certify;
pub mod chaos;
pub mod cli;
pub mod cluster;
pub mod factor;
pub mod figures;
pub mod gate;
pub mod loadlab;
pub mod pool;
pub mod prove;
pub mod replay;
pub mod report;
pub mod sanitize;
pub mod timing;

pub use report::Table;

use gpu_sim::Launcher;

/// Shared configuration for all experiments.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Seed for workload generation (fixed for reproducibility).
    pub seed: u64,
    /// Simulated device + cost model.
    pub launcher: Launcher,
    /// Wall-clock measurement repetitions for CPU solvers.
    pub cpu_reps: usize,
    /// Scale factor on batch counts (1.0 = the paper's sizes). Benches use
    /// smaller scales to keep criterion iterations fast.
    pub scale: f64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self { seed: 20100109, launcher: Launcher::gtx280(), cpu_reps: 5, scale: 1.0 }
    }
}

impl ReproConfig {
    /// The paper's problem sizes: "64 64-unknown systems to 512 512-unknown
    /// systems", scaled by `self.scale` on the system count.
    pub fn problem_sizes(&self) -> Vec<(usize, usize)> {
        [(64usize, 64usize), (128, 128), (256, 256), (512, 512)]
            .into_iter()
            .map(|(n, count)| (n, ((count as f64 * self.scale) as usize).max(1)))
            .collect()
    }

    /// The paper's headline 512x512 problem, scaled.
    pub fn headline(&self) -> (usize, usize) {
        (512, ((512.0 * self.scale) as usize).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_match_paper() {
        let cfg = ReproConfig::default();
        assert_eq!(cfg.problem_sizes(), vec![(64, 64), (128, 128), (256, 256), (512, 512)]);
        assert_eq!(cfg.headline(), (512, 512));
    }

    #[test]
    fn scaling_shrinks_counts_not_sizes() {
        let cfg = ReproConfig { scale: 0.25, ..Default::default() };
        assert_eq!(cfg.problem_sizes()[3], (512, 128));
        assert_eq!(cfg.problem_sizes()[0], (64, 16));
    }
}
