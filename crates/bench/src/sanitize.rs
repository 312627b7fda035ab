//! The `sanitize` subcommand: sweeps every registered production solver
//! under the kernel sanitizer and reports a pass/fail table.
//!
//! ```text
//! cargo run --release -p bench -- sanitize            # full sweep
//! cargo run --release -p bench -- sanitize --quick    # CI gate subset
//! cargo run --release -p bench -- sanitize --overhead # record-vs-off timing
//! ```
//!
//! Every cell solves a batch in [`SanitizeMode::Record`] and counts the
//! diagnostics by severity. The command exits non-zero iff any
//! **Error**-severity diagnostic (race, hazard, OOB, uninitialized read)
//! is found — warnings (bank conflicts, RD's non-finite overflow) are
//! expected for some algorithms and are reported but do not fail the gate.

use crate::gate::Gate;
use crate::report::Table;
use gpu_sim::{Diagnostic, Launcher, SanitizeOptions};
use gpu_solvers::{solve_batch, GpuAlgorithm, RdMode};
use std::time::Instant;
use tridiag_core::{Generator, Real, SystemBatch, TridiagError, Workload};

/// Every solver registered in [`GpuAlgorithm`], with the hybrids at the
/// paper's §5.3 switch points for size `n`.
fn registered(n: usize) -> Vec<GpuAlgorithm> {
    let m2 = (n / 2).max(2);
    let m4 = (n / 4).max(2);
    vec![
        GpuAlgorithm::Cr,
        GpuAlgorithm::Pcr,
        GpuAlgorithm::Rd(RdMode::Plain),
        GpuAlgorithm::Rd(RdMode::Rescaled),
        GpuAlgorithm::CrPcr { m: m2 },
        GpuAlgorithm::CrRd { m: m4, mode: RdMode::Plain },
        GpuAlgorithm::CrRd { m: m4, mode: RdMode::Rescaled },
        GpuAlgorithm::CrEvenOdd,
        GpuAlgorithm::CrGlobalOnly,
        GpuAlgorithm::ThomasPerThread,
    ]
}

/// One-line summary of the worst diagnostic (highest severity, then most
/// occurrences), or `-` when clean.
fn worst(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .max_by_key(|d| (d.severity, d.occurrences))
        .map(|d| {
            let deg = d.degree.map(|g| format!(" deg {g}")).unwrap_or_default();
            format!("{} x{}{}", d.kind.name(), d.occurrences, deg)
        })
        .unwrap_or_else(|| "-".to_string())
}

/// Sweeps one element type over all sizes/workloads; appends rows to the
/// table and returns the number of Error-severity findings.
fn sweep_type<T: Real>(
    ty: &str,
    sizes: &[usize],
    workloads: &[Workload],
    count: usize,
    seed: u64,
    table: &mut Table,
) -> usize {
    let launcher = Launcher::gtx280().with_sanitize(SanitizeOptions::record());
    let mut errors = 0usize;
    for &n in sizes {
        for &w in workloads {
            let batch: SystemBatch<T> =
                Generator::new(seed ^ n as u64).batch(w, n, count).expect("workload generation");
            for alg in registered(n) {
                let row = match solve_batch(&launcher, alg, &batch) {
                    Ok(report) => {
                        let e = report.sanitizer_error_count();
                        let wn = report.sanitizer_warning_count();
                        errors += e;
                        vec![
                            alg.name().to_string(),
                            n.to_string(),
                            ty.to_string(),
                            w.name().to_string(),
                            if e == 0 { "clean".into() } else { "FAIL".into() },
                            e.to_string(),
                            wn.to_string(),
                            worst(&report.diagnostics),
                        ]
                    }
                    // Configurations the device cannot launch at all —
                    // shared arrays over the GTX 280's 16 KB, or one-thread-
                    // per-unknown kernels needing more than 512 threads —
                    // are skipped, not failed: the launcher rejects them
                    // before any kernel runs, so there is nothing to check.
                    Err(
                        e @ (TridiagError::SharedMemExceeded { .. }
                        | TridiagError::InvalidConfig { .. }),
                    ) => {
                        let why = match e {
                            TridiagError::SharedMemExceeded { .. } => "exceeds shared memory",
                            _ => "exceeds block-dimension limit",
                        };
                        vec![
                            alg.name().to_string(),
                            n.to_string(),
                            ty.to_string(),
                            w.name().to_string(),
                            "skip".into(),
                            "-".into(),
                            "-".into(),
                            why.into(),
                        ]
                    }
                    Err(e) => {
                        errors += 1;
                        vec![
                            alg.name().to_string(),
                            n.to_string(),
                            ty.to_string(),
                            w.name().to_string(),
                            "FAIL".into(),
                            "1".into(),
                            "0".into(),
                            format!("{e:?}"),
                        ]
                    }
                };
                table.row(row);
            }
        }
    }
    errors
}

/// Runs the sanitizer sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("sanitize", args, &["overhead"], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let quick = gate.args.quick;
    if gate.args.has("overhead") {
        println!("{}", overhead_table());
        if !quick {
            return gate.ungated();
        }
    }

    // The sweep: n in 64..=1024 (powers of two), f32 + f64, an in-range
    // workload and a stress workload that provokes RD's overflow.
    let (sizes, count): (&[usize], usize) =
        if quick { (&[64, 256], 2) } else { (&[64, 128, 256, 512, 1024], 4) };
    let workloads: &[Workload] = if quick {
        &[Workload::DiagonallyDominant]
    } else {
        &[Workload::DiagonallyDominant, Workload::RandomGeneral]
    };

    let mut table = Table::new(
        if quick { "Sanitizer sweep (--quick)" } else { "Sanitizer sweep" },
        &["solver", "n", "type", "workload", "status", "errors", "warnings", "worst diagnostic"],
    );
    let mut errors = sweep_type::<f32>("f32", sizes, workloads, count, 0xC0FFEE, &mut table);
    if !quick {
        errors += sweep_type::<f64>("f64", sizes, workloads, count, 0xC0FFEE, &mut table);
    }
    table.note("mode: record (all blocks); errors = races/hazards/OOB/uninitialized reads");
    table.note(
        "warnings (bank conflicts, non-finite origins) are expected for some \
         algorithms and do not fail the gate",
    );
    println!("{table}");

    gate.row(format!(
        "{{\"experiment\":\"sanitize\",\"quick\":{quick},\"errors\":{errors},\"pass\":{}}}",
        errors == 0
    ));
    gate.check(errors == 0, format!("{errors} error-severity diagnostic(s)"));
    gate.finish("no error-severity diagnostics")
}

/// Times the paper's five solvers on the headline 512x512 batch with the
/// sanitizer off vs recording — the overhead table for EXPERIMENTS.md.
fn overhead_table() -> Table {
    let batch = tridiag_core::dominant_batch::<f32>(20100109, 512, 512);
    let off = Launcher::gtx280();
    let rec = Launcher::gtx280().with_sanitize(SanitizeOptions::record());
    let mut table = Table::new(
        "Sanitizer overhead: wall-clock of solve_batch, off vs record (512x512 f32)",
        &["solver", "off ms", "record ms", "overhead"],
    );
    for alg in GpuAlgorithm::paper_five(512) {
        let time = |launcher: &Launcher| {
            let reps = 3;
            let start = Instant::now();
            for _ in 0..reps {
                solve_batch(launcher, alg, &batch).expect("solve");
            }
            start.elapsed().as_secs_f64() * 1e3 / reps as f64
        };
        let t_off = time(&off);
        let t_rec = time(&rec);
        table.row(vec![
            alg.name().to_string(),
            format!("{t_off:.1}"),
            format!("{t_rec:.1}"),
            format!("{:.2}x", t_rec / t_off),
        ]);
    }
    table.note("host wall-clock of the whole simulated solve, not simulated kernel time");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean() {
        let mut table = Table::new("t", &["s", "n", "t", "w", "st", "e", "w2", "d"]);
        let errors =
            sweep_type::<f32>("f32", &[64], &[Workload::DiagonallyDominant], 2, 7, &mut table);
        assert_eq!(errors, 0, "{table}");
        // Every registered solver produced a row.
        assert_eq!(table.rows.len(), registered(64).len());
    }

    #[test]
    fn worst_picks_highest_severity_then_occurrences() {
        assert_eq!(worst(&[]), "-");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
