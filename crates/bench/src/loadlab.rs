//! The `loadlab` subcommand: the replay-driven load lab and its SLO gate.
//!
//! ```text
//! cargo run --release -p bench -- loadlab            # full matrix (2000 req/cell)
//! cargo run --release -p bench -- loadlab --quick    # CI-sized (400 req/cell)
//! ```
//!
//! Runs every cell of [`trace_lab::loadlab::standard_cells`] under the
//! deterministic harness, prints the matrix, writes the canonical
//! `target/repro/BENCH_loadlab.json`, and gates twice:
//!
//! 1. **SLO** — each cell must clear its own availability/p99/correctness
//!    objective.
//! 2. **Baseline** — in `--quick` mode (the CI shape), each cell is also
//!    compared against the checked-in `baselines/loadlab.json`:
//!    availability may not drop more than 0.5 % below the recorded value
//!    and p99 may not exceed 1.5x the recorded value. The lab is
//!    deterministic, so a baseline miss is a real behaviour change, not
//!    noise.

use crate::gate::{json_u64, Gate};
use crate::report::Table;
use trace_lab::loadlab::{run_cell, standard_cells};
use trace_lab::LabOutcome;

/// Availability may drop at most this far below the baseline (ppm).
const AVAILABILITY_SLACK_PPM: u64 = 5_000;

/// p99 may grow to at most baseline x 3/2.
const P99_GROWTH_NUM: u64 = 3;
/// Denominator of the p99 growth bound.
const P99_GROWTH_DEN: u64 = 2;

fn json_row(out: &LabOutcome) -> String {
    format!(
        concat!(
            "{{\"name\":\"{}\",\"offered\":{},\"served\":{},\"rejected\":{},",
            "\"availability_ppm\":{},\"p50_ns\":{},\"p99_ns\":{},",
            "\"throughput_rps\":{},\"repairs\":{},\"wrong\":{},",
            "\"makespan_ns\":{},\"pass\":{}}}"
        ),
        out.name,
        out.offered,
        out.served,
        out.rejected,
        out.availability_ppm,
        out.p50_ns,
        out.p99_ns,
        out.throughput_rps,
        out.repairs,
        out.wrong,
        out.makespan_ns,
        out.pass(),
    )
}

/// Compares one cell against its recorded baseline row (a flat JSON
/// object); returns failure clauses.
fn baseline_failures(out: &LabOutcome, row: &str) -> Vec<String> {
    let mut failures = Vec::new();
    match json_u64(row, "availability_ppm") {
        Some(base) => {
            let floor = base.saturating_sub(AVAILABILITY_SLACK_PPM);
            if out.availability_ppm < floor {
                failures.push(format!(
                    "{}: availability {} ppm < baseline floor {} ppm (recorded {})",
                    out.name, out.availability_ppm, floor, base
                ));
            }
        }
        None => failures.push(format!("{}: baseline row lacks availability_ppm", out.name)),
    }
    match json_u64(row, "p99_ns") {
        Some(base) => {
            let ceiling = base.saturating_mul(P99_GROWTH_NUM) / P99_GROWTH_DEN;
            if out.p99_ns > ceiling {
                failures.push(format!(
                    "{}: p99 {} ns > baseline ceiling {} ns (recorded {})",
                    out.name, out.p99_ns, ceiling, base
                ));
            }
        }
        None => failures.push(format!("{}: baseline row lacks p99_ns", out.name)),
    }
    failures
}

/// Runs the load lab; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("loadlab", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let cells = standard_cells(gate.args.quick);
    let requests = cells[0].scenario.requests;

    let mut table = Table::new(
        format!(
            "Load lab: {requests} open-loop requests/cell on the deterministic \
             virtual-clock harness (latencies are simulated ns)"
        ),
        &[
            "cell", "offered", "served", "shed", "avail %", "p50 µs", "p99 µs", "req/s", "repairs",
            "wrong", "gate",
        ],
    );
    let mut outcomes = Vec::new();
    for cell in &cells {
        eprintln!("[loadlab] {} ...", cell.scenario.name);
        let out = run_cell(cell);
        for failure in &out.failures {
            gate.fail(format!("{}: {failure}", out.name));
        }
        table.row(vec![
            out.name.clone(),
            out.offered.to_string(),
            out.served.to_string(),
            out.rejected.to_string(),
            format!("{:.2}", out.availability_ppm as f64 / 1e4),
            format!("{:.1}", out.p50_ns as f64 / 1e3),
            format!("{:.1}", out.p99_ns as f64 / 1e3),
            out.throughput_rps.to_string(),
            out.repairs.to_string(),
            out.wrong.to_string(),
            if out.pass() { "pass".into() } else { "FAIL".into() },
        ]);
        gate.row(json_row(&out));
        outcomes.push(out);
    }
    table.note("gate: per-cell SLO (availability floor, p99 ceiling, zero wrong answers)");
    table.note("adversarial-small-n is expected to shed: its SLO asserts graceful rejection");
    println!("{table}");

    // Baseline regression gate — the baseline records the --quick shape CI
    // runs; full-size runs are gated by SLO only.
    if gate.args.quick {
        for out in &outcomes {
            match gate.baseline_row(&out.name) {
                Ok(row) => baseline_failures(out, &row).into_iter().for_each(|f| gate.fail(f)),
                Err(why) => gate.fail(why),
            }
        }
    } else {
        eprintln!("[loadlab] baseline compare skipped (baselines record the --quick shape)");
    }

    gate.finish(format!("{} cell(s) cleared SLO and baseline", outcomes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{self, EXIT_PASS};

    #[test]
    fn quick_lab_passes_slo_and_baseline() {
        assert_eq!(run(&["--quick".to_string()]), EXIT_PASS);
    }

    #[test]
    fn baseline_comparison_flags_regressions() {
        let out = run_cell(&standard_cells(true)[0]);
        let row = format!(
            "{{\"name\":\"steady\",\"availability_ppm\":1000000,\"p99_ns\":{}}}",
            out.p99_ns / 10
        );
        let failures = baseline_failures(&out, &row);
        assert!(
            failures.iter().any(|f| f.contains("p99")),
            "a 10x p99 regression went unflagged: {failures:?}"
        );
    }

    #[test]
    fn missing_baseline_row_is_a_failure() {
        let gate = Gate::start("loadlab", &[], &[], 0).expect("no flags");
        assert!(gate.baseline_row("no-such-cell").is_err());
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert_eq!(run(&["--cells=9".to_string()]), cli::EXIT_USAGE);
    }
}
