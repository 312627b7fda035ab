//! The `chaos` subcommand: drives the solve service under injected device
//! faults and reports availability, correctness, and degradation.
//!
//! ```text
//! cargo run --release -p bench -- chaos            # full sweep (1000 req/cell)
//! cargo run --release -p bench -- chaos --quick    # CI gate subset
//! ```
//!
//! Each cell of the sweep crosses a fault mix (transient launch-failure
//! rate × bit-flip rate) with a dispatch mode (autotuned plan vs. a pinned
//! `cr+pcr` engine) and pushes an open-loop stream of mixed-size requests
//! through [`SolverService`] on a fault-injected [`Launcher`]. The gate
//! fails (exit 1) iff any cell returns a wrong answer — a response whose
//! residual escapes the verify bound — or drops availability below 99%.
//! Under the verify-and-repair contract *neither should ever happen*:
//! faults may cost latency and degrade flushes to the CPU safety net, but
//! never correctness.

use crate::gate::{wait_all, Gate};
use crate::report::Table;
use gpu_sim::{FaultConfig, FaultPlan, FaultStats, Launcher};
use gpu_solvers::GpuAlgorithm;
use solver_service::{Engine, ServiceConfig, ServiceError, SolverService, Ticket};
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::residual::RESIDUAL_BOUND;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// System sizes the stream mixes — same range as the serving experiment.
const SIZES: [usize; 3] = [64, 128, 256];

/// Submit attempts per request before declaring it shed (unavailable).
const MAX_SUBMIT_ATTEMPTS: usize = 200;

/// One cell of the sweep: a fault mix crossed with a dispatch mode.
struct Cell {
    label: &'static str,
    launch_rate: f64,
    flip_rate: f64,
    pin: Option<Engine>,
}

/// What one cell produced, distilled from the responses + metrics snapshot.
struct CellOutcome {
    total: usize,
    completed: u64,
    shed: u64,
    wrong: u64,
    repaired: u64,
    availability: f64,
    p50_us: u64,
    p99_us: u64,
    retries: u64,
    device_faults: u64,
    corruptions_caught: u64,
    degraded_flushes: u64,
    breaker_opened: u64,
    breaker_denials: u64,
    injected: FaultStats,
}

impl CellOutcome {
    /// The gate: verified answers only, ≥99% availability.
    fn passes(&self) -> bool {
        self.wrong == 0 && self.availability >= 0.99
    }
}

fn pin_engine() -> Engine {
    // Valid for every size in the mix (m = 32 divides all of them).
    Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })
}

/// The sweep cells for a given thoroughness.
fn cells(quick: bool) -> Vec<Cell> {
    let mut cells = vec![
        Cell { label: "baseline (no faults)", launch_rate: 0.0, flip_rate: 0.0, pin: None },
        Cell { label: "chaos 5%/1%, autotuned", launch_rate: 0.05, flip_rate: 0.01, pin: None },
        Cell {
            label: "chaos 5%/1%, pinned cr+pcr@32",
            launch_rate: 0.05,
            flip_rate: 0.01,
            pin: Some(pin_engine()),
        },
        // The storm cell is in the quick gate on purpose: at these rates
        // injection is certain even in a short run, so CI always exercises
        // retries, repair, and (often) the breaker — not just the happy path.
        Cell {
            label: "storm 20%/5%, pinned cr+pcr@32",
            launch_rate: 0.20,
            flip_rate: 0.05,
            pin: Some(pin_engine()),
        },
    ];
    if !quick {
        cells.push(Cell {
            label: "drizzle 1%/0.5%, autotuned",
            launch_rate: 0.01,
            flip_rate: 0.005,
            pin: None,
        });
        cells.push(Cell {
            label: "storm 20%/5%, autotuned",
            launch_rate: 0.20,
            flip_rate: 0.05,
            pin: None,
        });
    }
    cells
}

/// Open-loop submit with bounded backpressure retries that honor the
/// service's drain-rate hint; `None` when the request is shed for good.
pub(crate) fn submit_retrying(
    service: &SolverService<f32>,
    system: &TridiagonalSystem<f32>,
) -> Option<Ticket<f32>> {
    let mut attempts = 0usize;
    loop {
        match service.submit(system.clone()) {
            Ok(ticket) => return Some(ticket),
            Err(ServiceError::QueueFull { retry_after, .. }) if attempts < MAX_SUBMIT_ATTEMPTS => {
                attempts += 1;
                match retry_after {
                    Some(hint) => std::thread::sleep(hint),
                    None => std::thread::yield_now(),
                }
            }
            Err(ServiceError::QueueFull { .. }) => return None,
            Err(e) => panic!("service refused a valid request: {e}"),
        }
    }
}

/// Drives one cell: `total` mixed-size requests, open loop, bounded
/// submit retries honoring the service's drain-rate hint.
fn drive(seed: u64, cell: &Cell, total: usize) -> CellOutcome {
    let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(
        seed ^ 0xC4A05,
        cell.launch_rate,
        cell.flip_rate,
    )));
    // A small target batch multiplies kernel launches, giving the fault
    // plan more opportunities per run — the point here is resilience
    // coverage, not occupancy (the serving experiment measures that).
    let config = ServiceConfig {
        target_batch: 8,
        min_gpu_batch: 1,
        max_linger: Duration::from_millis(1),
        launcher: Launcher::gtx280().with_fault_plan(Arc::clone(&plan)),
        pin_engine: cell.pin,
        ..ServiceConfig::default()
    };
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(seed);
    let mut sent = Vec::with_capacity(total);
    let mut shed = 0u64;
    for i in 0..total {
        let n = SIZES[i % SIZES.len()];
        let system = generator.system(Workload::DiagonallyDominant, n);
        match submit_retrying(&service, &system) {
            Some(ticket) => sent.push((system, ticket)),
            None => shed += 1,
        }
    }
    let wrong = wait_all(sent).wrong;
    let snapshot = service.shutdown();
    let deg = &snapshot.degradation;
    CellOutcome {
        total,
        completed: snapshot.completed,
        shed,
        wrong,
        repaired: snapshot.repaired,
        availability: snapshot.completed as f64 / (total.max(1)) as f64,
        p50_us: snapshot.latency_p50_us,
        p99_us: snapshot.latency_p99_us,
        retries: deg.retries,
        device_faults: deg.device_faults,
        corruptions_caught: deg.corruptions_caught,
        degraded_flushes: deg.degraded_flushes,
        breaker_opened: deg.breaker_opened,
        breaker_denials: deg.breaker_denials,
        injected: plan.stats(),
    }
}

/// One machine-readable line per cell (hand-rolled JSON, like the
/// metrics snapshot's own serialization).
fn json_row(cell: &Cell, out: &CellOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"chaos\",\"mode\":\"{}\",",
            "\"launch_rate\":{},\"flip_rate\":{},\"requests\":{},",
            "\"completed\":{},\"shed\":{},\"wrong\":{},\"availability\":{:.4},",
            "\"repaired\":{},\"p50_us\":{},\"p99_us\":{},",
            "\"retries\":{},\"device_faults\":{},\"corruptions_caught\":{},",
            "\"degraded_flushes\":{},\"breaker_opened\":{},\"breaker_denials\":{},",
            "\"injected_launch_failures\":{},\"injected_bit_flips\":{}}}"
        ),
        cell.label,
        cell.launch_rate,
        cell.flip_rate,
        out.total,
        out.completed,
        out.shed,
        out.wrong,
        out.availability,
        out.repaired,
        out.p50_us,
        out.p99_us,
        out.retries,
        out.device_faults,
        out.corruptions_caught,
        out.degraded_flushes,
        out.breaker_opened,
        out.breaker_denials,
        out.injected.launch_failures,
        out.injected.bit_flips,
    )
}

/// Runs the chaos sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("chaos", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let quick = gate.args.quick;
    let total = if quick { 150 } else { 1000 };
    let seed = 20100109;

    let mut table = Table::new(
        format!(
            "Chaos sweep: {total} mixed-size requests/cell (n ∈ {SIZES:?}), \
             verify-and-repair service under injected faults"
        ),
        &[
            "cell",
            "avail %",
            "wrong",
            "repairs",
            "p50 µs",
            "p99 µs",
            "retries",
            "dev faults",
            "corrupt caught",
            "degraded",
            "brk open/deny",
            "gate",
        ],
    );
    let mut worst_availability = 1.0f64;
    let mut worst_wrong = 0u64;
    for cell in cells(quick) {
        eprintln!("[chaos] {} ...", cell.label);
        let out = drive(seed, &cell, total);
        let ok = out.passes();
        gate.check(
            ok,
            format!(
                "{}: {} wrong answer(s), availability {:.4}",
                cell.label, out.wrong, out.availability
            ),
        );
        worst_availability = worst_availability.min(out.availability);
        worst_wrong = worst_wrong.max(out.wrong);
        table.row(vec![
            cell.label.to_string(),
            format!("{:.1}", out.availability * 100.0),
            out.wrong.to_string(),
            out.repaired.to_string(),
            out.p50_us.to_string(),
            out.p99_us.to_string(),
            out.retries.to_string(),
            out.device_faults.to_string(),
            out.corruptions_caught.to_string(),
            out.degraded_flushes.to_string(),
            format!("{}/{}", out.breaker_opened, out.breaker_denials),
            if ok { "pass".into() } else { "FAIL".into() },
        ]);
        gate.row(json_row(&cell, &out));
    }
    table.note(format!(
        "gate: wrong answers = 0 and availability ≥ 99% (residual bound {RESIDUAL_BOUND:.0e})"
    ));
    table.note("wrong = responses whose residual escapes the verify bound (must be 0 by design)");
    table.note("degraded = flushes served off-plan (lower-ranked engine or CPU safety net)");
    println!("{table}");

    gate.floors(
        "chaos-sweep",
        &[("availability", worst_availability), ("wrong", worst_wrong as f64)],
    );
    gate.finish("every answer verified, availability ≥ 99% in all cells")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_cell_is_perfect() {
        let cell =
            Cell { label: "baseline", launch_rate: 0.0, flip_rate: 0.0, pin: Some(pin_engine()) };
        let out = drive(7, &cell, 45);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.shed, 0);
        assert_eq!(out.completed, 45);
        assert!(out.passes());
        assert_eq!(out.injected.launch_failures, 0);
        assert_eq!(out.injected.bit_flips, 0);
    }

    #[test]
    fn chaotic_cell_still_passes_the_gate() {
        // Rates far above the sweep's: with only a handful of launches in
        // a 45-request run, 5%/1% can legitimately inject nothing. The
        // gate must hold regardless of how hard the device misbehaves.
        let cell =
            Cell { label: "chaos", launch_rate: 0.5, flip_rate: 0.25, pin: Some(pin_engine()) };
        let out = drive(7, &cell, 45);
        assert!(out.passes(), "wrong={} availability={}", out.wrong, out.availability);
        // The plan actually injected something at these rates and counts.
        assert!(
            out.injected.launch_failures + out.injected.bit_flips > 0,
            "chaos cell injected nothing: {:?}",
            out.injected
        );
    }

    #[test]
    fn json_row_is_wellformed_enough() {
        let cell = Cell { label: "x", launch_rate: 0.5, flip_rate: 0.25, pin: None };
        let out = drive(11, &cell, 9);
        let line = json_row(&cell, &out);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"launch_rate\":0.5"));
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
