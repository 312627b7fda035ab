//! The `replay` subcommand: the bit-identical determinism gate.
//!
//! ```text
//! cargo run --release -p bench -- replay            # capture + replay, 1000-request chaos cell
//! cargo run --release -p bench -- replay --quick    # the same cell (it takes ~0.2 s)
//! cargo run --release -p bench -- replay t.trace    # verify an existing trace file
//! ```
//!
//! Without an operand the gate runs the acceptance loop: capture the
//! 5%-fault chaos scenario **twice**, demand the two serialized traces be
//! byte-identical, demand the capture hold at least one device fault and
//! one repaired flush (a replay of fault-free traffic proves little),
//! round-trip it through `target/repro/chaos.trace`, and replay-verify the
//! loaded copy event-by-event. With a trace operand it re-runs that
//! file's embedded scenario and verifies against the recorded stream —
//! exit 1 on the first divergence.

use crate::gate::{repro_dir, Gate};
use crate::report::Table;
use solver_service::TraceEvent;
use trace_lab::{replay, RunStats, Scenario, TraceFile};

fn json_row(trace: &TraceFile, stats: &RunStats, identical: bool) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"replay\",\"scenario\":\"{}\",\"seed\":{},",
            "\"config_hash\":\"{:#018x}\",\"requests\":{},\"events\":{},",
            "\"served\":{},\"rejected\":{},\"repairs\":{},\"wrong\":{},",
            "\"makespan_ns\":{},\"identical\":{}}}"
        ),
        trace.scenario.name,
        trace.seed,
        trace.config_hash,
        trace.scenario.requests,
        trace.events.len(),
        stats.served,
        stats.rejected,
        stats.repairs,
        stats.wrong,
        stats.final_tick,
        identical,
    )
}

fn summary_table(trace: &TraceFile, stats: &RunStats, verdict: &str) -> Table {
    let mut table = Table::new(
        format!(
            "Replay gate: scenario '{}' (seed {:#x}, config hash {:#018x}, captured @ {})",
            trace.scenario.name, trace.seed, trace.config_hash, trace.git_rev
        ),
        &["requests", "events", "served", "rejected", "repairs", "wrong", "makespan ms", "verdict"],
    );
    table.row(vec![
        trace.scenario.requests.to_string(),
        trace.events.len().to_string(),
        stats.served.to_string(),
        stats.rejected.to_string(),
        stats.repairs.to_string(),
        stats.wrong.to_string(),
        format!("{:.3}", stats.final_tick as f64 / 1e6),
        verdict.to_string(),
    ]);
    table.note("verdict 'bit-identical' = every event, timestamps included, matched the trace");
    table
}

/// A capture worth replaying holds at least one device fault and one
/// repaired flush; otherwise the gate would pin only the happy path.
fn exercises_recovery(trace: &TraceFile) -> Result<(), String> {
    let faults = trace.events.iter().filter(|e| matches!(e, TraceEvent::Fault { .. })).count();
    let repaired_flushes = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Served { repairs, .. } if *repairs > 0))
        .count();
    if faults == 0 || repaired_flushes == 0 {
        return Err(format!(
            "the capture holds {faults} fault(s) and {repaired_flushes} repaired flush(es); \
             the gate needs at least one of each to replay the recovery paths"
        ));
    }
    Ok(())
}

/// The no-operand acceptance loop: the PASS line's detail, or the
/// failure clause.
fn self_gate(gate: &mut Gate) -> Result<String, String> {
    let scenario = Scenario::chaos(1000);
    eprintln!("[replay] capturing '{}' x2 ({} requests) ...", scenario.name, scenario.requests);
    let (trace_a, stats_a) = replay::capture(&scenario);
    let (trace_b, _) = replay::capture(&scenario);

    if trace_a.to_bytes() != trace_b.to_bytes() {
        return Err("two captures of the same scenario serialized differently".to_string());
    }
    exercises_recovery(&trace_a)?;

    let path = repro_dir().join("chaos.trace");
    trace_a.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let loaded =
        TraceFile::read(&path).map_err(|e| format!("reading back {}: {e}", path.display()))?;

    eprintln!("[replay] verifying the round-tripped trace ...");
    let replay_stats = replay::verify(&loaded).map_err(|divergence| divergence.to_string())?;
    if replay_stats != stats_a {
        return Err("events matched but run stats diverged".to_string());
    }
    println!("{}", summary_table(&loaded, &stats_a, "bit-identical"));
    gate.row(json_row(&loaded, &stats_a, true));
    Ok(format!(
        "{} events bit-identical across two runs (trace: {})",
        loaded.events.len(),
        path.display()
    ))
}

/// Verifies an existing trace file: the PASS line's detail, or the
/// failure clause.
fn verify_file(path: &str, gate: &mut Gate) -> Result<String, String> {
    let trace = TraceFile::read(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "[replay] replaying '{}' ({} events, captured @ {}) ...",
        trace.scenario.name,
        trace.events.len(),
        trace.git_rev
    );
    let stats = replay::verify(&trace).map_err(|divergence| divergence.to_string())?;
    println!("{}", summary_table(&trace, &stats, "bit-identical"));
    gate.row(json_row(&trace, &stats, true));
    Ok(format!("replay matched {} recorded events", trace.events.len()))
}

/// Runs the replay gate; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("replay", args, &[], 1) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let verdict = match gate.args.operands.first().cloned() {
        Some(path) => verify_file(&path, &mut gate),
        None => self_gate(&mut gate),
    };
    match verdict {
        Ok(pass) => gate.finish(pass),
        Err(clause) => {
            gate.fail(clause);
            gate.finish("")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{self, EXIT_GATE_FAIL, EXIT_PASS};

    #[test]
    fn the_quick_self_gate_passes() {
        assert_eq!(run(&["--quick".to_string()]), EXIT_PASS);
    }

    #[test]
    fn the_gate_refuses_a_capture_without_faults_or_repairs() {
        // chaos(300) is 417 events of admits, flushes, plans and serves:
        // nothing in it exercises a retry or a repair.
        let (short, _) = replay::capture(&Scenario::chaos(300));
        assert!(exercises_recovery(&short).is_err());
        let (gated, _) = replay::capture(&Scenario::chaos(1000));
        assert_eq!(exercises_recovery(&gated), Ok(()));
    }

    #[test]
    fn a_missing_trace_operand_fails_the_gate_not_usage() {
        assert_eq!(run(&["/nonexistent/x.trace".to_string()]), EXIT_GATE_FAIL);
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert_eq!(run(&["--frobnicate".to_string()]), cli::EXIT_USAGE);
    }
}
