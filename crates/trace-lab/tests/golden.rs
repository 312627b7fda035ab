//! Golden replay traces: the refactor oracle.
//!
//! `tests/acceptance.rs` compares two captures from the *same* build, so a
//! change that moves a serving decision still passes it. The TLB1 files
//! under `tests/golden/` were captured once and are checked in; each must
//! replay bit-identically — every event, virtual timestamps included —
//! against the current code. A pure refactor of the serving path leaves
//! them untouched.
//!
//! Regenerate only for an intentional decision change, and explain the
//! trace diff in the change log:
//!
//! ```text
//! cargo test --offline -p trace-lab --test golden -- --ignored bless
//! ```

use std::path::PathBuf;
use trace_lab::{capture, verify, Scenario, TraceFile};

/// The pinned cells, by file stem.
fn golden_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        // Pinned GPU hybrid at 5% launch faults + 1% bit flips: retries,
        // breaker traffic and GEP repairs on the cold path.
        ("chaos", Scenario::chaos(1000)),
        // Warm pool with certificates, under the same fault rates: sampled
        // and skipped verifies, caught flips, evictions and revocations.
        (
            "certified_faulty",
            Scenario {
                launch_fault_ppm: 50_000,
                bit_flip_ppm: 10_000,
                ..Scenario::certified(1000)
            },
        ),
        // Small-n flood: load shedding, linger flushes, CPU routing.
        ("adversarial", Scenario::adversarial(400)),
    ]
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{stem}.trace"))
}

fn count(trace: &TraceFile, kind: &str) -> usize {
    trace.events.iter().filter(|e| e.kind() == kind).count()
}

#[test]
fn golden_traces_replay_bit_identically() {
    for (stem, scenario) in golden_scenarios() {
        let path = golden_path(stem);
        let trace = TraceFile::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with --ignored bless)", path.display()));
        assert_eq!(trace.scenario, scenario, "{stem}: the cell's definition moved; re-bless");
        let stats =
            verify(&trace).unwrap_or_else(|d| panic!("{stem}: a serving decision changed: {d}"));
        assert_eq!(stats.wrong, 0, "{stem}: a wrong answer escaped verification");
    }
}

#[test]
fn golden_traces_exercise_the_repair_machinery() {
    // The oracle is only as strong as what the captures contain.
    let read = |stem| TraceFile::read(&golden_path(stem)).expect("golden trace loads");

    let chaos = read("chaos");
    assert!(count(&chaos, "fault") > 0, "chaos capture holds no fault");
    assert!(count(&chaos, "retry") > 0, "chaos capture holds no retry");
    assert!(
        chaos.events.iter().any(
            |e| matches!(e, solver_service::TraceEvent::Served { repairs, .. } if *repairs > 0)
        ),
        "chaos capture holds no repair"
    );

    let certified = read("certified_faulty");
    assert!(count(&certified, "cert-skip-verify") > 0, "no verify was skipped");
    assert!(count(&certified, "cert-revoked") > 0, "no certificate was revoked");
    assert!(count(&certified, "factor-evict") > 0, "no poisoned entry was evicted");

    let adversarial = read("adversarial");
    assert!(count(&adversarial, "reject") > 0, "the flood never shed load");
}

/// Rewrites every golden file from the current code. Ignored: run it by
/// hand (see the module docs), never as part of the suite.
#[test]
#[ignore]
fn bless() {
    for (stem, scenario) in golden_scenarios() {
        let (trace, stats) = capture(&scenario);
        assert_eq!(stats.wrong, 0, "{stem}: refusing to bless a trace with wrong answers");
        let path = golden_path(stem);
        trace.write(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut kinds = std::collections::BTreeMap::new();
        for event in &trace.events {
            *kinds.entry(event.kind()).or_insert(0usize) += 1;
        }
        eprintln!("blessed {} (repairs {}): {kinds:?}", path.display(), stats.repairs);
    }
}
