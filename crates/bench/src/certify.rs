//! The `certify` subcommand: verify-everything vs certified sampled
//! verification, and reports the verify-skip speedup, certification
//! coverage, and correctness.
//!
//! ```text
//! cargo run --release -p bench -- certify            # full sweep (1200 req)
//! cargo run --release -p bench -- certify --quick    # CI gate subset
//! ```
//!
//! Two identical open-loop streams of pooled-matrix flushes run through
//! [`serve_flush`] on the simulated clock. The **verify** mode pays the
//! per-solution residual check on every flush (certified catalog off);
//! the **certified** mode turns the catalog on, so each dominant matrix
//! is analyzed exactly once (on its second flush — the first is fully
//! verified, as the first sample of its 1-in-K schedule), certified, and
//! its later flushes skip the residual verify (1-in-K sampled). Both
//! modes pin the CPU cost model, so the device-µs ratio is the
//! deterministic verify-cost discount (25 vs 18 ns/row in the sim model)
//! diluted by sampled flushes and the deliberately uncertifiable matrix
//! in the pool. The gate fails (exit 1)
//! iff certification coverage of the dominant pool drops below the
//! checked-in floor, the verify-skip speedup falls under its floor, or
//! any answer in either mode escapes the acceptance bound.

use crate::report::Table;
use gpu_sim::{Clock, Launcher};
use numeric_verify::CertifiedCatalog;
use solver_service::{
    make_request_keyed, serve_flush, CircuitBreakers, CpuEngine, DeviceCtx, DispatchConfig, Engine,
    FlushReason, FlushedBatch, PlanCache, ServiceMetrics, Ticket,
};
use std::sync::Arc;
use tridiag_core::{Generator, MatrixKey, TridiagonalSystem, Workload};

/// System sizes the pooled matrices cycle over.
const SIZES: [usize; 3] = [64, 128, 256];

/// RHS per flush (every flush is one matrix × `BATCH` right-hand sides).
const BATCH: usize = 8;

/// Sampling period the certified mode runs (1-in-K residual checks).
const SAMPLE_PERIOD: usize = 8;

/// A response is "wrong" when its residual escapes this bound (the same
/// bound the chaos gate and the service property tests use for f32).
const RESIDUAL_BOUND: f64 = 1e-2;

/// What one mode (verify or certified) of the sweep produced.
struct ModeOutcome {
    completed: u64,
    wrong: u64,
    max_residual: f64,
    /// Modeled device time per served system, microseconds.
    device_us_per_system: f64,
    condest_calls: u64,
    certs_issued: u64,
    cert_skipped_verifies: u64,
    cert_sampled_verifies: u64,
    certs_revoked: u64,
    quiet: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the matrix pool: `keys − 1` strictly dominant templates plus one
/// deliberately uncertifiable matrix — a dominant system with one row
/// flattened onto the dominance boundary (`|b| = |a| + |c|`, gap 0, inside
/// the analyzer's slack), so the sweep always exercises the analyzer's
/// rejection path while staying well-conditioned enough that full
/// verification keeps every answer inside the acceptance bound.
fn pool(seed: u64, keys: usize) -> Vec<(TridiagonalSystem<f32>, MatrixKey)> {
    let mut generator = Generator::new(seed);
    (0..keys)
        .map(|k| {
            let n = SIZES[k % SIZES.len()];
            let mut system: TridiagonalSystem<f32> =
                generator.system(Workload::DiagonallyDominant, n);
            if k == keys - 1 {
                let row = n / 2;
                system.b[row] = system.a[row].abs() + system.c[row].abs();
            }
            let key = MatrixKey::of_system(&system);
            (system, key)
        })
        .collect()
}

/// Drives one mode: `total` requests in `BATCH`-sized same-matrix flushes
/// cycling over the pooled matrices, on the simulated clock.
fn drive(seed: u64, total: usize, keys: usize, certified: bool) -> ModeOutcome {
    let clock = Clock::sim();
    let launcher = Launcher::gtx280();
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::default();
    let metrics = ServiceMetrics::new();
    let catalog = certified.then(|| Arc::new(CertifiedCatalog::with_sample_period(SAMPLE_PERIOD)));
    let cfg = DispatchConfig {
        // Pin the CPU Thomas cost model so the verify-vs-skip device-µs
        // ratio is the deterministic per-row discount (25 vs 18 ns/row in
        // the sim model), independent of flush composition.
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        min_gpu_batch: usize::MAX,
        sanitize_first_flush: false,
        clock: clock.clone(),
        certified: catalog,
        ..DispatchConfig::default()
    };

    let templates = pool(seed, keys);
    let flushes = (total / BATCH).max(1);
    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(flushes * BATCH);
    let mut rhs_rng = seed ^ 0xCE27_0001;
    let mut id = 0u64;
    for f in 0..flushes {
        let (template, key) = &templates[f % templates.len()];
        let n = template.n();
        let mut requests = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut system = template.clone();
            for v in system.d.iter_mut() {
                *v = (splitmix64(&mut rhs_rng) % 19) as f32 - 9.0;
            }
            let (req, ticket) = make_request_keyed(id, system, 0, None, Some(*key));
            id += 1;
            requests.push(req);
            tickets.push(ticket);
        }
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &breakers,
            &metrics,
            &cfg,
            FlushedBatch { n, requests, reason: FlushReason::Full },
        );
    }

    let mut wrong = 0u64;
    let mut max_residual = 0.0f64;
    for ticket in tickets {
        let response = ticket.try_take().expect("synchronous serve fulfils every ticket");
        if !response.residual.is_finite() || response.residual >= RESIDUAL_BOUND {
            wrong += 1;
        }
        max_residual = max_residual.max(response.residual);
    }

    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    let total_engine_ms: f64 = snap.engine_ms.values().sum();
    ModeOutcome {
        completed: snap.completed,
        wrong,
        max_residual,
        device_us_per_system: total_engine_ms * 1e3 / snap.completed.max(1) as f64,
        condest_calls: snap.condest_calls,
        certs_issued: snap.certs_issued,
        cert_skipped_verifies: snap.cert_skipped_verifies,
        cert_sampled_verifies: snap.cert_sampled_verifies,
        certs_revoked: snap.certs_revoked,
        quiet: snap.degradation.is_quiet(),
    }
}

fn json_row(mode: &str, out: &ModeOutcome, coverage: f64) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"certify\",\"mode\":\"{}\",",
            "\"completed\":{},\"wrong\":{},\"max_residual\":{:.3e},",
            "\"device_us_per_system\":{:.4},",
            "\"condest_calls\":{},\"certs_issued\":{},",
            "\"cert_skipped_verifies\":{},\"cert_sampled_verifies\":{},",
            "\"certs_revoked\":{},\"coverage\":{:.4}}}"
        ),
        mode,
        out.completed,
        out.wrong,
        out.max_residual,
        out.device_us_per_system,
        out.condest_calls,
        out.certs_issued,
        out.cert_skipped_verifies,
        out.cert_sampled_verifies,
        out.certs_revoked,
        coverage,
    )
}

/// Checks the sweep against `baselines/certify.json`.
fn baseline_failures(speedup: f64, coverage: f64, wrong: u64) -> Vec<String> {
    let baselines = match crate::cli::baseline_path("certify.json").map(std::fs::read_to_string) {
        Some(Ok(text)) => text,
        Some(Err(e)) => return vec![format!("baselines/certify.json unreadable: {e}")],
        None => return vec!["baselines/certify.json missing".to_string()],
    };
    let mut failures = Vec::new();
    match crate::cli::json_object_with(&baselines, "name", "certify-sweep") {
        Some(row) => {
            if let Some(min) = crate::cli::json_f64(row, "min_speedup") {
                if speedup < min {
                    failures.push(format!(
                        "certify: verify-skip speedup {speedup:.4} < baseline {min}"
                    ));
                }
            }
            if let Some(min) = crate::cli::json_f64(row, "min_coverage") {
                if coverage < min {
                    failures.push(format!("certify: coverage {coverage:.4} < baseline {min}"));
                }
            }
            if let Some(max) = crate::cli::json_u64(row, "max_wrong") {
                if wrong > max {
                    failures.push(format!("certify: wrong answers {wrong} > baseline {max}"));
                }
            }
        }
        None => failures.push("baselines/certify.json lacks a certify-sweep row".to_string()),
    }
    failures
}

/// Runs the verify-vs-certified sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match crate::cli::parse("certify", args, &[], 0) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let quick = parsed.quick;
    let (total, keys) = if quick { (240, 8) } else { (1200, 20) };
    let dominant_keys = (keys - 1) as u64;
    let seed = 20100109;

    eprintln!("[certify] verify sweep ({total} requests, catalog off) ...");
    let verify = drive(seed, total, keys, false);
    eprintln!("[certify] certified sweep ({total} requests, 1-in-{SAMPLE_PERIOD} sampling) ...");
    let certified = drive(seed, total, keys, true);

    let speedup = verify.device_us_per_system / certified.device_us_per_system.max(1e-12);
    let coverage = certified.certs_issued as f64 / dominant_keys.max(1) as f64;
    let wrong = verify.wrong + certified.wrong;

    let mut table = Table::new(
        format!(
            "Certification: {total} pooled-matrix requests/mode ({keys} keys, n ∈ {SIZES:?}, \
             {BATCH} RHS/flush), full residual verify vs 1-in-{SAMPLE_PERIOD} sampled"
        ),
        &[
            "mode",
            "served",
            "wrong",
            "max residual",
            "device µs/sys",
            "condest",
            "issued",
            "skipped",
            "sampled",
            "revoked",
        ],
    );
    for (mode, out) in [("verify", &verify), ("certified", &certified)] {
        table.row(vec![
            mode.to_string(),
            out.completed.to_string(),
            out.wrong.to_string(),
            format!("{:.2e}", out.max_residual),
            format!("{:.3}", out.device_us_per_system),
            out.condest_calls.to_string(),
            out.certs_issued.to_string(),
            out.cert_skipped_verifies.to_string(),
            out.cert_sampled_verifies.to_string(),
            out.certs_revoked.to_string(),
        ]);
    }
    table.note(format!(
        "verify-skip speedup {speedup:.3}x device-µs/system, dominant-pool coverage {:.1}% \
         ({}/{dominant_keys} keys; 1 key uncertifiable by construction)",
        coverage * 100.0,
        certified.certs_issued
    ));
    table.note(format!(
        "gate: speedup/coverage floors from baselines/certify.json, wrong answers = 0 \
         (residual bound {RESIDUAL_BOUND:.0e})"
    ));
    println!("{table}");

    let json = vec![json_row("verify", &verify, 0.0), json_row("certified", &certified, coverage)];
    if parsed.json {
        for line in &json {
            println!("{line}");
        }
    }

    let mut failures = 0usize;
    let bench = format!(
        concat!(
            "{{\"bench\":\"certify\",\"quick\":{},\"speedup\":{:.4},",
            "\"coverage\":{:.4},\"rows\":[{}]}}\n"
        ),
        quick,
        speedup,
        coverage,
        json.join(",")
    );
    match crate::cli::write_bench("BENCH_certify.json", &bench) {
        Ok(path) => eprintln!("[certify] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[certify] FAIL: writing BENCH_certify.json: {e}");
            failures += 1;
        }
    }

    // Structural sanity independent of the baseline floors: the verify
    // mode must never consult the analyzer, the certified mode must spend
    // exactly one condest call per certified key (the analyzer rejects
    // the uncertifiable key before the estimator runs), nothing may be
    // revoked on a fault-free device, and certification activity must not
    // register as degradation.
    if verify.condest_calls + verify.certs_issued + verify.cert_skipped_verifies != 0 {
        eprintln!("[certify] FAIL: verify mode touched the certified catalog");
        failures += 1;
    }
    if certified.condest_calls != certified.certs_issued {
        eprintln!(
            "[certify] FAIL: {} condest calls for {} certificates (must be 1:1)",
            certified.condest_calls, certified.certs_issued
        );
        failures += 1;
    }
    if certified.certs_revoked != 0 {
        eprintln!("[certify] FAIL: a fault-free sweep revoked a certificate");
        failures += 1;
    }
    if !verify.quiet || !certified.quiet {
        eprintln!("[certify] FAIL: a fault-free sweep left degradation counters non-quiet");
        failures += 1;
    }

    for clause in baseline_failures(speedup, coverage, wrong) {
        eprintln!("[certify] FAIL: {clause}");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("[certify] FAIL: {failures} clause(s) broke the certify gate");
        crate::cli::EXIT_GATE_FAIL
    } else {
        println!(
            "[certify] PASS: verify-skip speedup {speedup:.3}x, coverage {:.1}%, \
             every answer inside the bound",
            coverage * 100.0
        );
        crate::cli::EXIT_PASS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_mode_never_touches_the_catalog_and_verifies_everything() {
        let out = drive(7, 96, 8, false);
        assert_eq!(out.completed, 96);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.condest_calls + out.certs_issued + out.cert_skipped_verifies, 0);
        assert!(out.quiet);
    }

    #[test]
    fn certified_mode_certifies_the_dominant_pool_once_and_skips() {
        let out = drive(7, 240, 8, true);
        assert_eq!(out.completed, 240);
        assert_eq!(out.wrong, 0);
        // Every key repeats (3–4 flushes each), so all 7 dominant keys
        // certify on their second flush (one condest call each); the
        // boundary-row key is rejected by the class scan for free.
        assert_eq!(out.certs_issued, 7);
        assert_eq!(out.condest_calls, 7);
        assert!(out.cert_skipped_verifies > out.cert_sampled_verifies);
        assert_eq!(out.certs_revoked, 0);
        assert!(out.quiet, "certification activity is not degradation");
    }

    #[test]
    fn certified_beats_full_verification_by_the_discount_ratio() {
        let verify = drive(7, 240, 8, false);
        let certified = drive(7, 240, 8, true);
        let speedup = verify.device_us_per_system / certified.device_us_per_system;
        // 25 ns/row with the inline verify vs 18 ns/row when skipped,
        // diluted by sampled flushes (a key's first flush counts as one)
        // and the uncertifiable pool key.
        assert!(speedup >= 1.15, "speedup {speedup}");
        assert!(speedup <= 25.0 / 18.0 + 1e-9, "speedup {speedup} above the full discount");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
