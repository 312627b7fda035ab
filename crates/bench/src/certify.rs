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
//! the sim-clock driver this gate shares with [`crate::factor`]. The
//! **verify** mode pays the per-solution residual check on every flush
//! (certified catalog off);
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

use crate::factor::{serve_pooled, PooledRun, BATCH, SIZES};
use crate::gate::Gate;
use crate::report::Table;
use numeric_verify::CertifiedCatalog;
use solver_service::DispatchConfig;
use std::sync::Arc;
use tridiag_core::residual::RESIDUAL_BOUND;
use tridiag_core::{Generator, MatrixKey, TridiagonalSystem, Workload};

/// Sampling period the certified mode runs (1-in-K residual checks).
const SAMPLE_PERIOD: usize = 8;

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

/// Drives one mode over a `keys`-matrix pool, with the certified catalog
/// on (`certified`) or off.
fn drive(seed: u64, total: usize, keys: usize, certified: bool) -> PooledRun {
    let certified =
        certified.then(|| Arc::new(CertifiedCatalog::with_sample_period(SAMPLE_PERIOD)));
    serve_pooled(
        DispatchConfig { certified, ..DispatchConfig::default() },
        &pool(seed, keys),
        total,
        seed ^ 0xCE27_0001,
    )
}

fn json_row(mode: &str, out: &PooledRun, coverage: f64) -> String {
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
        out.snap.completed,
        out.wrong,
        out.max_residual,
        out.device_us_per_system,
        out.snap.condest_calls,
        out.snap.certs_issued,
        out.snap.cert_skipped_verifies,
        out.snap.cert_sampled_verifies,
        out.snap.certs_revoked,
        coverage,
    )
}

/// Runs the verify-vs-certified sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("certify", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let (total, keys) = if gate.args.quick { (240, 8) } else { (1200, 20) };
    let dominant_keys = (keys - 1) as u64;
    let seed = 20100109;

    eprintln!("[certify] verify sweep ({total} requests, catalog off) ...");
    let verify = drive(seed, total, keys, false);
    eprintln!("[certify] certified sweep ({total} requests, 1-in-{SAMPLE_PERIOD} sampling) ...");
    let certified = drive(seed, total, keys, true);

    let speedup = verify.device_us_per_system / certified.device_us_per_system.max(1e-12);
    let coverage = certified.snap.certs_issued as f64 / dominant_keys.max(1) as f64;
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
    for (mode, out, cov) in [("verify", &verify, 0.0), ("certified", &certified, coverage)] {
        table.row(vec![
            mode.to_string(),
            out.snap.completed.to_string(),
            out.wrong.to_string(),
            format!("{:.2e}", out.max_residual),
            format!("{:.3}", out.device_us_per_system),
            out.snap.condest_calls.to_string(),
            out.snap.certs_issued.to_string(),
            out.snap.cert_skipped_verifies.to_string(),
            out.snap.cert_sampled_verifies.to_string(),
            out.snap.certs_revoked.to_string(),
        ]);
        gate.row(json_row(mode, out, cov));
    }
    table.note(format!(
        "verify-skip speedup {speedup:.3}x device-µs/system, dominant-pool coverage {:.1}% \
         ({}/{dominant_keys} keys; 1 key uncertifiable by construction)",
        coverage * 100.0,
        certified.snap.certs_issued
    ));
    table.note(format!(
        "gate: speedup/coverage floors from baselines/certify.json, wrong answers = 0 \
         (residual bound {RESIDUAL_BOUND:.0e})"
    ));
    println!("{table}");
    gate.summary("speedup", format!("{speedup:.4}"));
    gate.summary("coverage", format!("{coverage:.4}"));

    // Structural sanity independent of the baseline floors: the verify
    // mode must never consult the analyzer, the certified mode must spend
    // exactly one condest call per certified key (the analyzer rejects
    // the uncertifiable key before the estimator runs), nothing may be
    // revoked on a fault-free device, and certification activity must not
    // register as degradation.
    let (v, c) = (&verify.snap, &certified.snap);
    gate.check(
        v.condest_calls + v.certs_issued + v.cert_skipped_verifies == 0,
        "verify mode touched the certified catalog",
    );
    gate.check(
        c.condest_calls == c.certs_issued,
        format!(
            "{} condest calls for {} certificates (must be 1:1)",
            c.condest_calls, c.certs_issued
        ),
    );
    gate.check(c.certs_revoked == 0, "a fault-free sweep revoked a certificate");
    gate.check(
        v.degradation.is_quiet() && c.degradation.is_quiet(),
        "a fault-free sweep left degradation counters non-quiet",
    );
    gate.floors(
        "certify-sweep",
        &[("speedup", speedup), ("coverage", coverage), ("wrong", wrong as f64)],
    );
    gate.finish(format!(
        "verify-skip speedup {speedup:.3}x, coverage {:.1}%, every answer inside the bound",
        coverage * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_mode_never_touches_the_catalog_and_verifies_everything() {
        let out = drive(7, 96, 8, false);
        assert_eq!(out.snap.completed, 96);
        assert_eq!(out.wrong, 0);
        let snap = &out.snap;
        assert_eq!(snap.condest_calls + snap.certs_issued + snap.cert_skipped_verifies, 0);
        assert!(snap.degradation.is_quiet());
    }

    #[test]
    fn certified_mode_certifies_the_dominant_pool_once_and_skips() {
        let out = drive(7, 240, 8, true);
        assert_eq!(out.snap.completed, 240);
        assert_eq!(out.wrong, 0);
        let out = &out.snap;
        // Every key repeats (3–4 flushes each), so all 7 dominant keys
        // certify on their second flush (one condest call each); the
        // boundary-row key is rejected by the class scan for free.
        assert_eq!(out.certs_issued, 7);
        assert_eq!(out.condest_calls, 7);
        assert!(out.cert_skipped_verifies > out.cert_sampled_verifies);
        assert_eq!(out.certs_revoked, 0);
        assert!(out.degradation.is_quiet(), "certification activity is not degradation");
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
