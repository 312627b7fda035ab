//! The `prove` subcommand: the static kernel-verification gate.
//!
//! ```text
//! cargo run --release -p bench -- prove            # full family sweep
//! cargo run --release -p bench -- prove --quick    # CI gate subset
//! cargo run --release -p bench -- prove --overhead # proved-vs-sanitized admission timing
//! ```
//!
//! Where the `sanitize` gate *runs* every solver under the dynamic
//! sanitizer on one batch, this gate *proves* them: every registered
//! production solver is verified symbolically over its declared size
//! family ([`verify_family`]), and the gate demands each member be
//! `Proven` — or `Unproven` only where the soundness boundary is
//! documented (the per-thread Thomas kernel's count-dependent access
//! skeleton). The deliberately-buggy fixture kernels must all come back
//! `Violated`: a verifier that cannot catch a planted race would be
//! worthless as a sanitize replacement. Results land in
//! `target/repro/BENCH_prove.json` and are gated against the floors in
//! `baselines/prove.json`.

use crate::gate::Gate;
use crate::report::Table;
use gpu_sim::DeviceConfig;
use gpu_solvers::{verify_family, GpuAlgorithm, RdMode, FIXTURE_NAMES};
use kernel_verify::{verify_block_cr, verify_fixture, verify_solver, ProofStatus, VerifyOptions};
use std::time::Instant;
use tridiag_core::Real;

/// Every production solver the proof gate covers, hybrids at the m = 32
/// switch point (their families extend over all admissible n ≥ m).
fn registered() -> Vec<GpuAlgorithm> {
    vec![
        GpuAlgorithm::Cr,
        GpuAlgorithm::Pcr,
        GpuAlgorithm::Rd(RdMode::Plain),
        GpuAlgorithm::Rd(RdMode::Rescaled),
        GpuAlgorithm::CrPcr { m: 32 },
        GpuAlgorithm::CrRd { m: 32, mode: RdMode::Plain },
        GpuAlgorithm::CrRd { m: 32, mode: RdMode::Rescaled },
        GpuAlgorithm::CrEvenOdd,
        GpuAlgorithm::CrGlobalOnly,
        GpuAlgorithm::ThomasPerThread,
    ]
}

/// `true` for the solvers whose `Unproven` verdict is the *documented*
/// soundness boundary rather than a regression: the per-thread Thomas
/// kernel's interleaved index `i*count + s` is bilinear in (thread,
/// count), so no affine family proof exists for it by design.
fn documented_unproven(alg: GpuAlgorithm) -> bool {
    matches!(alg, GpuAlgorithm::ThomasPerThread)
}

/// Tally of one element type's family sweep.
#[derive(Debug, Default, Clone, Copy)]
struct SweepTotals {
    proven: usize,
    documented_unproven: usize,
    violated: usize,
    unexpected_unproven: usize,
}

/// Sweeps every registered solver's declared family (members ≤ `cap`) at
/// width `T`, appending one table row and one JSON row per solver.
fn sweep_type<T: Real>(
    ty: &str,
    cap: usize,
    table: &mut Table,
    json_rows: &mut Vec<String>,
) -> SweepTotals {
    let device = DeviceConfig::gtx280();
    let opts = VerifyOptions::default();
    let mut totals = SweepTotals::default();
    for alg in registered() {
        let family: Vec<usize> =
            verify_family(alg, T::BYTES, &device).into_iter().filter(|&n| n <= cap).collect();
        let started = Instant::now();
        let mut proven = 0usize;
        let mut unproven = 0usize;
        let mut violated = 0usize;
        let mut worst = String::from("-");
        for &n in &family {
            let v = verify_solver::<T>(alg, n, &opts);
            match v.status {
                ProofStatus::Proven => proven += 1,
                ProofStatus::Unproven => {
                    unproven += 1;
                    if worst == "-" {
                        worst =
                            format!("n={n}: {}", v.unproven.first().cloned().unwrap_or_default());
                    }
                }
                ProofStatus::Violated => {
                    violated += 1;
                    worst = format!(
                        "n={n}: {}",
                        v.findings.first().map(|f| f.site()).unwrap_or_default()
                    );
                }
            }
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let status = if violated > 0 {
            "VIOLATED"
        } else if unproven > 0 && documented_unproven(alg) && proven == 0 {
            "unproven (documented)"
        } else if unproven > 0 {
            "UNPROVEN (unexpected)"
        } else {
            "all proven"
        };
        totals.proven += proven;
        totals.violated += violated;
        if documented_unproven(alg) {
            totals.documented_unproven += unproven;
        } else {
            totals.unexpected_unproven += unproven;
        }
        table.row(vec![
            alg.name().to_string(),
            ty.to_string(),
            family.len().to_string(),
            proven.to_string(),
            unproven.to_string(),
            violated.to_string(),
            status.to_string(),
            format!("{wall_ms:.0}"),
            worst,
        ]);
        json_rows.push(format!(
            "{{\"name\":\"{alg}/{ty}\",\"members\":{},\"proven\":{proven},\
             \"unproven\":{unproven},\"violated\":{violated},\"verify_ms\":{wall_ms:.1}}}",
            family.len(),
        ));
    }
    totals
}

/// Verifies the block-tridiagonal CR kernel over `sizes`; returns the
/// number proven (the gate demands all of them).
fn sweep_block_cr(sizes_f32: &[usize], f64_n: Option<usize>, table: &mut Table) -> (usize, usize) {
    let opts = VerifyOptions::default();
    let mut proven = 0usize;
    let mut total = 0usize;
    let mut check = |v: kernel_verify::SizeVerdict, ty: &str, n: usize| {
        total += 1;
        let ok = v.status == ProofStatus::Proven;
        if ok {
            proven += 1;
        }
        table.row(vec![
            "block-cr".to_string(),
            ty.to_string(),
            "1".to_string(),
            if ok { "1" } else { "0" }.to_string(),
            if v.status == ProofStatus::Unproven { "1" } else { "0" }.to_string(),
            if v.status == ProofStatus::Violated { "1" } else { "0" }.to_string(),
            if ok { "all proven".to_string() } else { v.status.name().to_string() },
            format!("{:.0}", v.wall_ms),
            format!("n={n}"),
        ]);
    };
    for &n in sizes_f32 {
        check(verify_block_cr::<f32>(n, &opts), "f32", n);
    }
    if let Some(n) = f64_n {
        check(verify_block_cr::<f64>(n, &opts), "f64", n);
    }
    (proven, total)
}

/// Runs every buggy fixture through the verifier; returns (caught,
/// expected). A fixture is *caught* when the verdict is `Violated` at
/// every probed size.
fn sweep_fixtures(sizes: &[usize], table: &mut Table) -> (usize, usize) {
    let opts = VerifyOptions::default();
    let mut caught = 0usize;
    for name in FIXTURE_NAMES {
        let mut all_violated = true;
        let mut worst = String::from("-");
        let started = Instant::now();
        for &n in sizes {
            let v = verify_fixture::<f32>(name, n, &opts);
            if v.status != ProofStatus::Violated {
                all_violated = false;
            } else if let Some(f) = v.findings.first() {
                worst = format!("{} at {}", f.kind.name(), f.site());
            }
        }
        if all_violated {
            caught += 1;
        }
        table.row(vec![
            name.to_string(),
            "f32".to_string(),
            sizes.len().to_string(),
            "0".to_string(),
            "0".to_string(),
            if all_violated { sizes.len().to_string() } else { "MISSED".to_string() },
            if all_violated { "violated (caught)" } else { "NOT CAUGHT" }.to_string(),
            format!("{:.0}", started.elapsed().as_secs_f64() * 1e3),
            worst,
        ]);
    }
    (caught, FIXTURE_NAMES.len())
}

/// Runs the proof gate; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("prove", args, &["overhead"], 0) {
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

    let cap = if quick { 256 } else { 4096 };
    let mut table = Table::new(
        if quick { "Symbolic proof sweep (--quick)" } else { "Symbolic proof sweep" },
        &["solver", "type", "members", "proven", "unproven", "violated", "status", "ms", "detail"],
    );
    let mut json_rows: Vec<String> = Vec::new();
    let f32_totals = sweep_type::<f32>("f32", cap, &mut table, &mut json_rows);
    let f64_totals = if quick {
        SweepTotals::default()
    } else {
        sweep_type::<f64>("f64", cap, &mut table, &mut json_rows)
    };
    let (block_proven, block_total) = if quick {
        sweep_block_cr(&[16, 64], None, &mut table)
    } else {
        sweep_block_cr(&[4, 16, 64, 128], Some(32), &mut table)
    };
    let fixture_sizes: &[usize] = if quick { &[16] } else { &[16, 64] };
    let (caught, expected) = sweep_fixtures(fixture_sizes, &mut table);
    table.note(format!(
        "families from verify_family, members capped at n <= {cap}; \
         the per-thread Thomas kernel is the documented Unproven boundary"
    ));
    table.note("fixtures are the deliberately-buggy kernels: all must come back VIOLATED");
    println!("{table}");

    // Hard clauses, then the floors that guard against the families
    // silently shrinking.
    let violated = f32_totals.violated + f64_totals.violated;
    gate.check(violated == 0, format!("{violated} production family member(s) VIOLATED"));
    let unexpected = f32_totals.unexpected_unproven + f64_totals.unexpected_unproven;
    gate.check(unexpected == 0, format!("{unexpected} undocumented Unproven member(s)"));
    gate.check(
        block_proven == block_total,
        format!("block-cr: {block_proven}/{block_total} proven"),
    );
    gate.check(caught == expected, format!("fixtures: only {caught}/{expected} caught"));
    let proven = f32_totals.proven + f64_totals.proven;
    gate.floors(if quick { "solvers-quick" } else { "solvers-full" }, &[("proven", proven as f64)]);
    gate.floors("fixtures", &[("caught", caught as f64)]);

    gate.row(format!(
        "{{\"name\":\"solvers\",\"proven\":{proven},\"documented_unproven\":{},\
         \"violated\":{violated},\"unexpected_unproven\":{unexpected}}}",
        f32_totals.documented_unproven + f64_totals.documented_unproven,
    ));
    json_rows.into_iter().for_each(|row| gate.row(row));
    gate.row(format!(
        "{{\"name\":\"block-cr\",\"proven\":{block_proven},\"total\":{block_total}}}"
    ));
    gate.row(format!("{{\"name\":\"fixtures\",\"caught\":{caught},\"expected\":{expected}}}"));
    gate.finish("every family member proven (or documented unproven)")
}

/// Times the first GPU flush of a fresh size class three ways — dynamic
/// sanitize, static-proof skip, and sanitizing disabled — on the paper's
/// headline n = 512 class. The proof is constructed once up front (its
/// one-time cost is reported separately); what the table shows is the
/// *recurring* admission overhead a served size class pays.
fn overhead_table() -> Table {
    use solver_service::{
        make_request, serve_flush, CircuitBreakers, DeviceCtx, DispatchConfig, Engine, FlushReason,
        FlushedBatch, PlanCache, ServiceMetrics,
    };
    use std::sync::Arc;
    use tridiag_core::{Generator, Workload};

    let n = 512usize;
    let count = 64usize;
    let alg = GpuAlgorithm::CrPcr { m: 256 }; // the paper's winner at 512
    let launcher = gpu_sim::Launcher::gtx280();
    let catalog = Arc::new(kernel_verify::VerifiedCatalog::new());
    let proof_start = Instant::now();
    let proven = catalog.is_proven::<f32>(&launcher.device, alg, n);
    let proof_once_ms = proof_start.elapsed().as_secs_f64() * 1e3;

    let time_first_flush =
        |sanitize: bool, verified: Option<Arc<kernel_verify::VerifiedCatalog>>| {
            let cfg = DispatchConfig {
                pin_engine: Some(Engine::Gpu(alg)),
                sanitize_first_flush: sanitize,
                verified,
                ..DispatchConfig::default()
            };
            let reps = 5;
            let mut samples = Vec::with_capacity(reps);
            for rep in 0..reps {
                // A fresh PlanCache per rep: every rep is a *first* flush.
                let plans = PlanCache::new();
                let metrics = ServiceMetrics::new();
                let mut generator = Generator::new(0xBEEF ^ rep as u64);
                let requests = (0..count)
                    .map(|i| {
                        make_request(
                            i as u64,
                            generator.system::<f32>(Workload::DiagonallyDominant, n),
                        )
                        .0
                    })
                    .collect();
                let flush = FlushedBatch { n, requests, reason: FlushReason::Full };
                let start = Instant::now();
                serve_flush(
                    DeviceCtx::solo(&launcher),
                    &plans,
                    &CircuitBreakers::default(),
                    &metrics,
                    &cfg,
                    flush,
                );
                samples.push(start.elapsed().as_secs_f64() * 1e3);
            }
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            samples[reps / 2]
        };

    let t_sanitized = time_first_flush(true, None);
    let t_proved = time_first_flush(true, Some(Arc::clone(&catalog)));
    let t_off = time_first_flush(false, None);

    let mut table = Table::new(
        "First-flush admission overhead: dynamic sanitize vs static proof (512-unknown class, \
         64-system flush, f32, cr+pcr@256)",
        &["admission", "first-flush ms", "overhead vs off"],
    );
    for (name, ms) in [
        ("sanitize off (unchecked)", t_off),
        ("dynamic sanitize", t_sanitized),
        ("static proof (skip)", t_proved),
    ] {
        table.row(vec![name.to_string(), format!("{ms:.1}"), format!("{:.2}x", ms / t_off)]);
    }
    table.note(format!(
        "one-time proof construction: {proof_once_ms:.0} ms (memoized in the catalog; proven = \
         {proven}); recurring cost after the first flush is identical for all three"
    ));
    table.note(
        "host wall-clock of serve_flush (plan pinned, fresh size class each rep, median of 5)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_gates_green() {
        // The full quick gate must pass from a clean tree — this is the CI
        // contract, asserted here so `cargo test` catches a broken gate
        // before the shell pipeline does.
        assert_eq!(run(&["--quick".to_string()]), crate::cli::EXIT_PASS);
    }

    #[test]
    fn fixtures_are_all_caught() {
        let mut table = Table::new("t", &["s", "t", "m", "p", "u", "v", "st", "ms", "d"]);
        let (caught, expected) = sweep_fixtures(&[16], &mut table);
        assert_eq!(caught, expected);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), crate::cli::EXIT_USAGE);
    }
}
