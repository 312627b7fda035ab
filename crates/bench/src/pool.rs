//! The `pool` subcommand: multi-device scaling, failover, and large-n
//! partitioned-solve verification on the simulated device pool.
//!
//! ```text
//! cargo run --release -p bench -- pool            # full sweep (1→8 devices)
//! cargo run --release -p bench -- pool --quick    # CI gate subset
//! ```
//!
//! Three experiments, three gates (exit 1 iff any fails):
//!
//! 1. **Scaling** — a pinned-engine batched stream through the sim-clock
//!    serving loop ([`solver_service::drive`]) into pools of 1→8 devices,
//!    each flush served on the device the pool routes it to. Aggregate
//!    throughput is `completed / makespan`, where the makespan is the
//!    *max* per-device simulated busy time (the critical path of a
//!    parallel node); routing, not host scheduling, decides it, so every
//!    run prints the same rows. Gate: the 4-device speedup and throughput
//!    floors in `baselines/pool.json`.
//! 2. **Failover** — a 4-device pool where one device dies sticky
//!    (`DeviceLost`) a few launches in. Gate: zero wrong answers,
//!    availability ≥ 99%, and only the dead device's breaker opens.
//! 3. **Partitioned large-n** — `solve_partitioned` at n = 2^16 (and
//!    2^20 in the full sweep) on every pool size, verified against the
//!    CPU GEP reference. Gate: every row verifies.

use crate::chaos::submit_retrying;
use crate::gate::{wait_all, Gate};
use crate::report::Table;
use device_pool::{PoolConfig, SimDevice};
use gpu_sim::{Clock, FaultConfig};
use gpu_solvers::{solve_partitioned, GpuAlgorithm};
use solver_service::{
    drive, serve_flush, BreakerConfig, BucketTable, CircuitBreakers, DeviceCtx, DispatchConfig,
    Engine, FlushedBatch, PlanCache, ServiceConfig, ServiceMetrics, SolverService, TraceHandle,
};
use std::time::Duration;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// System size for the scaling stream (m = 32 divides it).
const SCALING_N: usize = 256;

/// The 4-device scaling point the gate reads.
const GATE_DEVICES: usize = 4;

fn pin_engine() -> Engine {
    Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })
}

/// Outcome of one scaling cell.
struct ScalingCell {
    devices: usize,
    completed: u64,
    wrong: u64,
    /// Max per-device simulated busy time — the parallel makespan.
    makespan_ms: f64,
    /// Sum of per-device simulated busy time — the serial work.
    work_ms: f64,
    /// completed / makespan (requests per simulated ms).
    throughput: f64,
}

/// Offers `total` pinned-engine requests at once to the sim-clock serving
/// loop, serves each flush of 8 on the device a `devices`-wide pool routes
/// it to, and distills the per-device books into a scaling cell.
fn drive_scaling(seed: u64, devices: usize, total: usize) -> ScalingCell {
    let clock = Clock::sim();
    let pool = PoolConfig::new(devices).build();
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone());
    let metrics = ServiceMetrics::new();
    let cfg = DispatchConfig {
        min_gpu_batch: 1,
        pin_engine: Some(pin_engine()),
        sanitize_first_flush: false,
        clock: clock.clone(),
        ..DispatchConfig::default()
    };
    let mut generator = Generator::new(seed);
    let tally = drive(
        &mut |flush: FlushedBatch<f32>| {
            let device = DeviceCtx::routed(&pool, flush.n);
            serve_flush(device, &plans, &breakers, &metrics, &cfg, flush)
        },
        BucketTable::new(8, Duration::from_millis(1)),
        &vec![0; total],
        |_| generator.system::<f32>(Workload::DiagonallyDominant, SCALING_N).into(),
        &clock,
        &TraceHandle::disabled(),
    );
    let busy_ms: Vec<f64> = pool.devices().iter().map(SimDevice::busy_ms).collect();
    let makespan_ms = busy_ms.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    let completed = tally.latencies_ns.len() as u64;
    ScalingCell {
        devices,
        completed,
        wrong: tally.wrong,
        makespan_ms,
        work_ms: busy_ms.iter().sum(),
        throughput: completed as f64 / makespan_ms,
    }
}

/// Outcome of the failover cell.
struct FailoverOutcome {
    total: usize,
    completed: u64,
    wrong: u64,
    availability: f64,
    dead_lost: bool,
    dead_breaker_open: bool,
    survivors_quiet: bool,
    survivor_dispatched: u64,
}

impl FailoverOutcome {
    fn passes(&self) -> bool {
        self.wrong == 0
            && self.availability >= 0.99
            && self.dead_lost
            && self.dead_breaker_open
            && self.survivors_quiet
            && self.survivor_dispatched > 0
    }
}

/// The failover cell: device `dead` of a 4-device pool is lost for good on
/// its 4th launch, mid-stream.
fn drive_failover(seed: u64, total: usize) -> FailoverOutcome {
    const DEAD: usize = 2;
    let mut pool_cfg = PoolConfig::new(4);
    pool_cfg.fault_overrides =
        vec![(DEAD, FaultConfig { device_lost_after: Some(3), ..FaultConfig::quiet(0) })];
    let config = ServiceConfig {
        target_batch: 8,
        min_gpu_batch: 1,
        max_linger: Duration::from_millis(1),
        pin_engine: Some(pin_engine()),
        sanitize_first_flush: false,
        pool: Some(pool_cfg),
        ..ServiceConfig::default()
    };
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(seed);
    let mut sent = Vec::with_capacity(total);
    // Feed the stream in small waves until the doomed device has actually
    // tripped its fault, then pour in the remainder. Without this pacing an
    // oversubscribed host can let the survivors steal every flush routed to
    // the doomed device before its worker ever launches a kernel, and the
    // cell would end with all four devices healthy.
    let mut submitted = 0usize;
    while submitted < total {
        let wave = 8.min(total - submitted);
        for _ in 0..wave {
            let system = generator.system(Workload::DiagonallyDominant, SCALING_N);
            if let Some(ticket) = submit_retrying(&service, &system) {
                sent.push((system, ticket));
            }
            submitted += 1;
        }
        let dead_down = service.metrics().devices.iter().any(|d| d.id == DEAD && d.lost);
        if dead_down {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in submitted..total {
        let system = generator.system(Workload::DiagonallyDominant, SCALING_N);
        if let Some(ticket) = submit_retrying(&service, &system) {
            sent.push((system, ticket));
        }
    }
    let wrong = wait_all(sent).wrong;
    let snapshot = service.shutdown();
    let dead = snapshot.devices.iter().find(|d| d.id == DEAD).expect("dead device gauge");
    let survivors: Vec<_> = snapshot.devices.iter().filter(|d| d.id != DEAD).collect();
    FailoverOutcome {
        total,
        completed: snapshot.completed,
        wrong,
        availability: snapshot.completed as f64 / total.max(1) as f64,
        dead_lost: dead.lost,
        dead_breaker_open: dead.breaker == "open",
        survivors_quiet: survivors.iter().all(|d| !d.lost && d.breaker == "closed"),
        survivor_dispatched: survivors.iter().map(|d| d.dispatched).sum(),
    }
}

/// Outcome of one partitioned large-n verification row.
struct PartitionedCell {
    devices: usize,
    n: usize,
    check: PartitionCheck,
    chunks: usize,
    interface_rows: usize,
    local_ms: f64,
    interface_ms: f64,
    backsubst_ms: f64,
}

/// How a partitioned solve's answer held up.
pub(crate) struct PartitionCheck {
    pub verified: bool,
    /// Max error relative to the reference's largest entry; NaN when
    /// there is no reference.
    pub max_rel_err: f64,
    pub residual: f64,
}

/// The partitioned-solve check the pool and cluster gates share:
/// element-wise against the GEP answer `x_ref` when one is given
/// (relative error < 1e-9), and by the l2 residual (< 1e-6).
pub(crate) fn check_partitioned(
    sys: &TridiagonalSystem<f64>,
    x: &[f64],
    x_ref: Option<&[f64]>,
) -> PartitionCheck {
    let residual = l2_residual(sys, x).expect("finite solution");
    let max_rel_err = x_ref.map_or(f64::NAN, |x_ref| {
        let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        x.iter().zip(x_ref).map(|(x, r)| (x - r).abs() / scale).fold(0.0f64, f64::max)
    });
    let elementwise_ok = x_ref.is_none() || max_rel_err < 1e-9;
    PartitionCheck { verified: elementwise_ok && residual < 1e-6, max_rel_err, residual }
}

/// Solves an n-row system across `devices` and checks it.
fn drive_partitioned(
    devices: usize,
    n: usize,
    x_ref: Option<&[f64]>,
    sys: &TridiagonalSystem<f64>,
) -> PartitionedCell {
    let pool = PoolConfig::new(devices).build();
    let report = solve_partitioned(&pool, sys, 16).expect("partitioned solve");
    PartitionedCell {
        devices,
        n,
        check: check_partitioned(sys, &report.x, x_ref),
        chunks: report.chunks,
        interface_rows: report.interface_rows,
        local_ms: report.timing.local_ms,
        interface_ms: report.timing.interface_ms,
        backsubst_ms: report.timing.backsubst_ms,
    }
}

fn json_scaling(cell: &ScalingCell, speedup: f64) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-scaling\",\"devices\":{},\"completed\":{},",
            "\"wrong\":{},\"makespan_ms\":{:.3},\"work_ms\":{:.3},",
            "\"throughput_per_ms\":{:.3},\"speedup\":{:.2}}}"
        ),
        cell.devices,
        cell.completed,
        cell.wrong,
        cell.makespan_ms,
        cell.work_ms,
        cell.throughput,
        speedup,
    )
}

fn json_failover(out: &FailoverOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-failover\",\"requests\":{},\"completed\":{},",
            "\"wrong\":{},\"availability\":{:.4},\"dead_lost\":{},",
            "\"dead_breaker_open\":{},\"survivors_quiet\":{},\"survivor_dispatched\":{}}}"
        ),
        out.total,
        out.completed,
        out.wrong,
        out.availability,
        out.dead_lost,
        out.dead_breaker_open,
        out.survivors_quiet,
        out.survivor_dispatched,
    )
}

fn json_partitioned(cell: &PartitionedCell) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-partitioned\",\"devices\":{},\"n\":{},",
            "\"verified\":{},\"residual\":{:.3e},\"chunks\":{},\"interface_rows\":{},",
            "\"local_ms\":{:.4},\"interface_ms\":{:.4},\"backsubst_ms\":{:.4}}}"
        ),
        cell.devices,
        cell.n,
        cell.check.verified,
        cell.check.residual,
        cell.chunks,
        cell.interface_rows,
        cell.local_ms,
        cell.interface_ms,
        cell.backsubst_ms,
    )
}

/// Runs the pool sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut gate = match Gate::start("pool", args, &[], 0) {
        Ok(gate) => gate,
        Err(code) => return code,
    };
    let quick = gate.args.quick;
    let seed = 20100109;
    let total = if quick { 192 } else { 512 };
    let device_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    // 1. Scaling.
    let mut scaling = Table::new(
        format!(
            "Pool scaling: {total} pinned cr+pcr@32 requests (n = {SCALING_N}) on the sim \
             clock, round-robin sharding, throughput = completed / max per-device busy ms"
        ),
        &["devices", "completed", "wrong", "makespan ms", "work ms", "req/ms", "speedup"],
    );
    let mut baseline: Option<f64> = None;
    let mut at_gate: Vec<(&str, f64)> = Vec::new();
    for &devices in device_counts {
        eprintln!("[pool] scaling @ {devices} device(s) ...");
        let cell = drive_scaling(seed, devices, total);
        let speedup = match baseline {
            None => {
                baseline = Some(cell.throughput);
                1.0
            }
            Some(base) => cell.throughput / base,
        };
        if devices == GATE_DEVICES {
            at_gate = vec![("speedup", speedup), ("throughput_per_ms", cell.throughput)];
        }
        gate.check(
            cell.wrong == 0,
            format!("scaling @ {devices} device(s): {} wrong answer(s)", cell.wrong),
        );
        scaling.row(vec![
            devices.to_string(),
            cell.completed.to_string(),
            cell.wrong.to_string(),
            format!("{:.3}", cell.makespan_ms),
            format!("{:.3}", cell.work_ms),
            format!("{:.2}", cell.throughput),
            format!("{speedup:.2}x"),
        ]);
        gate.row(json_scaling(&cell, speedup));
    }
    scaling.note(format!(
        "gate: {GATE_DEVICES}-device speedup and throughput floors from baselines/pool.json \
         — measured {}",
        at_gate.first().map_or("n/a".to_string(), |&(_, s)| format!("{s:.2}x")),
    ));
    scaling.note("makespan = max per-device simulated busy ms (parallel critical path)");
    println!("{scaling}");
    gate.floors("scaling-4dev", &at_gate);

    // 2. Failover.
    eprintln!("[pool] failover (device 2 lost mid-stream) ...");
    let failover = drive_failover(seed ^ 0xF01, total);
    let failover_ok = failover.passes();
    gate.check(failover_ok, "failover: a request was lost or wrong, or a breaker misbehaved");
    let mut ftable = Table::new(
        "Pool failover: 4 devices, device 2 lost for good on its 4th launch",
        &["requests", "completed", "wrong", "avail %", "dead lost", "breakers", "gate"],
    );
    ftable.row(vec![
        failover.total.to_string(),
        failover.completed.to_string(),
        failover.wrong.to_string(),
        format!("{:.1}", failover.availability * 100.0),
        failover.dead_lost.to_string(),
        format!(
            "dev2 {}, survivors {}",
            if failover.dead_breaker_open { "open" } else { "NOT open" },
            if failover.survivors_quiet { "closed" } else { "NOT closed" }
        ),
        if failover_ok { "pass".into() } else { "FAIL".into() },
    ]);
    ftable.note("gate: wrong = 0, availability >= 99%, only the dead device's breaker opens");
    println!("{ftable}");
    gate.row(json_failover(&failover));
    gate.floors("failover", &[("availability", failover.availability)]);

    // 3. Partitioned large-n verification.
    let mut sizes: Vec<(usize, bool)> = vec![(1 << 16, true)];
    if !quick {
        // 2^20 rides residual-only: a GEP reference at that size is fine,
        // but element-wise comparison adds nothing the residual misses.
        sizes.push((1 << 20, false));
    }
    let mut ptable = Table::new(
        "Partitioned large-n solves across the pool (modified Thomas -> PCR interface -> \
         back-substitution), verified against CPU GEP",
        &[
            "devices",
            "n",
            "chunks",
            "iface rows",
            "local ms",
            "iface ms",
            "backsubst ms",
            "max rel err",
            "residual",
            "gate",
        ],
    );
    for &(n, elementwise) in &sizes {
        let sys: TridiagonalSystem<f64> =
            Generator::new(seed ^ n as u64).system(Workload::DiagonallyDominant, n);
        let x_ref = if elementwise {
            Some(cpu_solvers::gep::solve(&sys).expect("GEP reference"))
        } else {
            None
        };
        for &devices in device_counts {
            eprintln!("[pool] partitioned n=2^{} @ {devices} device(s) ...", n.trailing_zeros());
            let cell = drive_partitioned(devices, n, x_ref.as_deref(), &sys);
            let check = &cell.check;
            gate.check(
                check.verified,
                format!(
                    "partitioned n=2^{} @ {devices} device(s): rel err {:.3e}, residual {:.3e}",
                    n.trailing_zeros(),
                    check.max_rel_err,
                    check.residual
                ),
            );
            ptable.row(vec![
                devices.to_string(),
                format!("2^{}", n.trailing_zeros()),
                cell.chunks.to_string(),
                cell.interface_rows.to_string(),
                format!("{:.4}", cell.local_ms),
                format!("{:.4}", cell.interface_ms),
                format!("{:.4}", cell.backsubst_ms),
                if check.max_rel_err.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2e}", check.max_rel_err)
                },
                format!("{:.2e}", check.residual),
                if check.verified { "pass".into() } else { "FAIL".into() },
            ]);
            gate.row(json_partitioned(&cell));
        }
    }
    ptable.note("gate: element-wise rel err < 1e-9 vs GEP (2^16) and l2 residual < 1e-6");
    println!("{ptable}");

    gate.finish(format!(
        "scaling floors held at {GATE_DEVICES} devices, failover lossless, \
         all partitioned solves verified"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_four_devices_beats_three_x() {
        // Routing on the sim clock decides which device serves a flush, so
        // one run is the measurement.
        const TOTAL: usize = 768;
        let gate = Gate::start("pool", &[], &[], 0).expect("no flags");
        let row = gate.baseline_row("scaling-4dev").expect("pool baseline row");
        let floor = crate::gate::json_f64(&row, "min_speedup").expect("min_speedup floor");
        let one = drive_scaling(3, 1, TOTAL);
        let four = drive_scaling(3, GATE_DEVICES, TOTAL);
        assert_eq!(one.wrong + four.wrong, 0);
        assert_eq!(one.completed, TOTAL as u64);
        assert_eq!(four.completed, TOTAL as u64);
        let speedup = four.throughput / one.throughput;
        assert!(speedup >= floor, "4-device speedup {speedup:.2} < {floor}");
    }

    #[test]
    fn failover_cell_passes_its_gate() {
        let out = drive_failover(5, 120);
        assert!(
            out.passes(),
            "wrong={} avail={:.3} dead_lost={} open={} quiet={}",
            out.wrong,
            out.availability,
            out.dead_lost,
            out.dead_breaker_open,
            out.survivors_quiet
        );
    }

    #[test]
    fn partitioned_cell_verifies_at_2_16() {
        let n = 1 << 16;
        let sys: TridiagonalSystem<f64> = Generator::new(9).system(Workload::DiagonallyDominant, n);
        let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
        let cell = drive_partitioned(4, n, Some(&x_ref), &sys);
        let check = &cell.check;
        assert!(
            check.verified,
            "rel err {:.3e} residual {:.3e}",
            check.max_rel_err, check.residual
        );
        assert_eq!(cell.interface_rows, 2 * cell.chunks);
    }

    #[test]
    fn json_rows_are_balanced() {
        let cell = drive_scaling(1, 2, 24);
        let line = json_scaling(&cell, 1.5);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
