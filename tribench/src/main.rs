//! tribench: the benchmark of the tridiagonal solve service.
//!
//! ```text
//! tribench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--repeat N] [--json]
//! ```
//!
//! One workload: runs it for `--seconds` and prints every metric with its
//! unit and sample count, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` (the
//! default) reports the end-to-end metrics with tracing off; `--trace 1`
//! reports the per-layer metrics from a traced run and writes a Chrome
//! trace to `$CARGO_TARGET_DIR/tribench/<workload>.trace.json` (`target/`
//! when unset). `--json` prints only the JSON line.
//!
//! No `--workload`: every workload, each in its own child process.
//! `--repeat N`: each selected workload N times in fresh child processes
//! (seeds S, S+1, …; workload order alternating), then the median and
//! quartiles of every metric and its spread against the bound declared in
//! `BENCHMARK.json`.
//!
//! Exit codes: 0 correct, 1 a wrong/rejected/missing answer, a refused
//! route or a spread over its bound, 2 usage.

mod analysis;
mod json;
mod layers;
mod report;
mod workloads;

use analysis::{chrome_trace, ServiceStages};
use gpu_sim::Clock;
use json::Json;
use report::{median, percentile, quartiles, supported_tail, Kind, Report, METRICS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{
    ColdBatch, Epoch, GpuModeled, KeyedChurn, Matrices, WarmRhs, Window, Workload,
    CHURN_REQUESTS_PER_EPOCH, COLD_STEPS_PER_EPOCH, GPU_PLANS, GPU_REPLAY_REQUESTS,
    GPU_REQUESTS_PER_RUN, WARM_CALLS_PER_EPOCH,
};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const DEFAULT_SEED: u64 = 20_100_109;
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-up is a median over epochs; a run makes at least this many.
const MIN_EPOCHS: usize = 3;
/// The real-clock tournament times its CPU probe on the wall, so a loaded
/// host can hand a size class to a GPU engine; such an epoch is discarded
/// and rerun, up to this many times a run.
const MAX_REROUTED: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    json: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        json: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be in 1..=100".into());
                }
                args.repeat = Some(n);
            }
            "--json" => args.json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tribench: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.repeat, args.workload) {
        (Some(n), _) => repeat(&args, n),
        (None, Some(w)) => {
            let report = run(w, args.seed, args.seconds, args.trace);
            if !args.json {
                print!("{}", report.human(w.name()));
            }
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, None) => all_workloads(&args),
    }
}

/// Runs `tribench --workload w --json …` as a child and parses its result
/// line. `Err` carries what went wrong.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--json"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(line).map_err(|e| format!("{}: unreadable result ({e})", w.name()))?;
    if out.status.success() {
        Ok(doc)
    } else {
        Err(format!("{}: exit {} {line}", w.name(), out.status))
    }
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn all_workloads(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in selected(args) {
        match child(w, args.seed, args.seconds, args.trace) {
            Ok(doc) => {
                let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "# {}: attempted {} failed {}",
                    w.name(),
                    count("attempted"),
                    count("failed")
                );
                for (name, m) in doc.get("metrics").map_or(&[][..], Json::as_obj) {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("{:<48} {value:>16.6} {unit}", name);
                }
            }
            Err(e) => {
                ok = false;
                println!("# FAILED {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The bound `BENCHMARK.json` declares for an end-to-end metric.
fn bound_of(name: &str) -> Option<f64> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let metrics = doc.get("end_to_end")?.as_arr();
    metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

fn repeat(args: &Args, n: usize) -> ExitCode {
    let workloads = selected(args);
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..n {
        let mut order = workloads.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed.wrapping_add(rep as u64);
            match child(w, seed, args.seconds, args.trace) {
                Ok(doc) => {
                    for d in METRICS {
                        let v = doc
                            .get("metrics")
                            .and_then(|m| m.get(d.name))
                            .and_then(|m| m.get("value"));
                        if let Some(v) = v.and_then(Json::as_f64) {
                            let wi = Workload::ALL.iter().position(|x| *x == w).unwrap_or(0);
                            values.entry((wi, d.name)).or_default().push(v);
                        }
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("# run {rep} FAILED {e}");
                }
            }
        }
    }
    println!(
        "{:<12} {:<48} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((wi, name), v) in &values {
        let Some([q1, q2, q3]) = quartiles(v) else { continue };
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
        let bound = bound_of(name);
        // Set-up time is held to its median, not its spread.
        let over = bound.is_some_and(|b| *name != "setup_s" && spread > b);
        ok &= !over;
        println!(
            "{:<12} {:<48} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}% {:>6} {}",
            Workload::ALL[*wi].name(),
            name,
            spread * 100.0,
            bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            if over { "SPREAD>BOUND" } else { "" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1e3)
}

/// The inputs of one workload, made from the seed before any timing.
enum Inputs {
    Cold(ColdBatch),
    Pool(Matrices),
    Gpu(GpuModeled),
}

impl Inputs {
    fn new(w: Workload, seed: u64) -> Self {
        match w {
            Workload::ColdBatch => Inputs::Cold(ColdBatch::new(seed)),
            Workload::WarmRhs | Workload::KeyedChurn => Inputs::Pool(Matrices::new(seed)),
            Workload::GpuModeled => Inputs::Gpu(GpuModeled { seed }),
        }
    }

    /// One epoch at `scale` (1.0 = the benchmark's size).
    fn epoch(&self, w: Workload, index: usize, traced: bool, scale: f64) -> Epoch {
        let sized = |full: usize| ((full as f64 * scale).ceil() as usize).max(1);
        match (self, w) {
            (Inputs::Cold(c), _) => c.epoch(sized(COLD_STEPS_PER_EPOCH), traced),
            (Inputs::Pool(m), Workload::WarmRhs) => {
                WarmRhs { matrices: m }.epoch(sized(WARM_CALLS_PER_EPOCH), traced)
            }
            (Inputs::Pool(m), _) => KeyedChurn { matrices: m }
                .epoch(sized(CHURN_REQUESTS_PER_EPOCH as usize) as u64, traced),
            (Inputs::Gpu(g), _) => {
                g.epoch(index as u64, sized(GPU_REQUESTS_PER_RUN as usize) as u64, traced)
            }
        }
    }

    fn sample(&self, w: Workload) -> Vec<tridiag_core::TridiagonalSystem<f32>> {
        match (self, w) {
            (Inputs::Cold(c), _) => c.sample(),
            (Inputs::Pool(m), Workload::WarmRhs) => m.sample(),
            (Inputs::Pool(m), _) => KeyedChurn { matrices: m }.sample(),
            (Inputs::Gpu(g), _) => GpuModeled::sample(g.seed, 256),
        }
    }
}

fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    run_scaled(w, seed, seconds, trace, 1.0)
}

/// Epochs until `seconds` have passed, and at least `MIN_EPOCHS`. A traced
/// run alternates untraced and traced epochs (at least two of each); for
/// gpu_modeled it gives half its time to the harness (the workload) and
/// half to alternating real-clock replays of its inputs.
fn run_scaled(w: Workload, seed: u64, seconds: f64, trace: bool, scale: f64) -> Report {
    let inputs = Inputs::new(w, seed);
    let began = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let min_epochs = if trace { 4 } else { MIN_EPOCHS };
    let mut epochs = Vec::new();
    let mut replays = Vec::new();
    // Real-clock epochs whose tournament handed a size to a GPU engine;
    // they measured nothing, and too many of them refuse the run.
    let mut rerouted = Vec::new();
    let mut keep = |list: &mut Vec<Epoch>, e: Epoch| {
        if e.rerouted {
            rerouted.push(e);
        } else {
            list.push(e);
        }
        rerouted.len() <= MAX_REROUTED
    };
    if trace && w == Workload::GpuModeled {
        while epochs.len() < 2 || began.elapsed() < budget / 2 {
            epochs.push(inputs.epoch(w, epochs.len(), true, scale));
        }
        let sample = inputs.sample(w);
        let requests = ((GPU_REPLAY_REQUESTS as f64 * scale).ceil() as u64).max(1);
        while replays.len() < min_epochs || began.elapsed() < budget {
            let e = GpuModeled::replay_epoch(&sample, requests, replays.len() % 2 == 1);
            if !keep(&mut replays, e) {
                break;
            }
        }
    } else {
        while epochs.len() < min_epochs || began.elapsed() < budget {
            let traced = trace && epochs.len() % 2 == 1;
            let e = inputs.epoch(w, epochs.len(), traced, scale);
            if !keep(&mut epochs, e) {
                break;
            }
        }
    }

    let mut report = Report::new(if trace { Kind::PerLayer } else { Kind::EndToEnd });
    for e in epochs.iter().chain(&replays).chain(&rerouted) {
        report.attempted += e.attempted;
        report.failed += e.failed;
    }
    if !rerouted.is_empty() {
        report.notes.push(format!(
            "{} epochs discarded: the real-clock tournament picked a GPU engine",
            rerouted.len()
        ));
    }
    if rerouted.len() > MAX_REROUTED {
        report.invalid.push("the real-clock tournament keeps picking a GPU engine".into());
    }
    route_guard(w, &epochs, &replays, &mut report);
    if trace {
        per_layer(w, &inputs, &epochs, &replays, &mut report);
    } else {
        end_to_end(&epochs, &mut report);
    }
    report
}

/// A real-clock workload served by a GPU engine would time the SIMT
/// interpreter; gpu_modeled must keep the plan recorded in `GPU_PLANS`.
fn route_guard(w: Workload, epochs: &[Epoch], replays: &[Epoch], report: &mut Report) {
    let mut dispatch: BTreeMap<String, u64> = BTreeMap::new();
    let real_clock: Vec<&Epoch> =
        if w == Workload::GpuModeled { replays.iter().collect() } else { epochs.iter().collect() };
    for e in &real_clock {
        for (engine, systems) in &e.dispatch {
            *dispatch.entry(engine.clone()).or_default() += systems;
        }
    }
    report.notes.push(format!("real-clock dispatch_systems {dispatch:?}"));
    for engine in dispatch.keys().filter(|e| !e.starts_with("cpu")) {
        report.invalid.push(format!("real-clock flushes served by GPU engine {engine}"));
    }
    if w != Workload::GpuModeled {
        return;
    }
    let mut plans: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
    let mut modeled: BTreeMap<String, u64> = BTreeMap::new();
    for e in epochs {
        for (engine, systems) in &e.dispatch {
            *modeled.entry(engine.clone()).or_default() += systems;
        }
        for (n, engines) in &e.plans {
            for (engine, flushes) in engines {
                *plans.entry(*n).or_default().entry(engine.clone()).or_default() += flushes;
            }
        }
    }
    report.notes.push(format!("modeled dispatch_systems {modeled:?}"));
    report.notes.push(format!("modeled plans per size {plans:?}"));
    for (n, expected) in GPU_PLANS {
        let seen: Vec<&String> = plans.get(&n).map_or(Vec::new(), |p| p.keys().collect());
        if seen != [expected] {
            report.invalid.push(format!("n={n} planned {seen:?}, recorded plan is {expected}"));
        }
    }
}

/// Every timing comes from the faster half of its samples. The host is
/// shared and its speed drifts by tens of percent over seconds; on these
/// steady workloads a slower-than-usual window is other tenants' load,
/// and the faster half is what the code itself sets.
fn end_to_end(epochs: &[Epoch], report: &mut Report) {
    let rate = |w: &Window| w.rows as f64 / w.cost_ns.max(1) as f64;
    let mut windows: Vec<&Window> = epochs.iter().flat_map(|e| &e.windows).collect();
    windows.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let kept = &windows[..windows.len().div_ceil(2)];
    let rows: u64 = kept.iter().map(|w| w.rows).sum();
    let cost: u64 = kept.iter().map(|w| w.cost_ns).sum();
    let mut latencies: Vec<u64> =
        kept.iter().flat_map(|w| w.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let ops = latencies.len() as u64;
    report.set("throughput_rows_per_s", rows as f64 / (cost as f64 / 1e9), ops);
    report.set("latency_p50_us", percentile(&latencies, 0.5) as f64 / 1e3, ops);
    report.set("latency_p99_us", percentile(&latencies, 0.99) as f64 / 1e3, ops);
    report.notes.push(format!(
        "faster {} of {} windows kept; window rows/s {:.4e} (fastest) .. {:.4e} (slowest)",
        kept.len(),
        windows.len(),
        windows.first().map_or(0.0, |w| rate(w) * 1e9),
        windows.last().map_or(0.0, |w| rate(w) * 1e9),
    ));
    if supported_tail(latencies.len()).is_none_or(|q| q < 0.99) {
        report.notes.push(format!(
            "p99 is beyond the sample: {ops} operations support only p{:?}",
            supported_tail(latencies.len()).map(|q| q * 100.0)
        ));
    }
    let mut setups: Vec<f64> = epochs.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    setups.sort_by(f64::total_cmp);
    setups.truncate(setups.len().div_ceil(2));
    report.set("setup_s", median(&setups), setups.len() as u64);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `values` in nanoseconds (sorts them).
fn p50_ns(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    percentile(values, 0.5) as f64
}

fn stages(epochs: &[Epoch], with_ops: bool) -> ServiceStages {
    let mut stages = ServiceStages::default();
    for e in epochs.iter().filter(|e| !e.events.is_empty()) {
        stages.add(&e.events, if with_ops { &e.ops } else { &[] });
    }
    stages
}

fn per_layer(
    w: Workload,
    inputs: &Inputs,
    epochs: &[Epoch],
    replays: &[Epoch],
    report: &mut Report,
) {
    // gpu_modeled: batching and routing come from the harness (the
    // workload); stage timings from the real-clock replay.
    let gpu = w == Workload::GpuModeled;
    let timed_epochs = if gpu { replays } else { epochs };
    let mut timed = stages(timed_epochs, true);
    let harness = if gpu { Some(stages(epochs, false)) } else { None };
    let c = harness.as_ref().unwrap_or(&timed);
    let counts = [
        ("solver-service.engine_utilization", ratio(c.engine_ns, c.busy_span_ns), c.flushes),
        ("solver-service.batcher.mean_occupancy", ratio(c.served_systems, c.flushes), c.flushes),
        (
            "solver-service.batcher.linger_flush_share",
            ratio(c.linger_flushes, c.flushes),
            c.flushes,
        ),
        (
            "solver-service.planner.gpu_share",
            ratio(c.gpu_systems, c.served_systems),
            c.served_systems,
        ),
        ("numeric-verify.skip_share", ratio(c.cert_skips, c.flushes), c.flushes),
        ("factor-cache.hit_rate", ratio(c.factor_hits, c.factor_lookups), c.factor_lookups),
        ("factor-cache.evictions_per_request", ratio(c.factor_evictions, c.admitted), c.admitted),
    ];
    for (name, value, samples) in counts {
        report.set(name, value, samples);
    }

    let per_row = |traced: bool| {
        let (wall, rows) = timed_epochs
            .iter()
            .filter(|e| e.events.is_empty() != traced)
            .fold((0u64, 0u64), |(w, r), e| (w + e.wall_ns(), r + e.rows()));
        wall as f64 / rows.max(1) as f64
    };
    let traced_epochs = timed_epochs.iter().filter(|e| !e.events.is_empty()).count() as u64;
    report.set("tribench.trace_overhead", per_row(true) / per_row(false), traced_epochs);
    let t = &mut timed;
    let requests = t.submit_ns.len() as u64;
    report.set("tribench.unattributed_share", ratio(t.unattributed_ns, t.op_ns), requests);
    report.set("solver-service.submit_ns", p50_ns(&mut t.submit_ns), requests);
    let n = t.admit_to_flush_ns.len() as u64;
    report.set("solver-service.admit_to_flush_us_p50", p50_ns(&mut t.admit_to_flush_ns) / 1e3, n);
    let n = t.device_queue_ns.len() as u64;
    report.set("solver-service.device_queue_us_p50", p50_ns(&mut t.device_queue_ns) / 1e3, n);
    report.set("solver-service.flush_to_served_us_p50", p50_ns(&mut t.flush_to_served_ns) / 1e3, n);
    let n = t.served_to_client_ns.len() as u64;
    let served_to_client = p50_ns(&mut t.served_to_client_ns) / 1e3;
    report.set("solver-service.served_to_client_us_p50", served_to_client, n);
    report.set("solver-service.engine_ns_per_row", ratio(t.engine_ns, t.rows), t.flushes);
    let overhead = ratio(t.dispatch_overhead_ns, t.rows);
    report.set("solver-service.dispatch_overhead_ns_per_row", overhead, t.flushes);

    report.notes.extend(timed.self_time_notes());
    let planner_clock = if w == Workload::GpuModeled { Clock::sim() } else { Clock::real() };
    layers::replay(&inputs.sample(w), &planner_clock, report);

    let path = trace_path(w);
    let harness_spans = match w {
        Workload::GpuModeled => {
            epochs.first().map_or(Vec::new(), |e| analysis::flush_spans(&e.events))
        }
        _ => Vec::new(),
    };
    let mut groups: Vec<(&str, &[analysis::Span])> =
        vec![("client and service, real clock", &timed.spans)];
    if w == Workload::GpuModeled {
        groups.push(("harness, simulated clock", &harness_spans));
    }
    match std::fs::create_dir_all(path.parent().expect("trace path has a directory"))
        .and_then(|()| std::fs::write(&path, chrome_trace(&groups)))
    {
        Ok(()) => report.notes.push(format!(
            "chrome trace: {} ({} spans)",
            path.display(),
            timed.spans.len()
        )),
        Err(e) => report.notes.push(format!("chrome trace not written: {e}")),
    }
}

fn trace_path(w: Workload) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target).join("tribench").join(format!("{}.trace.json", w.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        doc.get(section)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn registry(kind: Kind) -> Vec<(String, String)> {
        METRICS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(registry(Kind::EndToEnd), declared("end_to_end"));
        assert_eq!(registry(Kind::PerLayer), declared("per_layer"));
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    /// Every declared metric comes out of a (shortened) run of every
    /// workload, traced and untraced, with every answer right.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "unoptimized, the CPU probe loses the real-clock tournament and the route \
                  guard refuses cold_batch; run with --release"
    )]
    fn every_declared_metric_is_printed_by_every_workload() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let report = run_scaled(w, 5, 0.01, trace, 0.01);
                assert!(
                    report.missing().is_empty(),
                    "{} trace={trace}: {:?}",
                    w.name(),
                    report.missing()
                );
                assert!(report.correct(), "{}: {}", w.name(), report.human(w.name()));
                let doc = Json::parse(&report.json()).unwrap();
                let printed: Vec<(String, String)> = doc
                    .get("metrics")
                    .unwrap()
                    .as_obj()
                    .iter()
                    .map(|(k, v)| {
                        (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string())
                    })
                    .collect();
                let kind = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(printed, declared(kind), "{} {kind}", w.name());
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload warm_rhs --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::WarmRhs), 7, 2.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
