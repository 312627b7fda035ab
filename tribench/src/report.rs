//! The metric registry, run report and the statistics every metric uses.
//!
//! `METRICS` is the one list of what tribench measures; a unit test holds
//! it equal to the `end_to_end` and `per_layer` lists in `BENCHMARK.json`.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported with `--trace 0`; what a user of the service sees.
    EndToEnd,
    /// Reported with `--trace 1`; one layer's cost or behaviour.
    PerLayer,
}

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, kind: Kind::EndToEnd }
}

const fn layer(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, kind: Kind::PerLayer }
}

/// Units starting `modeled_` are simulated GTX 280 time, not host time.
pub const METRICS: &[Decl] = &[
    e2e("throughput_rows_per_s", "rows/s"),
    e2e("latency_p50_us", "us"),
    e2e("latency_p99_us", "us"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
    layer("tridiag-core.matrix_key_ns_per_row", "ns"),
    layer("tridiag-core.residual_ns_per_row", "ns"),
    layer("cpu-solvers.thomas_ns_per_row", "ns"),
    layer("cpu-solvers.batch_soa_ns_per_row", "ns"),
    layer("cpu-solvers.warm_solve_ns_per_row", "ns"),
    layer("cpu-solvers.condest_us_per_key", "us"),
    layer("numeric-verify.analyze_us_per_key", "us"),
    layer("numeric-verify.observe_ns", "ns"),
    layer("numeric-verify.skip_share", "ratio"),
    layer("factor-cache.hit_rate", "ratio"),
    layer("factor-cache.lookup_ns", "ns"),
    layer("factor-cache.factor_insert_ns_per_row", "ns"),
    layer("factor-cache.evictions_per_request", "ratio"),
    layer("solver-service.submit_ns", "ns"),
    layer("solver-service.batcher.mean_occupancy", "count"),
    layer("solver-service.batcher.linger_flush_share", "ratio"),
    layer("solver-service.admit_to_flush_us_p50", "us"),
    layer("solver-service.device_queue_us_p50", "us"),
    layer("solver-service.flush_to_served_us_p50", "us"),
    layer("solver-service.engine_ns_per_row", "ns"),
    layer("solver-service.dispatch_overhead_ns_per_row", "ns"),
    layer("solver-service.served_to_client_us_p50", "us"),
    layer("solver-service.engine_utilization", "ratio"),
    layer("solver-service.planner.tournament_ms", "ms"),
    layer("solver-service.planner.gpu_share", "ratio"),
    layer("gpu-sim.modeled_kernel_us_per_system", "modeled_us"),
    layer("gpu-sim.modeled_transfer_us_per_system", "modeled_us"),
    layer("gpu-sim.modeled_shared_share", "ratio"),
    layer("gpu-sim.modeled_global_share", "ratio"),
    layer("gpu-sim.modeled_compute_share", "ratio"),
    layer("gpu-sim.interp_ns_per_row", "ns"),
    layer("tribench.trace_overhead", "ratio"),
    layer("tribench.unattributed_share", "ratio"),
];

/// One run's outcome: the answer accounting plus every metric of the
/// requested kind, each with the number of samples behind it.
pub struct Report {
    kind: Kind,
    values: Vec<Option<(f64, u64)>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run does not measure what it claims (route guard).
    pub invalid: Vec<String>,
    /// Extra human-readable lines (routes, self times, tail percentile).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(kind: Kind) -> Self {
        Report {
            kind,
            values: vec![None; METRICS.len()],
            attempted: 0,
            failed: 0,
            invalid: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records `name`; panics on a name the registry does not declare for
    /// this report's kind, which is a bug in tribench.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let i = METRICS
            .iter()
            .position(|d| d.name == name && d.kind == self.kind)
            .unwrap_or_else(|| panic!("metric {name} is not declared for {:?}", self.kind));
        self.values[i] = Some((value, samples));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.missing().is_empty()
    }

    /// Declared metrics of this kind that were not set or are not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        METRICS
            .iter()
            .zip(&self.values)
            .filter(|(d, v)| d.kind == self.kind && !v.is_some_and(|(x, _)| x.is_finite()))
            .map(|(d, _)| d.name)
            .collect()
    }

    /// The metrics of this kind, registry order: `(decl, value, samples)`.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static Decl, f64, u64)> + '_ {
        METRICS
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| v.map(|(x, n)| (d, x, n)))
            .filter(|(d, _, _)| d.kind == self.kind)
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        let errors =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = writeln!(
            out,
            "# {workload}: attempted {} failed {} error_rate {errors}",
            self.attempted, self.failed
        );
        for (d, value, samples) in self.metrics() {
            let _ = writeln!(out, "{:<48} {:>16.6} {:<12} n={samples}", d.name, value, d.unit);
        }
        for name in self.missing() {
            let _ = writeln!(out, "{name:<48} MISSING");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for why in &self.invalid {
            let _ = writeln!(out, "  INVALID: {why}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(d, v, _)| {
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of ascending `sorted` (`q` in `0..=1`); 0 when
/// empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median has not.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5].into_iter().find(|q| {
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let ok = |s: &str, extra: &str| {
            s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        for d in METRICS {
            assert!(!d.name.is_empty() && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", d.name);
            assert!(ok(d.name, ""), "{}", d.name);
            assert!(d.unit.len() <= 16 && ok(d.unit, "/%"), "{}", d.unit);
            assert_eq!(METRICS.iter().filter(|o| o.name == d.name).count(), 1, "{}", d.name);
        }
    }

    #[test]
    fn result_line_holds_exactly_the_four_keys() {
        let mut r = Report::new(Kind::EndToEnd);
        r.attempted = 3;
        r.set("setup_s", 0.5, 3);
        let doc = crate::json::Json::parse(&r.json()).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().get("setup_s").unwrap().get("value"),
            Some(&crate::json::Json::Num(0.5))
        );
        assert!(!r.correct(), "unset metrics make the run incorrect");
    }
}
