//! The gate framework: what every `repro` gate shares.
//!
//! A gate is a `run(args) -> exit code` function listed in [`GATES`];
//! `repro <name> [flags]` dispatches to it. A run opens a [`Gate`]
//! ([`Gate::start`] parses the shared flags, see [`crate::cli`]), prints
//! its own tables, and hands the framework four things:
//!
//! * **rows** ([`Gate::row`]) — one flat JSON object per cell;
//! * **summary fields** ([`Gate::summary`]) — headline numbers for the
//!   envelope;
//! * **clauses** ([`Gate::check`], [`Gate::fail`]) — one named failure per
//!   broken rule the gate hard-codes;
//! * **floors** ([`Gate::floors`]) — measured values to compare with the
//!   checked-in `baselines/<gate>.json`.
//!
//! [`Gate::finish`] then prints the rows on stdout under `--json`, writes
//! the envelope, prints every clause, and returns the exit code.
//!
//! # The envelope
//!
//! `$CARGO_TARGET_DIR/repro/BENCH_<gate>.json` (default
//! `target/repro/`, relative to the working directory) holds
//! `{"bench":"<gate>","quick":<bool>,<summary fields>,"rows":[<rows>]}`
//! and a newline. A failed write is a clause.
//!
//! # Floors
//!
//! Each row of `baselines/<gate>.json` is a flat object named by its
//! `"name"` field. For a row, [`Gate::floors`] takes the values `<k>` the
//! run measured: a measurement below the row's `min_<k>` or above its
//! `max_<k>` fails. So do a missing baseline file, a missing row, a floor
//! with no measurement (a misspelt key cannot switch a floor off) and a
//! measurement with no floor — each as one clause naming the row. The
//! file resolves from `baselines/` under the working directory, falling
//! back to the checked-in copy, so gates pass from any directory. Other
//! keys in a row (recorded values, see `loadlab`) are free for the gate's
//! own rules, read through [`Gate::baseline_row`].
//!
//! # Exit codes
//!
//! [`EXIT_PASS`] (0) when no clause was recorded, [`EXIT_GATE_FAIL`] (1)
//! when any was, [`EXIT_USAGE`] (2) for a malformed invocation.

use crate::cli::{self, GateArgs, EXIT_GATE_FAIL, EXIT_PASS};
use solver_service::Ticket;
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use tridiag_core::residual::Scorer;
use tridiag_core::TridiagonalSystem;

#[cfg(doc)]
use crate::cli::EXIT_USAGE;

/// A gate's entry point: the arguments after its name in, the exit code
/// out.
pub type Run = fn(&[String]) -> i32;

/// Every `repro` gate, by subcommand name.
pub const GATES: [(&str, Run); 9] = [
    ("sanitize", crate::sanitize::run),
    ("chaos", crate::chaos::run),
    ("pool", crate::pool::run),
    ("replay", crate::replay::run),
    ("loadlab", crate::loadlab::run),
    ("prove", crate::prove::run),
    ("cluster", crate::cluster::run),
    ("factor", crate::factor::run),
    ("certify", crate::certify::run),
];

/// One gate run: its flags, and the rows, summary and clauses it has
/// recorded so far.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    /// The parsed shared flags.
    pub args: GateArgs,
    /// `,"key":value` pairs, in the order recorded.
    summary: String,
    rows: Vec<String>,
    clauses: Vec<String>,
    /// `baselines/<name>.json`, or the clause a missing or unreadable
    /// file yields.
    baselines: Result<String, String>,
}

impl Gate {
    /// Parses `args` for gate `name` (see [`cli::parse`]) and reads its
    /// baseline file. `Err` carries the usage exit code.
    pub fn start(
        name: &'static str,
        args: &[String],
        extra_flags: &[&str],
        max_operands: usize,
    ) -> Result<Self, i32> {
        let args = cli::parse(name, args, extra_flags, max_operands)?;
        Ok(Self::with_baselines(name, args, read_baselines(name)))
    }

    fn with_baselines(
        name: &'static str,
        args: GateArgs,
        baselines: Result<String, String>,
    ) -> Self {
        Self {
            name,
            args,
            summary: String::new(),
            rows: Vec::new(),
            clauses: Vec::new(),
            baselines,
        }
    }

    /// Appends one JSON row (a flat object) to the envelope.
    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Appends a `"key":value` summary field to the envelope; `value` is
    /// written as rendered.
    pub fn summary(&mut self, key: &str, value: impl Display) {
        write!(self.summary, ",\"{key}\":{value}").expect("writing to a String cannot fail");
    }

    /// Records a failure clause.
    pub fn fail(&mut self, clause: impl Into<String>) {
        self.clauses.push(clause.into());
    }

    /// Records `clause` unless `held`.
    pub fn check(&mut self, held: bool, clause: impl Into<String>) {
        if !held {
            self.fail(clause);
        }
    }

    /// The baseline row named `row`, as a flat JSON object, or the clause
    /// its absence (or its file's) yields.
    pub fn baseline_row(&self, row: &str) -> Result<String, String> {
        let text = self.baselines.as_ref().map_err(|why| format!("{row}: {why}"))?;
        json_object_with(text, "name", row)
            .map(str::to_string)
            .ok_or_else(|| format!("{row}: no such row in baselines/{}.json", self.name))
    }

    /// Compares the values `measured` for baseline row `row` with the
    /// row's `min_<k>`/`max_<k>` floors (see the module doc).
    pub fn floors(&mut self, row: &str, measured: &[(&str, f64)]) {
        match self.baseline_row(row) {
            Ok(object) => self.clauses.extend(floor_clauses(row, &object, measured)),
            Err(why) => {
                let keys: Vec<&str> = measured.iter().map(|&(key, _)| key).collect();
                self.fail(format!("{why}; unchecked: {}", keys.join(", ")));
            }
        }
    }

    /// Ends a run that gated nothing (a timing report such as
    /// `--overhead`): no envelope, exit 0.
    pub fn ungated(self) -> i32 {
        EXIT_PASS
    }

    /// Prints the rows under `--json`, writes the envelope, reports every
    /// clause and returns the exit code; `pass` completes the PASS line.
    pub fn finish(mut self, pass: impl Display) -> i32 {
        let name = self.name;
        if self.args.json {
            for row in &self.rows {
                println!("{row}");
            }
        }
        let file = format!("BENCH_{name}.json");
        let envelope = format!(
            "{{\"bench\":\"{name}\",\"quick\":{}{},\"rows\":[{}]}}\n",
            self.args.quick,
            self.summary,
            self.rows.join(",")
        );
        match write_bench(&file, &envelope) {
            Ok(path) => eprintln!("[{name}] wrote {}", path.display()),
            Err(e) => self.fail(format!("writing {file}: {e}")),
        }
        if self.clauses.is_empty() {
            println!("[{name}] PASS: {pass}");
            return EXIT_PASS;
        }
        for clause in &self.clauses {
            eprintln!("[{name}] FAIL: {clause}");
        }
        eprintln!("[{name}] FAIL: {} clause(s) broke the {name} gate", self.clauses.len());
        EXIT_GATE_FAIL
    }
}

/// The clauses one baseline row's floors yield against `measured`.
fn floor_clauses(row: &str, object: &str, measured: &[(&str, f64)]) -> Vec<String> {
    let fields = json_fields(object);
    let mut clauses = Vec::new();
    for &(key, raw) in &fields {
        let (is_min, measure) = match (key.strip_prefix("min_"), key.strip_prefix("max_")) {
            (Some(measure), _) => (true, measure),
            (None, Some(measure)) => (false, measure),
            (None, None) => continue,
        };
        let Some(&(_, got)) = measured.iter().find(|&&(k, _)| k == measure) else {
            clauses.push(format!("{row}: floor {key} has no measured {measure}"));
            continue;
        };
        let Ok(limit) = raw.parse::<f64>() else {
            clauses.push(format!("{row}: floor {key} is not a number ({raw})"));
            continue;
        };
        // Written so that a NaN measurement fails.
        let held = if is_min { got >= limit } else { got <= limit };
        if !held {
            let op = if is_min { "<" } else { ">" };
            clauses.push(format!("{row}: {measure} {got} {op} {key} {limit}"));
        }
    }
    for &(measure, _) in measured {
        let floored = fields.iter().any(|&(key, _)| {
            key.strip_prefix("min_").or_else(|| key.strip_prefix("max_")) == Some(measure)
        });
        if !floored {
            clauses.push(format!("{row}: measured {measure} has no min_/max_ floor"));
        }
    }
    clauses
}

/// Waits for every ticket and scores its answer against the system sent
/// with it.
pub fn wait_all(sent: Vec<(TridiagonalSystem<f32>, Ticket<f32>)>) -> Scorer {
    let mut scorer = Scorer::default();
    for (system, ticket) in sent {
        scorer.score(&system, &ticket.wait().x);
    }
    scorer
}

/// The canonical output directory for gate artifacts:
/// `$CARGO_TARGET_DIR/repro` (default `target/repro`).
pub fn repro_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Path::new(&target).join("repro")
}

/// Writes `file_name` under [`repro_dir`] and returns its path.
fn write_bench(file_name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = repro_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Reads `baselines/<gate>.json`: relative to the working directory (a
/// repo-root `cargo run`), falling back to the workspace root derived
/// from this crate's manifest (tests run with the crate directory as cwd).
fn read_baselines(gate: &str) -> Result<String, String> {
    let file = format!("{gate}.json");
    let cwd_relative = Path::new("baselines").join(&file);
    let path = if cwd_relative.exists() {
        cwd_relative
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines").join(&file)
    };
    if !path.exists() {
        return Err(format!("baselines/{file} missing"));
    }
    std::fs::read_to_string(&path).map_err(|e| format!("baselines/{file} unreadable: {e}"))
}

/// Extracts the flat JSON object (no nesting) from `text` that contains
/// the exact `"key":"value"` pair — how a baseline row is found.
fn json_object_with<'a>(text: &'a str, key: &str, value: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"{value}\"");
    let at = text.find(&needle)?;
    let start = text[..at].rfind('{')?;
    let end = at + text[at..].find('}')?;
    Some(&text[start..=end])
}

/// The `(key, raw value)` pairs of a flat JSON object whose string values
/// hold no `,` (true of every baseline row).
fn json_fields(object: &str) -> Vec<(&str, &str)> {
    object
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|field| {
            let (key, value) = field.split_once(':')?;
            Some((key.trim().trim_matches('"'), value.trim()))
        })
        .collect()
}

/// Reads an unsigned integer field from a flat JSON object.
pub fn json_u64(object: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = object.find(&needle)? + needle.len();
    let digits: String = object[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Reads a (non-scientific) decimal field from a flat JSON object.
pub fn json_f64(object: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = object.find(&needle)? + needle.len();
    let number: String =
        object[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    number.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"bench":"t-baseline","comment":"a, b: c","rows":[
{"name":"sweep","min_speedup":1.3,"max_wrong":0},
{"name":"other","min_speedup":2}
]}"#;

    fn gate(name: &'static str, baselines: Result<&str, &str>) -> Gate {
        let baselines = baselines.map(str::to_string).map_err(str::to_string);
        Gate::with_baselines(name, GateArgs::default(), baselines)
    }

    /// Runs `floors(row, measured)` on gate `name` and demands exactly one
    /// clause, naming `row` and `key`, and exit 1.
    fn one_clause(
        name: &'static str,
        baselines: Result<&str, &str>,
        row: &str,
        measured: &[(&str, f64)],
        key: &str,
    ) {
        let mut gate = gate(name, baselines);
        gate.floors(row, measured);
        assert_eq!(gate.clauses.len(), 1, "{name}: {:?}", gate.clauses);
        let clause = &gate.clauses[0];
        assert!(clause.starts_with(&format!("{row}: ")), "{name}: {clause}");
        assert!(clause.contains(key), "{name}: {clause}");
        assert_eq!(gate.finish("-"), EXIT_GATE_FAIL, "{name}");
    }

    #[test]
    fn every_floor_miss_is_one_clause_naming_row_and_key_and_exits_1() {
        let sweep = Ok(BASELINE);
        one_clause("gate-test-min", sweep, "sweep", &[("speedup", 1.2), ("wrong", 0.0)], "speedup");
        one_clause("gate-test-max", sweep, "sweep", &[("speedup", 1.3), ("wrong", 1.0)], "wrong");
        let missing = Err("baselines/t.json missing");
        one_clause("gate-test-no-file", missing, "sweep", &[("speedup", 1.5)], "speedup");
        one_clause("gate-test-no-row", sweep, "absent", &[("speedup", 1.5)], "speedup");
        // A misspelt or forgotten measurement leaves a floor unmatched.
        one_clause("gate-test-no-measure", sweep, "sweep", &[("speedup", 1.5)], "max_wrong");
        let unfloored = [("speedup", 2.0), ("hit_rate", 0.9)];
        one_clause("gate-test-no-floor", sweep, "other", &unfloored, "hit_rate");
    }

    #[test]
    fn a_nan_measurement_misses_its_floor() {
        let mut gate = gate("gate-test-nan", Ok(BASELINE));
        gate.floors("sweep", &[("speedup", f64::NAN), ("wrong", 0.0)]);
        assert_eq!(gate.clauses.len(), 1, "{:?}", gate.clauses);
    }

    #[test]
    fn a_clean_run_exits_0_and_writes_the_envelope() {
        let mut gate = gate("gate-test-clean", Ok(BASELINE));
        gate.floors("sweep", &[("speedup", 1.3), ("wrong", 0.0)]);
        gate.check(true, "never recorded");
        gate.summary("speedup", format!("{:.4}", 1.5));
        gate.row("{\"a\":1}".to_string());
        gate.row("{\"b\":2}".to_string());
        assert_eq!(gate.finish("clean"), EXIT_PASS);
        let written = std::fs::read_to_string(repro_dir().join("BENCH_gate-test-clean.json"))
            .expect("the envelope was written");
        assert_eq!(
            written,
            "{\"bench\":\"gate-test-clean\",\"quick\":false,\"speedup\":1.5000,\
             \"rows\":[{\"a\":1},{\"b\":2}]}\n"
        );
    }

    #[test]
    fn a_hard_clause_fails_the_gate() {
        let mut gate = gate("gate-test-hard", Err("baselines/x.json missing"));
        gate.check(false, "cold mode touched the factor cache");
        assert_eq!(gate.finish("-"), EXIT_GATE_FAIL);
    }

    #[test]
    fn every_gate_runs_in_ci_and_every_baseline_file_is_read() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ci = std::fs::read_to_string(root.join("ci.sh")).expect("ci.sh");
        let workflow =
            std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
        for (name, _) in GATES {
            let step = format!("-p bench -- {name} --quick");
            assert!(ci.contains(&step), "ci.sh does not run `{step}`");
            assert!(workflow.contains(&step), "ci.yml has no `{step}` step");
        }
        // A gate reads exactly `baselines/<its name>.json`.
        for entry in std::fs::read_dir(root.join("baselines")).expect("baselines/") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|ext| ext == "json") {
                let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
                assert!(
                    GATES.iter().any(|(name, _)| *name == stem),
                    "baselines/{stem}.json is read by no gate"
                );
            }
        }
    }

    #[test]
    fn a_checked_in_row_splits_into_its_fields() {
        let gate = Gate::start("certify", &[], &[], 0).expect("no flags");
        let row = gate.baseline_row("certify-sweep").expect("certify-sweep row");
        assert_eq!(
            json_fields(&row),
            [
                ("name", "\"certify-sweep\""),
                ("min_speedup", "1.15"),
                ("min_coverage", "0.95"),
                ("max_wrong", "0")
            ]
        );
    }

    #[test]
    fn flat_json_scanning_finds_rows_and_fields() {
        let text = r#"{"bench":"x","rows":[{"name":"steady","p99_ns":1500,"availability_ppm":998000,"ratio":0.25},{"name":"bursty","p99_ns":9}]}"#;
        let row = json_object_with(text, "name", "steady").unwrap();
        assert_eq!(json_u64(row, "p99_ns"), Some(1500));
        assert_eq!(json_u64(row, "availability_ppm"), Some(998_000));
        assert_eq!(json_f64(row, "ratio"), Some(0.25));
        let row = json_object_with(text, "name", "bursty").unwrap();
        assert_eq!(json_u64(row, "p99_ns"), Some(9));
        assert!(json_object_with(text, "name", "missing").is_none());
        assert!(json_u64(row, "missing").is_none());
    }
}
