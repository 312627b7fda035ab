//! The `repro` gates' flag grammar and exit codes; the rest of the gate
//! framework is [`crate::gate`].
//!
//! Every gate parses its flags through [`parse`]: the shared `--quick`
//! (CI-sized workload) and `--json` (rows on stdout after the tables),
//! plus subcommand-specific flags whitelisted per call site, so a typo is
//! always a usage error, never a silently ignored option.

/// Exit code: every gate clause held.
pub const EXIT_PASS: i32 = 0;
/// Exit code: the run completed but at least one gate clause broke.
pub const EXIT_GATE_FAIL: i32 = 1;
/// Exit code: malformed invocation (unknown flag, bad operand count).
pub const EXIT_USAGE: i32 = 2;

/// Parsed shared gate flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateArgs {
    /// `--quick`: run the CI-sized subset.
    pub quick: bool,
    /// `--json`: emit machine-readable rows on stdout.
    pub json: bool,
    /// Whitelisted subcommand-specific flags that were present, without
    /// the leading `--`.
    pub extras: Vec<String>,
    /// Positional operands (e.g. a trace path), in order.
    pub operands: Vec<String>,
}

impl GateArgs {
    /// `true` when the whitelisted extra flag `name` (no `--`) was passed.
    pub fn has(&self, name: &str) -> bool {
        self.extras.iter().any(|e| e == name)
    }
}

/// Parses `args` for `subcommand`, accepting the shared flags, the
/// whitelisted `extra_flags` (spelled without `--`), and at most
/// `max_operands` positionals. Returns `Err(`[`EXIT_USAGE`]`)` after
/// printing a usage line otherwise.
pub fn parse(
    subcommand: &str,
    args: &[String],
    extra_flags: &[&str],
    max_operands: usize,
) -> Result<GateArgs, i32> {
    let mut parsed = GateArgs::default();
    for arg in args {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            flag if flag.starts_with("--") => {
                let name = &flag[2..];
                if extra_flags.contains(&name) {
                    parsed.extras.push(name.to_string());
                } else {
                    eprintln!("unknown {subcommand} flag '{flag}' ({})", usage(extra_flags));
                    return Err(EXIT_USAGE);
                }
            }
            operand => parsed.operands.push(operand.to_string()),
        }
    }
    if parsed.operands.len() > max_operands {
        eprintln!(
            "{subcommand}: expected at most {max_operands} operand(s), got {}",
            parsed.operands.len()
        );
        return Err(EXIT_USAGE);
    }
    Ok(parsed)
}

fn usage(extra_flags: &[&str]) -> String {
    let mut flags = vec!["--quick".to_string(), "--json".to_string()];
    flags.extend(extra_flags.iter().map(|f| format!("--{f}")));
    format!("expected {}", flags.join(" / "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_flags_parse_in_any_order() {
        let args = parse("t", &strings(&["--json", "--quick"]), &[], 0).unwrap();
        assert!(args.quick && args.json);
        let args = parse("t", &strings(&["--quick"]), &[], 0).unwrap();
        assert!(args.quick && !args.json);
    }

    #[test]
    fn extras_are_whitelisted_and_typos_are_usage_errors() {
        let args = parse("t", &strings(&["--overhead"]), &["overhead"], 0).unwrap();
        assert!(args.has("overhead"));
        assert_eq!(parse("t", &strings(&["--overhead"]), &[], 0), Err(EXIT_USAGE));
        assert_eq!(parse("t", &strings(&["--quik"]), &["overhead"], 0), Err(EXIT_USAGE));
    }

    #[test]
    fn operands_are_counted() {
        let args = parse("t", &strings(&["a.trace", "--quick"]), &[], 1).unwrap();
        assert_eq!(args.operands, vec!["a.trace"]);
        assert_eq!(parse("t", &strings(&["a", "b"]), &[], 1), Err(EXIT_USAGE));
    }
}
