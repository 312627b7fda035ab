//! Reproduction driver: regenerates every table and figure of the paper's
//! evaluation section (plus the ablations).
//!
//! ```text
//! cargo run --release -p bench --bin repro            # everything
//! cargo run --release -p bench --bin repro fig9 fig17 # a subset
//! cargo run --release -p bench --bin repro --list     # available names
//! cargo run --release -p bench -- sanitize --quick    # sanitizer gate
//! cargo run --release -p bench -- chaos --quick       # fault-injection gate
//! cargo run --release -p bench -- pool --quick        # multi-device gate
//! cargo run --release -p bench -- replay --quick      # bit-identical replay gate
//! cargo run --release -p bench -- replay t.trace      # verify a trace file
//! cargo run --release -p bench -- loadlab --quick     # load-lab SLO gate
//! cargo run --release -p bench -- prove --quick       # symbolic proof gate
//! cargo run --release -p bench -- cluster --quick     # multi-node cluster gate
//! cargo run --release -p bench -- factor --quick      # factor-cache warm gate
//! cargo run --release -p bench -- certify --quick     # certification gate
//! ```
//!
//! Every gate runs on one framework (flags, `BENCH_<gate>.json`,
//! baseline floors, exit codes) — see [`bench::gate`].

use bench::gate::GATES;
use bench::{figures, ReproConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // A gate is a subcommand, not an experiment: it exits non-zero when
    // any of its clauses breaks.
    if let Some((_, run)) = args.first().and_then(|arg| GATES.iter().find(|(name, _)| name == arg))
    {
        std::process::exit(run(&args[1..]));
    }

    let all = figures::all();

    if args.iter().any(|a| a == "--list" || a == "-l" || a == "--help") {
        println!("available experiments:");
        for (name, _) in &all {
            println!("  {name}");
        }
        return;
    }

    let cfg = ReproConfig::default();
    let selected: Vec<&bench::figures::Experiment> = if args.is_empty() {
        all.iter().collect()
    } else {
        let mut picked = Vec::new();
        for arg in &args {
            match all.iter().find(|(name, _)| name == arg) {
                Some(entry) => picked.push(entry),
                None => {
                    eprintln!("unknown experiment '{arg}' — use --list");
                    std::process::exit(2);
                }
            }
        }
        picked
    };

    println!("# Fast Tridiagonal Solvers on the GPU — reproduction report");
    println!("# device: {} | seed: {}", cfg.launcher.device.name, cfg.seed);
    println!();
    for (name, run) in selected {
        eprintln!("[repro] running {name} ...");
        for table in run(&cfg) {
            println!("{table}");
        }
    }
}
