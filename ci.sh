#!/usr/bin/env bash
# CI gate for the workspace. Offline-safe: every external dependency
# resolves to an in-tree shim (see shims/README.md), so no network or
# registry access is needed — `cargo --offline` is enforced throughout.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release (tier-1)"
cargo build --offline --release

echo "==> cargo test (tier-1)"
cargo test --offline -q

echo "==> cargo test --release --workspace"
cargo test --offline --release --workspace -q

echo "==> kernel sanitizer gate (bench sanitize --quick)"
cargo run --offline --release -p bench -- sanitize --quick

echo "==> chaos gate (bench chaos --quick)"
cargo run --offline --release -p bench -- chaos --quick

echo "==> pool gate (bench pool --quick)"
cargo run --offline --release -p bench -- pool --quick

echo "==> replay gate (bench replay --quick)"
cargo run --offline --release -p bench -- replay --quick

echo "==> load-lab gate (bench loadlab --quick)"
cargo run --offline --release -p bench -- loadlab --quick

echo "==> symbolic proof gate (bench prove --quick)"
cargo run --offline --release -p bench -- prove --quick

echo "==> cluster gate (bench cluster --quick)"
cargo run --offline --release -p bench -- cluster --quick

echo "==> factor gate (bench factor --quick)"
cargo run --offline --release -p bench -- factor --quick

echo "==> certify gate (bench certify --quick)"
cargo run --offline --release -p bench -- certify --quick

# The two solve_many_rhs clients: each asserts every answer against an
# analytic solution and checks the factor-cache counters. They are the
# only f64 and warm-gpu callers of the multi-RHS admission path.
for example in adi_heat_service spectral_poisson; do
    echo "==> example ($example)"
    cargo run --offline --release --quiet --example "$example"
done

echo "==> tribench unit tests"
cargo test --offline -q --manifest-path tribench/Cargo.toml

# Short tribench runs: each exits nonzero on any rejected, wrong or
# missing answer, so these are correctness smokes, not timing gates.
# keyed_churn's one-request flushes take the scalar solvers; cold_batch
# and warm_rhs fill flushes of 64, so they reach the lockstep sweeps;
# gpu_modeled runs the trace-lab harness on the simulated clock and also
# fails when a size class leaves its frozen GPU_PLANS route (at least
# three epochs, so about 6 s).
for workload in keyed_churn cold_batch warm_rhs gpu_modeled; do
    echo "==> tribench smoke ($workload, 3 s)"
    cargo run --offline --release --quiet --manifest-path tribench/Cargo.toml -- \
        --workload "$workload" --seconds 3
done

# Surface the perf artifacts the gates above just wrote (canonical copies
# stay under target/repro/; the repo-root copies are gitignored and exist
# for CI artifact upload).
cp "${CARGO_TARGET_DIR:-target}"/repro/BENCH_*.json .
echo "==> BENCH artifacts:"
ls -1 BENCH_*.json

echo "==> CI green"
