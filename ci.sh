#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== dependency graph (production crates carry no harness or simulator edges they do not use)"
tree=$(cargo tree --offline -e normal -p pdr-core -p pdr-server)
if grep -E 'pdr-sweep|crossbeam' <<<"$tree"; then
    echo "pdr-core/pdr-server must not depend on pdr-sweep or crossbeam" >&2
    exit 1
fi
tree=$(cargo tree --offline -e normal -p pdr-lint)
if grep -E 'pdr-sim' <<<"$tree"; then
    echo "pdr-lint must not depend on pdr-sim" >&2
    exit 1
fi

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== pdr-server binary (one compile over stdin, with reuse and --cold)"
for flags in "" "--cold"; do
    # shellcheck disable=SC2086 # empty flags must expand to no argument
    reply=$(echo '{"id":1,"op":"compile","flow":"paper"}' | ./target/release/pdr-server $flags)
    if ! grep -q '"status":"ok"' <<<"$reply"; then
        echo "pdr-server ${flags:-(default)} replied: $reply" >&2
        exit 1
    fi
done

echo "== cargo test (every workspace crate)"
cargo test -q --workspace

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== pdr-lint (all gallery flows, deny warnings)"
cargo run -q --release -p pdr-bench --bin pdr-lint -- --all --deny-warnings --format json

echo "== examples that drive deployment end to end (verified simulation, runtime policies)"
cargo run -q --release --example verified_system
cargo run -q --release --example rtr_policies

echo "== benches compile"
cargo bench -p pdr-bench --no-run -q

echo "== bench_ir_sim (test mode: report parity + speedup floor)"
cargo bench -p pdr-bench --bench bench_ir_sim -- --test --out BENCH_ir_sim.json

echo "== bench_adequation (test mode: result parity + speedup floor + zero-alloc probes)"
cargo bench -p pdr-bench --bench bench_adequation -- --test --out BENCH_adequation.json

echo "== bench_scale (test mode: index/oracle table parity + speedup floors + zero-alloc scheduler)"
cargo bench -p pdr-bench --bench bench_scale -- --test --out BENCH_scale.json

echo "== bench_server (test mode: N-client determinism + cache speedup floor)"
cargo bench -p pdr-bench --bench bench_server -- --test --out BENCH_server.json

echo "== bench_model (test mode: gallery deadlock-free < 1 s/flow + POR reduction floor + witness replay)"
cargo bench -p pdr-bench --bench bench_model -- --test --out BENCH_model.json

echo "== bench_rtr (test mode: engine/reference parity + throughput floors + zero-alloc request path)"
cargo bench -p pdr-bench --bench bench_rtr -- --test --out BENCH_rtr.json

echo "== bench_fabric (test mode: Virtex-II byte-parity pins + series7 2D placement end to end)"
cargo bench -p pdr-bench --bench bench_fabric -- --test --out BENCH_fabric.json

echo "== perfbench tests (the benchmark builds against the production crates' public API)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
