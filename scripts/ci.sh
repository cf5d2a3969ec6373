#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 test suite.
#
# Everything runs --offline against the vendored dependency stubs in
# vendor/ — this repo builds with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `cargo test -q --offline <args>` and fails if it ran no test at all.
# cargo exits 0 when a name filter matches nothing, so without this count a
# gate whose tests were moved or renamed would pass silently.
gate() {
    local log passed
    log=$(mktemp)
    cargo test -q --offline "$@" 2>&1 | tee "$log"
    passed=$(sed -n 's/^test result: .* \([0-9][0-9]*\) passed;.*/\1/p' "$log" |
        awk '{n += $1} END {print n + 0}')
    rm -f "$log"
    if [ "$passed" -eq 0 ]; then
        echo "gate ran no tests: cargo test $*" >&2
        return 1
    fi
}

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test -q --offline

echo "== full workspace tests"
cargo test -q --offline --workspace

echo "== benchmark: perfbench builds against the current API (held-out-seed self-test)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== observability: runner-equivalence and probe-reconciliation tests"
gate -p utlb-sim --test equivalence
gate -p utlb-core obs::
gate -p utlb-core mechanism::

echo "== four-mechanism unification: shared pin core and variant ablations"
gate -p utlb-core pincore::
gate -p utlb-core perproc::
gate -p utlb-core intr::
gate -p utlb-core indexed::
gate -p utlb-sim ablations::

echo "== registration and teardown: bulk garbage fill, slot lists, word-scan invalidation"
gate -p utlb-core --test cache_reference
gate -p utlb-mem phys::
gate -p utlb-mem pin::
gate -p utlb-nic sram::
gate -p utlb-core table::
gate -p utlb-core hier::
gate -p utlb-core bitvec::

echo "== observability: no-op probe overhead guard (<10%)"
cargo run -q --release --offline -p utlb-bench --bin obs_guard -- --scale 0.3

echo "== DES: core unit tests and zero-contention equivalence gate"
gate -p utlb-des
gate -p utlb-sim des_runner::
gate -p utlb-sim --test des_equivalence

echo "== DES: contention experiments (load monotonicity, interference, per-mechanism axis)"
gate -p utlb-sim contention::

echo "== batched lookup path: scalar-equivalence gate"
gate -p utlb-sim --test equivalence scalar
gate -p utlb-core batch::
gate -p utlb-core pinned_prefix

echo "== streaming: fused generate+replay byte-identity gate"
gate -p utlb-sim --test stream_equivalence
gate -p utlb-trace merge::
gate -p utlb-trace stream::
gate -p utlb-trace synth::

echo "== trace files: malformed JSONL is an io::Error, never a panic"
gate -p utlb-trace io::

echo "== streaming: bounded-memory scale run (small epoch count)"
UTLB_STREAM_EPOCHS=40 cargo run -q --release --offline -p utlb-bench --bin stream_scale

echo "== builder: spelling-equivalence of the Run builder (legacy shims are gone)"
gate -p utlb-sim --test builder_equivalence
gate -p utlb-sim run::

echo "== sweep executor: scheduling, scratch, poison, and checkpoint unit tests"
gate -p utlb-sim sweep::

echo "== sweep executor: 1-vs-N byte-identity and checkpointed driver resume"
gate -p utlb-sim --test sweep_determinism
gate -p utlb-sim --test sweep_scaling

echo "== cluster: 1-board bit-exactness, determinism, migration proptest"
gate -p utlb-sim --test cluster
gate -p utlb-sim cluster::

echo "== cluster: capped-axis scaling run (full axis reserved for the archive)"
UTLB_CLUSTER_NODES=8 cargo run -q --release --offline -p utlb-bench --bin cluster -- --scale 0.1

echo "== frontend: unit, lifecycle, and bit-exactness tests"
gate -p utlb-sim --test frontend
gate -p utlb-sim frontend

echo "== frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_FRONTEND_CONNS=1000 UTLB_SIM_THREADS=1 \
    cargo run -q --release --offline -p utlb-bench --bin frontend > /dev/null
mv results/frontend_smoke.json results/frontend_smoke_1w.json
UTLB_FRONTEND_CONNS=1000 UTLB_SIM_THREADS=4 \
    cargo run -q --release --offline -p utlb-bench --bin frontend > /dev/null
cmp results/frontend_smoke_1w.json results/frontend_smoke.json
rm results/frontend_smoke_1w.json

echo "== clustered frontend: 1-board byte-identity, redirect gradient, residency proptest"
gate -p utlb-sim --test cluster_frontend
gate -p utlb-sim cluster_frontend::

echo "== clustered frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_CLUSTER_FRONTEND_CONNS=2000 UTLB_SIM_THREADS=1 \
    cargo run -q --release --offline -p utlb-bench --bin cluster_frontend > /dev/null
mv results/cluster_frontend_smoke.json results/cluster_frontend_smoke_1w.json
UTLB_CLUSTER_FRONTEND_CONNS=2000 UTLB_SIM_THREADS=4 \
    cargo run -q --release --offline -p utlb-bench --bin cluster_frontend > /dev/null
cmp results/cluster_frontend_smoke_1w.json results/cluster_frontend_smoke.json
rm results/cluster_frontend_smoke_1w.json

echo "== docs build clean"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "CI green."
