#!/usr/bin/env bash
# End-to-end smoke test for the presto-lab campaign subsystem.
#
# Exercises the full CI contract from DESIGN.md §11:
#   1. Run the committed paper grid into a scratch store.
#   2. Run it again with --require-cached: the second run must answer
#      every point from the store (zero scenario executions).
#   3. `lab diff` the fresh table against the committed baseline with
#      default tolerances and bit-exact digests (--strict-digest) — must pass.
#   4. Re-run the grid with an injected 50% goodput regression into a
#      second store — `lab diff` must flag it and exit nonzero.
#
# The lab binary is built with the `lab` profile (release speed, but
# panic = "unwind" so catch_unwind isolation works — see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

CAMPAIGN=campaigns/paper_grid.toml
BASELINE=baselines/paper_grid.json
STORE=$(mktemp -d)
trap 'rm -rf "$STORE"' EXIT

echo "==> build the lab CLI (profile lab: release + unwind)"
cargo build --quiet --profile lab --bin lab
LAB=target/lab/lab

echo "==> run the committed paper grid (fresh store)"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --quiet

echo "==> re-run: every point must be a cache hit"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --require-cached --quiet

echo "==> diff against the committed baseline (default tolerances, digests bit-exact)"
"$LAB" diff "$BASELINE" "$STORE/run/paper_grid/table.json" --strict-digest

echo "==> injected goodput regression must be caught"
"$LAB" run "$CAMPAIGN" --store "$STORE/bad" --inject-goodput-scale 0.5 --quiet
if "$LAB" diff "$BASELINE" "$STORE/bad/paper_grid/table.json" >/dev/null 2>&1; then
    echo "FAIL: lab diff accepted a 50% goodput regression" >&2
    exit 1
fi
echo "    regression flagged, exit code nonzero — as required"

echo "lab smoke: OK"
