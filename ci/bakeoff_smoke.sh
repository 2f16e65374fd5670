#!/usr/bin/env bash
# End-to-end smoke test for the LB scheme arena bake-off.
#
# The bake-off is gated exactly like the paper grid (DESIGN.md §11, §13),
# proving the registry-driven scheme axis end to end:
#   1. Run the committed bake-off campaign — Presto vs the flowlet
#      family and the arena schemes — into a scratch store.
#   2. Run it again with --require-cached: the second run must answer
#      every point from the content-addressed store (zero executions),
#      which pins the canonical-text fingerprints of all eight schemes.
#   3. `lab diff` the fresh table against the committed baseline with
#      default tolerances and bit-exact digests (--strict-digest) — must pass.
#   4. Render the report and require every figure artifact (canonical
#      .txt AND rendered .svg) byte-identical to the goldens under
#      baselines/figures/bakeoff/. Re-bless intentional changes with:
#        lab run campaigns/bakeoff.toml --store S && \
#        lab report bakeoff --store S --out R --baseline baselines/bakeoff.json && \
#        cp R/figures/* baselines/figures/bakeoff/
#   5. The report and trace viewer must be single self-contained files.
set -euo pipefail
cd "$(dirname "$0")/.."

CAMPAIGN=campaigns/bakeoff.toml
BASELINE=baselines/bakeoff.json
GOLDENS=baselines/figures/bakeoff
STORE=$(mktemp -d)
REPORT_OUT="${REPORT_OUT:-$STORE/report}"
trap 'rm -rf "$STORE"' EXIT

echo "==> build the lab CLI (profile lab: release + unwind)"
cargo build --quiet --profile lab --bin lab
LAB=target/lab/lab

echo "==> run the committed bake-off grid (fresh store)"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --quiet

echo "==> re-run: every point must be a cache hit"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --require-cached --quiet

echo "==> diff against the committed baseline (default tolerances, digests bit-exact)"
"$LAB" diff "$BASELINE" "$STORE/run/bakeoff/table.json" --strict-digest

echo "==> render the report (diff vs committed baseline must pass)"
"$LAB" report bakeoff --store "$STORE/run" --out "$REPORT_OUT" \
    --baseline "$BASELINE" --viewer

echo "==> figure artifacts must match the committed goldens byte-for-byte"
if ! diff -r "$GOLDENS" "$REPORT_OUT/figures"; then
    echo "FAIL: figure artifacts drifted from $GOLDENS" >&2
    echo "      (if the change is intended, re-bless per the header of $0)" >&2
    exit 1
fi
count=$(ls "$GOLDENS" | wc -l)
echo "    $count golden artifact(s) identical"

echo "==> report and viewer are single self-contained files"
for page in "$REPORT_OUT/index.html" "$REPORT_OUT/viewer.html"; do
    [ -s "$page" ] || { echo "FAIL: $page missing or empty" >&2; exit 1; }
    if grep -Eq 'src="http|href="http|<script src|<link rel="stylesheet" href' "$page"; then
        echo "FAIL: $page references external resources" >&2
        exit 1
    fi
done
echo "    no external references"

echo "bakeoff smoke: OK (report at $REPORT_OUT)"
