#!/bin/sh
# End-to-end command line tour.  Every command prints one JSON report
# with canonical key order; rerunning with the same inputs and seed
# reproduces the bytes exactly.
set -e

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== generate a GHZ state file =="
python3 -m luinv gen --kind ghz -n 3 -o "$dir/ghz.json" --seed 0

echo "== its whole invariant family =="
python3 -m luinv invariants --state "$dir/ghz.json" --all

echo "== is it separable across 1,2|3 ? (exit 1 says no) =="
python3 -m luinv separability --state "$dir/ghz.json" --partition "1,2|3" || true

echo "== Monte-Carlo cross-check of I_111 =="
python3 -m luinv twirl --state "$dir/ghz.json" --index 111 --samples 20000 --seed 7

echo "== trace identity at one site =="
python3 -m luinv lift --state "$dir/ghz.json" --trace-out 3 --index 11

echo "== trace-norm correlation measure =="
python3 -m luinv zhou --state "$dir/ghz.json" --index 111

echo "== reports are byte-stable =="
python3 -m luinv invariants --state "$dir/ghz.json" --all > "$dir/a.json"
python3 -m luinv invariants --state "$dir/ghz.json" --all > "$dir/b.json"
cmp "$dir/a.json" "$dir/b.json" && echo "identical"
