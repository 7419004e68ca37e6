#!/usr/bin/env bash
# Check the output contract of this checkout against a base checkout: the 16
# hashes of scripts/output_sha256.sh (each tree running its own script), the
# 48 lines of scripts/evaluate_grid.py and the 10,072 lines of
# scripts/lap_digests.py (this checkout's scripts run on each tree's src),
# and tests/test_acceptance.py, which must not change.
#
#   bash scripts/compare_trees.sh BASE_ROOT
#
# It works in a fresh temporary directory, prints each output's verdict with
# the lines that differ, then both trees' code lines, and exits 1 if any
# output differs or any command fails. It takes under a minute.
set -u

base=$(cd "${1:?usage: bash scripts/compare_trees.sh BASE_ROOT}" && pwd) || exit 1
head=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
status=0

# each output goes to TREE.OUTPUT; a command that fails leaves no file
for tree in base head; do
    root=${!tree}
    bash "$root/scripts/output_sha256.sh" "$work/pipeline-$tree" > "$tree.hashes" || rm "$tree.hashes"
    python3 "$head/scripts/evaluate_grid.py" "$root/src" > "$tree.grid" || rm "$tree.grid"
    python3 "$head/scripts/lap_digests.py" "$root/src" > "$tree.digests" || rm "$tree.digests"
    cat "$root/tests/test_acceptance.py" > "$tree.acceptance" || rm "$tree.acceptance"
done

for output in hashes grid digests acceptance; do
    failed=$(for tree in base head; do [[ -f $tree.$output ]] || echo -n " $tree"; done)
    if [[ $failed ]]; then
        echo "$output: FAILED on$failed"
        status=1
    elif cmp -s "base.$output" "head.$output"; then
        echo "$output: same, $(wc -l < "head.$output") lines"
    else
        echo "$output: DIFFERENT, $(diff "base.$output" "head.$output" | grep -c '^>') of $(wc -l < "head.$output") lines"
        diff "base.$output" "head.$output"
        status=1
    fi
done

for tree in base head; do
    echo "code lines, $tree:"
    python3 "$head/scripts/code_lines.py" "${!tree}/src/simca" || status=1
done
exit $status
