#!/bin/sh
# Lint: the benches pinned in tests/golden/bench.sha256 are exactly the
# experiments bench/CMakeLists.txt builds with dlw_add_experiment(...).
# check_bench_golden.sh fails a bench that has no golden line, but a
# line whose bench was retired would stay behind unnoticed; this check
# fails in both directions.
#
# Usage: scripts/check_bench_golden_names.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

golden="tests/golden/bench.sha256"
cmake="bench/CMakeLists.txt"
for f in "$golden" "$cmake"; do
    if [ ! -f "$f" ]; then
        echo "error: $f does not exist" >&2
        echo "check_bench_golden_names: FAILED" >&2
        exit 1
    fi
done

work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
awk 'NF { print $2 }' "$golden" | sort > "$work/golden"
sed -n 's/^ *dlw_add_experiment( *\([A-Za-z0-9_]*\) *).*/\1/p' "$cmake" |
    sort > "$work/built"
if [ ! -s "$work/built" ]; then
    echo "error: no dlw_add_experiment(...) lines in $cmake" >&2
    echo "check_bench_golden_names: FAILED" >&2
    exit 1
fi

bad=0
for name in $(comm -23 "$work/golden" "$work/built"); do
    echo "error: $golden pins '$name', which $cmake does not build" >&2
    bad=1
done
for name in $(comm -13 "$work/golden" "$work/built"); do
    echo "error: $cmake builds '$name', which $golden does not pin" >&2
    bad=1
done

if [ "$bad" != 0 ]; then
    echo "check_bench_golden_names: FAILED" >&2
    exit 1
fi
echo "check_bench_golden_names: OK ($(wc -l < "$work/built") experiments)"
