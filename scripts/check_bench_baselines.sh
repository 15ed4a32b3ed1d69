#!/bin/sh
# Lint: every bench the CI "Bench regression gate (hard)" step diffs
# must have its BENCH_<name>.json baseline checked in at the repo
# root.  bench-diff exits 1 on a missing baseline and only a
# regression (exit 2) can be forgiven, so a gated bench without a
# tracked baseline fails the release job on every run.
#
# The bench list is read from the step's `for bench in ...` loop, so
# extending the gate without adding the baseline trips this lint.
#
# Usage: scripts/check_bench_baselines.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

ci=".github/workflows/ci.yml"
if [ ! -f "$ci" ]; then
    echo "error: $ci does not exist" >&2
    echo "check_bench_baselines: FAILED" >&2
    exit 1
fi

benches=$(awk '
    /- name: Bench regression gate \(hard\)/ { in_step = 1; next }
    in_step && /^ *- name:/ { exit }
    in_step && /for bench in/ {
        sub(/.*for bench in/, "")
        sub(/;.*/, "")
        print
        exit
    }' "$ci")
if [ -z "$benches" ]; then
    echo "error: no 'for bench in ...' list found in the" \
         "\"Bench regression gate (hard)\" step of $ci" >&2
    echo "check_bench_baselines: FAILED" >&2
    exit 1
fi

# Outside a git checkout (e.g. an exported source tree) only the
# presence of each file can be checked.
tracked=0
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    tracked=1
fi

bad=0
for bench in $benches; do
    f="BENCH_$bench.json"
    if [ ! -f "$f" ]; then
        echo "error: gated bench '$bench' has no baseline $f" >&2
        bad=1
    elif [ "$tracked" = 1 ] &&
         ! git ls-files --error-unmatch "$f" > /dev/null 2>&1; then
        echo "error: baseline $f exists but is not tracked by git" \
             "(whitelist it in .gitignore and commit it)" >&2
        bad=1
    fi
done

if [ "$bad" != 0 ]; then
    echo "check_bench_baselines: FAILED" >&2
    exit 1
fi
echo "check_bench_baselines: OK ($(echo $benches | wc -w) baselines)"
