#!/bin/sh
# Experiment bench golden corpus: the stdout of each bench_eNN binary
# (the reconstructed tables and figures E1..E13, E16, E17, E19 and
# E21), pinned by sha256 in tests/golden/bench.sha256;
# check_bench_golden_names.sh checks that the two lists match.
#
# Each bench runs from its own directory WORKDIR/<bench> (the BENCH_*
# .json it drops lands there) with its stdout kept as
# WORKDIR/<bench>/<bench>.  The run fails when a bench exits nonzero,
# has no line in the golden file, or prints stdout that hashes
# differently.  Nothing is masked: every experiment prints seeded,
# deterministic figures on stdout and its timings on stderr.
#
# Usage: scripts/check_bench_golden.sh SRCDIR WORKDIR [--record] BENCH...
#
# ctest runs one bench per smoke_bench_eNN test.  --record rewrites
# the named benches' lines in SRCDIR/tests/golden/bench.sha256 from
# this build instead of checking them: only for a change that alters
# a bench's output on purpose, listing the moved benches in
# CHANGES.md.  To record every bench:
#   sh scripts/check_bench_golden.sh . build/bench_golden --record \
#       build/bench/bench_e[0-9][0-9]_*

set -u
if [ $# -lt 3 ]; then
    echo "usage: $0 SRCDIR WORKDIR [--record] BENCH..." >&2
    exit 2
fi
src="$1"
work="$2"
shift 2
record=""
if [ "$1" = "--record" ]; then
    record=1
    shift
fi
case "$src" in
    /*) ;;
    *) src="$(pwd)/$src" ;;
esac
case "$work" in
    /*) ;;
    *) work="$(pwd)/$work" ;;
esac
golden="$src/tests/golden/bench.sha256"

fail() {
    echo "check_bench_golden: FAILED: $*" >&2
    exit 1
}

for bench in "$@"; do
    case "$bench" in
        /*) ;;
        *) bench="$(pwd)/$bench" ;;
    esac
    name="$(basename "$bench")"
    dir="$work/$name"
    rm -rf "$dir"
    mkdir -p "$dir" || exit 1
    (cd "$dir" && "$bench" > "$name" 2> "$name.err") ||
        fail "$name exited $? ($(tail -c 300 "$dir/$name.err"))"
    line="$(cd "$dir" && sha256sum "$name")" || exit 1
    if [ -n "$record" ]; then
        touch "$golden"
        grep -v "  $name\$" "$golden" > "$golden.new"
        echo "$line" >> "$golden.new"
        sort -k2 "$golden.new" > "$golden" || exit 1
        rm -f "$golden.new"
        echo "check_bench_golden: recorded $name"
        continue
    fi
    grep -qxF "$line" "$golden" && continue
    grep -q "  $name\$" "$golden" ||
        fail "$name has no line in $golden (record it with --record)"
    fail "$name stdout differs from $golden (kept in $dir/$name)"
done
