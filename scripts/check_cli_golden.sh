#!/bin/sh
# CLI golden corpus: the stdout of every dlwtool command, pinned by
# sha256 in tests/golden/cli.sha256.
#
# Each case runs one command from inside WORKDIR (so the paths that
# reports echo are relative and stable) and keeps its stdout as
# WORKDIR/out/<case>.  The run fails when any case exits nonzero,
# when the set of cases differs from the golden file's, or when any
# stdout hashes differently.  run-report's span and seconds-histogram
# timings and its core.kernel.isa gauge (the SIMD kernel table this
# host picked: avx2 or scalar) are masked before hashing; nothing
# else is.
#
# Beside the hashes, the script holds the byte-identity contracts
# that compare two runs of the current build:
#   - fleet stdout at --threads 1 and 8, with and without --metrics
#     json (whose snapshot must be one valid JSON object), healthy
#     and under --fault fleet.shard:mod=5 --retries 1;
#   - analyze at the default --batch, 1 and 7, also with --cache off
#     and --drive nearline, and ten repeated runs of a 20-minute
#     trace whose burstiness finish fans out to helper threads;
#   - fleet at --batch 1 and 63;
#   - analyze and fleet --threads 4 with --trace-out, whose Chrome
#     trace files must hold complete (X) duration events;
#   - a serve + stream round trip, csv and bin, against
#     characterize on the same file.
#
# Usage: scripts/check_cli_golden.sh DLWTOOL SRCDIR WORKDIR [--record]
#
# --record rewrites SRCDIR/tests/golden/cli.sha256 from this build
# instead of checking it.

set -u
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 DLWTOOL SRCDIR WORKDIR [--record]" >&2
    exit 2
fi
tool="$1"
src="$2"
work="$3"
record="${4:-}"
case "$tool" in
    /*) ;;
    *) tool="$(pwd)/$tool" ;;
esac
case "$src" in
    /*) ;;
    *) src="$(pwd)/$src" ;;
esac
golden="$src/tests/golden/cli.sha256"

rm -rf "$work"
mkdir -p "$work/out" || exit 1
cd "$work" || exit 1

server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    wait 2>/dev/null
}
trap cleanup EXIT INT TERM

fail() {
    echo "check_cli_golden: FAILED: $*" >&2
    exit 1
}

cases=""

# run CASE ARGS...: dlwtool ARGS, stdout kept as case CASE.
run() {
    name="$1"
    shift
    "$tool" "$@" > "out/$name" 2> "out/$name.err" ||
        fail "$name: dlwtool $* exited $? ($(head -c 300 "out/$name.err"))"
    cases="$cases $name"
}

# run_masked CASE ARGS...: like run, with timings and the kernel ISA
# masked.
run_masked() {
    name="$1"
    shift
    "$tool" "$@" > "out/$name.raw" 2> "out/$name.err" ||
        fail "$name: dlwtool $* exited $?"
    sed -e 's/total [^ ]* s  mean [^ ]* s$/total _ s  mean _ s/' \
        -e 's/samples, mean [^ ]* s, .*  \[/samples, _ s  [/' \
        -e 's/^\(  core\.kernel\.isa  *\)[0-9][0-9]* isa/\1_ isa/' \
        "out/$name.raw" > "out/$name"
    cases="$cases $name"
}

# same A B WHAT: two files must be byte-identical.
same() {
    cmp -s "$1" "$2" || fail "$3: $1 and $2 differ"
}

# --- generate, convert and the two twins ---------------------------

run generate generate --class oltp --rate 80 --minutes 2 --seed 9 \
    --out id.csv
run convert convert --in id.csv --out id.bin
for fmt in csv bin; do
    for cmd in analyze characterize; do
        run "$cmd-$fmt" "$cmd" --in "id.$fmt"
        run "$cmd-$fmt-batch1" "$cmd" --in "id.$fmt" --batch 1
        run "$cmd-$fmt-batch7" "$cmd" --in "id.$fmt" --batch 7
        same "out/$cmd-$fmt" "out/$cmd-$fmt-batch1" "$cmd --batch 1"
        same "out/$cmd-$fmt" "out/$cmd-$fmt-batch7" "$cmd --batch 7"
    done
done
same out/characterize-csv out/characterize-bin "characterize csv/bin"

# The drive without a cache and the nearline zone table, each at
# --batch 1 and 7 against its own default-batch run.
run analyze-cache-off analyze --in id.csv --cache off
run analyze-nearline analyze --in id.csv --drive nearline
for opt in "--batch 1" "--batch 7"; do
    # shellcheck disable=SC2086
    "$tool" analyze --in id.csv --cache off $opt > d.txt ||
        fail "analyze --cache off $opt"
    same out/analyze-cache-off d.txt "analyze --cache off $opt"
    # shellcheck disable=SC2086
    "$tool" analyze --in id.csv --drive nearline $opt > d.txt ||
        fail "analyze --drive nearline $opt"
    same out/analyze-nearline d.txt "analyze --drive nearline $opt"
done

# --- corrupt, then recover ------------------------------------------

for mode in truncate bitflip garbage dup reorder; do
    run "corrupt-$mode" corrupt --in id.csv --out "bad_$mode.csv" \
        --mode "$mode" --seed 3 --count 5
    run "analyze-skip-$mode" analyze --in "bad_$mode.csv" \
        --on-corrupt skip
done

# --- family ---------------------------------------------------------

run family family --drives 8 --min-hours 100 --max-hours 200 \
    --out family.csv
cp family.csv out/family-file
cases="$cases family-file"

# --- fleet: thread count, --metrics and faults leave stdout alone ---

run fleet-threads1 fleet --preset mixed --drives 16 --threads 1 \
    --minutes 0.5
"$tool" fleet --preset mixed --drives 16 --threads 8 --minutes 0.5 \
    --metrics json --metrics-out m8.json > t8.txt 2>/dev/null ||
    fail "fleet --threads 8 --metrics json"
same out/fleet-threads1 t8.txt "fleet --threads 1/8"
python3 -c "import json, sys; json.load(open(sys.argv[1]))" m8.json ||
    fail "fleet --metrics-out m8.json is not one JSON object"

run fleet-threads4 fleet --preset mixed --drives 16 --threads 4 \
    --minutes 0.5
for opt in "--batch 1" "--batch 63"; do
    # shellcheck disable=SC2086
    "$tool" fleet --preset mixed --drives 16 --threads 4 --minutes 0.5 \
        $opt > f.txt 2>/dev/null || fail "fleet $opt"
    same out/fleet-threads4 f.txt "fleet $opt"
done

run fleet-degraded fleet --preset mixed --drives 16 --threads 1 \
    --minutes 0.5 --fault fleet.shard:mod=5 --retries 1
"$tool" fleet --preset mixed --drives 16 --threads 8 --minutes 0.5 \
    --fault fleet.shard:mod=5 --retries 1 > d8.txt 2>/dev/null ||
    fail "degraded fleet --threads 8"
same out/fleet-degraded d8.txt "degraded fleet --threads 1/8"

# --- --trace-out leaves stdout alone and writes complete spans ------

"$tool" analyze --in id.csv --trace-out trace_analyze.json > t.txt \
    2>/dev/null || fail "analyze --trace-out"
same out/analyze-csv t.txt "analyze --trace-out"
"$tool" fleet --preset mixed --drives 16 --threads 4 --minutes 0.5 \
    --trace-out trace_fleet.json > t.txt 2>/dev/null ||
    fail "fleet --trace-out"
same out/fleet-threads4 t.txt "fleet --threads 4 --trace-out"
python3 - trace_analyze.json trace_fleet.json <<'PY' ||
import json, sys
for path in sys.argv[1:]:
    events = json.load(open(path))["traceEvents"]
    assert events, path
    for e in events:
        assert {"ph", "name", "pid", "tid"} <= e.keys(), e
    complete = [e for e in events
                if e["ph"] == "X" and "ts" in e and "dur" in e]
    assert complete, f"{path}: no complete duration events"
PY
    fail "--trace-out files lack complete (X) duration events"

# --- analyze does not depend on thread scheduling -------------------

# A 20-minute trace (120 000 bins of 10 ms) crosses the burstiness
# finish's fan-out threshold: ten repeated runs, then --batch 1 and
# 7, must match the first.
"$tool" generate --class oltp --rate 20 --minutes 20 --seed 9 \
    --out long.csv > /dev/null || fail "generate long.csv"
"$tool" analyze --in long.csv > l_ref.txt || fail "analyze long.csv"
for n in 1 2 3 4 5 6 7 8 9 10; do
    "$tool" analyze --in long.csv > l.txt || fail "analyze long.csv"
    same l_ref.txt l.txt "analyze long.csv, repeat $n"
done
for opt in "--batch 1" "--batch 7"; do
    # shellcheck disable=SC2086
    "$tool" analyze --in long.csv $opt > l.txt ||
        fail "analyze long.csv $opt"
    same l_ref.txt l.txt "analyze long.csv $opt"
done

# --- run-report, bench-diff and help --------------------------------

run_masked run-report-analyze run-report --in id.csv
run_masked run-report-fleet run-report --drives 4 --threads 1 \
    --minutes 0.5
run bench-diff bench-diff "$src/BENCH_streaming.json" \
    "$src/BENCH_streaming.json"
run help help
for cmd in analyze bench-diff characterize convert corrupt family \
    fleet generate run-report serve stream top; do
    run "help-$cmd" help "$cmd"
done

# --- serve + stream: the daemon's report is characterize's ---------

"$tool" serve --port 0 --port-file port 2> serve.log &
server_pid=$!
i=0
while [ ! -s port ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "serve did not write its port file"
    kill -0 "$server_pid" 2>/dev/null || fail "serve died at startup"
    sleep 0.1
done
port="$(cat port)"
for fmt in csv bin; do
    run "stream-$fmt" stream --in "id.$fmt" --port "$port"
    same out/characterize-csv "out/stream-$fmt" "stream $fmt"
done
kill -TERM "$server_pid"
wait "$server_pid" || fail "serve exited nonzero after SIGTERM"
server_pid=""
grep -q "dlwd: drained, exiting" serve.log ||
    fail "serve did not drain on SIGTERM"

# --- the hashes -----------------------------------------------------

if [ "$record" = "--record" ]; then
    # shellcheck disable=SC2086
    (cd out && sha256sum $cases) > "$golden" || exit 1
    echo "check_cli_golden: recorded $(echo $cases | wc -w) cases" \
        "in $golden"
    exit 0
fi
[ -n "$record" ] && fail "unknown option '$record' (want --record)"

echo $cases | tr ' ' '\n' > cases.txt
awk '{ print $2 }' "$golden" > golden_cases.txt
same golden_cases.txt cases.txt "case list vs $golden"
(cd out && sha256sum -c --quiet "$golden") ||
    fail "stdout differs from $golden"
echo "check_cli_golden: $(wc -l < cases.txt) cases match"
