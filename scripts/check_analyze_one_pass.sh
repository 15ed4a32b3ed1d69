#!/bin/sh
# `dlwtool analyze` on a sorted .csv trace must decode the file exactly
# once: its metrics snapshot reports ingest.passes 1 and
# ingest.records_read equal to the trace's request count.
#
# Usage: scripts/check_analyze_one_pass.sh DLWTOOL WORKDIR

set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 DLWTOOL WORKDIR" >&2
    exit 2
fi
tool="$1"
dir="$2"
mkdir -p "$dir" || exit 1
csv="$dir/one_pass.csv"
json="$dir/one_pass_metrics.json"

out=$("$tool" generate --class oltp --rate 50 --minutes 1 --seed 9 \
      --out "$csv") || exit 1
n=$(printf '%s\n' "$out" | sed -n 's/^wrote \([0-9]*\) requests.*/\1/p')
"$tool" analyze --in "$csv" --metrics json --metrics-out "$json" \
    > /dev/null || exit 1

value() {
    grep -o "\"$1\":{[^}]*}" "$json" | sed 's/.*"value":\([0-9]*\).*/\1/'
}
passes=$(value ingest.passes)
records=$(value ingest.records_read)
if [ "$passes" != 1 ] || [ "$records" != "$n" ]; then
    echo "error: analyze read $records records in $passes pass(es);" \
         "want $n records in 1 pass" >&2
    exit 1
fi
echo "check_analyze_one_pass: OK ($n records, 1 pass)"
