#!/bin/sh
# Guard: `dlwtool analyze` must stay inside a fixed peak-RSS budget on
# one trace shape.  The default is the perfbench analyze-csv shape (a
# 2-hour OLTP trace at 100 req/s, about 721 k requests), where analyze
# peaks near 19.5 MiB: 8 B of response time per request in fixed
# chunks, the 720 000-bin count series, and no window-long centered
# copy of it.  The autocorrelation's centered copy and the response
# log's doubling regrowth peaked at 27.5 MiB, and keeping a 48 B
# completion record per request at 61 MiB, so a change that
# re-materializes per-request or window-long state trips the guard
# instead of landing.  The 7-day shape (RATE 1.19, MINUTES 10080,
# budget 560) pins the per-bin cost: 60.5 M bins peak near 512 MiB,
# and 958 MiB with the centered copy.
#
# Relies on dlwtool's own --max-rss-mb verdict (getrusage peak of the
# analyze process; the generator runs as a separate process).
# Sanitizer shadow memory dwarfs the budget: run it on plain builds.
#
# Usage: scripts/check_analyze_rss.sh DLWTOOL WORKDIR [budget-mb
#        [RATE MINUTES]]

set -u
if [ $# -lt 2 ] || [ $# -gt 5 ] || [ $# -eq 4 ]; then
    echo "usage: $0 DLWTOOL WORKDIR [budget-mb [RATE MINUTES]]" >&2
    exit 2
fi
tool="$1"
dir="$2"
budget="${3:-24}"
rate="${4:-100}"
minutes="${5:-120}"
mkdir -p "$dir" || exit 1
csv="$dir/analyze_rss.csv"

"$tool" generate --class oltp --rate "$rate" --minutes "$minutes" \
    --seed 1 --out "$csv" > /dev/null || exit 1
if ! "$tool" analyze --in "$csv" --max-rss-mb "$budget" > /dev/null; then
    echo "check_analyze_rss: FAILED (peak RSS over ${budget} MiB)" >&2
    exit 1
fi
echo "check_analyze_rss: OK (peak RSS within ${budget} MiB)"
