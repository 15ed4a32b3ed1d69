#!/bin/sh
# Guard: `dlwtool analyze` must stay inside a fixed peak-RSS budget on
# the perfbench analyze-csv shape (a 2-hour OLTP trace, about 721 k
# requests).  analyze keeps 8 B of response time per request and
# peaks near 32 MiB here; keeping a 48 B completion record per request
# peaked at 61 MiB, so a change that re-materializes per-request state
# trips the guard instead of landing.
#
# Relies on dlwtool's own --max-rss-mb verdict (getrusage peak of the
# analyze process; the generator runs as a separate process).
# Sanitizer shadow memory dwarfs the budget: run it on plain builds.
#
# Usage: scripts/check_analyze_rss.sh DLWTOOL WORKDIR [budget-mb]

set -u
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 DLWTOOL WORKDIR [budget-mb]" >&2
    exit 2
fi
tool="$1"
dir="$2"
budget="${3:-44}"
mkdir -p "$dir" || exit 1
csv="$dir/analyze_rss.csv"

"$tool" generate --class oltp --rate 100 --minutes 120 --seed 1 \
    --out "$csv" > /dev/null || exit 1
if ! "$tool" analyze --in "$csv" --max-rss-mb "$budget" > /dev/null; then
    echo "check_analyze_rss: FAILED (peak RSS over ${budget} MiB)" >&2
    exit 1
fi
echo "check_analyze_rss: OK (peak RSS within ${budget} MiB)"
