#!/bin/sh
# Guard: `dlwtool analyze` must stay inside a fixed peak-RSS budget on
# one trace shape.  The default is the perfbench analyze-csv shape (a
# 2-hour OLTP trace at 100 req/s, about 721 k requests), where analyze
# peaks near 13.6 MiB: 4 B of response time per request in fixed
# chunks, the 720 000-bin count series, a busy profile folded as each
# busy interval closes, and no window-long centered copy of the
# series.  Keeping 8 B response ticks and the busy-interval list
# peaked at 19.5 MiB, the autocorrelation's centered copy and the
# response log's doubling regrowth at 27.5 MiB, and a 48 B completion
# record per request at 61 MiB, so a change that re-materializes
# per-request or window-long state trips the guard instead of
# landing.  The 7-day shape (RATE 1.19, MINUTES 10080, budget 500)
# pins the per-bin cost: 60.5 M bins peak near 478 MiB, 512 MiB with
# 8 B ticks and the busy list, and 958 MiB with the centered copy.
# The verdict compares the peak in KiB against B x 1024, so a budget
# of B passes peaks up to B MiB exactly.  The 2-hour budget of 15 sits
# about 1.6 MiB above the measured peak (13.2-13.4 MiB), and the
# 7-day budget of 500 about 22 MiB above it; both are below the peak
# of the 8 B-tick, busy-list design on the same shape, so that design
# fails both.  The 2-hour budget also fails a run whose sink leaves
# the busy intervals in the ServiceLog beside the fold (16.9 MiB),
# which changes no report byte.
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
budget="${3:-15}"
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
