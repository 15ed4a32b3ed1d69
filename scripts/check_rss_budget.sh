#!/bin/sh
# CI guard: the streaming fleet pipeline must stay inside a fixed
# peak-RSS budget.  The run is sized so materializing each shard's
# trace and completion vector needs well over the budget — the
# deleted materializing fleet path peaked at ~3x the streamed figure
# on this shape (EXPERIMENTS.md M5) — so a regression that quietly
# re-materializes per-shard state trips the guard instead of landing.
#
# Relies on dlwtool's own --max-rss-mb verdict (getrusage peak), so
# the budget covers the whole process, not just the fleet stage.
#
# Usage: scripts/check_rss_budget.sh [repo-root] [dlwtool] [budget-mb]

set -u
root="${1:-$(dirname "$0")/..}"
tool="${2:-build/tools/dlwtool}"
budget="${3:-24}"
cd "$root" || exit 2

if [ ! -x "$tool" ]; then
    echo "check_rss_budget: $tool not built" >&2
    exit 2
fi

if ! "$tool" fleet --drives 16 --threads 4 --rate 120 --minutes 10 \
        --max-rss-mb "$budget" > /dev/null; then
    echo "check_rss_budget: FAILED (peak RSS over ${budget} MiB)" >&2
    exit 1
fi
echo "check_rss_budget: OK (peak RSS within ${budget} MiB)"
