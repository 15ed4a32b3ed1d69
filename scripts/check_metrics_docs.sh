#!/bin/sh
# Lint: every metric registered in src/ must be documented in
# docs/METRICS.md.  The registry makes metrics discoverable at
# runtime; this check makes the reference doc keep up, so the doc is
# trustworthy as the complete list.
#
# Relies on the repo convention that the metric-name literal sits on
# the same line as the obs::counter( / obs::gauge( / obs::histogram(
# registration call.
#
# Timeline event names follow the same rule: every
# obs::emitInstant("name") / obs::emitCounter("name", ...) site in
# src/ must keep the literal on the call line and be documented in
# the same doc, so the trace-viewer vocabulary is as trustworthy as
# the metric list.
#
# Span names follow it too, in both directions: every literal name
# passed to an obs::ScopedSpan in src/ or tools/ (a local
# `obs::ScopedSpan x("name")` or a ScopedSpan member initialized as
# `span_("name")`) must head a line of the doc's span-tree block, and
# every name heading a line there must still be such a literal.
#
# Usage: scripts/check_metrics_docs.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

doc="docs/METRICS.md"
if [ ! -f "$doc" ]; then
    echo "error: $doc does not exist" >&2
    echo "check_metrics_docs: FAILED" >&2
    exit 1
fi

names=$(grep -rhoE 'obs::(counter|gauge|histogram)\("[^"]+"' src \
        | sed 's/.*("//; s/"$//' | sort -u)

if [ -z "$names" ]; then
    echo "error: found no registered metrics under src/" >&2
    echo "check_metrics_docs: FAILED" >&2
    exit 1
fi

events=$(grep -rhoE 'obs::(emitInstant|emitCounter)\("[^"]+"' src \
         | sed 's/.*("//; s/"$//' | sort -u)

if [ -z "$events" ]; then
    echo "error: found no timeline event emissions under src/" >&2
    echo "check_metrics_docs: FAILED" >&2
    exit 1
fi

spans=$(grep -rhoE '(ScopedSpan [A-Za-z_]+|span_)\("[^"]+"' src tools \
        | sed 's/.*("//; s/"$//' | sort -u)

if [ -z "$spans" ]; then
    echo "error: found no ScopedSpan names under src/ or tools/" >&2
    echo "check_metrics_docs: FAILED" >&2
    exit 1
fi

# The first token of every line in the fenced block under "## Span
# tree".
tree=$(awk '/^## Span tree/ { sect = 1; next }
            sect && /^```/ { if (inblk) exit; inblk = 1; next }
            inblk && NF { print $1 }' "$doc" | sort -u)

bad=0
for name in $spans; do
    if ! printf '%s\n' "$tree" | grep -qxF -- "$name"; then
        echo "error: span '$name' is opened in src/ or tools/ but" \
             "missing from the span tree in $doc" >&2
        bad=1
    fi
done

for name in $tree; do
    if ! printf '%s\n' "$spans" | grep -qxF -- "$name"; then
        echo "error: span '$name' is in the span tree in $doc but no" \
             "ScopedSpan in src/ or tools/ opens it" >&2
        bad=1
    fi
done

for name in $names; do
    if ! grep -q "\`$name\`" "$doc"; then
        echo "error: metric '$name' is registered in src/ but not" \
             "documented in $doc" >&2
        bad=1
    fi
done

for name in $events; do
    if ! grep -q "\`$name\`" "$doc"; then
        echo "error: timeline event '$name' is emitted in src/ but" \
             "not documented in $doc" >&2
        bad=1
    fi
done

# Reverse direction for the service-layer vocabulary: every net.* /
# daemon.* name the doc claims must still be registered or emitted
# in src/, so renaming a daemon metric cannot leave the doc
# describing counters that no longer exist.
documented=$(grep -hoE '`(net|daemon|qos)\.[a-z0-9._]+`' "$doc" \
             | tr -d '\`' | sort -u)
known=" $(printf '%s\n%s' "$names" "$events" | tr '\n' ' ') "
for name in $documented; do
    case "$known" in
        *" $name "*) ;;
        *)
            echo "error: '$name' is documented in $doc but neither" \
                 "registered nor emitted anywhere under src/" >&2
            bad=1
            ;;
    esac
done

if [ "$bad" != 0 ]; then
    echo "check_metrics_docs: FAILED" >&2
    exit 1
fi
echo "check_metrics_docs: OK ($(echo "$names" | wc -l) metrics," \
     "$(echo "$events" | wc -l) timeline events," \
     "$(echo "$spans" | wc -l) spans)"
