#!/bin/sh
# Run a command that must be rejected as a usage error: it must exit 2
# and print PATTERN (a grep basic regex) on stderr.  Used by ctest to
# pin flags that were removed from dlwtool.
#
# Usage: scripts/expect_usage_error.sh PATTERN command [args...]

set -u
if [ $# -lt 2 ]; then
    echo "usage: $0 PATTERN command [args...]" >&2
    exit 2
fi
pattern="$1"
shift

err=$("$@" 2>&1 > /dev/null)
rc=$?
if [ "$rc" != 2 ]; then
    echo "error: expected exit 2, got $rc from: $*" >&2
    exit 1
fi
if ! printf '%s\n' "$err" | grep -q -- "$pattern"; then
    echo "error: stderr lacks '$pattern' from: $*" >&2
    printf '%s\n' "$err" >&2
    exit 1
fi
echo "expect_usage_error: OK (exit 2, '$pattern')"
