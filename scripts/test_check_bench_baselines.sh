#!/bin/sh
# Self-test for check_bench_baselines.sh: in a scratch copy holding the
# CI workflow and the checked-in baselines, the lint must pass, and it
# must fail once any one gated baseline is deleted or left untracked.
#
# Usage: scripts/test_check_bench_baselines.sh [repo-root]

set -u
root=$(cd "${1:-$(dirname "$0")/..}" && pwd) || exit 2
lint="$root/scripts/check_bench_baselines.sh"
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/.github/workflows"
cp "$root/.github/workflows/ci.yml" "$work/.github/workflows/"
# The checked-in baselines; bench runs may leave untracked ones.
if git -C "$root" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    baselines=$(git -C "$root" ls-files 'BENCH_*.json')
else
    baselines=$(cd "$root" && ls BENCH_*.json)
fi
if [ -z "$baselines" ]; then
    echo "error: no BENCH_*.json baselines in $root" >&2
    exit 1
fi
for f in $baselines; do
    cp "$root/$f" "$work/" || exit 2
done

fail=0
expect() {
    want="$1"
    what="$2"
    sh "$lint" "$work" > /dev/null 2>&1
    rc=$?
    if [ "$rc" != "$want" ]; then
        echo "error: $what: lint exited $rc, want $want" >&2
        fail=1
    fi
}

# Outside git only presence is checked.
expect 0 "all baselines present"
for f in $baselines; do
    mv "$work/$f" "$work/$f.away"
    expect 1 "$f deleted"
    mv "$work/$f.away" "$work/$f"
done

# Inside git every baseline must also be tracked.
(cd "$work" && git init -q . && git add .) || exit 2
expect 0 "all baselines tracked"
for f in $baselines; do
    (cd "$work" && git rm -q --cached "$f") || exit 2
    expect 1 "$f untracked"
    (cd "$work" && git add "$f") || exit 2
done

if [ "$fail" != 0 ]; then
    echo "test_check_bench_baselines: FAILED" >&2
    exit 1
fi
echo "test_check_bench_baselines: OK ($(echo $baselines | wc -w) baselines)"
