#!/bin/sh
# `dlwtool analyze` on a corrupted trace must end in a Status (exit 0
# or 1), never a panic.  Every `corrupt` mode, on .csv and .bin, under
# each --on-corrupt policy, at fixed seeds.  Two of the seeds once
# panicked: `dup` seed 7 on .bin under clamp (a bad op byte on a
# zero-length record was repaired only halfway) and `bitflip` seed 3
# on .csv under skip (an LBA past the drive's capacity reached the
# disk model).
#
# Usage: scripts/check_corrupt_no_panic.sh DLWTOOL WORKDIR

set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 DLWTOOL WORKDIR" >&2
    exit 2
fi
tool="$1"
dir="$2"
mkdir -p "$dir" || exit 1

"$tool" generate --class oltp --rate 50 --minutes 2 --seed 3 \
    --out "$dir/s.bin" > /dev/null || exit 1
"$tool" convert --in "$dir/s.bin" --out "$dir/s.csv" > /dev/null ||
    exit 1

runs=0
bad=0
for ext in csv bin; do
    for mode in truncate bitflip garbage dup reorder; do
        # seed:count pairs
        for sc in 3:30 5:30 7:40; do
            seed=${sc%:*}
            count=${sc#*:}
            bad_in="$dir/c_${mode}_$seed.$ext"
            "$tool" corrupt --in "$dir/s.$ext" --out "$bad_in" \
                --mode "$mode" --seed "$seed" --count "$count" \
                > /dev/null || exit 1
            for policy in abort skip clamp; do
                runs=$((runs + 1))
                "$tool" analyze --in "$bad_in" --on-corrupt "$policy" \
                    > /dev/null 2> "$dir/err.txt"
                rc=$?
                if [ "$rc" -ge 128 ] || grep -q 'panic:' "$dir/err.txt"
                then
                    bad=$((bad + 1))
                    echo "error: analyze --on-corrupt $policy on" \
                         "$mode seed $seed .$ext exited $rc:" >&2
                    head -n 3 "$dir/err.txt" >&2
                fi
            done
        done
    done
done
if [ "$bad" -ne 0 ]; then
    echo "check_corrupt_no_panic: $bad of $runs runs panicked" >&2
    exit 1
fi
echo "check_corrupt_no_panic: OK ($runs runs, no panic)"
