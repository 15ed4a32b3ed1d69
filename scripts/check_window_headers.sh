#!/bin/sh
# A trace header whose observation window cannot be binned (its bin
# count or its end overflows a 64-bit tick) must fail `dlwtool
# analyze` and `dlwtool characterize` with exit 1 and a message, not
# a crash.  Checked for .csv and .bin inputs, each with the window
# [0, 2^63 - 1) and [1000, 1000 + 2^63 - 1).
#
# Usage: scripts/check_window_headers.sh DLWTOOL WORKDIR

set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 DLWTOOL WORKDIR" >&2
    exit 2
fi
tool="$1"
dir="$2"
mkdir -p "$dir" || exit 1

max=9223372036854775807
# 2^63 - 1 and 1000 as little-endian int64s.
max_le='\377\377\377\377\377\377\377\177'
zero_le='\000\000\000\000\000\000\000\000'
k_le='\350\003\000\000\000\000\000\000'

for start in 0 1000; do
    printf '# dlw-ms-v1,x,%s,%s\narrival_ns,lba,blocks,op\n%s,0,8,R\n' \
        "$start" "$max" "$start" > "$dir/w$start.csv"
    if [ "$start" = 0 ]; then start_le=$zero_le; else start_le=$k_le; fi
    # DLWMS1 magic, a one-byte drive id, the window, zero records.
    printf "DLWMS1\\000\\000\\001\\000\\000\\000x$start_le$max_le$zero_le" \
        > "$dir/w$start.bin"
done

fail=0
for f in w0.csv w1000.csv w0.bin w1000.bin; do
    for cmd in analyze characterize; do
        "$tool" "$cmd" --in "$dir/$f" > "$dir/out.txt" 2> "$dir/err.txt"
        rc=$?
        if [ "$rc" != 1 ]; then
            echo "error: $cmd on $f exited $rc, want 1" >&2
            cat "$dir/err.txt" >&2
            fail=1
        elif ! grep -q 'CorruptData' "$dir/err.txt"; then
            echo "error: $cmd on $f gave no CorruptData message:" >&2
            cat "$dir/err.txt" >&2
            fail=1
        fi
    done
done
[ "$fail" = 0 ] || exit 1
echo "check_window_headers: OK (csv, bin; analyze, characterize)"
