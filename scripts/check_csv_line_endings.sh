#!/bin/sh
# `dlwtool analyze` must print the same report for a CSV trace however
# its lines end or are padded: CRLF endings, no final newline, and
# blank lines, whitespace-only lines and spaces or tabs around fields
# all decode to the records of the .bin twin.
#
# Usage: scripts/check_csv_line_endings.sh DLWTOOL WORKDIR

set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 DLWTOOL WORKDIR" >&2
    exit 2
fi
tool="$1"
dir="$2"
mkdir -p "$dir" || exit 1

"$tool" generate --class oltp --rate 50 --minutes 2 --seed 11 \
    --out "$dir/le.bin" > /dev/null || exit 1
"$tool" convert --in "$dir/le.bin" --out "$dir/le.csv" > /dev/null ||
    exit 1
"$tool" analyze --in "$dir/le.bin" > "$dir/le_bin.txt" || exit 1

# CRLF on every line, the header lines included.
awk '{ printf "%s\r\n", $0 }' "$dir/le.csv" > "$dir/le_crlf.csv"
# The last record without its newline.
awk 'NR > 1 { printf "\n" } { printf "%s", $0 }' "$dir/le.csv" \
    > "$dir/le_nofinal.csv"
# Records padded around every field, with blank and whitespace-only
# lines between them.
awk 'NR <= 2 { print; next }
     { gsub(/,/, " ,\t"); print "  " $0 " \t" }
     NR % 5 == 0 { print "" }
     NR % 7 == 0 { print " \t " }' "$dir/le.csv" > "$dir/le_blank.csv"

fail=0
for variant in crlf nofinal blank; do
    out="$dir/le_$variant.txt"
    if ! "$tool" analyze --in "$dir/le_$variant.csv" > "$out"; then
        echo "error: analyze failed on the $variant variant" >&2
        fail=1
    elif ! cmp "$dir/le_bin.txt" "$out"; then
        echo "error: the $variant variant's report differs from" \
             "the .bin twin's" >&2
        fail=1
    fi
done
[ "$fail" = 0 ] || exit 1
echo "check_csv_line_endings: OK (crlf, nofinal, blank)"
