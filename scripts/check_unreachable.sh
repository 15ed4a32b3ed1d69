#!/bin/sh
# Reachability check: list the library functions that no product
# binary links, and fail on any that scripts/unreachable_allowlist.txt
# does not name.
#
# The products are dlwtool, every bench/ binary, every examples/
# binary and perfbench's dlw_probe (configured from perfbench/ as
# its own source dir, unedited).  They are built at -O0 with one
# section per function and linked with --gc-sections, so a function
# survives in a binary only if something in it calls (or takes the
# address of) that function; -O0 inlines nothing away.  A symbol that
# libdlw_*.a defines (nm type T or W) and that no product keeps is
# reported.  Instantiations inside std:: and __gnu_cxx are skipped:
# the libraries do not own them.  So are dlw_assert's message
# builders (dlw::detail::concat<...>): one is unreachable exactly when
# every function that asserts with it is, and those are reported.
#
# Allowlist lines read "<demangled symbol> # <reason>"; blank lines
# and lines starting with '#' are ignored.  A kept symbol must be a
# test oracle (a test checks a product path against it), a test hook
# or a test generator.
#
# Usage: sh scripts/check_unreachable.sh SRCDIR WORKDIR [JOBS]
# Takes a few minutes: it builds the libraries twice.

set -eu
LC_ALL=C
export LC_ALL
if [ $# -lt 2 ]; then
    echo "usage: $0 SRCDIR WORKDIR [JOBS]" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
work=$2
jobs=${3:-4}
allow="$src/scripts/unreachable_allowlist.txt"
mkdir -p "$work"
work=$(cd "$work" && pwd)

flags="-O0 -ffunction-sections -fdata-sections"
link="-Wl,--gc-sections"

configure() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" \
        >"$2.configure.log" 2>&1 ||
        { cat "$2.configure.log" >&2; exit 1; }
}

targets="dlwtool"
for f in "$src"/bench/bench_*.cc "$src"/examples/*.cc; do
    targets="$targets $(basename "$f" .cc)"
done

configure "$src" "$work/tree"
# shellcheck disable=SC2086
cmake --build "$work/tree" -j "$jobs" --target $targets \
    >"$work/tree.build.log" 2>&1 ||
    { tail -40 "$work/tree.build.log" >&2; exit 1; }
configure "$src/perfbench" "$work/perfbench"
cmake --build "$work/perfbench" -j "$jobs" --target dlw_probe \
    >"$work/perfbench.build.log" 2>&1 ||
    { tail -40 "$work/perfbench.build.log" >&2; exit 1; }

# Mangled names, so the std:: filter cannot match an argument type:
# St is std::, Sa/Sb/Ss/Si/So/Sd its abbreviated templates, and K, V,
# R and O qualify a nested member function.
is_foreign='^_Z(N[KVRO]*)?(S[tabsiod]|9__gnu_cxx)'

: >"$work/kept.raw"
for t in $targets; do
    bin=$(find "$work/tree" -type f -name "$t" -perm -u+x | head -n 1)
    if [ -z "$bin" ]; then
        echo "error: built binary $t not found" >&2
        exit 1
    fi
    nm --defined-only "$bin" | awk '{ print $3 }' >>"$work/kept.raw"
done
nm --defined-only "$work/perfbench/dlw_probe" | awk '{ print $3 }' \
    >>"$work/kept.raw"
sort -u "$work/kept.raw" >"$work/kept.txt"

find "$work/tree/src" -name 'libdlw_*.a' | sort | while read -r lib; do
    nm --defined-only "$lib" 2>/dev/null |
        awk '$2 == "T" || $2 == "W" { print $3 }'
done | grep -Ev "$is_foreign" | sort -u >"$work/defined.txt"

comm -23 "$work/defined.txt" "$work/kept.txt" | c++filt |
    grep -v ' dlw::detail::concat<' | sort -u >"$work/unreachable.txt"

: >"$work/allowed.txt"
if [ -f "$allow" ]; then
    grep -v '^#' "$allow" | grep -v '^[[:space:]]*$' |
        sed 's/ # .*$//' | sort -u >"$work/allowed.txt"
    # Every allowlist line must give its reason.
    missing=$(grep -v '^#' "$allow" | grep -v '^[[:space:]]*$' |
        grep -v ' # ' || true)
    if [ -n "$missing" ]; then
        echo "allowlist lines without a ' # reason':" >&2
        echo "$missing" >&2
        exit 1
    fi
fi

comm -23 "$work/unreachable.txt" "$work/allowed.txt" >"$work/new.txt"
stale=$(comm -13 "$work/unreachable.txt" "$work/allowed.txt")

n_unreach=$(wc -l <"$work/unreachable.txt")
n_new=$(wc -l <"$work/new.txt")
echo "check_unreachable: $n_unreach unreachable library symbols," \
     "$n_new not allowlisted"
if [ -n "$stale" ]; then
    echo "note: allowlisted but now reached (or gone); prune them:"
    echo "$stale" | sed 's/^/  /'
fi
if [ "$n_new" -ne 0 ]; then
    echo "symbols no product binary links (delete them, or allowlist" \
         "them with a reason):" >&2
    sed 's/^/  /' "$work/new.txt" >&2
    echo "check_unreachable: FAILED" >&2
    exit 1
fi
echo "check_unreachable: OK"
