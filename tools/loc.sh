#!/bin/sh
# ROADMAP's size metric: non-test source lines of the three crates that
# hold the scheme, the engine and the experiment harness — every line of
# crates/{sphincs,core,bench}/src/**/*.rs up to the file's first top-level
# `#[cfg(test)]` (its `mod tests`). Run from anywhere; prints one line per
# crate and a total, then, counted the same way, the network server and
# the worker pool, which `total` leaves out so earlier figures still
# compare, and `all`: the five crates together. Last, `unsafe`: the
# `unsafe` fns, blocks and impls of hero-sphincs, on the same lines and
# outside comments, then one `unsafe <file> <n>` line for each of its
# files that has any.
set -eu
cd "$(dirname "$0")/.."
# Non-test lines of the .rs files under crates/$1/src, or of the file
# $1; with a second argument, the `unsafe` fns, blocks and impls on them
# instead.
count() {
    src="crates/$1/src"
    [ -f "$1" ] && src=$1
    find "$src" -name '*.rs' -exec awk -v unsafe="${2:-}" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting { next }
        !unsafe { n++; next }
        !/^[[:space:]]*\/\// {
            n += gsub(/(^|[^[:alnum:]_])unsafe[[:space:]]+(fn|impl|\{)/, "&")
        }
        END { print n + 0 }' {} +
}
total=0
for crate in sphincs core bench; do
    lines=$(count "$crate")
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
all=$total
for crate in server task-graph; do
    lines=$(count "$crate")
    printf '%-10s %6d\n' "$crate" "$lines"
    all=$((all + lines))
done
printf '%-10s %6d\n' all "$all"
printf '%-10s %6d\n' unsafe "$(count sphincs unsafe)"
for file in crates/sphincs/src/*.rs; do
    sites=$(count "$file" unsafe)
    [ "$sites" -eq 0 ] || printf 'unsafe %s %d\n' "$file" "$sites"
done
