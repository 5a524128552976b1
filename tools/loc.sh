#!/bin/sh
# ROADMAP's size metric: non-test source lines of the three crates that
# hold the scheme, the engine and the experiment harness — every line of
# crates/{sphincs,core,bench}/src/**/*.rs up to the file's first top-level
# `#[cfg(test)]` (its `mod tests`). Run from anywhere; prints one line per
# crate and a total.
set -eu
cd "$(dirname "$0")/.."
total=0
for crate in sphincs core bench; do
    lines=$(find "crates/$crate/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' {} +)
    printf '%-8s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
