#!/bin/sh
# loc.sh — non-test, non-generated Go lines per package.
#
# Prints one "lines  package" row for every directory holding Go
# source (bench/ excluded: the benchmark harness is not the product)
# and a total, so simplicity PRs and ROADMAP quote line counts from a
# command instead of by hand. Lines are plain `wc -l` lines, comments
# and blanks included; *_test.go files and files carrying the standard
# "// Code generated ... DO NOT EDIT." header are skipped. Run from the
# repository root (make loc). Uses only sh, find, grep and wc.
set -eu

total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
    -exec dirname {} \; | sort -u); do
    n=0
    for f in "$dir"/*.go; do
        case $f in *_test.go) continue ;; esac
        if grep -qE '^// Code generated .* DO NOT EDIT\.$' "$f"; then
            continue
        fi
        n=$((n + $(wc -l <"$f")))
    done
    printf '%6d  %s\n' "$n" "${dir#./}"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
