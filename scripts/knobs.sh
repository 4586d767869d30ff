#!/bin/sh
# knobs.sh — independently settable values, one row per source.
#
# The companion of loc.sh: simplicity PRs promise "no new knobs", and
# this prints the count that promise is checked against. A knob is
#
#   - an exported field of an exported Config, Options, Quotas,
#     *Policy or *Plan struct in non-test Go (bench/ excluded: the
#     benchmark harness is not the product); `A, B int` counts two,
#   - a flag.* definition (flag.Int, flag.StringVar, flag.Func, ...)
#     under cmd/ or examples/,
#   - an os.Getenv / os.LookupEnv read anywhere outside bench/, tests
#     included.
#
# Rows are "count  source"; the last row is the total. Run from the
# repository root (make knobs). Uses only sh, find, sort and awk.
set -eu

{
    find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort |
        while read -r f; do
            awk -v file="${f#./}" '
                /^type (Config|Options|Quotas|([A-Z][A-Za-z0-9]*)?(Policy|Plan)) struct \{/ {
                    name = $2; n = 0; in_struct = 1; next
                }
                in_struct && /^}/ {
                    printf "%6d  %s %s\n", n, file, name; in_struct = 0; next
                }
                # A field line: one tab, then exported names up to the type.
                in_struct && /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z][A-Za-z0-9_]*)* / {
                    names = $0; sub(/^\t/, "", names)
                    sub(/ [^,].*$/, "", names)
                    k = split(names, parts, /, /)
                    for (i = 1; i <= k; i++) if (parts[i] ~ /^[A-Z]/) n++
                }
            ' "$f"
        done

    find cmd examples -name '*.go' ! -name '*_test.go' | sort |
        while read -r f; do
            awk -v file="$f" '
                { n += gsub(/flag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Var|Func|BoolFunc|TextVar)\(/, "&") }
                END { if (n) printf "%6d  %s flags\n", n, file }
            ' "$f"
        done

    find . -name '*.go' ! -path './bench/*' | sort |
        while read -r f; do
            awk -v file="${f#./}" '
                { n += gsub(/os\.(Getenv|LookupEnv)\(/, "&") }
                END { if (n) printf "%6d  %s env\n", n, file }
            ' "$f"
        done
} | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
