#!/bin/sh
# chaos-rate.sh — failures per TestChaosGate profile over N runs.
#
# Runs cmd/hsbench's TestChaosGate N times (N=100 by default; RACE=1
# adds -race) and prints one "profile  failed/runs" row per fault
# profile, so a flake rate is quoted from a command. It reports and
# does not gate: the exit status is 0 whatever failed. Run from the
# repository root (make chaos-rate N=200 RACE=1).
set -u

go=${GO:-go}
n=${N:-100}
race=
if [ "${RACE:-}" = 1 ]; then
    race=-race
fi
out=$($go test $race ./cmd/hsbench -run 'TestChaosGate$' -count="$n" -v 2>&1)
profiles=$(printf '%s\n' "$out" |
    sed -n 's/^ *--- [A-Z]*: TestChaosGate\/\([^ ]*\) .*/\1/p' | sort -u)
if [ -z "$profiles" ]; then
    printf '%s\n' "$out"
    exit 0
fi
for p in $profiles; do
    runs=$(printf '%s\n' "$out" | grep -c "^ *--- [A-Z]*: TestChaosGate/$p ")
    failed=$(printf '%s\n' "$out" | grep -c "^ *--- FAIL: TestChaosGate/$p ")
    printf '%-8s %d/%d failed\n' "$p" "$failed" "$runs"
done
