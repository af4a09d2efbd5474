#!/bin/sh
# Net line count of a change: lines added, removed and net from
# `git diff --numstat BASE` (the working tree against BASE), over the
# program directories crates/ src/ scripts/ examples/, with tests/ on its
# own line, then the total over all five. New files count once staged.
#
#   sh scripts/netlines.sh BASE
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/netlines.sh BASE" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

git diff --numstat "$1" -- crates/ src/ tests/ scripts/ examples/ | awk '
    # Binary files report "-" for both counts and are skipped.
    $1 == "-" { next }
    {
        k = ($3 ~ /^tests\//) ? "tests" : "program"
        add[k] += $1; del[k] += $2
    }
    function row(name, a, d) { printf "%-8s +%d -%d net %+d\n", name, a, d, a - d }
    END {
        row("program", add["program"], del["program"])
        row("tests", add["tests"], del["tests"])
        row("total", add["program"] + add["tests"], del["program"] + del["tests"])
    }
'
