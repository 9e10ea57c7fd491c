#!/bin/sh
# netlines.sh — added, removed and net non-test Go lines per package
# between a base revision and HEAD.
#
# Usage:
#   scripts/netlines.sh <base>     # e.g. scripts/netlines.sh origin/main
#
# Test files (*_test.go) and testdata/ trees are excluded, so the count
# is the program's own code. Packages are named by directory ("." is
# the root package); a renamed file counts as removed and re-added.

set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: $0 <base>" >&2
	exit 2
fi

git diff --numstat --no-renames "$1" HEAD -- '*.go' |
	awk -F '\t' '
	$3 ~ /_test\.go$/ || $3 ~ /(^|\/)testdata\// { next }
	{
		pkg = $3
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		add[pkg] += $1
		del[pkg] += $2
		ta += $1
		td += $2
	}
	END {
		printf "%-24s %8s %8s %8s\n", "package", "added", "removed", "net"
		for (p in add)
			printf "%-24s %8d %8d %+8d\n", p, add[p], del[p], add[p] - del[p] | "sort"
		close("sort")
		printf "%-24s %8d %8d %+8d\n", "total", ta, td, ta - td
	}'
