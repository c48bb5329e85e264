#!/usr/bin/env bash
# Non-test Go code lines per package: lines of non-_test.go files that are
# neither blank nor comment-only, testdata/ and dot-directories excluded.
#
#   scripts/loc.sh [BASE]
#   make loc [BASE=<rev>]
#
# Without BASE, one row per package of the working tree, then the total. With
# BASE, that revision is extracted with `git archive` and compared with the
# working tree: base, now and delta for every package whose count changed,
# then the totals (so BASE=HEAD on a clean tree prints a zero total only).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export LC_ALL=C

# count DIR prints "package lines" for every package under DIR, sorted.
count() {
	(cd "$1" && find . -path './.*' -prune -o -name testdata -prune -o -name '*.go' ! -name '*_test.go' -print0 |
		xargs -0 awk '
			FNR == 1 { inblock = 0 }
			{ line = $0; gsub(/^[ \t]+|[ \t\r]+$/, "", line) }
			inblock { if (index(line, "*/")) inblock = 0; next }
			line == "" || line ~ /^\/\// { next }
			line ~ /^\/\*/ { if (!index(line, "*/")) inblock = 1; next }
			{ pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/^\.\/?/, "", pkg); n[pkg == "" ? "." : pkg]++ }
			END { for (p in n) print p, n[p] }' | sort)
}

if [[ $# -eq 0 ]]; then
	count "$here" | awk '{ t += $2; printf "%-36s %7d\n", $1, $2 } END { printf "%-36s %7d\n", "total", t }'
	exit
fi

base=$(mktemp -d "${TMPDIR:-/tmp}/flex-loc.XXXXXX")
trap 'rm -rf "$base"' EXIT
git -C "$here" archive "$1" | tar -x -C "$base"
printf '%-36s %7s %7s %7s\n' package base now delta
join -a1 -a2 -e0 -o 0,1.2,2.2 <(count "$base") <(count "$here") |
	awk '{ b += $2; n += $3; if ($2 != $3) printf "%-36s %7d %7d %+7d\n", $1, $2, $3, $3 - $2 }
		END { printf "%-36s %7d %7d %+7d\n", "total", b, n, n - b }'
