#!/usr/bin/env bash
# Alternated parent/change pairs of one flexbench workload — the comparison
# every performance entry in CHANGES.md reports. The parent is PARENT's tree
# extracted with `git archive`, the change is this working tree, and each side
# builds and runs through its own bench/run.sh. The parent runs first on odd
# pairs and the change on even ones; single runs differ by several percent on
# a shared box, pairs taken back to back mostly do not.
#
#   scripts/pairs.sh PARENT WORKLOAD [SEED] [PAIRS] [SECONDS]
#   make pairs PARENT=<rev> WORKLOAD=<name> SEED=<n> PAIRS=<n> RUN_SECONDS=<n>
#
# One row per pair (op_us, alloc_mb, setup_s, failed operations and the
# fingerprint, parent/change), then per metric both medians, the parent's
# interquartile range and how many pairs the change won. Exits 1 if the two
# sides ever print different fingerprints: then they did not do the same work
# and the timings compare nothing.
#
# PARENT_DIR, when set, names a checkout of PARENT to use as it is (a clone or
# an unpacked `git archive`); nothing is extracted or removed then.
set -euo pipefail

parent=${1:?usage: pairs.sh PARENT WORKLOAD [SEED] [PAIRS] [SECONDS]}
workload=${2:?usage: pairs.sh PARENT WORKLOAD [SEED] [PAIRS] [SECONDS]}
seed=${3:-1}
pairs=${4:-10}
seconds=${5:-10}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

if [[ -n ${PARENT_DIR:-} ]]; then
	pdir=$PARENT_DIR
else
	pdir=$(mktemp -d "${TMPDIR:-/tmp}/flex-pairs.XXXXXX")
	trap 'rm -rf "$pdir"' EXIT
	git -C "$here" archive "$parent" | tar -x -C "$pdir"
fi

# run DIR prints "op_us alloc_mb setup_s failed fingerprint" of one run. A run
# with failed operations exits non-zero but still reports, and its row counts
# them; a run that reports nothing stops the script.
run() {
	local out
	out=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
		sed -n 's/^flexbench-result //p') || true
	if [[ -z $out ]]; then
		echo "pairs.sh: no flexbench result from $1" >&2
		return 2
	fi
	sed -E 's/.*"fingerprint":"([0-9a-f]+)".*"failed":([0-9]+).*"alloc_mb":\{"value":([^,]+),.*"op_us":\{"value":([^,]+),.*"setup_s":\{"value":([^,]+),.*/\4 \3 \5 \2 \1/' <<<"$out"
}

# Go runs on GOMAXPROCS threads when it is set and on every CPU the process
# may use (what nproc counts) when it is not.
cpus=$(nproc)
printf 'pairs of %s at seed %s, %ss a run: parent %s / change (working tree)\n' "$workload" "$seed" "$seconds" "$parent"
printf 'on %s CPUs (nproc), GOMAXPROCS %s\n' "$cpus" "${GOMAXPROCS:-$cpus}"
printf '%4s  %21s  %21s  %23s  %6s  %s\n' pair op_us alloc_mb setup_s failed fingerprint
rows=
status=0
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		p=$(run "$pdir")
		c=$(run "$here")
	else
		c=$(run "$here")
		p=$(run "$pdir")
	fi
	read -r pop pal pse pfa pfp <<<"$p"
	read -r cop cal cse cfa cfp <<<"$c"
	printf '%4d  %10.3f/%-10.3f  %10.3f/%-10.3f  %11.5f/%-11.5f  %3d/%-3d  %s/%s\n' \
		"$i" "$pop" "$cop" "$pal" "$cal" "$pse" "$cse" "$pfa" "$cfa" "$pfp" "$cfp"
	rows+="$pop $cop $pal $cal $pse $cse"$'\n'
	if [[ $pfp != "$cfp" ]]; then
		echo "pair $i: fingerprints differ ($pfp / $cfp): the two sides did different work" >&2
		status=1
	fi
done

# Medians and quartiles by linear interpolation between order statistics.
col=1
for metric in op_us alloc_mb setup_s; do
	awk -v m="$metric" -v a="$col" '
		function q(v, n, f,   h, lo) { h = (n - 1) * f + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		function sorted(v, n,   i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
		{ p[NR] = $a; c[NR] = $(a + 1); if ($(a + 1) < $a) wins++ }
		END {
			sorted(p, NR); sorted(c, NR)
			printf "%-8s  median %.4g / %.4g (%.3fx)  parent IQR %.4g..%.4g  change IQR %.4g..%.4g  change lower in %d of %d\n",
				m, q(p, NR, .5), q(c, NR, .5), q(p, NR, .5) ? q(c, NR, .5) / q(p, NR, .5) : 0,
				q(p, NR, .25), q(p, NR, .75), q(c, NR, .25), q(c, NR, .75), wins, NR
		}' <<<"${rows%$'\n'}"
	col=$((col + 2))
done
exit $status
