#!/usr/bin/env bash
# Interleaved A/B of this checkout against a parent revision on one
# esbench workload — ROADMAP's ground rule as one command:
#
#   scripts/ab.sh PARENT_REV WORKLOAD [PAIRS]      (or: make ab PARENT=… WORKLOAD=… PAIRS=…)
#
# The parent is exported with `git archive` into .bench_build/ab-<rev>/ and
# both sides run the harness their own tree carries, unmodified:
# `bash cmd/esbench/run.sh --workload W --seed <pair> --seconds 20`. Pairs
# alternate which side goes first. Prints every run, then per end-to-end
# metric the medians, quartiles and how many pairs the change won.
set -euo pipefail
parent=${1:?usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS]}
workload=${2:?usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS]}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$parent^{commit}")
pdir="$root/.bench_build/ab-$rev"
if [ ! -d "$pdir" ]; then
	mkdir -p "$pdir"
	git -C "$root" archive "$rev" | tar -x -C "$pdir"
fi
out="$root/.bench_build/ab-$rev-$workload.tsv"
: >"$out"

# one SIDE DIR PAIR: run the workload once, append "pair side metric value" rows.
one() {
	local report
	report=$(cd "$2" && bash cmd/esbench/run.sh --workload "$workload" --seed "$3" --seconds 20 | tail -n 1) || true
	for m in randomize_s visits_per_s setup_s; do
		printf '%s\t%s\t%s\t%s\n' "$3" "$1" "$m" \
			"$(sed -n "s/.*\"$m\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$report")" >>"$out"
	done
	printf '%s\t%s\tfailed\t%s\n' "$3" "$1" "$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$report")" >>"$out"
	printf 'pair %2s %-6s %s\n' "$3" "$1" "$report"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		one parent "$pdir" "$i"
		one change "$root" "$i"
	else
		one change "$root" "$i"
		one parent "$pdir" "$i"
	fi
done

awk -F'\t' -v workload="$workload" -v rev="$rev" '
# quartile q of v[1..n] (sorted), the exclusive method esbench and Python statistics.quantiles use
function quart(v, n, q,    pos, lo, f) {
	pos = q * (n + 1) / 4; lo = int(pos); f = pos - lo
	if (lo < 1) return v[1]
	if (lo >= n) return v[n]
	return v[lo] + f * (v[lo + 1] - v[lo])
}
function summary(side, m,    n, v, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf("%-6s median %-10.6g quartiles %.6g .. %.6g (n=%d)", side, quart(v, n, 2), quart(v, n, 1), quart(v, n, 3), n)
}
$4 != "" { val[$1, $2, $3] = $4; if ($1 > pairs) pairs = $1 }
END {
	printf "\n%s: change vs parent %s, %d pairs\n", workload, rev, pairs
	split("randomize_s visits_per_s setup_s", ms, " ")
	for (k = 1; k <= 3; k++) {
		m = ms[k]; wins = 0; ties = 0; line = ""
		for (i = 1; i <= pairs; i++) {
			p = val[i, "parent", m]; c = val[i, "change", m]
			better = (m == "visits_per_s") ? (c > p) : (c < p)
			if (c == p) ties++; else if (better) wins++
			line = line sprintf(" %.4g/%.4g", p, c)
		}
		printf "\n%s  (parent/change per pair:%s)\n  %s\n  %s\n  change better in %d of %d pairs (%d ties)\n", m, line, summary("parent", m), summary("change", m), wins, pairs, ties
	}
	for (i = 1; i <= pairs; i++) { fp += val[i, "parent", "failed"]; fc += val[i, "change", "failed"] }
	printf "\nfailed operations: parent %d, change %d\n", fp, fc
}' "$out"
