#!/usr/bin/env bash
# Interleaved A/B of this checkout against a parent revision — ROADMAP's
# ground rule as one command:
#
#   scripts/ab.sh PARENT_REV WORKLOAD [PAIRS]      (or: make ab PARENT=… WORKLOAD=… PAIRS=…)
#
# The parent is exported with `git archive` into .bench_build/ab-<rev>/;
# every other export and table under .bench_build/ is removed at start.
# The change side is snapshotted once, at the start: its tracked and
# untracked, non-ignored files are written as a git tree (through a
# scratch index, so the real index and the refs are untouched) and
# exported into .bench_build/ab-change-<tree>/, and every change-side run
# uses that copy, so an edit made during the A/B cannot mix two trees in
# one table. Both sides run the harness their own tree carries,
# unmodified: `bash cmd/esbench/run.sh --workload W --seed <pair>
# --seconds 20`. Pairs alternate which side goes first. PAIRS pairs run
# on WORKLOAD, the claim, then 3 sanity pairs on each other workload
# BENCHMARK.json names. Prints every run, then per workload and
# end-to-end metric the medians, quartiles, how many pairs the change
# won, and the parent's interquartile range as a % of its median. The
# claim alone also gets a verdict: "met" when the change wins at least 9
# pairs in 10 (ties count for neither side) and its median beats the
# parent's by more than the parent's interquartile range, "not met"
# otherwise. A sanity row whose median difference is smaller than that
# range is labelled "inside parent spread". A run that prints no report
# is counted per side and left out of the pairs, medians and quartiles.
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
idx=$(mktemp)
cp "$(git -C "$root" rev-parse --absolute-git-dir)/index" "$idx" 2>/dev/null || : >"$idx"
GIT_INDEX_FILE=$idx git -C "$root" add -A
tree=$(GIT_INDEX_FILE=$idx git -C "$root" write-tree)
rm -f "$idx"
snap=${tree:0:12}
cdir="$root/.bench_build/ab-change-$snap"
if [ ! -d "$cdir" ]; then
	mkdir -p "$cdir"
	git -C "$root" archive "$tree" | tar -x -C "$cdir"
fi
# Each export carries its own build cache (~60 MB): keep only this
# invocation's parent and change exports and the parent's tables.
for d in "$root"/.bench_build/ab-* "$root"/.bench_build/profile-*; do
	case "$d" in "$pdir" | "$cdir" | "$pdir"-*.tsv) ;; *) rm -rf "$d" ;; esac
done
printf 'change snapshot %s (%s) vs parent %s\n' "$snap" "$cdir" "$rev"

# one W SIDE DIR PAIR: run workload W once, append "pair side metric value"
# rows to W's table.
one() {
	local report out="$root/.bench_build/ab-$rev-$1.tsv"
	report=$(cd "$3" && bash cmd/esbench/run.sh --workload "$1" --seed "$4" --seconds 20 | tail -n 1) || true
	for m in randomize_s visits_per_s setup_s; do
		printf '%s\t%s\t%s\t%s\n' "$4" "$2" "$m" \
			"$(sed -n "s/.*\"$m\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$report")" >>"$out"
	done
	printf '%s\t%s\tfailed\t%s\n' "$4" "$2" "$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$report")" >>"$out"
	printf '%-18s pair %2s %-6s %s\n' "$1" "$4" "$2" "$report"
}

# ab W PAIRS VERDICT: run PAIRS interleaved pairs of workload W, then
# summarize them; VERDICT 1 adds the claim verdict.
ab() {
	: >"$root/.bench_build/ab-$rev-$1.tsv"
	for ((i = 1; i <= $2; i++)); do
		if ((i % 2)); then
			one "$1" parent "$pdir" "$i"
			one "$1" change "$cdir" "$i"
		else
			one "$1" change "$cdir" "$i"
			one "$1" parent "$pdir" "$i"
		fi
	done
	summarize "$1" "$3"
}

summarize() {
	awk -F'\t' -v workload="$1" -v rev="$rev" -v snap="$snap" -v verdict="$2" '
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
	if (n == 0) return sprintf("%-6s no runs reported", side)
	med[side] = quart(v, n, 2); iqr[side] = quart(v, n, 3) - quart(v, n, 1)
	return sprintf("%-6s median %-10.6g quartiles %.6g .. %.6g (n=%d)", side, med[side], quart(v, n, 1), quart(v, n, 3), n)
}
# A run that printed no report leaves its values empty: it is never stored,
# so it counts in no pair and no summary, only in the "no report" line.
{ if ($1 > pairs) pairs = $1 }
$4 != "" { val[$1, $2, $3] = $4 }
$3 == "randomize_s" && $4 == "" { noreport[$2]++ }
# cell formats one side of a pair, "-" when that run gave no report.
function cell(i, side, m) { return ((i, side, m) in val) ? sprintf("%.4g", val[i, side, m]) : "-" }
END {
	printf "\n%s: change %s vs parent %s, %d pairs\n", workload, snap, rev, pairs
	printf "runs with no report: parent %d, change %d\n", noreport["parent"], noreport["change"]
	split("randomize_s visits_per_s setup_s", ms, " ")
	for (k = 1; k <= 3; k++) {
		m = ms[k]; wins = 0; ties = 0; n = 0; line = ""
		for (i = 1; i <= pairs; i++) {
			line = line " " cell(i, "parent", m) "/" cell(i, "change", m)
			if (!((i, "parent", m) in val) || !((i, "change", m) in val)) continue
			n++; p = val[i, "parent", m]; c = val[i, "change", m]
			better = (m == "visits_per_s") ? (c > p) : (c < p)
			if (c == p) ties++; else if (better) wins++
		}
		delete med; delete iqr
		printf "\n%s  (parent/change per pair:%s)\n  %s\n  %s\n  change better in %d of %d pairs (%d ties)\n", m, line, summary("parent", m), summary("change", m), wins, n, ties
		# The parent spread, against which any median difference is read.
		if ("parent" in med && med["parent"] != 0) {
			spread = sprintf("  parent IQR %.2f %% of its median", 100 * iqr["parent"] / med["parent"])
			if ("change" in med) {
				diff = med["change"] - med["parent"]
				spread = spread sprintf("; change median %+.2f %%", 100 * diff / med["parent"])
				if (!verdict && (diff < 0 ? -diff : diff) < iqr["parent"]) spread = spread ": inside parent spread"
			}
			print spread
		}
		if (!verdict) continue
		# The claim rule: the change wins at least 9 pairs in 10 and its
		# median beats the parent median by more than the parent IQR.
		gain = ("change" in med && "parent" in med) ? med["change"] - med["parent"] : 0
		if (m != "visits_per_s") gain = -gain
		met = n > 0 && wins * 10 >= 9 * n && gain > iqr["parent"]
		printf "  verdict: %s (won %d/%d, median gain %.6g vs parent IQR %.6g)\n", met ? "met" : "not met", wins, n, gain, iqr["parent"]
	}
	for (i = 1; i <= pairs; i++) {
		if ((i, "parent", "failed") in val) fp += val[i, "parent", "failed"]
		if ((i, "change", "failed") in val) fc += val[i, "change", "failed"]
	}
	printf "\nfailed operations: parent %d, change %d\n", fp, fc
}' "$root/.bench_build/ab-$rev-$1.tsv"
}

ab "$workload" "$pairs" 1
# The other workloads, from the "workloads" array of the checkout's
# BENCHMARK.json (one key per line).
for w in $(awk '/"workloads"/ { on = 1 } on && /^ *\]/ { on = 0 } on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json"); do
	[ "$w" = "$workload" ] || ab "$w" 3 0
done
