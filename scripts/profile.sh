#!/usr/bin/env bash
# Before/after CPU profile of this checkout against a parent revision —
# ROADMAP's CPU-claim ground rule as one command:
#
#   scripts/profile.sh PARENT_REV [edgeswitch args…]     (or: make profile PARENT=…)
#
# The parent is exported with `git archive` into .bench_build/ab-<rev>/
# (the tree scripts/ab.sh uses; every other export under .bench_build/ is
# removed at start), an `edgeswitch` binary is built from each
# side, and each runs seeds 1–5 with -cpuprofile, alternating who goes
# first. Prints each side's merged `go tool pprof -top` top-15 list, whose
# header carries the total sample seconds. The default args are the es-pa
# benchmark shape. With -coordinator every rank writes its own file; all
# of them are merged.
set -euo pipefail
parent=${1:?usage: scripts/profile.sh PARENT_REV [edgeswitch args…]}
shift
args=("$@")
if ((${#args[@]} == 0)); then
	args=(-gen pa -n 50000 -d 10 -p 2 -x 0.9 -scheme HP-D -steps 10 -q)
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$parent^{commit}")
pdir="$root/.bench_build/ab-$rev"
if [ ! -d "$pdir" ]; then
	mkdir -p "$pdir"
	git -C "$root" archive "$rev" | tar -x -C "$pdir"
fi
out="$root/.bench_build/profile-$rev"
# Each export carries its own build cache (~60 MB): keep only the parent
# export this invocation uses.
for d in "$root"/.bench_build/ab-* "$root"/.bench_build/profile-*; do
	[ "$d" = "$pdir" ] || rm -rf "$d"
done
mkdir -p "$out"
(cd "$pdir" && go build -o "$out/parent" ./cmd/edgeswitch)
(cd "$root" && go build -o "$out/change" ./cmd/edgeswitch)

# one SIDE SEED: run that side's binary once under the profiler.
one() {
	"$out/$1" "${args[@]}" -seed "$2" -cpuprofile "$out/$1.seed$2.prof" >/dev/null
}

for seed in 1 2 3 4 5; do
	if ((seed % 2)); then
		one parent "$seed"
		one change "$seed"
	else
		one change "$seed"
		one parent "$seed"
	fi
done

for side in parent change; do
	printf '\n== %s (%s), seeds 1-5: %s\n' "$side" "$([ "$side" = parent ] && echo "$rev" || echo working tree)" "${args[*]}"
	go tool pprof -top -nodecount=15 "$out/$side" "$out/$side".seed*.prof* 2>/dev/null
done
