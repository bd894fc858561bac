#!/usr/bin/env bash
# Statement coverage of the root module, merged across test binaries:
#
#   scripts/cover.sh            (or: make cover)
#
# Runs `go test -coverpkg=./... -coverprofile` into a temporary file.
# Every test binary reports every block of the module, so a block shows
# up once per binary; it counts as covered when any binary ran it.
# Prints the module's statements, unrun statements and percentage, then
# the 10 files with the most unrun statements. A failing test fails the
# script before anything is printed.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
prof=$(mktemp)
trap 'rm -f "$prof"' EXIT
(cd "$root" && go test -timeout 10m -coverpkg=./... -coverprofile="$prof" ./... >/dev/null)
module=$(cd "$root" && go list -m)
awk -v module="$module/" '
	NR == 1 { next } # mode: line
	{
		stmts[$1] = $2
		if ($3 > 0) ran[$1] = 1
	}
	END {
		for (b in stmts) {
			f = substr(b, 1, index(b, ":") - 1)
			sub("^" module, "", f)
			total += stmts[b]
			if (!(b in ran)) { unrun += stmts[b]; miss[f] += stmts[b] }
		}
		printf "%d statements, %d unrun (%.1f%% covered)\n", total, unrun, 100 * (total - unrun) / total
		for (f in miss) print miss[f], f | "sort -k1,1nr -k2 | head -10"
	}
' "$prof"
