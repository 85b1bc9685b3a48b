#!/usr/bin/env bash
# identity.sh PARENT: build cmd/reproduce at the git revision PARENT (from
# a temporary `git archive` export) and from the working tree, run both with each
# quick-mode report flag in its own temporary directory, and compare
# stdout, exit status and every BENCH_*.json written. Exits non-zero on
# any difference. Run from the repository root: make identity PARENT=<rev>.
set -euo pipefail

parent=${1:?usage: identity.sh PARENT}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent-src"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent-src"
(cd "$tmp/parent-src" && go build -o "$tmp/reproduce.parent" ./cmd/reproduce)
(cd "$root" && go build -o "$tmp/reproduce.change" ./cmd/reproduce)

runs=("-fig all" "-ablations" "-metrics" "-audit" "-corescale" "-chaos all")
fail=0
for i in "${!runs[@]}"; do
	args=${runs[$i]}
	for side in parent change; do
		dir="$tmp/run$i.$side"
		mkdir -p "$dir"
		status=0
		# shellcheck disable=SC2086 # args holds a flag and its value
		(cd "$dir" && "$tmp/reproduce.$side" $args -quick >stdout 2>stderr) || status=$?
		echo "$status" >"$dir/status"
	done
	a="$tmp/run$i.parent" b="$tmp/run$i.change"
	same=1
	for f in stdout status; do
		cmp -s "$a/$f" "$b/$f" || { echo "identity: $args -quick: $f differs"; same=0; }
	done
	for f in $(cd "$tmp" && ls "run$i.parent" "run$i.change" | grep '^BENCH_.*\.json$' | sort -u); do
		cmp -s "$a/$f" "$b/$f" || { echo "identity: $args -quick: $f differs"; same=0; }
	done
	if [ "$same" = 1 ]; then
		echo "identity: $args -quick: identical"
	else
		diff "$a/stdout" "$b/stdout" | head -20 || true
		fail=1
	fi
done
exit $fail
