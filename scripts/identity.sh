#!/usr/bin/env bash
# identity.sh PARENT: build cmd/reproduce and cmd/trace at the git
# revision PARENT (from a temporary `git archive` export) and from the
# working tree, run both sides of every case below in its own temporary
# directory, and compare stdout, exit status and every BENCH_*.json
# written. The reproduce cases are each quick-mode report flag; the
# trace cases print every model event with its virtual timestamp, the
# strictest check that a timing constant kept its value. Prints the head
# of the diff of every differing stdout and BENCH file, and exits
# non-zero on any difference. Run from the repository root: make identity
# PARENT=<rev>.
set -euo pipefail

parent=${1:?usage: identity.sh PARENT}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent-src"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent-src"
for cmd in reproduce trace; do
	(cd "$tmp/parent-src" && go build -o "$tmp/$cmd.parent" ./cmd/$cmd)
	(cd "$root" && go build -o "$tmp/$cmd.change" ./cmd/$cmd)
done

# Each case is the command followed by its arguments.
runs=(
	"reproduce -fig all -quick"
	"reproduce -ablations -quick"
	"reproduce -metrics -quick"
	"reproduce -audit -quick"
	"reproduce -corescale -quick"
	"reproduce -connscale -quick"
	"reproduce -chaos all -quick"
	"trace -scenario pingpong -transport substrate"
	"trace -scenario pingpong -transport tcp"
	"trace -scenario connect-race"
	"trace -scenario lossy"
	"trace -scenario chaos"
	"trace -scenario drain"
)
fail=0
for i in "${!runs[@]}"; do
	read -r cmd args <<<"${runs[$i]}"
	for side in parent change; do
		dir="$tmp/run$i.$side"
		mkdir -p "$dir"
		status=0
		# shellcheck disable=SC2086 # args holds flags and their values
		(cd "$dir" && "$tmp/$cmd.$side" $args >stdout 2>stderr) || status=$?
		echo "$status" >"$dir/status"
	done
	a="$tmp/run$i.parent" b="$tmp/run$i.change"
	same=1
	bench=$(cd "$tmp" && ls "run$i.parent" "run$i.change" | grep '^BENCH_.*\.json$' | sort -u || true)
	for f in stdout status $bench; do
		cmp -s "$a/$f" "$b/$f" && continue
		echo "identity: $cmd $args: $f differs"
		same=0
		# The head of the diff shows whether a difference only adds rows.
		[ "$f" = status ] || diff "$a/$f" "$b/$f" | head -20 || true
	done
	if [ "$same" = 1 ]; then
		echo "identity: $cmd $args: identical"
	else
		fail=1
	fi
done
exit $fail
