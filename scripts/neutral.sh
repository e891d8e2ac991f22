#!/usr/bin/env bash
# Usage: scripts/neutral.sh BASE   (or: make neutral BASE=<rev>)
#
# Fails unless the working tree's dapes-sim, dapes-plan and dapes-bench
# print, byte for byte, what revision BASE's print: the scenario list, every
# listed scenario, the run without -scenario, the DAPES stack with every
# design flag off its default, and fig7-dapes under the [faults] example of
# docs/EXPERIMENTS.md as a -faults file, each at -seed 1 -files 2
# -packets 5 -trials 3 -format json; dapes-plan run plans/ci-smoke.toml and
# a one-cell fig8a-carrier plan written here (its labels are the world's own
# range and loss); and dapes-bench -scale quick -only tableI -format json.
# This is the check a change that claims to be trace- and output-neutral is
# held to.
# BASE is unpacked with `git archive` and both sides are built in a
# temporary directory under $TMPDIR, removed on exit. The whole run takes a
# few minutes, most of it urban-grid-chaos.
set -euo pipefail

base=${1:?usage: scripts/neutral.sh BASE}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/bin/base" "$tmp/bin/head" "$tmp/out/base" "$tmp/out/head"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/bin/base/" ./cmd/dapes-sim ./cmd/dapes-plan ./cmd/dapes-bench)
(cd "$root" && go build -o "$tmp/bin/head/" ./cmd/dapes-sim ./cmd/dapes-plan ./cmd/dapes-bench)
# The documented [faults] example, from its header to the end of its block.
sed -n '/^\[faults\]$/,/^```$/p' "$root/docs/EXPERIMENTS.md" | sed '$d' >"$tmp/faults.toml"
test -s "$tmp/faults.toml" || { echo "neutral: no [faults] example in docs/EXPERIMENTS.md"; exit 1; }
printf 'name = "fig8-labels"\nscenario = "fig8a-carrier"\n\n[scale]\nfiles = 2\npackets = 5\n' >"$tmp/fig8.toml"

failed=0
# check NAME TOOL ARGS...: run TOOL with ARGS on both sides, side by side,
# and compare the outputs; a run that exits non-zero is a failure too.
check() {
	local name=$1 tool=$2
	shift 2
	"$tmp/bin/base/$tool" "$@" >"$tmp/out/base/$name" 2>&1 &
	local pb=$!
	"$tmp/bin/head/$tool" "$@" >"$tmp/out/head/$name" 2>&1 &
	local ph=$! rb=0 rh=0
	wait "$pb" || rb=$?
	wait "$ph" || rh=$?
	if ((rb || rh)); then
		echo "FAIL $name: $tool exited $rb at $base and $rh in the working tree"
		failed=1
		return
	fi
	if cmp -s "$tmp/out/base/$name" "$tmp/out/head/$name"; then
		echo "ok   $name"
	else
		echo "FAIL $name: output differs from $base"
		diff "$tmp/out/base/$name" "$tmp/out/head/$name" | head -20 || true
		failed=1
	fi
}

run=(-seed 1 -files 2 -packets 5 -trials 3 -format json)
check list dapes-sim -list -format json
for sc in $("$tmp/bin/head/dapes-sim" -list -format csv | tail -n +3 | cut -d, -f1); do
	check "$sc" dapes-sim -scenario "$sc" "${run[@]}"
done
check adhoc-dapes dapes-sim "${run[@]}"
check design-flags dapes-sim -peba=false -multihop=false -interleave=false -bitmaps 2 -strategy encounter \
	-random-start=false -forward-prob 0.5 "${run[@]}"
check faults dapes-sim -scenario fig7-dapes -faults "$tmp/faults.toml" "${run[@]}"
# Both sides read the working tree's plan file.
check ci-smoke dapes-plan run "$root/plans/ci-smoke.toml"
check fig8-plan dapes-plan run "$tmp/fig8.toml"
check tableI dapes-bench -scale quick -only tableI -format json

if ((failed)); then
	echo "neutral: the working tree's output differs from $base"
	exit 1
fi
echo "neutral: the working tree prints what $base prints"
