#!/usr/bin/env bash
# Prints, sorted and one per line, every thermalsched function that the
# arm64 compiler builds with a fused multiply-add instruction (FMADDD,
# FMSUBD, FNMADDD, FNMSUBD). Go may fuse x*y + z on arm64 but never does
# on amd64, so these are the functions whose float results can differ
# between the two. Run from the repository root:
#
#   bash .github/fused-madd.sh | diff .github/fused-madd-arm64.txt -
#
# CI fails on any difference, so a new fused function fails the build and
# a function that stops fusing must leave the checked-in list too:
#
#   bash .github/fused-madd.sh > .github/fused-madd-arm64.txt
set -euo pipefail
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for cmd in thermsched thermschedd tables floorplanner hotspotsim taskgen; do
	GOOS=linux GOARCH=arm64 go build -o "$bin/$cmd" "./cmd/$cmd"
done
for cmd in "$bin"/*; do
	go tool objdump "$cmd"
done | awk '
	/^TEXT / { sym = $2; sub(/\(SB\)$/, "", sym); next }
	/\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)[ \t]/ && sym ~ /^thermalsched\// { print sym }
' | LC_ALL=C sort -u
