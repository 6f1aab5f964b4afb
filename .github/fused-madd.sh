#!/usr/bin/env bash
# Prints, sorted and one per line, every thermalsched function that the
# compiler for GOARCH (the first argument, default arm64) builds with a
# fused multiply-add instruction. Go may fuse x*y + z on arm64, riscv64,
# ppc64le and s390x but never does on amd64, so these are the functions
# whose float results can differ between amd64 and that architecture.
# objdump prints Go's mnemonics on the first three and the GNU ones
# (MADBR for FMADD) on s390x. Run from the repository root:
#
#   bash .github/fused-madd.sh arm64 | diff .github/fused-madd-arm64.txt -
#
# CI fails on any difference, so a new fused function fails the build and
# a function that stops fusing must leave the checked-in list too:
#
#   bash .github/fused-madd.sh arm64 > .github/fused-madd-arm64.txt
set -euo pipefail
arch=${1:-arm64}
case $arch in
arm64 | riscv64) ops='FMADDD|FMSUBD|FNMADDD|FNMSUBD' ;;
ppc64le) ops='FMADD|FMSUB|FNMADD|FNMSUB' ;;
s390x) ops='MADBR?|MSDBR?|WFN?MADB|WFN?MSDB' ;;
*)
	echo "fused-madd.sh: no fused mnemonics known for GOARCH=$arch (want arm64, riscv64, ppc64le or s390x)" >&2
	exit 2
	;;
esac
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for cmd in thermsched thermschedd tables floorplanner hotspotsim taskgen; do
	GOOS=linux GOARCH=$arch go build -o "$bin/$cmd" "./cmd/$cmd"
done
for cmd in "$bin"/*; do
	go tool objdump "$cmd"
done | awk -v ops="^($ops)\$" '
	/^TEXT / { sym = $2; sub(/\(SB\)$/, "", sym); next }
	sym ~ /^thermalsched\// { for (i = 1; i <= NF; i++) if ($i ~ ops) { print sym; break } }
' | LC_ALL=C sort -u
