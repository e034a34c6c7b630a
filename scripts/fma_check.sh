#!/bin/sh
# fma_check.sh — prove no fused multiply-add is compiled on the decision
# path. The Go spec lets a compiler fuse x*y + z into one instruction that
# rounds once; arm64, ppc64le, s390x, riscv64 and loong64 do, amd64 does
# not, so a fused product makes caps differ in the last bit across CPUs.
# Every product the decision packages add is wrapped in an explicit
# float64(...) conversion, which forbids fusion. This script cross-compiles
# those packages with -gcflags=-S for each fusing architecture (local
# toolchain only) and fails on any floating-point FMA form, listing the
# source line of each fused instruction. Integer MADD/MSUB are not matched.
set -eu
cd "$(dirname "$0")/.."
pkgs="./internal/core ./internal/kalman ./internal/history ./internal/priority
./internal/readjust ./internal/stateless ./internal/signal ./internal/engine"
found=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	# shellcheck disable=SC2086
	hits=$(GOARCH=$arch go build -gcflags=-S $pkgs 2>&1 |
		grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB)[[:space:]]' |
		sed -E "s|.*\\($PWD/([^)]*)\\)[[:space:]]+([A-Z]+).*|\\1 \\2|" | sort) || true
	if [ -n "$hits" ]; then
		found=1
		echo "$hits" | sed "s|^|fma-check: $arch: |" >&2
	fi
done
if [ "$found" -ne 0 ]; then
	echo "fma-check: fused multiply-add on the decision path; wrap each product in float64(...)" >&2
	exit 1
fi
echo "fma-check: no fused multiply-add on arm64, ppc64le, s390x, riscv64 or loong64"
