#!/usr/bin/env bash
# Numeric contract (a): no fused multiply-add on the model path.
#
#   ./scripts/check_fused.sh
#
# The Go spec lets a compiler fuse x*y + z into one rounding. The amd64
# backend fuses only an explicit math.FMA, but arm64, ppc64le, s390x,
# riscv64 and loong64 fuse wherever they see the shape, so their results
# would differ from every amd64 golden in the last place. An explicit
# float64(...) around the product forbids the fusion and compiles to the
# same amd64 code. This script cross-compiles each listed package for those
# five targets (code inlined from other packages included) and fails on any
# fused instruction, naming the source lines. No emulator is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

packages=(./internal/cache ./internal/chaos ./internal/core ./internal/fleet ./internal/freq ./internal/hist ./internal/linalg ./internal/power ./internal/sim ./internal/threads ./internal/trace ./internal/xrand)
fused='\bF(N)?M(ADD|SUB)[DS]?\b'

status=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
  for pkg in "${packages[@]}"; do
    if ! asm=$(GOARCH=$arch go build -gcflags=-S "$pkg" 2>&1); then
      printf '%s\n' "$asm" >&2
      echo "check_fused: $pkg does not build for $arch" >&2
      exit 1
    fi
    n=$(grep -cE "$fused" <<<"$asm" || true)
    if [ "$n" -ne 0 ]; then
      echo "check_fused: $pkg on $arch: $n fused instruction(s) at" >&2
      grep -E "$fused" <<<"$asm" | grep -oE '\([^)]*\.go:[0-9]+\)' | sort | uniq -c >&2
      status=1
    fi
  done
done
if [ "$status" -eq 0 ]; then
  echo "check_fused: ${packages[*]}: no fused instructions on arm64 ppc64le s390x riscv64 loong64"
fi
exit "$status"
