#!/usr/bin/env bash
# nn-smoke.sh: CI smoke test of the NN inference subsystem.
#
# 1. Emits a reduced NN conv kernel — plain and with the progress-embedding
#    lowering — and statically certifies both images with the crash analysis.
#    The embedded image's certificate must round-trip byte-stably.
# 2. Runs a strided power-failure injection campaign over the emitted NN
#    images through wnlint's injector.
# 3. Runs the accuracy-vs-energy study on 1 worker and on 8 workers; the
#    two outputs must be byte-identical (the sweep determinism contract).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/wnsim" ./cmd/wnsim
go build -o "$workdir/wnlint" ./cmd/wnlint
go build -o "$workdir/wnbench" ./cmd/wnbench

echo "nn-smoke: emitting reduced NN conv images (plain precise, embedded swp p1)"
"$workdir/wnsim" -bench NNConv -mode precise -dump-asm >"$workdir/nnconv_plain.s"
"$workdir/wnsim" -bench NNConv -mode wn -bits 4 -embed -passes 1 -dump-asm >"$workdir/nnconv_embed.s"

echo "nn-smoke: certifying both images (-crash), embedded cert must round-trip"
"$workdir/wnlint" -crash "$workdir/nnconv_plain.s"
"$workdir/wnlint" -crash "$workdir/nnconv_embed.s"
"$workdir/wnlint" -crash -cert "$workdir/nnconv_embed.s" >"$workdir/cert-a.json"
"$workdir/wnlint" -crash -cert "$workdir/nnconv_embed.s" >"$workdir/cert-b.json"
cmp "$workdir/cert-a.json" "$workdir/cert-b.json"

echo "nn-smoke: strided fault injection over the emitted NN images"
"$workdir/wnlint" -crash -faults 16 "$workdir/nnconv_plain.s"
"$workdir/wnlint" -crash -faults 16 "$workdir/nnconv_embed.s"

echo "nn-smoke: accuracy-vs-energy study, 1 vs 8 workers must match"
"$workdir/wnbench" -exp nn -parallel 1 >"$workdir/nn-serial.txt"
"$workdir/wnbench" -exp nn -parallel 8 >"$workdir/nn-parallel.txt"
if ! diff -u "$workdir/nn-serial.txt" "$workdir/nn-parallel.txt"; then
    echo "nn-smoke: 1-worker and 8-worker study outputs differ"
    exit 1
fi

echo "nn-smoke: OK"
