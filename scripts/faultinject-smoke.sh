#!/usr/bin/env bash
# faultinject-smoke.sh: CI smoke test of the crash-consistency contract.
#
# 1. Statically certifies every shipped WN program with the crash analysis
#    (-crash) — any WN10x error fails the build. The seeded-hazard programs
#    under internal/wncheck/testdata and internal/faultinject/testdata are
#    excluded: their violations are the test corpus.
# 2. Confirms the seeded-hazard corpus still IS flagged and that the
#    injector witnesses each flag dynamically (-faults).
# 3. Runs stride-sampled power-failure injection over two Table I kernels
#    under both the Clank and NVP runtimes; wnbench exits non-zero on any
#    divergence from the uninterrupted golden run.
# 4. Runs the forward-progress study: every kernel's certified per-region
#    WCEC must cover the measured worst inter-commit gap (the study exits
#    non-zero on any dynamic gap above its static bound).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "faultinject-smoke: certifying shipped programs (-crash -wcec)"
# shellcheck disable=SC2046
go run ./cmd/wnlint -crash -wcec $(git ls-files '*.s' ':!internal/wncheck/testdata/' ':!internal/faultinject/testdata/')

echo "faultinject-smoke: seeded hazards must be flagged AND witnessed"
# repeated_input.s needs its input location declared: WN105 checks the
# program against a world model, and without -input the rule is vacuous
# (the single-world injector cannot see the hazard either — only the
# multi-world CrossValidate oracle in the Go tests witnesses it).
for f in internal/faultinject/testdata/*.s; do
    flags=(-crash -faults 24)
    case "$f" in
        */repeated_input.s) flags=(-crash -input 0x10000000:0x10000004) ;;
        # livelock.s never halts, so injection's golden run only stops at
        # its 2^32-cycle guard, with an error, after tens of seconds; its
        # flag is WN201 (-wcec) and its dynamic witnesses are the
        # cycle-budget tests in internal/faultinject.
        */livelock.s) flags=(-wcec) ;;
    esac
    if go run ./cmd/wnlint "${flags[@]}" "$f" >/dev/null 2>&1; then
        echo "faultinject-smoke: $f was expected to fail the crash checks"
        exit 1
    fi
done

echo "faultinject-smoke: certificates must round-trip byte-stably"
go run ./cmd/wnlint -crash -wcec -cert internal/asm/testdata/dotprod.s > /tmp/wn-cert-a.json 2>/dev/null
go run ./cmd/wnlint -crash -wcec -cert internal/asm/testdata/dotprod.s > /tmp/wn-cert-b.json 2>/dev/null
cmp /tmp/wn-cert-a.json /tmp/wn-cert-b.json

echo "faultinject-smoke: strided injection over Conv2d + Home (clank, nvp)"
go run ./cmd/wnbench -exp faults -faultbench Conv2d,Home -faultpoints 8

echo "faultinject-smoke: static region bounds must cover measured commit gaps"
go run ./cmd/wnbench -exp progress

echo "faultinject-smoke: OK"
