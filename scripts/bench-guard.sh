#!/usr/bin/env bash
# bench-guard.sh — fail when the end-to-end Table I benchmark is slower at
# HEAD than at a reference commit measured on the same machine.
#
# Usage: scripts/bench-guard.sh
#
# Builds the root package's test binary from the reference commit and from
# HEAD (each exported with `git archive`, so uncommitted changes are not
# measured), then runs BenchmarkTableI -benchtime 20x with both binaries in
# five alternating pairs (the side that runs first alternates). It compares
# the fastest run of each side, the least-noise estimator on shared runners,
# and exits non-zero when HEAD's is more than BENCH_TOLERANCE_PCT percent
# (default 10) above the reference's.
#
# The reference is BENCH_GUARD_REF, by default the merge-base of HEAD and
# origin/main; when that is HEAD itself (a push to main) it is HEAD~1. Both
# sides run on this machine, so the guard measures the code, not the host.
# It needs the reference commit in the clone (CI checks out with
# fetch-depth: 0).
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance_pct="${BENCH_TOLERANCE_PCT:-10}"
pairs=5

head_sha=$(git rev-parse HEAD)
ref="${BENCH_GUARD_REF:-$(git merge-base HEAD origin/main)}"
ref_sha=$(git rev-parse --verify "$ref^{commit}")
if [[ -z "${BENCH_GUARD_REF:-}" && "$ref_sha" == "$head_sha" ]]; then
    ref_sha=$(git rev-parse --verify "HEAD~1^{commit}")
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in ref head; do
    sha=$ref_sha
    [[ $side == head ]] && sha=$head_sha
    mkdir -p "$tmp/$side"
    git archive "$sha" | tar -x -C "$tmp/$side"
    (cd "$tmp/$side" && go test -c -o "$tmp/$side.test" .)
done

echo "bench-guard: reference ${ref_sha:0:12}, HEAD ${head_sha:0:12}, ${pairs} pairs, tolerance ${tolerance_pct}%"

# bench SIDE prints the ns/op of one BenchmarkTableI run.
bench() {
    (cd "$tmp/$1" && "$tmp/$1.test" -test.run '^$' -test.bench 'BenchmarkTableI$' -test.benchtime 20x) |
        awk '/^BenchmarkTableI/{print $3}'
}

: >"$tmp/ref.ns"
: >"$tmp/head.ns"
for ((i = 1; i <= pairs; i++)); do
    order="ref head"
    if ((i % 2 == 0)); then order="head ref"; fi
    for side in $order; do
        ns=$(bench "$side")
        if [[ -z "$ns" ]]; then
            echo "bench-guard: $side benchmark produced no BenchmarkTableI line" >&2
            exit 1
        fi
        echo "$ns" >>"$tmp/$side.ns"
    done
    echo "bench-guard: pair $i: ref $(tail -n 1 "$tmp/ref.ns") ns/op, head $(tail -n 1 "$tmp/head.ns") ns/op"
done

ref_ns=$(sort -n "$tmp/ref.ns" | head -n 1)
head_ns=$(sort -n "$tmp/head.ns" | head -n 1)
awk -v head="$head_ns" -v ref="$ref_ns" -v tol="$tolerance_pct" 'BEGIN {
    limit = ref * (1 + tol / 100)
    ratio = head / ref
    if (head > limit) {
        printf "bench-guard: FAIL — HEAD best %.0f ns/op exceeds %.0f ns/op (%.1f%% over the reference best %.0f, tolerance %s%%)\n",
            head, limit, (ratio - 1) * 100, ref, tol
        exit 1
    }
    printf "bench-guard: OK — HEAD best %.0f ns/op is %.2fx of the reference best %.0f (limit %.0f ns/op)\n",
        head, ratio, ref, limit
}'
