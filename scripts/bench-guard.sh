#!/usr/bin/env bash
# bench-guard.sh — fail when a guarded benchmark is slower, or allocates
# more, at HEAD than at a reference commit measured on the same machine.
#
# Usage: scripts/bench-guard.sh
#
# Guarded benchmarks (the `guarded` list below): the end-to-end Table I
# benchmark in the root package, and the strided and exhaustive lockstep
# campaigns in internal/faultinject. For each package the script builds the
# test binary from the reference commit and from HEAD (each exported with
# `git archive`, so uncommitted changes are not measured). Each benchmark
# then runs with both binaries, with -test.benchmem, in five alternating
# pairs (the side that runs first alternates). Two rules apply to every
# guarded benchmark, and the script exits non-zero when either fails:
#
#   time         HEAD's fastest run is more than BENCH_TOLERANCE_PCT percent
#                (default 10) above the reference's fastest run (the
#                least-noise estimator on shared runners);
#   allocations  HEAD's smallest B/op or allocs/op is more than 2 percent
#                above the reference's smallest. Allocation counts do not
#                drift with host load, so the slack is small and fixed.
#
# The reference is BENCH_GUARD_REF, by default the merge-base of HEAD and
# origin/main; when that is HEAD itself (a push to main) it is HEAD~1. Both
# sides run on this machine, so the guard measures the code, not the host.
# It needs the reference commit in the clone (CI checks out with
# fetch-depth: 0).
set -euo pipefail
cd "$(dirname "$0")/.."

# package, benchmark, -benchtime: one guarded benchmark per line.
guarded=(
    ". BenchmarkTableI 20x"
    "./internal/faultinject BenchmarkStridedCampaign 20x"
    "./internal/faultinject BenchmarkExhaustiveLockstep 100x"
)

tolerance_pct="${BENCH_TOLERANCE_PCT:-10}"
alloc_tolerance_pct=2
pairs=5

head_sha=$(git rev-parse HEAD)
ref="${BENCH_GUARD_REF:-$(git merge-base HEAD origin/main)}"
ref_sha=$(git rev-parse --verify "$ref^{commit}")
if [[ -z "${BENCH_GUARD_REF:-}" && "$ref_sha" == "$head_sha" ]]; then
    ref_sha=$(git rev-parse --verify "HEAD~1^{commit}")
fi

# binary PKG names the test binary built for a package (per side).
binary() { echo "${1//[.\/]/_}.test"; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
pkgs=$(for g in "${guarded[@]}"; do echo "${g%% *}"; done | sort -u)
for side in ref head; do
    sha=$ref_sha
    [[ $side == head ]] && sha=$head_sha
    mkdir -p "$tmp/$side"
    git archive "$sha" | tar -x -C "$tmp/$side"
    for pkg in $pkgs; do
        (cd "$tmp/$side" && go test -c -o "$tmp/$side-$(binary "$pkg")" "$pkg")
    done
done

echo "bench-guard: reference ${ref_sha:0:12}, HEAD ${head_sha:0:12}, ${pairs} pairs, time tolerance ${tolerance_pct}%, allocation tolerance ${alloc_tolerance_pct}%"

# bench SIDE PKG NAME BENCHTIME prints "ns/op B/op allocs/op" of one
# benchmark run, executed in the package directory so it finds its
# testdata.
bench() {
    (cd "$tmp/$1/$2" && "$tmp/$1-$(binary "$2")" -test.run '^$' -test.bench "^$3\$" -test.benchtime "$4" -test.benchmem) |
        awk -v name="$3" '$1 ~ "^" name "(-[0-9]+)?$" {
            for (i = 3; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i - 1)
                if ($i == "B/op") bytes = $(i - 1)
                if ($i == "allocs/op") allocs = $(i - 1)
            }
            if (ns != "" && bytes != "" && allocs != "") print ns, bytes, allocs
        }'
}

# smallest FILE COLUMN prints the smallest value in a column of FILE.
smallest() { awk -v c="$2" '{print $c}' "$1" | sort -g | head -n 1; }

failed=0
for g in "${guarded[@]}"; do
    read -r pkg name benchtime <<<"$g"
    : >"$tmp/ref.runs"
    : >"$tmp/head.runs"
    for ((i = 1; i <= pairs; i++)); do
        order="ref head"
        if ((i % 2 == 0)); then order="head ref"; fi
        for side in $order; do
            run=$(bench "$side" "$pkg" "$name" "$benchtime")
            if [[ -z "$run" ]]; then
                echo "bench-guard: $side benchmark produced no $name line" >&2
                exit 1
            fi
            echo "$run" >>"$tmp/$side.runs"
        done
        echo "bench-guard: $name pair $i: ref $(tail -n 1 "$tmp/ref.runs" | awk '{printf "%s ns/op %s B/op %s allocs/op", $1, $2, $3}'), head $(tail -n 1 "$tmp/head.runs" | awk '{printf "%s ns/op %s B/op %s allocs/op", $1, $2, $3}')"
    done

    ref_ns=$(smallest "$tmp/ref.runs" 1)
    head_ns=$(smallest "$tmp/head.runs" 1)
    awk -v name="$name" -v head="$head_ns" -v ref="$ref_ns" -v tol="$tolerance_pct" 'BEGIN {
        limit = ref * (1 + tol / 100)
        ratio = head / ref
        if (head > limit) {
            printf "bench-guard: FAIL — %s: HEAD best %.0f ns/op exceeds %.0f ns/op (%.1f%% over the reference best %.0f, tolerance %s%%)\n",
                name, head, limit, (ratio - 1) * 100, ref, tol
            exit 1
        }
        printf "bench-guard: OK — %s: HEAD best %.0f ns/op is %.2fx of the reference best %.0f (limit %.0f ns/op)\n",
            name, head, ratio, ref, limit
    }' || failed=1
    for col in "2 B/op" "3 allocs/op"; do
        read -r c unit <<<"$col"
        awk -v name="$name" -v unit="$unit" -v head="$(smallest "$tmp/head.runs" "$c")" -v ref="$(smallest "$tmp/ref.runs" "$c")" -v tol="$alloc_tolerance_pct" 'BEGIN {
            limit = ref * (1 + tol / 100)
            if (head > limit) {
                printf "bench-guard: FAIL — %s: HEAD %.0f %s exceeds %.0f %s (the reference smallest %.0f plus %s%%)\n",
                    name, head, unit, limit, unit, ref, tol
                exit 1
            }
            printf "bench-guard: OK — %s: HEAD %.0f %s, reference %.0f %s (limit %.0f)\n", name, head, unit, ref, unit, limit
        }' || failed=1
    done
done
exit "$failed"
